package audit

// JobCounters is the job-admission accounting the stashd v2 job API
// reports. The counters extend the scenario scheduler's conservation
// family one layer up: every job the admission layer accepts is, at
// any consistent snapshot, in exactly one of five places — still
// queued, running, or terminally done/failed/cancelled — so
//
//	Accepted == Queued + Running + Done + Failed + Cancelled
//
// holds exactly, not just at quiescence: the job store performs state
// transitions and snapshots under one lock. Rejected counts jobs the
// admission layer bounced (quota, store full, draining) — they were
// never accepted, so they stay outside the balance, mirroring how the
// scenario scheduler keeps fit-check rejections out of Requests.
type JobCounters struct {
	// Accepted counts jobs admitted past quota and capacity checks.
	Accepted int64

	// Rejected counts submissions bounced at admission (never queued).
	Rejected int64

	// Done, Failed and Cancelled count terminal outcomes. Store
	// eviction frees a terminal job's result but never decrements these.
	Done, Failed, Cancelled int64

	// Queued and Running are live gauges of non-terminal jobs.
	Queued, Running int64

	// Cells counts scenario cells completed by jobs; it
	// is informational (progress accounting) and not part of the
	// balance.
	Cells int64
}

// Balance is Accepted minus the sum of the five states. Zero at every
// consistent snapshot; anything else means a job leaked out of (or was
// double-counted into) the lifecycle.
func (c JobCounters) Balance() int64 {
	return c.Accepted - (c.Queued + c.Running + c.Done + c.Failed + c.Cancelled)
}

// CheckJobCounters audits the job accounting: all counters
// non-negative and the lifecycle balance exactly zero. stashd's deep
// health probe applies it to its job store on every call.
func CheckJobCounters(c JobCounters) *Result {
	res := &Result{}
	res.check(FamilyConservation, "job-counters-nonnegative",
		c.Accepted >= 0 && c.Rejected >= 0 && c.Done >= 0 && c.Failed >= 0 &&
			c.Cancelled >= 0 && c.Queued >= 0 && c.Running >= 0 && c.Cells >= 0,
		"negative job counter: %+v", c)
	res.check(FamilyConservation, "job-balance",
		c.Balance() == 0,
		"jobs leak: %+v (balance %d)", c, c.Balance())
	return res
}

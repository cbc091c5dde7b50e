package audit

import (
	"strings"
	"testing"
)

func TestCheckJobCountersClean(t *testing.T) {
	c := JobCounters{
		Accepted: 10, Rejected: 3,
		Done: 5, Failed: 1, Cancelled: 2,
		Queued: 1, Running: 1,
		Cells: 40,
	}
	if c.Balance() != 0 {
		t.Fatalf("balance = %d, want 0", c.Balance())
	}
	res := CheckJobCounters(c)
	if !res.Ok() {
		t.Errorf("clean counters flagged: %v", res.Strings())
	}
	if res.Checks != 2 {
		t.Errorf("checks = %d, want 2", res.Checks)
	}
}

func TestCheckJobCountersLeak(t *testing.T) {
	c := JobCounters{Accepted: 5, Done: 3} // 2 jobs vanished
	if c.Balance() != 2 {
		t.Fatalf("balance = %d, want 2", c.Balance())
	}
	res := CheckJobCounters(c)
	if res.Ok() {
		t.Fatal("leaking counters passed the audit")
	}
	found := false
	for _, v := range res.Violations {
		if v.Check == "job-balance" && strings.Contains(v.Detail, "balance 2") {
			found = true
		}
		if v.Family != FamilyConservation {
			t.Errorf("violation family = %q, want %q", v.Family, FamilyConservation)
		}
	}
	if !found {
		t.Errorf("no job-balance violation naming the balance: %v", res.Strings())
	}
}

func TestCheckJobCountersNegative(t *testing.T) {
	res := CheckJobCounters(JobCounters{Accepted: 1, Queued: 2, Running: -1})
	if res.Ok() {
		t.Fatal("negative gauge passed the audit")
	}
	names := make(map[string]bool)
	for _, v := range res.Violations {
		names[v.Check] = true
	}
	if !names["job-counters-nonnegative"] {
		t.Errorf("missing nonnegative violation: %v", res.Strings())
	}
}

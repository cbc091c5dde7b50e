package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"stash/internal/sim"
)

// transferring returns the flows transferring now: the flow set and the
// members of fast-forwarded groups that have not finished their round, at
// the rates of the template step they are in.
func transferring(n *Network) []*Flow {
	flows := append([]*Flow(nil), n.flows...)
	for _, g := range n.forwarding {
		_, step := g.position(n.eng.Now())
		for i, s := range g.state(step) {
			if !s.left {
				flows = append(flows, &Flow{route: g.members[i].route, rate: s.rate})
			}
		}
	}
	return flows
}

// checkMaxMin reports whether the standing rates are a max-min fair
// allocation of the flows transferring now: no link carries more than its
// capacity, and every flow crosses a saturated link on which no flow has
// a higher rate.
func checkMaxMin(n *Network) error {
	const tol = 1e-9
	load := make(map[*Link]float64)
	top := make(map[*Link]float64)
	flows := transferring(n)
	for _, f := range flows {
		for _, l := range f.route {
			load[l] += f.rate
			top[l] = math.Max(top[l], f.rate)
		}
	}
	for _, l := range n.links {
		if load[l] > l.capacity*(1+tol) {
			return fmt.Errorf("link %s carries %v > capacity %v", l.name, load[l], l.capacity)
		}
	}
	for i, f := range flows {
		bottlenecked := false
		for _, l := range f.route {
			if load[l] >= l.capacity*(1-tol) && f.rate >= top[l]*(1-tol) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			return fmt.Errorf("flow %d at rate %v has no saturated link on which it is the fastest", i, f.rate)
		}
	}
	return nil
}

// watchSolutions checks checkMaxMin after every solve and completion
// event on n — every solve, and every completion that kept the standing
// rates or solved — and returns a pointer to the number of checks made.
// A completion that leaves a solve pending at its instant is checked
// after that solve: a flow activated there has no rate before it.
func watchSolutions(t *testing.T, n *Network) *int {
	t.Helper()
	checks := new(int)
	check := func() {
		*checks++
		if err := checkMaxMin(n); err != nil {
			t.Errorf("at %v: %v", n.eng.Now(), err)
		}
	}
	solve, complete := n.solveFn, n.completionFn
	n.solveFn = func() { solve(); check() }
	n.completionFn = func() {
		complete()
		if !n.dirty {
			check()
		}
	}
	return checks
}

// ringSpec is one ring of a generated scenario.
type ringSpec struct {
	routes [][]*Link
	bytes  float64
	rounds int
	start  time.Duration
}

// flowSpec is one background flow of a generated scenario.
type flowSpec struct {
	route []*Link
	bytes float64
	start time.Duration
}

// randomScenario builds links on n and draws rings and background flows
// over them. The same seed draws the same scenario on any network. One
// scenario in four keeps only its first ring, alone on the network, so
// its rounds repeat and it runs them fast-forwarded. Of the rest, one in
// two adds a flow on a ring member's route while the ring may still run,
// so a ring fast-forwarded on its private links is joined and brought
// back.
func randomScenario(seed int64, n *Network) ([]ringSpec, []flowSpec) {
	rng := rand.New(rand.NewSource(seed))
	links := make([]*Link, 3+rng.Intn(10))
	for i := range links {
		var lat time.Duration
		if rng.Intn(2) == 0 {
			lat = time.Duration(rng.Intn(20000))
		}
		links[i] = n.NewLink(fmt.Sprintf("l%d", i), gb*(0.5+4*rng.Float64()), lat)
	}
	route := func() []*Link {
		perm := rng.Perm(len(links))
		r := make([]*Link, 1+rng.Intn(3))
		for i := range r {
			r[i] = links[perm[i]]
		}
		return r
	}
	rings := make([]ringSpec, 1+rng.Intn(3))
	for i := range rings {
		p := 2 + rng.Intn(7)
		rs := ringSpec{
			routes: make([][]*Link, p),
			bytes:  1e5 + 1e7*rng.Float64(),
			rounds: 2 * (p - 1),
			start:  time.Duration(rng.Intn(2e6)),
		}
		// One ring in three has a private, equal link per member, so
		// every round ends in one event: the path that keeps the rates.
		private := rng.Intn(3) == 0
		for m := range rs.routes {
			if private {
				rs.routes[m] = []*Link{n.NewLink(fmt.Sprintf("r%dm%d", i, m), 2*gb, 0)}
			} else {
				rs.routes[m] = route()
			}
		}
		rings[i] = rs
	}
	flows := make([]flowSpec, rng.Intn(10))
	for i := range flows {
		flows[i] = flowSpec{route: route(), bytes: 1e4 + 3e7*rng.Float64(), start: time.Duration(rng.Intn(2e7))}
	}
	if rng.Intn(4) == 0 {
		return rings[:1], nil
	}
	if rng.Intn(2) == 0 {
		rs := rings[rng.Intn(len(rings))]
		// The ring's length alone on its private links.
		span := float64(rs.rounds) * rs.bytes / (2 * gb) * float64(time.Second)
		flows = append(flows, flowSpec{
			route: rs.routes[rng.Intn(len(rs.routes))],
			bytes: 1e4 + 3e7*rng.Float64(),
			start: rs.start + time.Duration(span*rng.Float64()),
		})
	}
	return rings, flows
}

// startStepRing runs a ring the per-flow way: each round is one
// StartFlow per member (zero latency after the first round), awaited in
// member order before the next round launches. It records the finish
// instant in *done.
func startStepRing(n *Network, rs ringSpec, done *time.Duration) {
	step, idx := 0, 0
	flows := make([]*Flow, len(rs.routes))
	var launch, await func()
	launch = func() {
		for i, r := range rs.routes {
			if step == 0 {
				flows[i] = n.StartFlow(rs.bytes, r)
			} else {
				flows[i] = n.StartFlowLatency(rs.bytes, r, 0)
			}
		}
		idx = 0
		await()
	}
	await = func() {
		for ; idx < len(flows); idx++ {
			if sig := flows[idx].Done(); !sig.Fired() {
				sig.OnFire(await)
				return
			}
		}
		step++
		if step < rs.rounds {
			launch()
			return
		}
		*done = n.eng.Now()
	}
	launch()
}

// scenarioResult is everything observable about one run of a scenario.
type scenarioResult struct {
	rings  []time.Duration
	flows  []time.Duration
	counts []int
	bytes  []float64
	checks int

	filled, kept, forwarded uint64
	// Groups brought back from forwarding by a joining flow, and
	// fast-forwards whose template round took more than one step (its
	// members finished apart).
	materialized, piecemeal int
	// Fast-forwards beside other flows in the members' components, and
	// groups brought back because one of those flows fell due, of them
	// exactly at a round boundary.
	beside, due, dueBoundary int
}

func runScenario(t *testing.T, seed int64, grouped bool) scenarioResult {
	t.Helper()
	n := New(sim.NewEngine())
	rings, flows := randomScenario(seed, n)
	return runSpecs(t, n, rings, flows, grouped)
}

// runSpecs runs rings and flows on n, each ring as a flow group when
// grouped and per step otherwise, checking every solve.
func runSpecs(t *testing.T, n *Network, rings []ringSpec, flows []flowSpec, grouped bool) scenarioResult {
	t.Helper()
	e := n.eng
	checks := watchSolutions(t, n)
	var res scenarioResult
	complete := n.completionFn
	type forward struct {
		g     *FlowGroup
		since time.Duration
	}
	forwards := make(map[forward]bool)
	n.completionFn = func() {
		now := e.Now()
		for _, g := range n.forwarding {
			if g.horizon <= now && now < g.end() {
				res.due++
				if (now-g.since)%g.period == 0 {
					res.dueBoundary++
				}
			}
		}
		complete()
		for _, g := range n.forwarding {
			if len(g.at) > 1 {
				forwards[forward{g, g.since}] = true
			}
			if g.since == now && crowded(n, g) {
				res.beside++
			}
		}
	}
	// Only a joining flow takes a group out of forwarding in an
	// activation event.
	for _, fn := range []*func(any){&n.activateFn, &n.activateClassFn} {
		activate := *fn
		*fn = func(arg any) {
			k := len(n.forwarding)
			activate(arg)
			res.materialized += k - len(n.forwarding)
		}
	}
	res.rings = make([]time.Duration, len(rings))
	for i, rs := range rings {
		e.Schedule(rs.start, func() {
			if !grouped {
				startStepRing(n, rs, &res.rings[i])
				return
			}
			g := n.NewGroup(rs.routes)
			g.Start(rs.bytes, rs.rounds)
			g.Done().OnFire(func() { res.rings[i] = e.Now() })
		})
	}
	started := make([]*Flow, len(flows))
	for i, fs := range flows {
		e.Schedule(fs.start, func() { started[i] = n.StartFlow(fs.bytes, fs.route) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, f := range started {
		res.flows = append(res.flows, f.finished)
	}
	for _, l := range n.links {
		res.counts = append(res.counts, l.FlowsCarried())
		res.bytes = append(res.bytes, l.BytesCarried())
	}
	res.checks = *checks
	res.filled, res.kept, res.forwarded = n.filled, n.kept, n.forwarded
	res.piecemeal = len(forwards)
	return res
}

// crowded reports whether a flow of the flow set shares a component with
// forwarding group g's members.
func crowded(n *Network, g *FlowGroup) bool {
	for _, f := range n.flows {
		if f.root.find().lone == g {
			return true
		}
	}
	return false
}

// TestGroupMatchesPerStepRing is the differential oracle for FlowGroup:
// on random rings with heterogeneous routes beside random background
// flows, a flow group finishes every ring and every other flow at
// exactly the instants the per-flow ring does, with the same per-link
// flow counts and the same bytes up to float summation order. Both runs
// pass the max-min check after every solve. The group runs must take
// every fast path, keeping standing rates, fast-forwarding a lone ring's
// rounds, from a template round whose members finished apart too,
// fast-forwarding a ring's one-step rounds beside other flows, bringing
// one back when a flow joins it, and bringing one back when a flow
// beside it falls due, or the test proves nothing about them. (A due
// exactly at a round boundary is rare here; TestForwardedBesideFlows
// constructs it.)
func TestGroupMatchesPerStepRing(t *testing.T) {
	var kept, forwarded uint64
	materialized, piecemeal, beside, due := 0, 0, 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		want := runScenario(t, seed, false)
		got := runScenario(t, seed, true)
		if fmt.Sprint(got.rings) != fmt.Sprint(want.rings) {
			t.Errorf("seed %d: ring completions %v, per-step %v", seed, got.rings, want.rings)
		}
		if fmt.Sprint(got.flows) != fmt.Sprint(want.flows) {
			t.Errorf("seed %d: flow completions %v, per-step %v", seed, got.flows, want.flows)
		}
		if fmt.Sprint(got.counts) != fmt.Sprint(want.counts) {
			t.Errorf("seed %d: FlowsCarried %v, per-step %v", seed, got.counts, want.counts)
		}
		for i := range want.bytes {
			if math.Abs(got.bytes[i]-want.bytes[i]) > 1e-9*math.Abs(want.bytes[i]) {
				t.Errorf("seed %d: link %d BytesCarried %v, per-step %v", seed, i, got.bytes[i], want.bytes[i])
			}
		}
		if got.checks == 0 || want.checks == 0 {
			t.Fatalf("seed %d: no solution checked", seed)
		}
		kept += got.kept
		forwarded += got.forwarded
		materialized += got.materialized
		piecemeal += got.piecemeal
		beside += got.beside
		due += got.due
	}
	t.Logf("group runs kept %d completions, forwarded %d rounds (%d times from piecemeal templates, %d beside other flows), brought back %d groups on a join and %d on a due",
		kept, forwarded, piecemeal, beside, materialized, due)
	if kept == 0 || forwarded == 0 || piecemeal == 0 || beside == 0 || materialized == 0 || due == 0 {
		t.Errorf("group runs kept %d completions, forwarded %d rounds (%d times from piecemeal templates, %d beside other flows), brought back %d groups on a join and %d on a due, want all > 0",
			kept, forwarded, piecemeal, beside, materialized, due)
	}
}

// equalRing is a lone ring of 4 members on equal private links whose
// rounds of exactly 1 ms end at 1.001, 2.001, ... 6.001 ms, so every
// round ends in one piece and the ring is forwarded at the end of round 0.
func equalRing(n *Network) ringSpec {
	rs := ringSpec{routes: make([][]*Link, 4), bytes: 1e6, rounds: 6}
	for i := range rs.routes {
		rs.routes[i] = []*Link{n.NewLink(fmt.Sprintf("m%d", i), 1*gb, time.Microsecond)}
	}
	return rs
}

// heteroRing is a lone ring of 4 members whose uplinks carry 1, 2, 1.5
// and 3 GB/s. Members 0 and 1 are alone on theirs; members 2 and 3 also
// cross a bus that joins them into one component, so member 3's leave
// settles member 2 again. Members finish apart, so round 1 is a template
// of several steps and the ring is forwarded at the end of round 1.
func heteroRing(n *Network) ringSpec {
	rs := ringSpec{routes: make([][]*Link, 4), bytes: 1e6, rounds: 6}
	bus := n.NewLink("bus", 10*gb, 0)
	for i, c := range []float64{1, 2, 1.5, 3} {
		rs.routes[i] = []*Link{n.NewLink(fmt.Sprintf("m%d", i), c*gb, time.Microsecond)}
		if i >= 2 {
			rs.routes[i] = append(rs.routes[i], bus)
		}
	}
	return rs
}

// ringInstants returns the instants of the completion events of the
// per-step run of ring alone, and how many fall in each round.
func ringInstants(t *testing.T, ring func(*Network) ringSpec) ([]time.Duration, int) {
	t.Helper()
	n := New(sim.NewEngine())
	rs := ring(n)
	var instants []time.Duration
	complete := n.completionFn
	n.completionFn = func() {
		instants = append(instants, n.eng.Now())
		complete()
	}
	runSpecs(t, n, []ringSpec{rs}, nil, false)
	if len(instants)%rs.rounds != 0 {
		t.Fatalf("%d completion events over %d rounds", len(instants), rs.rounds)
	}
	return instants, len(instants) / rs.rounds
}

// TestForwardedGroupJoined is the differential oracle for bringing back
// a fast-forwarded ring. A flow joins one or two components of a lone
// ring: of equalRing mid-round, exactly on an interior round boundary,
// or exactly at the ring's end; of heteroRing between two instants of
// its template, exactly at one inside a round, exactly on an interior
// round boundary, or exactly at the ring's end, the instants taken from
// its per-step run. The flow's activation is queued before the ring's
// event at that instant (started at 0 with the join instant as its
// latency) or after it (started at the join instant). Every case must
// finish the ring and the flow at exactly the instants the per-step ring
// does, with the same per-link flow counts and the same bytes up to float
// summation order, and pass the max-min check after every solve. Only a
// join after the ring's end finds nothing to bring back.
func TestForwardedGroupJoined(t *testing.T) {
	type joinCase struct {
		name    string
		ring    func(*Network) ringSpec
		at      time.Duration
		members []int // whose first links the joining flow crosses
		end     bool  // the join is at the ring's end
		apart   bool  // the ring's members finish apart
	}
	cases := []joinCase{
		{"equal mid-round", equalRing, 3500500 * time.Nanosecond, []int{0}, false, false},
		{"equal round boundary", equalRing, 3001 * time.Microsecond, []int{0, 1}, false, false},
		{"equal ring end", equalRing, 6001 * time.Microsecond, []int{2}, true, false},
	}
	// Round 3 is the second round after heteroRing's template. Each join
	// crosses the link of a member that leaves at the template step after
	// the one it joins in, so restoring a later step shows.
	in, k := ringInstants(t, heteroRing)
	if k < 3 {
		t.Fatalf("heterogeneous ring has %d events per round, want its members to finish apart", k)
	}
	cases = append(cases,
		joinCase{"hetero between template instants", heteroRing, (in[3*k] + in[3*k+1]) / 2, []int{1}, false, true},
		joinCase{"hetero template instant", heteroRing, in[3*k+1], []int{2}, false, true},
		joinCase{"hetero round boundary", heteroRing, in[3*k-1], []int{3}, false, true},
		joinCase{"hetero ring end", heteroRing, in[len(in)-1], []int{0, 3}, true, true},
	)
	for _, c := range cases {
		for _, early := range []bool{true, false} {
			run := func(grouped bool) scenarioResult {
				n := New(sim.NewEngine())
				rs := c.ring(n)
				var route []*Link
				for _, m := range c.members {
					route = append(route, rs.routes[m][0])
				}
				var join *Flow
				if early {
					n.eng.Schedule(0, func() { join = n.StartFlowLatency(3e5, route, c.at) })
				} else {
					n.eng.Schedule(c.at, func() { join = n.StartFlowLatency(3e5, route, 0) })
				}
				res := runSpecs(t, n, []ringSpec{rs}, nil, grouped)
				res.flows = []time.Duration{join.finished}
				return res
			}
			name := c.name + map[bool]string{true: ", queued first", false: ", queued last"}[early]
			got, want := run(true), run(false)
			if fmt.Sprint(got.rings, got.flows, got.counts) != fmt.Sprint(want.rings, want.flows, want.counts) {
				t.Errorf("%s: ring, flow, FlowsCarried %v %v %v; per-step %v %v %v",
					name, got.rings, got.flows, got.counts, want.rings, want.flows, want.counts)
			}
			for i := range want.bytes {
				if math.Abs(got.bytes[i]-want.bytes[i]) > 1e-9*math.Abs(want.bytes[i]) {
					t.Errorf("%s: link %d BytesCarried %v, per-step %v", name, i, got.bytes[i], want.bytes[i])
				}
			}
			wantBack := 1
			if c.end && !early {
				wantBack = 0
			}
			if got.materialized != wantBack || got.forwarded == 0 {
				t.Errorf("%s: brought back %d groups after forwarding %d rounds, want %d after some", name, got.materialized, got.forwarded, wantBack)
			}
			if (got.piecemeal > 0) != c.apart {
				t.Errorf("%s: %d fast-forwards from a template of several steps", name, got.piecemeal)
			}
		}
	}
}

// TestForwardedBesideFlows is the differential oracle for fast-forwarding
// a ring beside plain flows. The ring is equalRing with member 0's route
// also crossing a wide root link, whose share binds no flow, so its
// rounds of exactly 1 ms still end in one piece; an upload at 1 GB/s
// crosses the root from the ring's activation on, so it shares member 0's
// component. The ring forwards beside it at the end of round 0 and must
// come back when it falls due exactly at an interior round boundary,
// forward to its end when the upload is due exactly there, and come back
// when a flow joins it at a round boundary (queued before or after the
// ring's instant there, crossing the upload's component or only a
// member's) beside a longer upload, forwarding again once that flow has
// left. Beside an upload that the root's share binds, the ring's end
// must re-rate the upload. It must never forward while a second ring,
// stepwise, has a member in the component. Every case must finish the
// rings and the flows at exactly the instants of the per-step rings, with
// the same per-link flow counts and the same bytes up to float summation
// order, forward exactly the rounds that end with no completion event,
// and pass the max-min check after every solve.
func TestForwardedBesideFlows(t *testing.T) {
	type besideCase struct {
		name     string
		rounds   int
		upload   float64       // bytes, 0 for none
		dueRound int           // the round at whose end the upload is due, 0 for none
		join     time.Duration // when a flow joins, 0 for none
		joinRoot bool          // the joining flow crosses the root, not member 2's link
		allRoot  bool          // every member crosses a root whose share binds the upload
		early    bool          // the join's activation is queued before the ring's event
		second   bool          // a second ring has a member on the root
		// want: fast-forwards beside other flows, groups brought back on a
		// due at a round boundary and on a join.
		beside, dueBoundary, joined int
	}
	cases := []besideCase{
		{name: "upload due at a round boundary", rounds: 6, upload: 4e6, dueRound: 4, beside: 1, dueBoundary: 1},
		{name: "upload due at the ring's end", rounds: 4, upload: 4e6, dueRound: 4, beside: 1},
		{name: "upload outlasting the ring, every member on the root", rounds: 6, upload: 16e6, allRoot: true, beside: 1},
		{name: "stepwise member of a second ring", rounds: 6, second: true},
	}
	for _, root := range []bool{true, false} {
		for _, early := range []bool{true, false} {
			cases = append(cases, besideCase{
				name:   fmt.Sprintf("join at a round boundary beside an upload (root %v, queued first %v)", root, early),
				rounds: 6, upload: 16e6, join: 3001 * time.Microsecond, joinRoot: root, early: early,
				beside: 2, joined: 1, // forwarding again once the joining flow has left
			})
		}
	}
	for _, c := range cases {
		var uploadEnd time.Duration
		events := make(map[time.Duration]bool) // completion instants of the grouped run
		run := func(grouped bool) scenarioResult {
			n := New(sim.NewEngine())
			rs := equalRing(n)
			rs.rounds = c.rounds
			root := n.NewLink("root", 10*gb, 0)
			rs.routes[0] = append(rs.routes[0], root)
			up := n.NewLink("u", 1*gb, time.Microsecond)
			if c.allRoot {
				// Five flows share the root at 1 GB/s each; once the ring
				// ends, the upload runs at its own link's 2 GB/s.
				root.capacity, up.capacity = 5*gb, 2*gb
				for m := 1; m < len(rs.routes); m++ {
					rs.routes[m] = append(rs.routes[m], root)
				}
			}
			rings := []ringSpec{rs}
			var flows []flowSpec
			if c.upload > 0 {
				flows = append(flows, flowSpec{route: []*Link{up, root}, bytes: c.upload})
			}
			if c.second {
				rings = append(rings, ringSpec{
					routes: [][]*Link{{n.NewLink("b0", 1*gb, time.Microsecond), root}, {n.NewLink("b1", 1*gb, time.Microsecond)}},
					bytes:  1e6, rounds: c.rounds,
				})
			}
			var join *Flow
			if c.join > 0 {
				route := rs.routes[2][:1]
				if c.joinRoot {
					route = []*Link{root}
				}
				if c.early {
					n.eng.Schedule(0, func() { join = n.StartFlowLatency(3e5, route, c.join) })
				} else {
					n.eng.Schedule(c.join, func() { join = n.StartFlowLatency(3e5, route, 0) })
				}
			}
			if grouped {
				complete := n.completionFn
				n.completionFn = func() { events[n.eng.Now()] = true; complete() }
			}
			res := runSpecs(t, n, rings, flows, grouped)
			if join != nil {
				res.flows = append(res.flows, join.finished)
			}
			if !grouped && c.upload > 0 {
				uploadEnd = res.flows[0]
			}
			return res
		}
		want, got := run(false), run(true)
		if c.dueRound > 0 {
			// The upload's due must land where the case says.
			if in := want.rings[0] - time.Duration(c.rounds-c.dueRound)*time.Millisecond; uploadEnd != in {
				t.Fatalf("%s: the upload finishes at %v, not at the end of round %d at %v", c.name, uploadEnd, c.dueRound, in)
			}
		}
		if fmt.Sprint(got.rings, got.flows, got.counts) != fmt.Sprint(want.rings, want.flows, want.counts) {
			t.Errorf("%s: rings, flows, FlowsCarried %v %v %v; per-step %v %v %v",
				c.name, got.rings, got.flows, got.counts, want.rings, want.flows, want.counts)
		}
		for i := range want.bytes {
			if math.Abs(got.bytes[i]-want.bytes[i]) > 1e-9*math.Abs(want.bytes[i]) {
				t.Errorf("%s: link %d BytesCarried %v, per-step %v", c.name, i, got.bytes[i], want.bytes[i])
			}
		}
		if got.beside != c.beside || got.dueBoundary != c.dueBoundary || got.materialized != c.joined {
			t.Errorf("%s: %d fast-forwards beside other flows, %d brought back on a due at a round boundary and %d on a join; want %d, %d and %d",
				c.name, got.beside, got.dueBoundary, got.materialized, c.beside, c.dueBoundary, c.joined)
		}
		if c.join == 0 {
			// A round is forwarded when no completion event runs at its
			// end, and the rounds take 1 ms each but beside a joining flow.
			var wantForwarded uint64
			for k := range c.rounds {
				if !events[want.rings[0]-time.Duration(k)*time.Millisecond] {
					wantForwarded++
				}
			}
			if got.forwarded != wantForwarded {
				t.Errorf("%s: forwarded %d rounds, want %d", c.name, got.forwarded, wantForwarded)
			}
		}
	}
}

// TestForeignFlowBlocksTemplate: a flow that starts on member 0's link of
// heteroRing just after round 1 begins and finishes before any member
// leaves slows member 0, so round 1 repeats no other round and must not
// become the template, though the flow has left when the round ends.
// Round 2 becomes it instead, so rounds 3 to 5 run as one event. The ring
// and the flow must finish at exactly the instants of the per-step ring.
func TestForeignFlowBlocksTemplate(t *testing.T) {
	in, k := ringInstants(t, heteroRing)
	start := in[k-1] + 10*time.Microsecond
	run := func(grouped bool) scenarioResult {
		n := New(sim.NewEngine())
		rs := heteroRing(n)
		var f *Flow
		n.eng.Schedule(start, func() { f = n.StartFlowLatency(1e4, rs.routes[0][:1], 0) })
		res := runSpecs(t, n, []ringSpec{rs}, nil, grouped)
		if f.finished >= in[k] {
			t.Fatalf("the flow finished at %v, after the first member leaves at %v", f.finished, in[k])
		}
		res.flows = []time.Duration{f.finished}
		return res
	}
	got, want := run(true), run(false)
	if fmt.Sprint(got.rings, got.flows, got.counts) != fmt.Sprint(want.rings, want.flows, want.counts) {
		t.Errorf("ring, flow, FlowsCarried %v %v %v; per-step %v %v %v",
			got.rings, got.flows, got.counts, want.rings, want.flows, want.counts)
	}
	if got.forwarded != 2 || got.materialized != 0 {
		t.Errorf("forwarded %d rounds and brought back %d groups, want 2 and 0", got.forwarded, got.materialized)
	}
}

// TestComponentSolveMatchesGlobalSolve is the differential oracle for
// solving per component. Two or three islands of random traffic, each
// drawn by randomScenario on links of its own, share one network, so
// their solves interleave. The reference run appends a bus link to every
// route, which joins all flows into one component and makes every solve
// global; its capacity is beyond any flow set's reach, so it is never a
// bottleneck and changes no rate. Both runs must finish every ring and
// every other flow at exactly the same instants, with the same per-link
// flow counts, and pass the max-min check after every solve. Bytes match
// up to float summation order: each flow is settled when its own
// component is re-solved, and the reference re-solves every flow at every
// change, so it splits each flow's progress into more, different parts.
// The island runs must fast-forward rings alone on their island.
func TestComponentSolveMatchesGlobalSolve(t *testing.T) {
	run := func(seed int64, global bool) scenarioResult {
		n := New(sim.NewEngine())
		var rings []ringSpec
		var flows []flowSpec
		for i := int64(0); i < 2+seed%2; i++ {
			r, f := randomScenario(3*seed+i, n)
			rings, flows = append(rings, r...), append(flows, f...)
		}
		if global {
			bus := n.NewLink("bus", 1e30, 0)
			join := func(r []*Link) []*Link { return append(r[:len(r):len(r)], bus) }
			for i := range rings {
				routes := make([][]*Link, len(rings[i].routes))
				for m, r := range rings[i].routes {
					routes[m] = join(r)
				}
				rings[i].routes = routes
			}
			for i := range flows {
				flows[i].route = join(flows[i].route)
			}
		}
		res := runSpecs(t, n, rings, flows, true)
		if global {
			// The bus is the last link; its counters are the reference's own.
			res.counts, res.bytes = res.counts[:len(res.counts)-1], res.bytes[:len(res.bytes)-1]
		}
		return res
	}
	var forwarded uint64
	for seed := int64(1); seed <= 200; seed++ {
		got, want := run(seed, false), run(seed, true)
		if fmt.Sprint(got.rings) != fmt.Sprint(want.rings) {
			t.Errorf("seed %d: ring completions %v, global %v", seed, got.rings, want.rings)
		}
		if fmt.Sprint(got.flows) != fmt.Sprint(want.flows) {
			t.Errorf("seed %d: flow completions %v, global %v", seed, got.flows, want.flows)
		}
		if fmt.Sprint(got.counts) != fmt.Sprint(want.counts) {
			t.Errorf("seed %d: FlowsCarried %v, global %v", seed, got.counts, want.counts)
		}
		for i := range want.bytes {
			if math.Abs(got.bytes[i]-want.bytes[i]) > 1e-9*math.Abs(want.bytes[i]) {
				t.Errorf("seed %d: link %d BytesCarried %v, global %v", seed, i, got.bytes[i], want.bytes[i])
			}
		}
		if got.checks == 0 || want.checks == 0 {
			t.Fatalf("seed %d: no solution checked", seed)
		}
		forwarded += got.forwarded
	}
	t.Logf("island runs forwarded %d rounds", forwarded)
	if forwarded == 0 {
		t.Error("island runs forwarded no rounds, so forwarding per component went untested")
	}
}

// TestMaxMinOracleOnRandomFlows checks the fairness conditions after
// every solve of random plain-flow networks with staggered arrivals.
func TestMaxMinOracleOnRandomFlows(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		n := New(e)
		checks := watchSolutions(t, n)
		links := make([]*Link, 2+rng.Intn(8))
		for i := range links {
			links[i] = n.NewLink(fmt.Sprintf("l%d", i), 1+100*rng.Float64(), 0)
		}
		for i := 0; i < 1+rng.Intn(30); i++ {
			perm := rng.Perm(len(links))
			route := make([]*Link, 1+rng.Intn(len(links)))
			for j := range route {
				route[j] = links[perm[j]]
			}
			bytes := 1 + 1000*rng.Float64()
			e.Schedule(time.Duration(rng.Intn(1e10)), func() { n.StartFlow(bytes, route) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if *checks == 0 {
			t.Fatalf("seed %d: no solution checked", seed)
		}
	}
}

// TestMaxMinOracleCatchesUnfairRates proves the oracle bites: halving one
// flow's rate leaves it without a saturated bottleneck, and doubling one
// overloads its link.
func TestMaxMinOracleCatchesUnfairRates(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l1 := n.NewLink("l1", 10, 0)
	l2 := n.NewLink("l2", 4, 0)
	n.StartFlow(1e12, []*Link{l1})
	n.StartFlow(1e12, []*Link{l1, l2})
	n.StartFlow(1e12, []*Link{l2})
	if err := e.RunUntil(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := checkMaxMin(n); err != nil {
		t.Fatalf("solved rates rejected: %v", err)
	}
	for _, scale := range []float64{0.5, 2} {
		f := n.flows[0]
		saved := f.rate
		f.rate *= scale
		if checkMaxMin(n) == nil {
			t.Errorf("rate scaled by %v accepted", scale)
		}
		f.rate = saved
	}
}

// TestGroupRoundsAndLinkStats: a lone group of equal private links
// re-arms in place each round, so it takes rounds × (bytes / capacity)
// after the route latency and counts one flow per round on each link.
// From the end of round 0 it runs fast-forwarded, out of the flow set,
// and its members still count as active flows.
func TestGroupRoundsAndLinkStats(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	const rounds = 6
	routes := make([][]*Link, 4)
	for i := range routes {
		routes[i] = []*Link{n.NewLink("l", 1*gb, time.Millisecond)}
	}
	g := n.NewGroup(routes)
	g.Start(0.25*gb, rounds)
	if err := e.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(n.forwarding) != 1 || n.ActiveFlows() != len(routes) {
		t.Errorf("mid-transfer: %d groups forwarding, ActiveFlows = %d; want 1, %d", len(n.forwarding), n.ActiveFlows(), len(routes))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !g.Completed() || !g.Done().Fired() {
		t.Fatal("group did not complete")
	}
	if want := time.Millisecond + rounds*250*time.Millisecond; e.Now() != want {
		t.Errorf("group finished at %v, want %v", e.Now(), want)
	}
	for _, r := range routes {
		if r[0].FlowsCarried() != rounds {
			t.Errorf("FlowsCarried = %d, want %d", r[0].FlowsCarried(), rounds)
		}
		if !almostEqual(r[0].BytesCarried(), rounds*0.25*gb, 1e-9) {
			t.Errorf("BytesCarried = %v, want %v", r[0].BytesCarried(), rounds*0.25*gb)
		}
	}
	if n.ActiveFlows() != 0 {
		t.Errorf("ActiveFlows = %d after the group, want 0", n.ActiveFlows())
	}
}

// TestLoneGroupSolvesOnce pins the solver's fast paths for a group alone
// in its component. On equal private links every round ends in one piece,
// so each op fills once, keeps its rates at the end of round 0, runs
// rounds 1 to 5 as one event and keeps nothing at that event's end: 4
// round ends per op need no event. That holds beside traffic on other
// links too, which fills only its own component. On a heterogeneous ring
// members finish one by one, so each round is several solves; round 0
// runs stepwise (staggered activations), round 1 is the template, and
// rounds 2 to 5 run as one event.
func TestLoneGroupSolvesOnce(t *testing.T) {
	t.Run("equal private links", func(t *testing.T) {
		e := sim.NewEngine()
		n := New(e)
		watchSolutions(t, n)
		const ops, rounds = 3, 6
		routes := make([][]*Link, 4)
		for i := range routes {
			routes[i] = []*Link{n.NewLink("l", 1*gb, time.Microsecond)}
		}
		g := n.NewGroup(routes)
		for op := 0; op < ops; op++ {
			g.Start(1e6, rounds)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		want := [3]uint64{ops, ops * 2, ops * (rounds - 2)}
		if got := [3]uint64{n.filled, n.kept, n.forwarded}; got != want {
			t.Errorf("filled, kept, forwarded = %v; want %v", got, want)
		}
	})
	t.Run("beside disjoint traffic", func(t *testing.T) {
		e := sim.NewEngine()
		n := New(e)
		watchSolutions(t, n)
		const ops, rounds = 3, 6
		routes := make([][]*Link, 4)
		for i := range routes {
			routes[i] = []*Link{n.NewLink("l", 1*gb, time.Microsecond)}
		}
		disk := n.NewLink("disk", 1*gb, 0)
		g := n.NewGroup(routes)
		// Each op's rounds end at 1.001, 2.001, ... 6.001 ms; the stream
		// runs one 0.1 ms flow at a time in between.
		starts := []time.Duration{500, 1700, 2900, 4100, 5300}
		for op := 0; op < ops; op++ {
			g.Start(1e6, rounds)
			for _, at := range starts {
				e.Schedule(at*time.Microsecond, func() { n.StartFlow(1e5, []*Link{disk}) })
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		// A stream flow fills its own component when it starts; when it
		// finishes, that component is empty and nothing is filled.
		want := [3]uint64{ops * (1 + uint64(len(starts))), ops * 2, ops * (rounds - 2)}
		if got := [3]uint64{n.filled, n.kept, n.forwarded}; got != want {
			t.Errorf("filled, kept, forwarded = %v; want %v", got, want)
		}
	})
	t.Run("heterogeneous ring", func(t *testing.T) {
		e := sim.NewEngine()
		n := New(e)
		watchSolutions(t, n)
		const p, rounds = 4, 2 * (4 - 1)
		// Rates 1, 2, 3 and 3.5 GB/s: the bus binds the fastest member.
		bus := n.NewLink("bus", 9.5*gb, 0)
		routes := make([][]*Link, p)
		for i := range routes {
			up := n.NewLink("up", gb*float64(1+i), time.Duration(1+i)*time.Microsecond)
			routes[i] = []*Link{up, bus}
		}
		g := n.NewGroup(routes)
		g.Start(1e6, rounds)
		late := 0
		for _, fn := range []*func(){&n.solveFn, &n.completionFn} {
			inner := *fn
			*fn = func() {
				before := n.filled
				inner()
				if n.filled != before && g.round >= 2 {
					late++
				}
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if late != 0 {
			t.Errorf("%d progressive-filling passes in rounds 2..%d, want 0", late, rounds-1)
		}
		// Round 0 fills at each of the 4 staggered activations and after
		// each of the first 3 members leaves, and once more at its
		// piecemeal re-arm; round 1 records the template with 3 fills and
		// 4 completion events, the last of which keeps the standing rates
		// because its re-arm forwards rounds 2 to 5; they need one event,
		// at their end, where nothing is filled either.
		want := [4]uint64{11, 2, rounds - 3, 9}
		if got := [4]uint64{n.filled, n.kept, n.forwarded, n.completions}; got != want {
			t.Errorf("filled, kept, forwarded, completion events = %v; want %v", got, want)
		}
	})
}

// TestRingBesideLoadersWorkCounts pins the work one all-reduce op costs
// on a PCIe tree beside a real-data input pipeline. A 16-member ring
// runs over four switches of four GPUs: a member whose neighbor sits
// under the same switch crosses its GPU's uplink and the neighbor's
// downlink, and the four that cross switches also share the root
// complex, so they run at half the rate and every round ends in two
// pieces. Four loaders, started 0.3 ms apart, read batches from a disk
// and prep them on a CPU link the ring never uses, until the op ends.
// Each op costs the same completion events and forwards the same rounds:
// rounds 0 and 1 run stepwise, and round 1 is the template of rounds 2 to
// 29. (Run round by round, an op costs 102 completion events.)
func TestRingBesideLoadersWorkCounts(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	const p, perSwitch, loaders, ops = 16, 4, 4, 3
	root := n.NewLink("root", 24*gb, time.Microsecond)
	var up, down, swUp, swDown []*Link
	for i := 0; i < p; i++ {
		up = append(up, n.NewLink(fmt.Sprintf("gpu%d/up", i), 12*gb, time.Microsecond))
		down = append(down, n.NewLink(fmt.Sprintf("gpu%d/down", i), 12*gb, time.Microsecond))
	}
	for s := 0; s < p/perSwitch; s++ {
		swUp = append(swUp, n.NewLink(fmt.Sprintf("sw%d/up", s), 12*gb, time.Microsecond))
		swDown = append(swDown, n.NewLink(fmt.Sprintf("sw%d/down", s), 12*gb, time.Microsecond))
	}
	routes := make([][]*Link, p)
	for i := range routes {
		j := (i + 1) % p
		if from, to := i/perSwitch, j/perSwitch; from == to {
			routes[i] = []*Link{up[i], down[j]}
		} else {
			routes[i] = []*Link{up[i], swUp[from], root, swDown[to], down[j]}
		}
	}
	disk := n.NewLink("disk", 250e6, 500*time.Microsecond)
	cpu := n.NewLink("cpu", 32000, 0) // samples/sec
	g := n.NewGroup(routes)
	var load func()
	load = func() {
		if g.Completed() {
			return
		}
		n.StartFlow(1e5, []*Link{disk}).Done().OnFire(func() {
			n.StartFlow(32, []*Link{cpu}).Done().OnFire(load)
		})
	}
	for op := 0; op < ops; op++ {
		completions, forwarded := n.completions, n.forwarded
		g.Start(4e6, 2*(p-1))
		for j := 0; j < loaders; j++ {
			e.Schedule(time.Duration(j)*300*time.Microsecond, load)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := [2]uint64{47, 2*(p-1) - 3}
		if got := [2]uint64{n.completions - completions, n.forwarded - forwarded}; got != want {
			t.Errorf("op %d: completion events, forwarded rounds = %v; want %v", op, got, want)
		}
	}
}

// TestRestartedGroupMatchesFresh: a group restarted for its next transfer
// keeps its member storage and runs that transfer exactly as a fresh
// group on the same routes does after the same first transfer: the same
// finish instant, link counters and solver counters. The members start
// together and finish apart, so round 1 of each transfer is a template
// that the later rounds repeat, and a template kept from the first
// transfer would run the second transfer's rounds at the wrong size.
func TestRestartedGroupMatchesFresh(t *testing.T) {
	type result struct {
		end                     time.Duration
		bytes                   []float64
		flows                   []int
		filled, kept, forwarded uint64
	}
	run := func(restart bool) result {
		e := sim.NewEngine()
		n := New(e)
		watchSolutions(t, n)
		bus := n.NewLink("bus", 9.5*gb, 0)
		routes := make([][]*Link, 4)
		for i := range routes {
			routes[i] = []*Link{n.NewLink("up", gb*float64(1+i), time.Microsecond), bus}
		}
		first := n.NewGroup(routes)
		first.Start(1e6, 6)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		members := &first.members[0]
		second := first
		if !restart {
			second = n.NewGroup(routes)
		}
		second.Start(3e5, 4)
		if second.Completed() || second.Done().Fired() {
			t.Error("a started group reports its last transfer's completion")
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if !second.Completed() || !second.Done().Fired() {
			t.Fatal("second transfer did not complete")
		}
		if restart && &second.members[0] != members {
			t.Error("restarted group reallocated its members")
		}
		res := result{end: e.Now(), filled: n.filled, kept: n.kept, forwarded: n.forwarded}
		for _, l := range n.links {
			res.bytes = append(res.bytes, l.BytesCarried())
			res.flows = append(res.flows, l.FlowsCarried())
		}
		return res
	}
	got, want := run(true), run(false)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("restarted group: %+v\nfresh group:     %+v", got, want)
	}
	if want.forwarded == 0 {
		t.Error("the fresh group forwarded no rounds, so its template went untested")
	}
}

// TestStartRunningGroupPanics: a group runs one transfer at a time.
func TestStartRunningGroupPanics(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	g := n.NewGroup([][]*Link{{n.NewLink("l", 1*gb, 0)}})
	g.Start(1e6, 2)
	if err := e.RunUntil(time.Microsecond); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Start of a running group did not panic")
		}
	}()
	g.Start(1e6, 1)
}

// TestStartGroupRejectsBadInput: NewGroup rejects a group with no
// members or an empty route, and Start rejects bad rounds and sizes.
func TestStartGroupRejectsBadInput(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := n.NewLink("l", 1*gb, 0)
	expectPanic := func(t *testing.T, what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	for _, c := range []struct {
		name   string
		routes [][]*Link
	}{
		{"no members", nil},
		{"empty route", [][]*Link{{l}, {}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			expectPanic(t, "NewGroup", func() { n.NewGroup(c.routes) })
		})
	}
	for _, c := range []struct {
		name   string
		bytes  float64
		rounds int
	}{
		{"zero rounds", 1, 0},
		{"zero bytes", 0, 1},
		{"negative bytes", -1, 1},
		{"bytes at the finish residual", epsilonBytes, 1},
		{"NaN bytes", math.NaN(), 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := n.NewGroup([][]*Link{{l}})
			expectPanic(t, "Start", func() { g.Start(c.bytes, c.rounds) })
		})
	}
}

func TestStartFlowLatencyRejectsNegativeLatency(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := n.NewLink("l", 1*gb, 0)
	defer func() {
		if recover() == nil {
			t.Error("negative latency was accepted")
		}
	}()
	n.StartFlowLatency(1, []*Link{l}, -time.Nanosecond)
}

// TestFillIgnoresFlowOrder: progressive filling is a function of the flow
// set. The same flows, activated in permuted orders at one instant, get
// bit-identical rates. The near-tie case has link a's share 1 set the
// pass while link b's two flows share 1+0.8e-12, inside the 1e-12
// tolerance: every flow must freeze at 1, whichever of b's flows the
// pass meets first.
func TestFillIgnoresFlowOrder(t *testing.T) {
	type spec struct {
		caps   []float64
		routes [][]int
	}
	cases := map[string]spec{
		"near tie": {caps: []float64{1, 2 + 1.6e-12}, routes: [][]int{{0}, {1}, {1}}},
	}
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 20; c++ {
		var s spec
		for i := 0; i < 2+rng.Intn(5); i++ {
			// Few distinct capacities, so shares tie often.
			s.caps = append(s.caps, float64(1+rng.Intn(3))*gb)
		}
		for i := 0; i < 2+rng.Intn(10); i++ {
			perm := rng.Perm(len(s.caps))
			s.routes = append(s.routes, perm[:1+rng.Intn(len(perm))])
		}
		cases[fmt.Sprintf("random %d", c)] = s
	}
	rates := func(s spec, order []int) []uint64 {
		e := sim.NewEngine()
		n := New(e)
		links := make([]*Link, len(s.caps))
		for i, c := range s.caps {
			links[i] = n.NewLink(fmt.Sprintf("l%d", i), c, 0)
		}
		flows := make([]*Flow, len(s.routes))
		for _, i := range order {
			route := make([]*Link, len(s.routes[i]))
			for j, l := range s.routes[i] {
				route[j] = links[l]
			}
			flows[i] = n.StartFlow(1e12, route)
		}
		if err := e.RunUntil(0); err != nil {
			t.Fatal(err)
		}
		bits := make([]uint64, len(flows))
		for i, f := range flows {
			bits[i] = math.Float64bits(f.Rate())
		}
		return bits
	}
	for name, s := range cases {
		order := make([]int, len(s.routes))
		for i := range order {
			order[i] = i
		}
		want := rates(s, order)
		for p := 0; p < 6; p++ {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			if got := rates(s, order); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: activation order %v gives rate bits %x, in order %x", name, order, got, want)
				break
			}
		}
	}
}

// TestDisjointTrafficKeepsTimestamps: traffic that shares no link with
// a flow must not change its timestamps, even in the last bit.
//
// A flow whose size is its link's capacity times a whole number of
// nanoseconds finishes on a tick that rounding can move: settling it
// early at another flow's event leaves a remainder whose time to finish
// can round up one nanosecond. Such flows must finish at the same
// instant beside a stream of flows on another link as alone.
//
// A flow whose link's share lies within the filling tolerance above
// another link's must keep its own rate when a flow on that other link
// starts at the same instant, so the one solve fills both components.
//
// Each scenario from randomScenario runs alone and again beside two
// more scenarios on links of their own; its rings and flows must finish
// at exactly the same instants, with the same flow counts on each of its
// links. Bytes match up to float summation order: a solve settles the
// flows sharing a link in flow-set order, which the other traffic moves.
func TestDisjointTrafficKeepsTimestamps(t *testing.T) {
	t.Run("whole-nanosecond flows", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 200; trial++ {
			capacity := gb * (0.5 + 4*rng.Float64())
			bytes := capacity * float64(1e6+rng.Intn(1e7)) / 1e9
			run := func(beside bool) time.Duration {
				e := sim.NewEngine()
				n := New(e)
				f := n.StartFlow(bytes, []*Link{n.NewLink("l", capacity, 0)})
				if beside {
					other := n.NewLink("other", 3*gb, 0)
					var next func()
					k := 0
					next = func() {
						if k++; k <= 50 {
							n.StartFlow(1e5+float64(k)*7777.7, []*Link{other}).Done().OnFire(next)
						}
					}
					next()
				}
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				return f.finished
			}
			if alone, beside := run(false), run(true); alone != beside {
				t.Errorf("%v bytes at %v B/s: finished at %v beside a stream, %v alone", bytes, capacity, beside, alone)
			}
		}
	})
	t.Run("near-tied components", func(t *testing.T) {
		run := func(beside bool) time.Duration {
			e := sim.NewEngine()
			n := New(e)
			l := n.NewLink("l", gb*(1+0.5e-12), 0)
			f := n.StartFlow(l.Capacity(), []*Link{l})
			if beside {
				n.StartFlow(gb, []*Link{n.NewLink("other", gb, 0)})
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			return f.finished
		}
		if alone, beside := run(false), run(true); alone != beside {
			t.Errorf("finished at %v beside a near-tied flow, %v alone", beside, alone)
		}
	})
	t.Run("random scenarios", func(t *testing.T) {
		for seed := int64(1); seed <= 200; seed++ {
			n := New(sim.NewEngine())
			rings, flows := randomScenario(seed, n)
			alone := runSpecs(t, n, rings, flows, true)

			n = New(sim.NewEngine())
			rings, flows = randomScenario(seed, n)
			nr, nf, nl := len(rings), len(flows), len(n.links)
			for i := int64(1); i <= 2; i++ {
				r, f := randomScenario(1000*i+seed, n)
				rings, flows = append(rings, r...), append(flows, f...)
			}
			beside := runSpecs(t, n, rings, flows, true)
			if got, want := fmt.Sprint(beside.rings[:nr]), fmt.Sprint(alone.rings); got != want {
				t.Errorf("seed %d: ring completions %v beside other traffic, %v alone", seed, got, want)
			}
			if got, want := fmt.Sprint(beside.flows[:nf]), fmt.Sprint(alone.flows); got != want {
				t.Errorf("seed %d: flow completions %v beside other traffic, %v alone", seed, got, want)
			}
			if got, want := fmt.Sprint(beside.counts[:nl]), fmt.Sprint(alone.counts); got != want {
				t.Errorf("seed %d: FlowsCarried %v beside other traffic, %v alone", seed, got, want)
			}
			for i, b := range alone.bytes {
				if math.Abs(beside.bytes[i]-b) > 1e-9*math.Abs(b) {
					t.Errorf("seed %d: link %d BytesCarried %v beside other traffic, %v alone", seed, i, beside.bytes[i], b)
				}
			}
		}
	})
}

// TestGroupStartResetsMembers pins Start's field-by-field reset: after a
// finished transfer, the next Start leaves every member as a fresh flow
// of the new size would be, its embedded signal never armed.
func TestGroupStartResetsMembers(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	a := n.NewLink("a", 1e9, time.Microsecond)
	b := n.NewLink("b", 2e9, 2*time.Microsecond)
	g := n.NewGroup([][]*Link{{a}, {a, b}, {b}})
	g.Start(1e6, 3)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(eng.Now() + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	g.Start(2e6, 2)
	now := eng.Now()
	for i := range g.members {
		m := &g.members[i]
		want := Flow{route: m.route, remaining: 2e6, bytes: 2e6, index: -1, started: now, group: g}
		if !reflect.DeepEqual(*m, want) {
			t.Errorf("member %d after Start:\n got %+v\nwant %+v", i, *m, want)
		}
	}
}

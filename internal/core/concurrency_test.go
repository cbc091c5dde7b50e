package core

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestSingleFlightConcurrentStress hammers one scenario pair from many
// goroutines: the single-flight cache must simulate each scenario
// exactly once, give every caller the identical result, and account for
// every request in the scheduler counters.
func TestSingleFlightConcurrentStress(t *testing.T) {
	p := fastProfiler()
	j := job(t, resnet18(t), 32)
	it := instance(t, "p3.16xlarge")

	const goroutines = 32
	results := make([]ICStall, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = p.InterconnectStall(j, it)
		}(g)
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if results[g] != results[0] {
			t.Errorf("goroutine %d: %+v != %+v", g, results[g], results[0])
		}
	}
	st := p.Stats()
	// InterconnectStall needs two scenarios (steps 1 and 2); every other
	// request must have been served by the cache or a single-flight wait.
	if st.Simulated != 2 {
		t.Errorf("Simulated = %d, want 2 (work was duplicated)", st.Simulated)
	}
	if got := st.CacheHits + st.Waits; got != 2*goroutines-2 {
		t.Errorf("CacheHits+Waits = %d, want %d", got, 2*goroutines-2)
	}
}

// TestStatsCounters checks the serial accounting: a repeated
// measurement is all cache hits, never a re-simulation.
func TestStatsCounters(t *testing.T) {
	p := fastProfiler()
	j := job(t, resnet18(t), 32)
	it := instance(t, "p3.16xlarge")
	if _, err := p.InterconnectStall(j, it); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Simulated != 2 || st.CacheHits != 0 || st.Waits != 0 {
		t.Errorf("after first call: %+v", st)
	}
	if _, err := p.InterconnectStall(j, it); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Simulated != 2 || st.CacheHits != 2 || st.Waits != 0 {
		t.Errorf("after second call: %+v", st)
	}
	if s := st.String(); s == "" {
		t.Error("Stats.String empty")
	}
}

// TestSingleFlightErrorPropagates makes every concurrent waiter see the
// one simulation's error (count=0 fails inside the simulate path, after
// the single-flight entry is claimed).
func TestSingleFlightErrorPropagates(t *testing.T) {
	p := fastProfiler()
	j := job(t, resnet18(t), 32)
	it := instance(t, "p3.16xlarge")

	const goroutines = 8
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = p.Epoch(j, it, 0)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err == nil {
			t.Fatalf("goroutine %d: expected provision error", g)
		}
		if err.Error() != errs[0].Error() {
			t.Errorf("goroutine %d saw %v, goroutine 0 saw %v", g, err, errs[0])
		}
	}
	if st := p.Stats(); st.Simulated != 1 {
		t.Errorf("Simulated = %d, want 1 (error should be shared, not retried)", st.Simulated)
	}
}

// TestForEach covers the pool primitive: full coverage of indices, the
// serial path, and deterministic lowest-index error selection.
func TestForEach(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 100} {
		seen := make([]bool, 37)
		var mu sync.Mutex
		if err := ForEach(workers, len(seen), func(i int) error {
			mu.Lock()
			seen[i] = true
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, ok := range seen {
			if !ok {
				t.Errorf("workers=%d: index %d never ran", workers, i)
			}
		}
	}
	if err := ForEach(4, 0, func(int) error { t.Error("fn called for n=0"); return nil }); err != nil {
		t.Errorf("n=0: %v", err)
	}
}

func TestForEachLowestIndexError(t *testing.T) {
	errAt := func(fail map[int]error) error {
		return ForEach(8, 16, func(i int) error { return fail[i] })
	}
	e3 := &OOMError{Model: "three"}
	e9 := &OOMError{Model: "nine"}
	for trial := 0; trial < 10; trial++ {
		if err := errAt(map[int]error{9: e9, 3: e3}); err != e3 {
			t.Fatalf("trial %d: got %v, want lowest-index error %v", trial, err, e3)
		}
	}
}

// TestProfilerCancellationStress profiles a mix of instances from many
// goroutines while their contexts are cancelled mid flight. Run under
// -race in CI, it proves concurrent simulations share no mutable state
// and that cancelled single-flight waiters (the accounting fixed in the
// conservation audit) keep the counters conserving.
func TestProfilerCancellationStress(t *testing.T) {
	p := fastProfiler()
	jb := job(t, resnet18(t), 32)
	names := []string{"p2.xlarge", "p3.2xlarge", "p3.8xlarge", "p3.16xlarge"}
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		ctx, cancel := context.WithCancel(context.Background())
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				_, err := p.ProfileContext(ctx, jb, instance(t, names[(g+i)%len(names)]))
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("goroutine %d: %v", g, err)
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			cancel() // races the profile calls: some die on admission, some mid-wait
		}()
	}
	wg.Wait()
	if bal := p.Stats().Balance(); bal != 0 {
		t.Errorf("scheduler counters leak under cancellation: balance = %d, want 0", bal)
	}
}

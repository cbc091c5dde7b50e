// Package wallclock exercises the wallclock analyzer: wall-clock reads
// and global math/rand draws are flagged, explicitly-seeded sources and
// annotated sites are not.
package wallclock

import (
	"math/rand"
	"time"
)

func bad() time.Duration {
	start := time.Now()                // want `time\.Now reads the wall clock`
	_ = rand.Intn(10)                  // want `rand\.Intn draws from the global seed-dependent source`
	rand.Shuffle(3, func(i, j int) {}) // want `rand\.Shuffle draws from the global`
	return time.Since(start)           // want `time\.Since reads the wall clock`
}

func badUntil(deadline time.Time) time.Duration {
	return time.Until(deadline) // want `time\.Until reads the wall clock`
}

func good() int {
	rng := rand.New(rand.NewSource(1))
	_ = time.Duration(42) * time.Millisecond
	_ = time.Unix(0, 0)
	return rng.Intn(10)
}

func allowed() time.Time {
	//lint:allow wallclock request latency metric, never enters a stall table
	return time.Now()
}

func allowedTrailing() time.Time {
	return time.Now() //lint:allow wallclock pool elapsed-time metric only
}

// schedule stands in for sim.Engine.Schedule: wall-clock reads inside
// continuation callbacks are flagged the same as in straight-line code.
func schedule(d time.Duration, fn func()) { fn() }

func badContinuation() {
	schedule(0, func() {
		_ = time.Now() // want `time\.Now reads the wall clock`
	})
}

func goodContinuation(virtualNow time.Duration) {
	schedule(time.Millisecond, func() {
		_ = virtualNow + time.Millisecond // virtual clocks are injected, never read
	})
}

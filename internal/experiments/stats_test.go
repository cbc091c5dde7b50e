package experiments

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestNegativeParallelismRunsConcurrently: Parallelism < 0 must mean
// GOMAXPROCS (core.ForEach's convention), not serial. Two cells
// rendezvous inside the pool; if the pre-fix normalization mapped
// negative to 1 they would run one after the other and the first would
// time out waiting for the second.
func TestNegativeParallelismRunsConcurrently(t *testing.T) {
	// The rendezvous needs the pool sized >= 2, not physical cores:
	// blocked goroutines interleave fine on one CPU.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	arrived := make(chan struct{}, 2)
	release := make(chan struct{})
	go func() {
		<-arrived
		<-arrived
		close(release)
	}()
	cfg := Config{Parallelism: -1}
	err := cfg.forEach(2, func(i int) error {
		arrived <- struct{}{}
		select {
		case <-release:
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("rendezvous timed out: cells ran serially")
		}
	})
	if err != nil {
		t.Fatalf("negative parallelism did not run cells concurrently: %v", err)
	}
}

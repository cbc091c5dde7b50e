package core

import (
	"context"
	"runtime"
	"sync"
)

// ForEach invokes fn(0) .. fn(n-1) on a worker pool of the given size
// (0 or negative = GOMAXPROCS) and returns the lowest-index error, so a
// failing sweep reports the same error regardless of completion order.
// workers == 1 preserves the serial path exactly, including its
// short-circuit on first error.
//
// This is the scheduling primitive behind every parallel sweep in the
// repo: callers write results into index i of a pre-sized slice and
// assemble output in index order afterwards, which keeps rendered
// tables byte-identical at any parallelism. It is equivalent to
// ForEachCtx with a background context.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), workers, n, fn)
}

// ForEachCtx is ForEach with cancellation: once ctx is done, no further
// fn calls start and every unstarted index is charged ctx.Err(). Calls
// already in flight are never interrupted — fn bodies in this repository
// are short deterministic simulations — so the cancelled sweep still
// returns the lowest-index error, which is either a real fn failure that
// happened before the cut or ctx.Err() itself. This is what threads a
// server request's deadline through the experiment and recommendation
// sweeps.
//
// Dispatch is static chunking, not a shared feed channel: worker w owns
// the contiguous index range [w*chunk, (w+1)*chunk). Each goroutine
// therefore walks adjacent cells, which in the experiment sweeps share
// scenarios, so single-flight cache hits land on the worker that
// populated them. Output assembly is unchanged: results land at index i
// regardless of which worker ran it, keeping rendered tables
// byte-identical at any parallelism.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	// Progress hook (WithProgress): announce the sweep's size up front,
	// then report each cell as it completes. Cells that never start
	// because ctx expired are not reported — a cancelled sweep's done
	// count stays below its announced total, which is how an observer
	// distinguishes "cancelled mid-sweep" from "finished".
	progress := progressFrom(ctx)
	if progress != nil {
		progress(0, n)
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			err := fn(i)
			if progress != nil {
				progress(1, 0)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				// Check per item so a cancelled sweep stops starting new
				// cells and charges the rest of this batch ctx.Err().
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(i)
				if progress != nil {
					progress(1, 0)
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

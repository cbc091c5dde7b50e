package core

import "context"

// ProgressFunc observes sweep progress as deltas: totalDelta announces
// newly known work (a sweep about to dispatch n cells), doneDelta
// reports completed cells. The cumulative done count is monotonically
// non-decreasing and never exceeds the cumulative total at quiescence.
// Implementations must be safe for concurrent use: parallel sweeps
// report completions from multiple worker goroutines.
type ProgressFunc func(doneDelta, totalDelta int)

type progressKey struct{}

// WithProgress returns a context carrying fn. Every sweep that runs
// under the returned context — ForEachCtx cell grids, RecommendContext
// candidate rankings, experiment panels — announces its cell count
// before dispatching and reports each completed cell, and
// ProfileContext reports its measurement stages the same way. This is
// what feeds the stashd v2 job API's cells_done/cells_total progress
// stream; CLI paths run without a hook and pay nothing.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// progressFrom extracts the progress hook, nil when none is attached.
func progressFrom(ctx context.Context) ProgressFunc {
	fn, _ := ctx.Value(progressKey{}).(ProgressFunc)
	return fn
}

package core

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// progressRecorder is a thread-safe ProgressFunc capturing cumulative
// done/total counts and asserting monotonicity.
type progressRecorder struct {
	mu          sync.Mutex
	done, total int64
	violations  []string
}

func (r *progressRecorder) fn(doneDelta, totalDelta int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if doneDelta < 0 || totalDelta < 0 {
		r.violations = append(r.violations, "negative delta")
	}
	r.done += int64(doneDelta)
	r.total += int64(totalDelta)
	if r.done > r.total {
		r.violations = append(r.violations, "done overtook total")
	}
}

func (r *progressRecorder) snapshot() (done, total int64, violations []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done, r.total, append([]string(nil), r.violations...)
}

func TestForEachCtxReportsProgress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rec := &progressRecorder{}
		ctx := WithProgress(context.Background(), rec.fn)
		err := ForEachCtx(ctx, workers, 9, func(i int) error { return nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		done, total, violations := rec.snapshot()
		if done != 9 || total != 9 {
			t.Errorf("workers=%d: progress = %d/%d, want 9/9", workers, done, total)
		}
		if len(violations) > 0 {
			t.Errorf("workers=%d: monotonicity violations: %v", workers, violations)
		}
	}
}

// TestForEachCtxCancelledProgress pins the cancellation contract: cells
// that never start are not reported, so a cancelled sweep's done count
// stays strictly below its announced total.
func TestForEachCtxCancelledProgress(t *testing.T) {
	rec := &progressRecorder{}
	ctx, cancel := context.WithCancel(WithProgress(context.Background(), rec.fn))
	cancel()
	err := ForEachCtx(ctx, 1, 5, func(i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	done, total, _ := rec.snapshot()
	if total != 5 {
		t.Errorf("total = %d, want 5 (announced before the cut)", total)
	}
	if done != 0 {
		t.Errorf("done = %d, want 0 (no cell started)", done)
	}
}

// TestForEachCtxNoHookNoOverhead just pins that sweeps run fine with no
// hook attached (the CLI path).
func TestForEachCtxNoHook(t *testing.T) {
	n := 0
	if err := ForEachCtx(context.Background(), 1, 3, func(i int) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("ran %d cells, want 3", n)
	}
}

// TestProfileContextProgress pins the stage accounting: a multi-GPU
// instance with an even GPU count announces 4 stages (interconnect,
// data, network, epoch), a single-GPU instance announces 3.
func TestProfileContextProgress(t *testing.T) {
	cases := []struct {
		instance string
		stages   int64
	}{
		{"p3.16xlarge", 4},
		{"p3.2xlarge", 3},
	}
	for _, c := range cases {
		rec := &progressRecorder{}
		ctx := WithProgress(context.Background(), rec.fn)
		p := fastProfiler()
		if _, err := p.ProfileContext(ctx, job(t, resnet18(t), 32), instance(t, c.instance)); err != nil {
			t.Fatalf("%s: %v", c.instance, err)
		}
		done, total, violations := rec.snapshot()
		if done != c.stages || total != c.stages {
			t.Errorf("%s: progress = %d/%d, want %d/%d", c.instance, done, total, c.stages, c.stages)
		}
		if len(violations) > 0 {
			t.Errorf("%s: monotonicity violations: %v", c.instance, violations)
		}
	}
}

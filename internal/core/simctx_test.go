package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"stash/internal/cloud"
	"stash/internal/dnn"
	"stash/internal/sim"
	"stash/internal/simnet"
	"stash/internal/train"
)

// runCellOn provisions a world on the given engine/network and runs one
// synthetic training cell on it, the way the pooled simulate path does.
func runCellOn(t *testing.T, eng *sim.Engine, net *simnet.Network, instName string, model *dnn.Model, batch, count int) *train.Result {
	t.Helper()
	top, err := cloud.NewProvisioner(cloud.SliceDegraded, 1).Provision(net, instance(t, instName), count)
	if err != nil {
		t.Fatal(err)
	}
	res, err := train.Run(eng, net, train.Config{
		Job:            job(t, model, batch),
		Topology:       top,
		Iterations:     4,
		Warmup:         2,
		Synthetic:      true,
		DisableOverlap: !top.SupportsAsyncCollectives(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResetEngineByteIdentity is the engine-reuse guarantee the pool
// rests on: a cell simulated on a Reset() engine that previously ran a
// different scenario (different model, instance type, and world size)
// reports a Result deeply equal to the same cell on a fresh engine.
func TestResetEngineByteIdentity(t *testing.T) {
	//lint:allow hotpath the test builds a private engine precisely to compare fresh against recycled construction
	fresh := sim.NewEngine()
	freshNet := simnet.New(fresh)
	want := runCellOn(t, fresh, freshNet, "p3.16xlarge", resnet18(t), 32, 1)

	vgg, err := dnn.VGG(16)
	if err != nil {
		t.Fatal(err)
	}
	//lint:allow hotpath the test builds a private engine precisely to compare fresh against recycled construction
	used := sim.NewEngine()
	usedNet := simnet.New(used)
	runCellOn(t, used, usedNet, "p3.8xlarge", vgg, 16, 2)
	used.Reset()
	usedNet.Reset()
	got := runCellOn(t, used, usedNet, "p3.16xlarge", resnet18(t), 32, 1)

	if !reflect.DeepEqual(want, got) {
		t.Errorf("recycled engine diverges from fresh:\n got %+v\nwant %+v", got, want)
	}
}

// TestOnePeriodProfileByteIdentity pins the one-period contract at the
// API level (the audit family re-checks it end to end): profiles computed
// from one period and from every iteration are deeply equal, CommBusy
// included.
func TestOnePeriodProfileByteIdentity(t *testing.T) {
	jb := job(t, resnet18(t), 32)
	it := instance(t, "p3.16xlarge")
	period, err := fastProfiler(WithSeed(7)).Profile(jb, it)
	if err != nil {
		t.Fatal(err)
	}
	full, err := fastProfiler(WithSeed(7), WithEveryIteration(true)).Profile(jb, it)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(period, full) {
		t.Errorf("one-period profile diverges from full run:\n got %+v\nwant %+v", period, full)
	}
}

// TestSimContextPoolCancellationStress hammers the worker-affine context
// pool from many goroutines while their contexts are cancelled mid
// flight. Run under -race in CI, it proves pooled engines are never
// shared between concurrent requests and that cancelled single-flight
// waiters (the accounting fixed in the conservation audit) keep the
// counters conserving.
func TestSimContextPoolCancellationStress(t *testing.T) {
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

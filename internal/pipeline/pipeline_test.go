package pipeline

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"stash/internal/hw"
	"stash/internal/sim"
	"stash/internal/simnet"
	"stash/internal/workload"
)

// testRig bundles an engine, a network and a host pipeline.
type testRig struct {
	eng    *sim.Engine
	net    *simnet.Network
	hp     *HostPipeline
	upload *simnet.Link
}

func newRig(t *testing.T, cfg Config) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	net := simnet.New(eng)
	hp, err := New(eng, net, 0, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &testRig{
		eng:    eng,
		net:    net,
		hp:     hp,
		upload: net.NewLink("upload", 12*hw.GB, 5*time.Microsecond),
	}
}

func smallJob(t *testing.T, batch int) workload.Job {
	t.Helper()
	job, err := workload.NewJob(mustResNet18(t), batch)
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	return job
}

func defaultCfg() Config {
	return Config{
		Storage:    hw.GP2SSD,
		CPU:        hw.Xeon(32),
		CacheBytes: 200e9,
	}
}

// spawnConsumer drains l with a task that computes for computeTime per
// batch, storing the virtual time at which it saw the stream end in *end.
func (r *testRig) spawnConsumer(l *Loader, computeTime time.Duration, end *time.Duration) {
	var task *sim.Task
	var next func()
	next = func() {
		l.NextFunc(func(_ Batch, ok bool) {
			if !ok {
				*end = r.eng.Now()
				task.End()
				return
			}
			task.After(computeTime, next)
		})
	}
	task = r.eng.Spawn("consumer", next)
}

// consume drains l, computing for computeTime per batch, and returns the
// total elapsed virtual time.
func (r *testRig) consume(t *testing.T, l *Loader, computeTime time.Duration) time.Duration {
	t.Helper()
	var elapsed time.Duration
	r.spawnConsumer(l, computeTime, &elapsed)
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return elapsed
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng)
	bad := []Config{
		{CPU: hw.Xeon(8)},    // no storage
		{Storage: hw.GP2SSD}, // no CPU
		{Storage: hw.GP2SSD, CPU: hw.Xeon(8), CacheBytes: -1},    // negative cache
		{Storage: hw.GP2SSD, CPU: hw.Xeon(8), PrefetchDepth: -2}, // negative prefetch
		// Non-finite specs used to pass the sign checks above.
		{Storage: storage(func(s *hw.StorageSpec) { s.Throughput = math.NaN() }), CPU: hw.Xeon(8)},
		{Storage: storage(func(s *hw.StorageSpec) { s.Throughput = math.Inf(1) }), CPU: hw.Xeon(8)},
		{Storage: storage(func(s *hw.StorageSpec) { s.IOPS = math.Inf(1) }), CPU: hw.Xeon(8)},
		{Storage: storage(func(s *hw.StorageSpec) { s.IOPS = math.NaN() }), CPU: hw.Xeon(8)},
		{Storage: storage(func(s *hw.StorageSpec) { s.IOPS = -1 }), CPU: hw.Xeon(8)},
		{Storage: storage(func(s *hw.StorageSpec) { s.RequestLatency = -1 }), CPU: hw.Xeon(8)},
		{Storage: hw.GP2SSD, CPU: hw.CPUSpec{VCPUs: 8, PrepRate: math.NaN()}},
		{Storage: hw.GP2SSD, CPU: hw.CPUSpec{VCPUs: 2, PrepRate: math.MaxFloat64}}, // pool rate overflows
		{Storage: hw.GP2SSD, CPU: hw.Xeon(8), CacheBytes: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := New(eng, net, 0, cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

// storage returns GP2SSD with one field changed by set.
func storage(set func(*hw.StorageSpec)) hw.StorageSpec {
	s := hw.GP2SSD
	set(&s)
	return s
}

func TestLoaderValidation(t *testing.T) {
	r := newRig(t, defaultCfg())
	job := smallJob(t, 32)
	if _, err := r.hp.NewLoader(job, []*simnet.Link{r.upload}, 0); err == nil {
		t.Error("zero iterations should fail")
	}
	if _, err := r.hp.NewLoader(job, nil, 5); err == nil {
		t.Error("empty route should fail")
	}
}

func TestWarmCacheSkipsDisk(t *testing.T) {
	cfg := defaultCfg()
	cfg.CacheBytes = 200e9 // dataset (133 GB) fits
	r := newRig(t, cfg)
	r.hp.SetCacheMode(CacheWarm)
	l, err := r.hp.NewLoader(smallJob(t, 32), []*simnet.Link{r.upload}, 10)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	l.Start("loader")
	r.consume(t, l, time.Millisecond)
	if got := r.hp.DiskLink().BytesCarried(); got != 0 {
		t.Errorf("warm cache read %v bytes from disk, want 0", got)
	}
}

func TestColdCacheReadsEverything(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.hp.SetCacheMode(CacheCold)
	job := smallJob(t, 32)
	const iters = 10
	l, err := r.hp.NewLoader(job, []*simnet.Link{r.upload}, iters)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	l.Start("loader")
	r.consume(t, l, time.Millisecond)
	want := float64(iters) * 32 * job.Dataset.DiskBytesPerSample
	got := r.hp.DiskLink().BytesCarried()
	if diff := got - want; diff > 1 || diff < -1 {
		t.Errorf("disk bytes = %v, want %v", got, want)
	}
}

func TestPartialCacheReducesDiskTraffic(t *testing.T) {
	cfg := defaultCfg()
	cfg.CacheBytes = workload.ImageNet1k.TotalBytes() / 2 // half fits
	r := newRig(t, cfg)
	r.hp.SetCacheMode(CacheWarm)
	job := smallJob(t, 32)
	const iters = 10
	l, err := r.hp.NewLoader(job, []*simnet.Link{r.upload}, iters)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	l.Start("loader")
	r.consume(t, l, time.Millisecond)
	full := float64(iters) * 32 * job.Dataset.DiskBytesPerSample
	got := r.hp.DiskLink().BytesCarried()
	if got <= 0.4*full || got >= 0.6*full {
		t.Errorf("half-cached disk bytes = %v, want ~%v", got, full/2)
	}
}

func TestSlowConsumerSeesNoStall(t *testing.T) {
	// A consumer much slower than the pipeline should spend ~all its time
	// computing: total ~= iters x compute.
	r := newRig(t, defaultCfg())
	r.hp.SetCacheMode(CacheWarm)
	const iters = 20
	compute := 100 * time.Millisecond
	l, err := r.hp.NewLoader(smallJob(t, 32), []*simnet.Link{r.upload}, iters)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	l.Start("loader")
	total := r.consume(t, l, compute)
	ideal := time.Duration(iters) * compute
	if total > ideal+ideal/10 {
		t.Errorf("total = %v, want close to compute-bound %v", total, ideal)
	}
}

// TestLoaderStateTellsDepth: a loader's encoding tells apart two
// instants at which it is prefetched to different depths, even when
// every flow it awaits is named alike, and encodes equal once the
// consumer's batch is refetched.
func TestLoaderStateTellsDepth(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.hp.SetCacheMode(CacheWarm)
	l, err := r.hp.NewLoader(smallJob(t, 32), []*simnet.Link{r.upload}, 20)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	l.Start("loader")
	anyFlow := func(*simnet.Flow) (uint64, bool) { return 0, true }
	state := func() []uint64 {
		t.Helper()
		code, ok := l.AppendState(nil, anyFlow)
		if !ok {
			t.Fatal("AppendState reported an uncovered state")
		}
		return code
	}
	// With no consumer the loader fills its prefetch credits and stops:
	// the engine runs out of events with its tasks blocked.
	idle := func() {
		t.Helper()
		if err := r.eng.Run(); !errors.Is(err, sim.ErrDeadlock) {
			t.Fatalf("Run = %v, want the loader blocked on its credits", err)
		}
	}
	idle()
	full := state()
	l.NextFunc(func(Batch, bool) {})
	if taken := state(); reflect.DeepEqual(taken, full) {
		t.Errorf("a batch taken from a full loader encodes as the full loader: %v", full)
	}
	idle()
	if refilled := state(); !reflect.DeepEqual(refilled, full) {
		t.Errorf("the refilled loader encodes %v, the full one %v", refilled, full)
	}
}

// TestDrainedLoaderStateIgnoresBuffer: once a loader has queued its last
// batch, its encoding leaves out how many batches wait for the consumer,
// so two drained instants with different buffers encode equal; an
// instant at which its last upload is still in flight does not.
func TestDrainedLoaderStateIgnoresBuffer(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.hp.SetCacheMode(CacheWarm)
	const batches = 3 // fewer than the prefetch credits: no consumer needed
	l, err := r.hp.NewLoader(smallJob(t, 32), []*simnet.Link{r.upload}, batches)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	l.Start("loader")
	anyFlow := func(*simnet.Flow) (uint64, bool) { return 0, true }
	state := func() []uint64 {
		t.Helper()
		code, ok := l.AppendState(nil, anyFlow)
		if !ok {
			t.Fatal("AppendState reported an uncovered state")
		}
		return code
	}
	// The last upload in flight, at a quiet instant.
	var uploading []uint64
	var pending []sim.Event
	var check func()
	check = func() {
		if pending = r.eng.AppendPending(pending[:0]); len(pending) > 0 && pending[0].At() == r.eng.Now() {
			r.eng.Schedule(0, check)
			return
		}
		if l.Unfetched() == 0 && l.upFlow != nil && uploading == nil {
			if l.Drained() {
				t.Error("a loader with an upload in flight reports drained")
			}
			uploading = state()
		}
		if !l.Drained() {
			r.eng.Schedule(10*time.Microsecond, check)
		}
	}
	r.eng.Schedule(0, check)
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if uploading == nil {
		t.Fatal("never saw the last upload in flight")
	}
	if !l.Drained() || l.queue.Len() != batches {
		t.Fatalf("after the run: drained %v with %d buffered, want drained with %d", l.Drained(), l.queue.Len(), batches)
	}
	full := state()
	if reflect.DeepEqual(uploading, full) {
		t.Errorf("a loader with its last upload in flight encodes as a drained one: %v", full)
	}
	l.NextFunc(func(Batch, bool) {})
	if taken := state(); l.queue.Len() != batches-1 || !reflect.DeepEqual(taken, full) {
		t.Errorf("drained with %d buffered encodes %v, with %d %v", l.queue.Len(), taken, batches, full)
	}
	l.Shorten(2)
	if l.queue.Len() != 0 || l.credits.InUse() != 0 {
		t.Errorf("shortened by all it buffers: %d buffered, %d credits in use", l.queue.Len(), l.credits.InUse())
	}
}

// TestLoaderStateImpliesLookahead backs the loader's encoding without a
// word for its fetch lookahead over its consumer (the batches fetched
// but not yet asked for): wherever nothing more is due at the instant,
// as at a probed iteration boundary, the lookahead equals the prefetch
// credits in use, less the one held by a read in flight and the
// consumer's waiting request, all of which the encoding has. Cold and
// warm caches, and consumers faster and slower than the loader, are
// checked at every quiet instant on a 50 µs grid.
func TestLoaderStateImpliesLookahead(t *testing.T) {
	for _, mode := range []CacheMode{CacheCold, CacheWarm} {
		for _, compute := range []time.Duration{time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond} {
			r := newRig(t, defaultCfg())
			r.hp.SetCacheMode(mode)
			const batches = 30
			l, err := r.hp.NewLoader(smallJob(t, 32), []*simnet.Link{r.upload}, batches)
			if err != nil {
				t.Fatalf("NewLoader: %v", err)
			}
			l.Start("loader")
			// The consumer asks for every batch and no more, as a worker does.
			asked, done := 0, false
			var task *sim.Task
			var next func()
			next = func() {
				if asked == batches {
					done = true
					task.End()
					return
				}
				asked++
				l.NextFunc(func(Batch, bool) { task.After(compute, next) })
			}
			task = r.eng.Spawn("consumer", next)
			checked := 0
			var pending []sim.Event
			var check func()
			check = func() {
				now := r.eng.Now()
				if pending = r.eng.AppendPending(pending[:0]); len(pending) > 0 && pending[0].At() == now {
					r.eng.Schedule(0, check)
					return
				}
				reading := 0
				if l.reads != nil {
					reading = 1
				}
				if want, got := l.next-asked, l.credits.InUse()-reading-l.queue.Waiting(); got != want {
					t.Fatalf("%v cache, %v per batch, at %v: lookahead %d, but the encoded words give %d",
						mode, compute, now, want, got)
				}
				checked++
				if !done {
					r.eng.Schedule(50*time.Microsecond, check)
				}
			}
			r.eng.Schedule(0, check)
			if err := r.eng.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if checked < 100 {
				t.Errorf("%v cache, %v per batch: only %d instants checked", mode, compute, checked)
			}
		}
	}
}

func TestFastConsumerStallsOnColdDisk(t *testing.T) {
	// A consumer much faster than the disk must be fetch-bound: total ~=
	// disk time.
	r := newRig(t, defaultCfg())
	r.hp.SetCacheMode(CacheCold)
	const iters = 20
	job := smallJob(t, 128)
	l, err := r.hp.NewLoader(job, []*simnet.Link{r.upload}, iters)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	l.Start("loader")
	total := r.consume(t, l, time.Millisecond)
	byteSeconds := float64(iters) * 128 * job.Dataset.DiskBytesPerSample / hw.GP2SSD.Throughput
	iopsSeconds := float64(iters) * 128 / hw.GP2SSD.IOPS
	diskSeconds := math.Max(byteSeconds, iopsSeconds)
	if total.Seconds() < diskSeconds {
		t.Errorf("total %v below disk lower bound %vs", total, diskSeconds)
	}
	if total.Seconds() > diskSeconds*1.3 {
		t.Errorf("total %v far above disk bound %vs: unexplained stall", total, diskSeconds)
	}
}

func TestTwoLoadersContendOnDisk(t *testing.T) {
	elapsed := func(nLoaders int) time.Duration {
		r := newRig(t, defaultCfg())
		r.hp.SetCacheMode(CacheCold)
		const iters = 10
		var loaders []*Loader
		for i := 0; i < nLoaders; i++ {
			l, err := r.hp.NewLoader(smallJob(t, 64), []*simnet.Link{r.upload}, iters)
			if err != nil {
				t.Fatalf("NewLoader: %v", err)
			}
			l.Start("loader")
			loaders = append(loaders, l)
		}
		var max time.Duration
		done := make([]time.Duration, nLoaders)
		for i, l := range loaders {
			r.spawnConsumer(l, time.Millisecond, &done[i])
		}
		if err := r.eng.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		for _, d := range done {
			if d > max {
				max = d
			}
		}
		return max
	}
	one, four := elapsed(1), elapsed(4)
	if ratio := four.Seconds() / one.Seconds(); ratio < 3.5 || ratio > 4.5 {
		t.Errorf("4-loader slowdown = %.2fx, want ~4x (shared disk)", ratio)
	}
}

func TestPrepUsesCPUPool(t *testing.T) {
	// With a tiny CPU, prep dominates: total ~= batch*iters/prepRate.
	cfg := defaultCfg()
	cfg.CPU = hw.CPUSpec{Name: "tiny", VCPUs: 1, PrepRate: 100}
	r := newRig(t, cfg)
	r.hp.SetCacheMode(CacheWarm)
	const iters, batch = 10, 128
	l, err := r.hp.NewLoader(smallJob(t, batch), []*simnet.Link{r.upload}, iters)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	l.Start("loader")
	total := r.consume(t, l, time.Millisecond)
	prepSeconds := float64(iters*batch) / 100
	if total.Seconds() < prepSeconds || total.Seconds() > prepSeconds*1.2 {
		t.Errorf("total = %v, want ~%vs (prep-bound)", total, prepSeconds)
	}
}

func TestBERTPrepIsCheap(t *testing.T) {
	job, err := workload.NewJob(mustBERT(t), 4)
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if job.Dataset.Name != "squad2" {
		t.Fatalf("BERT dataset = %s, want squad2", job.Dataset.Name)
	}
	if job.Dataset.PrepCostFactor >= workload.ImageNet1k.PrepCostFactor {
		t.Error("tokenized text prep should be cheaper than image decode")
	}
}

func TestCacheModeString(t *testing.T) {
	if CacheCold.String() != "cold" || CacheWarm.String() != "warm" {
		t.Error("CacheMode strings wrong")
	}
	if CacheMode(0).String() != "CacheMode(0)" {
		t.Error("unknown CacheMode string wrong")
	}
}

// loaderTrace is what the timing oracle pins for one setup: the virtual
// time at which each consumer received each batch, and the bytes the
// disk and CPU links carried over the whole run.
type loaderTrace struct {
	deliveries [][]time.Duration
	disk, cpu  float64
}

// traceLoaders starts one loader per consumer on a fresh rig and drains
// them with continuation consumers that compute 1 ms per batch.
func traceLoaders(t *testing.T, cfg Config, mode CacheMode, loaders, batch, iters int) loaderTrace {
	t.Helper()
	r := newRig(t, cfg)
	r.hp.SetCacheMode(mode)
	tr := loaderTrace{deliveries: make([][]time.Duration, loaders)}
	for i := 0; i < loaders; i++ {
		l, err := r.hp.NewLoader(smallJob(t, batch), []*simnet.Link{r.upload}, iters)
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		l.Start("loader")
		i := i
		var task *sim.Task
		var next func()
		next = func() {
			l.NextFunc(func(_ Batch, ok bool) {
				if !ok {
					task.End()
					return
				}
				tr.deliveries[i] = append(tr.deliveries[i], r.eng.Now())
				task.After(time.Millisecond, next)
			})
		}
		task = r.eng.Spawn("consumer", next)
	}
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr.disk = r.hp.DiskLink().BytesCarried()
	tr.cpu = r.hp.CPULink().BytesCarried()
	return tr
}

// TestLoaderTimingOracle pins the exact delivery schedule and link totals
// of three loader setups, so any change to how the stages are expressed
// must reproduce every simulated timestamp bit for bit.
func TestLoaderTimingOracle(t *testing.T) {
	partial := defaultCfg()
	partial.CacheBytes = workload.ImageNet1k.TotalBytes() / 2
	cases := []struct {
		name                 string
		cfg                  Config
		mode                 CacheMode
		loaders, batch, iter int
		want                 loaderTrace
	}{
		{"cold-gp2", defaultCfg(), CacheCold, 1, 128, 5, loaderTrace{
			deliveries: [][]time.Duration{{96427528, 176427528, 256427528, 336427528, 416427528}},
			disk:       6.643942592964071e+07,
			cpu:        640,
		}},
		{"warm-partial", partial, CacheWarm, 1, 32, 5, loaderTrace{
			deliveries: [][]time.Duration{{14110632, 24110632, 34110632, 44110632, 54110632}},
			disk:       8.304928241205089e+06,
			cpu:        160,
		}},
		{"cold-contended", defaultCfg(), CacheCold, 2, 64, 4, loaderTrace{
			deliveries: [][]time.Duration{
				{96427528, 176427528, 256427528, 336427528},
				{96427528, 176427528, 256427528, 336427528},
			},
			disk: 5.315154074371256e+07,
			cpu:  512,
		}},
	}
	for _, c := range cases {
		got := traceLoaders(t, c.cfg, c.mode, c.loaders, c.batch, c.iter)
		if !reflect.DeepEqual(got.deliveries, c.want.deliveries) {
			t.Errorf("%s: deliveries = %v, want %v", c.name, got.deliveries, c.want.deliveries)
		}
		//lint:allow floatcmp the oracle pins exact totals; any drift means the event sequence changed
		if got.disk != c.want.disk || got.cpu != c.want.cpu {
			t.Errorf("%s: disk, cpu = %v, %v; want %v, %v", c.name, got.disk, got.cpu, c.want.disk, c.want.cpu)
		}
	}
}

// Package pipeline simulates the DNN input pipeline of one machine: a
// storage volume shared by all dataloader workers, the OS page cache, a
// CPU pre-processing pool, and the PCIe upload to each GPU. Fetch (disk)
// and prep (CPU) stalls emerge when the pipeline cannot keep up with the
// GPUs, exactly the phenomena DS-Analyzer's steps measure (§II-B).
//
// Contention is modeled with fluid flows: the disk and the CPU pool are
// simnet links whose capacity all concurrent workers share max-min
// fairly, so 16 workers hammering one gp2 volume starve each other the
// way Fig 4b shows.
package pipeline

import (
	"fmt"
	"math"

	"stash/internal/hw"
	"stash/internal/sim"
	"stash/internal/simnet"
	"stash/internal/workload"
)

// CacheMode selects the page-cache state for a run, mirroring
// DS-Analyzer's methodology.
type CacheMode int

// Cache modes.
const (
	// CacheCold models step 3: caches dropped before the run, every
	// sample is read from the volume (each exactly once per epoch).
	CacheCold CacheMode = iota + 1

	// CacheWarm models step 4: the dataset was fully read in a previous
	// epoch; reads hit DRAM up to the cache capacity.
	CacheWarm
)

// String returns the mode name.
func (m CacheMode) String() string {
	switch m {
	case CacheCold:
		return "cold"
	case CacheWarm:
		return "warm"
	default:
		return fmt.Sprintf("CacheMode(%d)", int(m))
	}
}

// Config describes one machine's input-pipeline hardware.
type Config struct {
	Storage hw.StorageSpec
	CPU     hw.CPUSpec

	// CacheBytes is the DRAM available for the page cache (main memory
	// minus framework overhead).
	CacheBytes float64

	// PrefetchDepth is how many batches each dataloader keeps in flight
	// ahead of the consumer (PyTorch DataLoader prefetch); 0 uses the
	// default of 4.
	PrefetchDepth int
}

// HostPipeline is the shared input-pipeline state of one machine.
type HostPipeline struct {
	eng  *sim.Engine
	net  *simnet.Network
	cfg  Config
	disk *simnet.Link
	iops *simnet.Link
	cpu  *simnet.Link
	mode CacheMode
}

// New builds a host pipeline on the machine's network. Node namespaces
// the link names.
func New(eng *sim.Engine, net *simnet.Network, node int, cfg Config) (*HostPipeline, error) {
	st := cfg.Storage
	if !finitePositive(st.Throughput) {
		return nil, fmt.Errorf("pipeline: storage throughput %v is not finite and positive", st.Throughput)
	}
	if !(st.IOPS >= 0) || math.IsInf(st.IOPS, 1) {
		return nil, fmt.Errorf("pipeline: storage IOPS %v is not finite and non-negative", st.IOPS)
	}
	if st.RequestLatency < 0 {
		return nil, fmt.Errorf("pipeline: negative storage request latency %v", st.RequestLatency)
	}
	if cfg.CPU.VCPUs < 1 || !finitePositive(float64(cfg.CPU.VCPUs)*cfg.CPU.PrepRate) {
		return nil, fmt.Errorf("pipeline: bad CPU spec %+v", cfg.CPU)
	}
	if !(cfg.CacheBytes >= 0) {
		return nil, fmt.Errorf("pipeline: cache size %v is not non-negative", cfg.CacheBytes)
	}
	if cfg.PrefetchDepth == 0 {
		cfg.PrefetchDepth = 4
	}
	if cfg.PrefetchDepth < 0 {
		return nil, fmt.Errorf("pipeline: negative prefetch depth")
	}
	hp := &HostPipeline{
		eng:  eng,
		net:  net,
		cfg:  cfg,
		mode: CacheWarm,
		disk: net.NewLink(fmt.Sprintf("node%d/disk", node), cfg.Storage.Throughput, cfg.Storage.RequestLatency),
		// The CPU pool is a fluid resource measured in samples/sec.
		cpu: net.NewLink(fmt.Sprintf("node%d/cpu", node), float64(cfg.CPU.VCPUs)*cfg.CPU.PrepRate, 0),
	}
	if cfg.Storage.IOPS > 0 {
		// Random small-file reads are bounded by the volume's operation
		// budget as well as its byte throughput (one read op per sample).
		hp.iops = net.NewLink(fmt.Sprintf("node%d/disk-iops", node), cfg.Storage.IOPS, 0)
	}
	return hp, nil
}

// finitePositive reports whether v is a finite number above zero.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// SetCacheMode switches between the cold (step 3) and warm (step 4)
// cache regimes for subsequent reads.
func (hp *HostPipeline) SetCacheMode(m CacheMode) { hp.mode = m }

// CacheMode returns the current cache regime.
func (hp *HostPipeline) CacheMode() CacheMode { return hp.mode }

// hitFraction returns the fraction of reads served from DRAM for the
// given dataset.
func (hp *HostPipeline) hitFraction(ds workload.Dataset) float64 {
	if hp.mode == CacheCold {
		return 0
	}
	total := ds.TotalBytes()
	if total <= hp.cfg.CacheBytes {
		return 1
	}
	return hp.cfg.CacheBytes / total
}

// Batch is one ready-to-train mini-batch produced by a loader.
type Batch struct {
	Index int
}

// Loader is one GPU worker's dataloader: it fetches, preps and uploads
// batches ahead of the consumer.
type Loader struct {
	hp         *HostPipeline
	job        workload.Job
	uploadTo   []*simnet.Link
	iterations int
	queue      *sim.Queue[Batch]
	credits    *sim.Resource

	// Stage state, read by AppendState: the batches fetched so far, the
	// queues between the stages, and the flows each stage awaits (nil
	// when it awaits none).
	next             int
	fetched, prepped *sim.Queue[Batch]
	reads, ops       *simnet.Flow
	prepFlow, upFlow *simnet.Flow
}

// NewLoader creates a dataloader that will produce the given number of
// batches for job, uploading each decoded batch along uploadTo (the
// host-to-GPU route). Call Start to spawn its stage tasks.
func (hp *HostPipeline) NewLoader(job workload.Job, uploadTo []*simnet.Link, iterations int) (*Loader, error) {
	if iterations < 1 {
		return nil, fmt.Errorf("pipeline: iterations %d < 1", iterations)
	}
	if len(uploadTo) == 0 {
		return nil, fmt.Errorf("pipeline: empty upload route")
	}
	return &Loader{
		hp:         hp,
		job:        job,
		uploadTo:   uploadTo,
		iterations: iterations,
		queue:      sim.NewQueue[Batch](hp.eng),
		credits:    sim.NewResource(hp.eng, hp.cfg.PrefetchDepth),
		fetched:    sim.NewQueue[Batch](hp.eng),
		prepped:    sim.NewQueue[Batch](hp.eng),
	}, nil
}

// Start spawns the loader's stage tasks. Fetch, prep and upload run as a
// three-stage pipeline (as PyTorch DataLoader workers plus the
// pinned-memory uploader do), so steady-state loader throughput is set by
// the slowest stage, not their sum. Name prefixes the task names.
func (l *Loader) Start(name string) {
	hp := l.hp
	batch := float64(l.job.BatchPerGPU)
	ds := l.job.Dataset

	// Fetch takes a prefetch credit, then reads the encoded batch from
	// the volume, minus cache hits. Bytes and read operations are
	// separate budgets consumed concurrently; the slower one gates the
	// fetch.
	var fetch *sim.Task
	var next, read, put func()
	next = func() {
		if l.next == l.iterations {
			l.fetched.Close()
			fetch.End()
			return
		}
		l.credits.AcquireFunc(read)
	}
	put = func() {
		l.reads, l.ops = nil, nil
		l.fetched.Put(Batch{Index: l.next})
		l.next++
		next()
	}
	read = func() {
		missFrac := 1 - hp.hitFraction(ds)
		diskBytes := batch * ds.DiskBytesPerSample * missFrac
		if diskBytes <= 0 {
			put()
			return
		}
		l.reads = hp.net.StartFlow(diskBytes, []*simnet.Link{hp.disk})
		if hp.iops == nil {
			l.reads.Done().OnFire(put)
			return
		}
		l.ops = hp.net.StartFlowLatency(batch*missFrac, []*simnet.Link{hp.iops}, 0)
		l.ops.Done().OnFire(func() { l.reads.Done().OnFire(put) })
	}
	fetch = hp.eng.Spawn(name+"/fetch", next)

	// Decode+augment on the shared CPU pool. The "bytes" of this flow are
	// samples of standard prep work.
	prepWork := batch * ds.PrepCostFactor
	l.stage(name+"/prep", l.fetched, l.prepped, prepWork > 0, prepWork, []*simnet.Link{hp.cpu}, &l.prepFlow)
	// Upload the decoded batch to the GPU over PCIe.
	l.stage(name+"/upload", l.prepped, l.queue, true, batch*l.job.Model.SampleBytes, l.uploadTo, &l.upFlow)
}

// stage spawns a task that moves each batch from in to out, carrying
// bytes along route first when carry is set (the flow kept in *flow
// until it is done), and closes out once in is drained.
func (l *Loader) stage(name string, in, out *sim.Queue[Batch], carry bool, bytes float64, route []*simnet.Link, flow **simnet.Flow) {
	var task *sim.Task
	var cur Batch
	var next func()
	put := func() {
		*flow = nil
		out.Put(cur)
		next()
	}
	got := func(b Batch, ok bool) {
		if !ok {
			out.Close()
			task.End()
			return
		}
		cur = b
		if carry {
			*flow = l.hp.net.StartFlow(bytes, route)
			(*flow).Done().OnFire(put)
			return
		}
		put()
	}
	next = func() { in.GetFunc(got) }
	task = l.hp.eng.Spawn(name, next)
}

// NextFunc hands the consumer its next batch: fn receives it
// synchronously when one is buffered, otherwise when the upload stage
// produces it; ok is false after the final batch. The time spent waiting
// here is the worker's fetch+prep stall. The prefetch credit is returned
// before fn runs.
func (l *Loader) NextFunc(fn func(Batch, bool)) {
	l.queue.GetFunc(func(b Batch, ok bool) {
		if ok {
			l.credits.Release()
		}
		fn(b, ok)
	})
}

// Unfetched returns how many batches the loader has yet to fetch.
func (l *Loader) Unfetched() int { return l.iterations - l.next }

// Drained reports whether the loader has handed its last batch to the
// queue its consumer reads: it has fetched every batch, and no batch or
// flow is left in its stages. Closing a stage's output is the last thing
// the stage does, once its input is closed and empty, so a closed queue
// says all of that.
func (l *Loader) Drained() bool { return l.queue.Closed() }

// Skippable returns the most steps Shorten may skip: the batches the
// loader hands over before it runs out. A loader still fetching runs out
// when it fetches its last batch, which changes its pace, so it may skip
// its unfetched batches less that one. A drained loader runs out when
// its queue does, and at an iteration boundary its worker already holds
// the current batch, so the queued batches are exactly the steps after
// the current one.
func (l *Loader) Skippable() int {
	if l.Drained() {
		return l.queue.Len()
	}
	return l.Unfetched() - 1
}

// Shorten lowers the number of batches the loader hands over by m, at
// most Skippable. A loader still fetching fetches m fewer; a drained one
// drops m of its queued batches, as if its consumer had taken them.
func (l *Loader) Shorten(m int) {
	if m < 0 || m > l.Skippable() {
		panic(fmt.Sprintf("pipeline: shorten by %d with %d batches skippable", m, l.Skippable()))
	}
	if l.Drained() {
		l.queue.Discard(m)
		for range m {
			l.credits.Release()
		}
		return
	}
	l.iterations -= m
}

// drainedState is the first word of a drained loader's encoding. A live
// encoding starts with the prefetch credits in use, a count far below it.
const drainedState = math.MaxUint64

// AppendState appends the encoding of the loader's state to buf: the
// prefetch credits in use and awaited, each queue's length, waiting
// getters and closed flag, and the flows its stages await, named by ref.
// Two loaders that encode equal at instants whose networks and pending
// events encode equal produce batches alike until one runs out. The
// fetch lookahead over the consumer needs no word of its own: at an
// instant with nothing more due, every credit in use is held by a batch
// fetched and not yet handed over, or by the read in flight, and every
// batch asked for and not yet handed over is the consumer's waiting
// getter, so the lookahead is the credits in use less those two.
//
// A drained loader encodes as drainedState and its queue's waiting
// getters only. Its credits in use and its queue's length count nothing
// but the batches left: every later get is served at once, and a credit
// released with fetching over wakes no one. So two drained loaders hand
// over batches alike until the one with fewer runs out. AppendState
// reports false if ref does.
func (l *Loader) AppendState(buf []uint64, ref func(*simnet.Flow) (uint64, bool)) ([]uint64, bool) {
	if l.Drained() {
		return append(buf, drainedState, uint64(l.queue.Waiting())), true
	}
	buf = append(buf, uint64(l.credits.InUse()), uint64(l.credits.Waiting()))
	buf = appendQueue(buf, l.fetched)
	buf = appendQueue(buf, l.prepped)
	buf = appendQueue(buf, l.queue)
	for _, f := range [...]*simnet.Flow{l.reads, l.ops, l.prepFlow, l.upFlow} {
		r, ok := ref(f)
		if !ok {
			return buf, false
		}
		buf = append(buf, r)
	}
	return buf, true
}

// appendQueue appends a queue's length, waiting getters and closed flag.
func appendQueue(buf []uint64, q *sim.Queue[Batch]) []uint64 {
	closed := uint64(0)
	if q.Closed() {
		closed = 1
	}
	return append(buf, uint64(q.Len()), uint64(q.Waiting()), closed)
}

// DiskLink exposes the machine's storage link (for probes and tests).
func (hp *HostPipeline) DiskLink() *simnet.Link { return hp.disk }

// CPULink exposes the machine's prep-pool link (for probes and tests).
func (hp *HostPipeline) CPULink() *simnet.Link { return hp.cpu }

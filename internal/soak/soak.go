// Package soak drives the full detector stack — pipeline, centroid GPD,
// region monitoring, BBV, working set and a CPI tracker — for millions
// of synthetic sampling intervals to prove the long-run hardening
// properties: bounded detector state (the heap is steady after warmup)
// and checkpoint fidelity (killing the stack mid-run and resuming a
// fresh one from a Snapshot yields a byte-identical subsequent verdict
// stream).
//
// The workload generator is fully deterministic (splitmix64 seeded by
// Config.Seed), so two runs over the same configuration produce the same
// verdict digest; a kill/restore run matching an uninterrupted reference
// run is therefore an exact equality proof, not a statistical one.
package soak

import (
	"fmt"
	"runtime"

	"regionmon/internal/altdetect"
	"regionmon/internal/changepoint"
	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/pipeline"
	"regionmon/internal/region"
	"regionmon/internal/vhash"
)

// Config tunes one soak run. The zero value of every optional field
// selects a sensible default (see withDefaults).
type Config struct {
	// Intervals is the number of sampling intervals to drive. Required.
	Intervals int
	// SamplesPerInterval is the synthetic overflow buffer size
	// (default 96).
	SamplesPerInterval int
	// Seed seeds the deterministic workload generator (default 1).
	Seed uint64
	// RestoreEvery, when positive, kills the live stack every that many
	// intervals: Snapshot it, build a fresh identically configured
	// stack, Restore into it and continue on the fresh one. 0 disables
	// the kill/restore exercise (reference mode).
	RestoreEvery int
	// Warmup is the number of intervals before the heap baseline is
	// taken (default Intervals/10). Formation, ring fills and detector
	// warm-up allocate; steady state starts after.
	Warmup int
	// HeapCheckEvery is the interval stride between heap samples after
	// warmup (default (Intervals-Warmup)/8). Each sample forces a GC,
	// so keep it coarse.
	HeapCheckEvery int
	// MaxHeapGrowth is the allowed growth of HeapAlloc from the
	// post-warmup baseline to the end of the run, in bytes
	// (default 4 MiB). With every per-interval series bounded the
	// steady-state heap must not track run length.
	MaxHeapGrowth uint64
}

func (c Config) withDefaults() Config {
	if c.SamplesPerInterval == 0 {
		c.SamplesPerInterval = 96
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Warmup == 0 {
		c.Warmup = c.Intervals / 10
	}
	if c.HeapCheckEvery == 0 {
		c.HeapCheckEvery = (c.Intervals - c.Warmup) / 8
		if c.HeapCheckEvery < 1 {
			c.HeapCheckEvery = 1
		}
	}
	if c.MaxHeapGrowth == 0 {
		c.MaxHeapGrowth = 4 << 20
	}
	return c
}

// Result summarizes a completed soak run.
type Result struct {
	// Intervals is the number of intervals driven.
	Intervals int
	// Digest is the FNV-1a digest of the full verdict stream (every
	// field of every verdict, bit-exact floats). Two runs with equal
	// digests emitted identical verdict streams.
	Digest uint64
	// Restores counts kill/restore cycles performed.
	Restores int
	// SnapshotBytes is the size of the last snapshot taken (0 when
	// RestoreEvery is 0).
	SnapshotBytes int
	// HeapBaseline and HeapFinal are post-GC HeapAlloc at warmup and at
	// the end of the run.
	HeapBaseline, HeapFinal uint64
	// HeapSamples holds the periodic post-GC HeapAlloc readings taken
	// between baseline and final.
	HeapSamples []uint64
}

// Run drives one soak according to cfg and returns the run summary. It
// returns an error if the configuration is invalid, a snapshot or
// restore fails, an unknown verdict payload appears, or the heap grew
// beyond cfg.MaxHeapGrowth from the post-warmup baseline.
func Run(cfg Config) (Result, error) {
	if cfg.Intervals <= 0 {
		return Result{}, fmt.Errorf("soak: Intervals must be positive, got %d", cfg.Intervals)
	}
	cfg = cfg.withDefaults()

	prog, loops, err := BuildProgram()
	if err != nil {
		return Result{}, err
	}
	pipe, err := NewStack(prog)
	if err != nil {
		return Result{}, err
	}

	dig := vhash.New()
	var hashErr error
	obs := func(rep *pipeline.IntervalReport) {
		if err := dig.Report(rep); err != nil && hashErr == nil {
			hashErr = err
		}
	}
	pipe.AddObserver(obs)

	g := NewWorkload(cfg.Seed, loops, cfg.SamplesPerInterval)
	ov := &hpm.Overflow{Samples: make([]hpm.Sample, cfg.SamplesPerInterval)}
	var res Result
	for i := 0; i < cfg.Intervals; i++ {
		if cfg.RestoreEvery > 0 && i > 0 && i%cfg.RestoreEvery == 0 {
			snap, err := pipe.Snapshot()
			if err != nil {
				return res, fmt.Errorf("soak: snapshot at interval %d: %w", i, err)
			}
			fresh, err := NewStack(prog)
			if err != nil {
				return res, err
			}
			if err := fresh.Restore(snap); err != nil {
				return res, fmt.Errorf("soak: restore at interval %d: %w", i, err)
			}
			fresh.AddObserver(obs)
			pipe = fresh // the old stack is dead; resume on the restored one
			res.Restores++
			res.SnapshotBytes = len(snap)
		}
		pipe.ProcessOverflow(g.IntervalInto(i, ov))
		if hashErr != nil {
			return res, hashErr
		}
		if i == cfg.Warmup {
			res.HeapBaseline = heapAlloc()
		} else if i > cfg.Warmup && (i-cfg.Warmup)%cfg.HeapCheckEvery == 0 {
			res.HeapSamples = append(res.HeapSamples, heapAlloc())
		}
	}
	res.Intervals = cfg.Intervals
	res.Digest = dig.Sum()
	res.HeapFinal = heapAlloc()
	if res.HeapFinal > res.HeapBaseline+cfg.MaxHeapGrowth {
		return res, fmt.Errorf("soak: heap grew %d bytes over %d intervals (baseline %d, final %d, budget %d)",
			res.HeapFinal-res.HeapBaseline, cfg.Intervals-cfg.Warmup, res.HeapBaseline, res.HeapFinal, cfg.MaxHeapGrowth)
	}
	return res, nil
}

// heapAlloc returns HeapAlloc after a forced collection, so readings
// compare live heap rather than GC pacing noise.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BuildProgram constructs the soak workload's program: two procedures,
// four loops of different sizes and kinds, separated by straight-line
// code so formation always has an innermost loop to latch onto.
func BuildProgram() (*isa.Program, []isa.LoopSpan, error) { return buildProgram(0x10000) }

// buildProgram lays BuildProgram's program out from base.
func buildProgram(base isa.Addr) (*isa.Program, []isa.LoopSpan, error) {
	b := isa.NewBuilder(base)
	p := b.Proc("main")
	p.Code(32, isa.KindALU)
	l1 := p.Loop(20, []isa.Kind{isa.KindLoad, isa.KindALU, isa.KindALU}, nil)
	p.Code(12, isa.KindALU)
	l2 := p.Loop(28, []isa.Kind{isa.KindLoad, isa.KindALU, isa.KindStore, isa.KindALU}, nil)
	b.Skip(0x20000)
	q := b.Proc("aux")
	q.Code(8, isa.KindALU)
	l3 := q.Loop(16, []isa.Kind{isa.KindLoad, isa.KindALU}, nil)
	q.Code(8, isa.KindALU)
	l4 := q.Loop(36, []isa.Kind{isa.KindLoad, isa.KindALU, isa.KindALU, isa.KindStore}, nil)
	prog, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return prog, []isa.LoopSpan{l1, l2, l3, l4}, nil
}

// NewStack builds one full monitoring stack over prog: pipeline with
// GPD, region monitor, BBV, working set, a CPI tracker and the
// E-divisive change-point detector (over the same CPI signal). Every component uses its default configuration so a
// soak exercises exactly what users get.
func NewStack(prog *isa.Program) (*pipeline.Pipeline, error) {
	gdet, err := gpd.New(gpd.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rmon, err := region.NewMonitor(prog, region.DefaultConfig())
	if err != nil {
		return nil, err
	}
	bbv, err := altdetect.NewBBV(prog, 0.8)
	if err != nil {
		return nil, err
	}
	ws, err := altdetect.NewWorkingSet(prog, 0.5)
	if err != nil {
		return nil, err
	}
	tr, err := gpd.NewPerfTracker(gpd.DefaultPerfConfig())
	if err != nil {
		return nil, err
	}
	cpd, err := changepoint.New(changepoint.DefaultConfig())
	if err != nil {
		return nil, err
	}
	pipe := pipeline.New()
	for _, d := range []pipeline.PhaseDetector{
		pipeline.NewGPD(gdet),
		pipeline.NewRegionMonitor(rmon),
		pipeline.NewBBV(bbv),
		pipeline.NewWorkingSet(ws),
		pipeline.NewCPI(tr),
		pipeline.NewChangePoint(cpd),
	} {
		if err := pipe.Register(d); err != nil {
			return nil, err
		}
	}
	return pipe, nil
}

// Workload is the deterministic workload generator. Each interval rotates
// through phases that weight two of the four loops, with a small idle
// (PC 0) fraction and a sparse partial-buffer interval every 97th
// delivery — the shapes the hardening fixes are about. It is exported for
// the fleet soak mode and the benchmark's fleet workload (perfbench/),
// which drive many independent Workloads (one per stream) over the same
// program.
type Workload struct {
	rng   uint64
	loops []isa.LoopSpan
	buf   int // samples per full interval
	cycle uint64
}

// NewWorkload returns a generator seeded with seed over the given loops
// (from BuildProgram), emitting buf samples per interval.
func NewWorkload(seed uint64, loops []isa.LoopSpan, buf int) *Workload {
	return &Workload{rng: seed, loops: loops, buf: buf}
}

// next is splitmix64.
func (g *Workload) next() uint64 {
	g.rng += 0x9e3779b97f4a7c15
	z := g.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// phaseLen is how many intervals each phase lasts before the workload
// shifts to the next loop pair.
const phaseLen = 160

// IntervalInto fills ov with the i'th sampling interval, writing samples
// into ov.Samples' backing array (which must have capacity for at least
// the generator's per-interval buffer size), and returns ov. A per-item
// driver reuses one overflow, like a real hpm buffer; a driver batching K
// intervals into one ingest.PushBatch call fills K caller-owned overflows
// — every one alive at once — without the generator owning K buffers
// itself (see NewOverflowBatch). The sample stream depends only on the
// seed and the call sequence, so batched and per-item drivers generate
// bit-identical workloads.
func (g *Workload) IntervalInto(i int, ov *hpm.Overflow) *hpm.Overflow {
	phase := (i / phaseLen) % len(g.loops)
	hot := g.loops[phase]
	warm := g.loops[(phase+1)%len(g.loops)]

	n := g.buf
	if i%97 == 96 {
		// Sparse partial-buffer flush: a handful of samples, the shape
		// that exercises the region monitor's sparse-interval guard.
		n = 3 + int(g.next()%5)
	}
	buf := ov.Samples[:cap(ov.Samples)]
	if len(buf) < n {
		panic(fmt.Sprintf("soak: IntervalInto buffer holds %d samples, interval needs %d", len(buf), n))
	}
	for s := 0; s < n; s++ {
		g.cycle += 80 + g.next()%40
		var pc isa.Addr
		switch r := g.next() % 100; {
		case r < 5:
			pc = 0 // idle sample: off-CPU time
		case r < 70:
			pc = loopPC(hot, g.next())
		case r < 90:
			pc = loopPC(warm, g.next())
		default:
			// Straggler in straight-line code: steady unmonitored noise.
			pc = g.loops[g.next()%uint64(len(g.loops))].End + isa.InstrBytes
		}
		buf[s] = hpm.Sample{
			PC:       pc,
			Cycle:    g.cycle,
			Instrs:   8 + g.next()%8,
			DCMisses: g.next() % 3,
		}
	}
	ov.Seq = i
	ov.Cycle = g.cycle
	ov.Samples = buf[:n]
	return ov
}

// NewOverflowBatch preallocates n overflows, each with its own
// samples-per-interval backing buffer — the caller-owned storage a
// batched driver hands to IntervalInto and then to ingest.PushBatch in
// one call. The overflows share one contiguous sample allocation.
func NewOverflowBatch(n, samplesPerInterval int) []*hpm.Overflow {
	ovs := make([]*hpm.Overflow, n)
	backing := make([]hpm.Overflow, n)
	buf := make([]hpm.Sample, n*samplesPerInterval)
	for i := range ovs {
		backing[i].Samples = buf[i*samplesPerInterval : (i+1)*samplesPerInterval]
		ovs[i] = &backing[i]
	}
	return ovs
}

// loopPC returns a pseudo-random instruction address inside span.
func loopPC(span isa.LoopSpan, r uint64) isa.Addr {
	return span.Start + isa.Addr(r%uint64(span.NumInstrs()))*isa.InstrBytes
}

// The verdict-stream digest lives in internal/vhash (shared with the
// ingest fleet's determinism and kill/restore proofs).

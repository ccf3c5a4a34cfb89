// Package soak drives the full detector stack — pipeline, centroid GPD,
// region monitoring, BBV, working set, a CPI tracker and the E-divisive
// change-point detector — for millions of synthetic sampling intervals
// to prove the long-run hardening properties: bounded detector state
// (the heap is steady after warmup) and checkpoint fidelity (killing the
// stack mid-run and resuming a fresh one from a Snapshot yields a
// byte-identical subsequent verdict stream). RunFleet is the one driver:
// it runs one stack per stream behind an ingest.Fleet, and a one-stream
// fleet is the single-stream soak.
//
// The workload generator is fully deterministic (splitmix64 seeded by
// FleetConfig.Seed), so two runs over the same configuration produce the
// same verdict digests; a kill/restore run matching an uninterrupted
// reference run is therefore an exact equality proof, not a statistical
// one.
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
)

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
// the benchmark's fleet workload (perfbench/), which, like RunFleet,
// drives many independent Workloads (one per stream) over the same
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

package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"regionmon/internal/experiments"
	"regionmon/internal/hpm"
	"regionmon/internal/ingest"
	"regionmon/internal/pipeline"
	"regionmon/internal/soak"
	"regionmon/internal/vhash"
)

// fleetShape sizes the fleet workload.
type fleetShape struct {
	name      string
	streams   int
	intervals int // per stream per repetition
	samples   int // per interval
	batch     int // intervals per PushBatchWait call
	detectors []string
}

// soakDetectors are soak.NewStack's detectors in registration order.
var soakDetectors = []string{"gpd", "regions", "bbv", "working-set", "cpi", "changepoint"}

// fleetFull is the fleet-full shape. A stream of 640 intervals runs once
// through soak's full phase cycle (four phases of 160 intervals), so the
// change-point window (48 points) fills within the first 8% of it and
// the traffic is mostly steady state rather than warm-up.
func fleetFull(tiny bool) fleetShape {
	s := fleetShape{name: "fleet-full", streams: 64, intervals: 640, samples: 96, batch: 16, detectors: soakDetectors}
	if tiny {
		s.streams, s.intervals = 6, 64
	}
	return s
}

// fleetBench holds one fleet workload's generated inputs and the
// per-stream recorders and push stamps its repetitions reuse.
type fleetBench struct {
	shape  fleetShape
	inputs [][]*hpm.Overflow // [stream][interval]
	// pushStart and pushEnd stamp each push call, [stream][call].
	pushStart, pushEnd [][]int64
	lat                []int64 // per-interval latency, [stream*intervals+seq]
	order              []int32 // interval ids in verdict order (scratch)
}

// generate builds every stream's intervals: stream s runs soak.Workload
// seeded seed + s*golden.
func generate(shape fleetShape, seed uint64) ([][]*hpm.Overflow, error) {
	_, loops, err := soak.BuildProgram()
	if err != nil {
		return nil, err
	}
	inputs := make([][]*hpm.Overflow, shape.streams)
	for s := range inputs {
		g := soak.NewWorkload(seed+uint64(s)*0x9e3779b97f4a7c15, loops, shape.samples)
		inputs[s] = soak.NewOverflowBatch(shape.intervals, shape.samples)
		for i, ov := range inputs[s] {
			g.IntervalInto(i, ov)
		}
	}
	return inputs, nil
}

// newStack builds one stream's full soak stack over its own copy of the
// soak program.
func newStack() (*pipeline.Pipeline, error) {
	prog, _, err := soak.BuildProgram()
	if err != nil {
		return nil, err
	}
	return soak.NewStack(prog)
}

// build returns the fleet's BuildFunc: each stream's stack, instrumented
// through its recorder, with the end-marker observer attached before the
// fleet adds its own digest observer.
func (b *fleetBench) build(recs []*recorder) ingest.BuildFunc {
	return func(stream int) (*pipeline.Pipeline, error) {
		base, err := newStack()
		if err != nil {
			return nil, err
		}
		p, err := instrument(base, recs[stream])
		if err != nil {
			return nil, err
		}
		p.AddObserver(recs[stream].markEnd)
		return p, nil
	}
}

func (b *fleetBench) newFleet(shards int, recs []*recorder) (*ingest.Fleet, error) {
	for _, r := range recs {
		r.reset()
	}
	return ingest.NewFleet(b.shape.streams, ingest.Config{Shards: shards, MaxSamples: b.shape.samples, Build: b.build(recs)})
}

// fleetRep is one repetition's outcome.
type fleetRep struct {
	t0, drain0, t1 int64 // first push, Drain call, Drain return
	digests        []uint64
	dropped        uint64
	shardOf        []int
	depthMax       int
	heapMB         float64
}

// rep pushes every stream's intervals through a fresh fleet of the given
// shard count from this goroutine, the single producer, in a closed loop:
// batch b of every stream in stream order, with PushBatchWait. It stamps
// each push call, drains, and collects the per-stream digests.
func (b *fleetBench) rep(shards int, recs []*recorder, measureHeap, sampleDepth bool) (*fleetRep, error) {
	var heap0 uint64
	if measureHeap {
		heap0 = heapAlloc()
	}
	f, err := b.newFleet(shards, recs)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runtime.GC()
	r := &fleetRep{}
	calls := b.shape.intervals / b.shape.batch
	r.t0 = now()
	for c := 0; c < calls; c++ {
		lo := c * b.shape.batch
		for s := 0; s < b.shape.streams; s++ {
			b.pushStart[s][c] = now()
			f.PushBatchWait(s, b.inputs[s][lo:lo+b.shape.batch])
			b.pushEnd[s][c] = now()
			if sampleDepth && (c*b.shape.streams+s)%16 == 0 {
				for _, sh := range f.Stats().Shards {
					r.depthMax = max(r.depthMax, sh.QueueDepth)
				}
			}
		}
	}
	r.drain0 = now()
	f.Drain()
	r.t1 = now()
	if measureHeap {
		r.heapMB = float64(int64(heapAlloc())-int64(heap0)) / 1e6
	}
	r.digests = make([]uint64, b.shape.streams)
	r.shardOf = make([]int, b.shape.streams)
	for s := range r.digests {
		info, err := f.StreamInfo(s)
		if err != nil {
			return nil, err
		}
		if info.Intervals != b.shape.intervals {
			return nil, fmt.Errorf("%s: stream %d processed %d of %d intervals", b.shape.name, s, info.Intervals, b.shape.intervals)
		}
		r.digests[s], r.shardOf[s] = info.Digest, info.Shard
	}
	r.dropped = f.Stats().Dropped
	if err := f.Close(); err != nil {
		return nil, err
	}
	return r, nil
}

// latencies fills b.lat, indexed stream*intervals+seq, with each
// interval's service time on its shard: from the shard's previous verdict
// (for its first interval, from the repetition's first push) to this
// interval's, which covers the worker's ring hand-off, any wait for the
// producer, and every detector and observer.
func (b *fleetBench) latencies(recs []*recorder, r *fleetRep, shards int) []int64 {
	n := b.shape.intervals
	for sh := 0; sh < shards; sh++ {
		ids := b.order[:0]
		for s, rec := range recs {
			if r.shardOf[s] == sh {
				for i := 0; i < rec.n; i++ {
					ids = append(ids, int32(s*n+i))
				}
			}
		}
		end := func(id int32) int64 { return recs[int(id)/n].ends[int(id)%n] }
		slices.SortFunc(ids, func(x, y int32) int { return cmp.Compare(end(x), end(y)) })
		prev := r.t0
		for _, id := range ids {
			b.lat[id] = end(id) - prev
			prev = end(id)
		}
		b.order = ids
	}
	return b.lat
}

// replayReference digests every stream by feeding its inputs straight to
// a fresh stack with pipeline.ObserveBatch, untimed, spread over the
// machine's CPUs. The fleet must reproduce these digests exactly.
func replayReference(shape fleetShape, inputs [][]*hpm.Overflow) ([]uint64, error) {
	digs := make([]uint64, shape.streams)
	errs := make([]error, shape.streams)
	workers := min(runtime.NumCPU(), shape.streams)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for s := w; s < shape.streams; s += workers {
				digs[s], errs[s] = replayStream(shape, inputs[s])
			}
		}(w)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: reference replay of stream %d: %w", shape.name, s, err)
		}
	}
	return digs, nil
}

func replayStream(shape fleetShape, ovs []*hpm.Overflow) (uint64, error) {
	p, err := newStack()
	if err != nil {
		return 0, err
	}
	dig := vhash.New()
	var hashErr error
	p.AddObserver(func(rep *pipeline.IntervalReport) {
		if err := dig.Report(rep); err != nil && hashErr == nil {
			hashErr = err
		}
	})
	for lo := 0; lo < len(ovs); lo += shape.batch {
		p.ObserveBatch(ovs[lo:min(lo+shape.batch, len(ovs))])
	}
	return dig.Sum(), hashErr
}

// runFleet is the fleet-full workload; see the package comment.
func runFleet(cfg config, shape fleetShape) (*outcome, error) {
	out := newOutcome()
	shards := runtime.NumCPU()
	b := &fleetBench{shape: shape}

	// Setup: input generation plus NewFleet, over and over; median
	// reported.
	var setups, gens []float64
	err := repeat(cfg.setupTime, cfg.setupReps, func() error {
		b.inputs = nil
		runtime.GC()
		t0 := time.Now()
		inputs, err := generate(shape, cfg.seed)
		if err != nil {
			return err
		}
		tg := time.Now()
		f, err := ingest.NewFleet(shape.streams, ingest.Config{Shards: shards, MaxSamples: shape.samples,
			Build: func(int) (*pipeline.Pipeline, error) { return newStack() }})
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, tg.Sub(t0).Seconds())
		b.inputs = inputs
		return f.Close()
	})
	if err != nil {
		return nil, err
	}
	out.replicates["setup_s"] = setups

	refs := cfg.expected[shape.name]
	if refs == nil {
		if refs, err = replayReference(shape, b.inputs); err != nil {
			return nil, err
		}
	}
	if len(refs) != shape.streams {
		return nil, fmt.Errorf("%s: %d expected digests for %d streams", shape.name, len(refs), shape.streams)
	}

	calls := shape.intervals / shape.batch
	b.pushStart, b.pushEnd = make([][]int64, shape.streams), make([][]int64, shape.streams)
	for s := range b.pushStart {
		b.pushStart[s], b.pushEnd[s] = make([]int64, calls), make([]int64, calls)
	}
	perRep := shape.streams * shape.intervals
	b.lat, b.order = make([]int64, perRep), make([]int32, 0, perRep)
	untracedRecs := make([]*recorder, shape.streams)
	for s := range untracedRecs {
		untracedRecs[s] = newRecorder(s, shape.intervals, false)
	}

	// check counts a repetition's attempted and failed intervals: a
	// dropped interval fails, and so does every interval of a stream
	// whose digest differs from the reference.
	check := func(r *fleetRep) {
		out.attempted += int64(perRep)
		out.failed += int64(r.dropped)
		for s, d := range r.digests {
			if d != refs[s] {
				out.failed += int64(shape.intervals)
			}
		}
	}
	untraced := func(budget time.Duration, shards int, key string, lats *latencyReps) ([]float64, *fleetRep, error) {
		var ips []float64
		var last *fleetRep
		first := key == "intervals_per_s"
		err := repeat(budget, cfg.minReps, func() error {
			r, err := b.rep(shards, untracedRecs, first, false)
			if err != nil {
				return err
			}
			if first {
				out.replicates["heap_mb"] = []float64{r.heapMB}
			}
			first = false
			check(r)
			out.untraced = r.digests
			ips = append(ips, float64(perRep)/(float64(r.t1-r.t0)/1e9))
			if lats != nil {
				lats.add(b.latencies(untracedRecs, r, shards))
			}
			last = r
			return nil
		})
		out.replicates[key] = ips
		return ips, last, err
	}

	budget := cfg.budgets()
	var lats latencyReps
	ips, last, err := untraced(budget.untraced, shards, "intervals_per_s", &lats)
	if err != nil {
		return nil, err
	}
	samples := 0
	for _, ov := range b.inputs {
		for _, o := range ov {
			samples += len(o.Samples)
		}
	}
	// Fig 15's ratio for a fleet: monitoring core-seconds (wall x shards)
	// over the program time the samples stand for, one paper sampling
	// period per sample.
	wallS := float64(perRep) / median(ips)
	programS := float64(samples) * paperPeriod / experiments.SimClockHz
	m := out.metrics
	m.set("setup_s", median(setups))
	m.set("intervals_per_s", median(ips))
	p50, p99 := lats.result()
	m.set("interval_latency_p50_us", p50/1e3)
	m.set("interval_latency_p99_us", p99/1e3)
	m.set("fig15_overhead_pct", 100*wallS*float64(shards)/programS)
	m.set("heap_mb", out.replicates["heap_mb"][0])
	out.addf("%s: %d streams x %d intervals x %d samples per repetition, push batch %d, %d shards; %d untraced repetitions",
		shape.name, shape.streams, shape.intervals, shape.samples, shape.batch, shards, len(ips))
	out.addf("setup: median %.4f s over %d set-ups, of which input generation %.4f s", median(setups), len(setups), median(gens))
	out.addf("latency: service time on the shard, %s", &lats)
	out.addf("fig15: %.4f s x %d shards / %.2f s of program time (%d samples x %d cycles at %.1f GHz)",
		wallS, shards, programS, samples, paperPeriod, experiments.SimClockHz/1e9)
	if !cfg.trace {
		return out, nil
	}

	// Traced run, then the same workload on one shard for the speedup.
	out.metrics = metricSet{}
	tracedRecs := make([]*recorder, shape.streams)
	for s := range tracedRecs {
		tracedRecs[s] = newRecorder(s, shape.intervals, true)
	}
	acc := &layerAcc{}
	var tips, drains []float64
	var blocked, producer int64
	depth := 0
	err = repeat(budget.traced, cfg.minReps, func() error {
		r, err := b.rep(shards, tracedRecs, false, true)
		if err != nil {
			return err
		}
		check(r)
		for s := range r.digests {
			if r.digests[s] != last.digests[s] {
				out.failed += int64(shape.intervals)
				out.addf("trace: stream %d traced digest %#x differs from untraced %#x", s, r.digests[s], last.digests[s])
			}
		}
		tips = append(tips, float64(perRep)/(float64(r.t1-r.t0)/1e9))
		out.replicates["intervals_per_s_traced"] = tips
		out.traced = r.digests
		drains = append(drains, float64(r.t1-r.drain0)/1e6)
		for s := range b.pushStart {
			for c := range b.pushStart[s] {
				blocked += b.pushEnd[s][c] - b.pushStart[s][c]
			}
		}
		producer += r.drain0 - r.t0
		depth = max(depth, r.depthMax)
		for st, rec := range tracedRecs {
			for i := range rec.spans[:rec.n] {
				rec.spans[i].pushStart = b.pushStart[st][i/shape.batch]
				rec.spans[i].pushEnd = b.pushEnd[st][i/shape.batch]
			}
		}
		acc.addFleetRep(tracedRecs, r, shards, shape.detectors)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range tracedRecs {
		out.spans = append(out.spans, r.spans[:r.n]...)
	}
	solo, _, err := untraced(budget.solo, 1, "intervals_per_s_1_shard", nil)
	if err != nil {
		return nil, err
	}
	acc.finish(out, shape.name)
	lm := out.metrics
	lm.set("trace.overhead_pct", 100*(median(ips)/median(tips)-1))
	lm.set("region.samples_per_distinct_pc", samplesPerDistinctPC(out, b.inputs))
	lm.set("ingest.push_blocked_frac", float64(blocked)/float64(producer))
	lm.set("ingest.queue_depth_max", float64(depth))
	lm.set("ingest.drain_ms", median(drains))
	lm.set("ingest.shard_speedup", median(ips)/median(solo))
	lm.set("soak.generate_s", median(gens))
	out.addf("ingest: producer inside push calls %.1f%% of its time; queue depth max %d slots; drain %.3f ms; %d shards %.0f/s vs 1 shard %.0f/s = %.2fx",
		100*float64(blocked)/float64(producer), depth, median(drains), shards, median(ips), median(solo), median(ips)/median(solo))
	zeroAbsent(lm)
	return out, nil
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"regionmon/internal/experiments"
	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/pipeline"
	"regionmon/internal/region"
	"regionmon/internal/sim"
	"regionmon/internal/vhash"
	"regionmon/internal/workload"
)

// specModels are spec-replay's programs, one per internal/workload
// archetype: steady, drift, many regions, high UCR, alternating, and one
// huge region.
var specModels = []string{"164.gzip", "181.mcf", "176.gcc", "186.crafty", "187.facerec", "188.ammp"}

const (
	// specPeriod is 1/100 of the paper's 45K-cycle sampling period, and
	// specTimeScale shrinks the workloads' phase constants by the same
	// ratio (experiments.TestOptions' dynamics at 1/100 of the cost).
	specPeriod    = 450
	specTimeScale = 0.01
	paperPeriod   = 45_000
	specJitter    = 0.1
)

// recording is one model's captured overflow stream.
type recording struct {
	name      string
	prog      *isa.Program
	overflows []*hpm.Overflow
	cycles    uint64
	samples   int
	live      uint64 // digest of the live sim→hpm→pipeline pass
	// runNS is the recording run's wall time and liveNS the part of it
	// spent in the live pass's ProcessOverflow calls.
	runNS, liveNS int64
}

// specStack is the paper's monitoring stack: the centroid GPD with its
// CPI tracker (ADORE's global baseline) and the region monitor.
func specStack(prog *isa.Program) (*pipeline.Pipeline, error) {
	gdet, err := gpd.New(gpd.DefaultConfig())
	if err != nil {
		return nil, err
	}
	tr, err := gpd.NewPerfTracker(gpd.DefaultPerfConfig())
	if err != nil {
		return nil, err
	}
	rmon, err := region.NewMonitor(prog, region.DefaultConfig())
	if err != nil {
		return nil, err
	}
	p := pipeline.New()
	for _, d := range []pipeline.PhaseDetector{pipeline.NewGPD(gdet), pipeline.NewCPI(tr), pipeline.NewRegionMonitor(rmon)} {
		if err := p.Register(d); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// recordSpec builds every model and runs it through sim+hpm with the
// paper's 2032-sample buffer, copying each overflow for replay while a
// live pipeline digests the same stream as the replay's reference.
func recordSpec(seed uint64, workScale float64) ([]*recording, error) {
	recs := make([]*recording, 0, len(specModels))
	for _, name := range specModels {
		bench, err := workload.ByNameScales(name, workScale, specTimeScale)
		if err != nil {
			return nil, err
		}
		pipe, err := specStack(bench.Prog)
		if err != nil {
			return nil, err
		}
		dig := vhash.New()
		var hashErr error
		pipe.AddObserver(func(rep *pipeline.IntervalReport) {
			if err := dig.Report(rep); err != nil && hashErr == nil {
				hashErr = err
			}
		})
		rec := &recording{name: name, prog: bench.Prog}
		mon, err := hpm.New(hpm.Config{Period: specPeriod, BufferSize: hpm.DefaultBufferSize, JitterFrac: specJitter, JitterSeed: seed},
			func(ov *hpm.Overflow) {
				rec.overflows = append(rec.overflows, &hpm.Overflow{
					Samples: append([]hpm.Sample(nil), ov.Samples...),
					Cycle:   ov.Cycle,
					Seq:     ov.Seq,
				})
				rec.samples += len(ov.Samples)
				t0 := now()
				pipe.ProcessOverflow(ov)
				rec.liveNS += now() - t0
			})
		if err != nil {
			return nil, err
		}
		ex, err := sim.NewExecutor(bench.Prog, bench.Sched, mon)
		if err != nil {
			return nil, err
		}
		t0 := now()
		rec.cycles = ex.Run().Cycles
		rec.runNS = now() - t0
		if hashErr != nil {
			return nil, fmt.Errorf("%s: live pass: %w", name, hashErr)
		}
		rec.live = dig.Sum()
		recs = append(recs, rec)
	}
	return recs, nil
}

// specReplay is one replay repetition's stacks: a fresh pipeline per
// model, each with its digest observer.
type specReplay struct {
	pipes []*pipeline.Pipeline
	digs  []*vhash.Digest
	err   error // first digest error
}

func newSpecReplay(recs []*recording, recorders []*recorder) (*specReplay, error) {
	sr := &specReplay{}
	for m, rec := range recs {
		base, err := specStack(rec.prog)
		if err != nil {
			return nil, err
		}
		r := recorders[m]
		r.reset()
		p, err := instrument(base, r)
		if err != nil {
			return nil, err
		}
		dig := vhash.New()
		if r.spans != nil {
			p.AddObserver(func(rep *pipeline.IntervalReport) {
				t0 := now()
				sr.report(dig, rep)
				r.spans[r.n].obs = now() - t0
			})
			p.AddObserver(r.markEnd)
		} else {
			p.AddObserver(func(rep *pipeline.IntervalReport) { sr.report(dig, rep) })
		}
		sr.pipes = append(sr.pipes, p)
		sr.digs = append(sr.digs, dig)
	}
	return sr, nil
}

func (sr *specReplay) report(dig *vhash.Digest, rep *pipeline.IntervalReport) {
	if err := dig.Report(rep); err != nil && sr.err == nil {
		sr.err = err
	}
}

// run replays every recorded overflow, one ProcessOverflow call per
// interval, timing each call into lat. It returns the wall time.
func (sr *specReplay) run(recs []*recording, lat []int64) int64 {
	k := 0
	t0 := now()
	for m, rec := range recs {
		p := sr.pipes[m]
		for _, ov := range rec.overflows {
			a := now()
			p.ProcessOverflow(ov)
			lat[k] = now() - a
			k++
		}
	}
	return now() - t0
}

// runSpecReplay is the spec-replay workload; see the package comment.
func runSpecReplay(cfg config) (*outcome, error) {
	workScale := specTimeScale
	if cfg.tiny {
		workScale /= 10
	}
	out := newOutcome()

	// Setup: model build plus recording, over and over; median reported.
	// The sim and hpm layers' share is the recording runs less the live
	// pass inside them.
	var recs []*recording
	var setups, simHPM, live []float64
	err := repeat(cfg.setupTime, cfg.setupReps, func() error {
		recs = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		recs, err = recordSpec(cfg.seed, workScale)
		if err != nil {
			return fmt.Errorf("spec-replay setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		var ns, liveNS int64
		for _, r := range recs {
			ns += r.runNS - r.liveNS
			liveNS += r.liveNS
		}
		simHPM = append(simHPM, float64(ns)/1e9)
		live = append(live, float64(liveNS)/1e9)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.replicates["setup_s"] = setups

	intervals, samples := 0, 0
	var cycles uint64
	for _, r := range recs {
		intervals += len(r.overflows)
		samples += r.samples
		cycles += r.cycles
	}
	refs, err := specReferences(cfg, recs)
	if err != nil {
		return nil, err
	}
	lat := make([]int64, intervals)
	untracedRecs := make([]*recorder, len(recs))
	tracedRecs := make([]*recorder, len(recs))
	for m, r := range recs {
		untracedRecs[m] = newRecorder(m, len(r.overflows), false)
		tracedRecs[m] = newRecorder(m, len(r.overflows), true)
	}

	// One repetition: fresh stacks, replay, digest check.
	var lats latencyReps
	var heapMB float64
	rep := func(recorders []*recorder, measureHeap bool) (int64, []uint64, error) {
		var heap0 uint64
		if measureHeap {
			heap0 = heapAlloc()
		}
		sr, err := newSpecReplay(recs, recorders)
		if err != nil {
			return 0, nil, err
		}
		runtime.GC()
		wall := sr.run(recs, lat)
		if sr.err != nil {
			return 0, nil, sr.err
		}
		if measureHeap {
			heapMB = float64(int64(heapAlloc())-int64(heap0)) / 1e6
			runtime.KeepAlive(sr)
		}
		digs := make([]uint64, len(sr.digs))
		for m, d := range sr.digs {
			digs[m] = d.Sum()
		}
		failed := int64(0)
		for m, d := range digs {
			if d != refs[m] || d != recs[m].live {
				failed += int64(len(recs[m].overflows))
			}
		}
		out.attempted += int64(intervals)
		out.failed += failed
		return wall, digs, nil
	}

	budget := cfg.budgets()
	var ips []float64
	var untracedDigs []uint64
	first := true
	err = repeat(budget.untraced, cfg.minReps, func() error {
		wall, digs, err := rep(untracedRecs, first)
		if err != nil {
			return err
		}
		first = false
		untracedDigs = digs
		out.untraced = digs
		ips = append(ips, float64(intervals)/(float64(wall)/1e9))
		out.replicates["replay_s"] = append(out.replicates["replay_s"], float64(wall)/1e9)
		lats.add(lat)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.replicates["intervals_per_s"] = ips
	replayS := median(out.replicates["replay_s"])
	programS := float64(cycles) * (paperPeriod / specPeriod) / experiments.SimClockHz

	m := out.metrics
	m.set("setup_s", median(setups))
	m.set("intervals_per_s", median(ips))
	p50, p99 := lats.result()
	m.set("interval_latency_p50_us", p50/1e3)
	m.set("interval_latency_p99_us", p99/1e3)
	m.set("fig15_overhead_pct", 100*replayS/programS)
	m.set("heap_mb", heapMB)
	out.addf("spec-replay: %d models, %d intervals, %d samples per repetition; %d untraced repetitions",
		len(recs), intervals, samples, len(ips))
	out.addf("setup: median %.4f s over %d set-ups, of which recording through sim and hpm %.4f s and the live pass %.4f s",
		median(setups), len(setups), median(simHPM), median(live))
	out.addf("latency: ProcessOverflow call, %s", &lats)
	out.addf("fig15: replay %.4f s / program %.2f s (%d cycles at period %d, scaled x%d to the paper's %d, at %.1f GHz) = %.4f%%",
		replayS, programS, cycles, specPeriod, paperPeriod/specPeriod, paperPeriod, experiments.SimClockHz/1e9, 100*replayS/programS)

	if !cfg.trace {
		return out, nil
	}

	// Traced run: wrapped detectors, timed digest observer, end marker.
	out.metrics = metricSet{}
	acc := &layerAcc{}
	var tips []float64
	err = repeat(budget.traced, cfg.minReps, func() error {
		wall, digs, err := rep(tracedRecs, false)
		if err != nil {
			return err
		}
		for i := range digs {
			if digs[i] != untracedDigs[i] {
				out.failed += int64(len(recs[i].overflows))
				out.addf("trace: %s traced digest %#x differs from untraced %#x", recs[i].name, digs[i], untracedDigs[i])
			}
		}
		tips = append(tips, float64(intervals)/(float64(wall)/1e9))
		out.replicates["intervals_per_s_traced"] = tips
		out.traced = digs
		k := 0
		var called int64
		for _, r := range tracedRecs {
			for i := range r.spans[:r.n] {
				r.spans[i].call = lat[k]
				called += lat[k]
				k++
			}
			acc.addSpec(r.spans[:r.n], specDetectors)
		}
		acc.endSpecRep(wall, called)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range tracedRecs {
		out.spans = append(out.spans, r.spans[:r.n]...)
	}
	acc.finish(out, "spec-replay")
	lm := out.metrics
	lm.set("trace.overhead_pct", 100*(median(ips)/median(tips)-1))
	lm.set("region.samples_per_distinct_pc", samplesPerDistinctPC(out, specOverflows(recs)))
	lm.set("sim.record_s", median(simHPM))
	lm.set("sim.cycles", float64(cycles))
	lm.set("hpm.overflows", float64(intervals))
	lm.set("hpm.samples", float64(samples))
	zeroAbsent(lm)
	return out, nil
}

// specReferences returns the digest each model's replay must reproduce:
// the stored digests with the default seed, else the live pass made
// while recording. Replays are checked against the live pass as well, so
// with the default seed a live pass that drifted from the stored digests
// fails every interval of its model.
func specReferences(cfg config, recs []*recording) ([]uint64, error) {
	refs := make([]uint64, len(recs))
	for m, r := range recs {
		refs[m] = r.live
	}
	if want := cfg.expected["spec-replay"]; want != nil {
		if len(want) != len(refs) {
			return nil, fmt.Errorf("spec-replay: %d expected digests for %d models", len(want), len(refs))
		}
		copy(refs, want)
	}
	return refs, nil
}

// specDetectors are specStack's detectors in registration order.
var specDetectors = []string{"gpd", "cpi", "regions"}

func specOverflows(recs []*recording) [][]*hpm.Overflow {
	ovs := make([][]*hpm.Overflow, len(recs))
	for m, r := range recs {
		ovs[m] = r.overflows
	}
	return ovs
}

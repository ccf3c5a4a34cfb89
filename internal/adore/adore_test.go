package adore

import (
	"testing"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/region"
	"regionmon/internal/sim"
)

// workload is a test fixture: a program with two spread-out hot loops and
// a schedule that alternates between them slowly enough that global phase
// detection sees a new centroid on (almost) every interval while each
// loop's local behaviour never changes.
type workload struct {
	prog   *isa.Program
	l1, l2 isa.LoopSpan
}

func buildWorkload(t testing.TB) *workload {
	t.Helper()
	b := isa.NewBuilder(0x10000)
	p1 := b.Proc("alpha")
	l1 := p1.Loop(16, []isa.Kind{isa.KindLoad, isa.KindALU, isa.KindALU, isa.KindALU}, nil)
	b.Skip(0x20000)
	p2 := b.Proc("beta")
	l2 := p2.Loop(16, []isa.Kind{isa.KindLoad, isa.KindALU, isa.KindALU, isa.KindALU}, nil)
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return &workload{prog: prog, l1: l1, l2: l2}
}

// alternating builds a schedule that ping-pongs between the two loops with
// the given slice period; both loops stall heavily on cache misses so
// optimization has cycles to recover.
func (w *workload) alternating(work, slice uint64) *sim.Schedule {
	seg := func(span isa.LoopSpan) sim.Segment {
		return sim.Segment{
			BaseCycles:  work,
			SlicePeriod: slice,
			Regions: []sim.RegionBehavior{{
				Start: span.Start, End: span.End, Weight: 1,
				MissRate: 0.8, MissPenalty: 60, HotspotIdx: -1,
			}},
		}
	}
	return &sim.Schedule{
		Name:   "alternating",
		Seed:   7,
		Repeat: 40,
		Segments: []sim.Segment{
			seg(w.l1),
			seg(w.l2),
		},
	}
}

// mixed builds a schedule where both loops are active in every interval
// with fine interleaving — the GPD-friendly case.
func (w *workload) mixed(work, slice uint64) *sim.Schedule {
	rb := func(span isa.LoopSpan) sim.RegionBehavior {
		return sim.RegionBehavior{
			Start: span.Start, End: span.End, Weight: 0.5,
			MissRate: 0.8, MissPenalty: 60, HotspotIdx: -1,
		}
	}
	return &sim.Schedule{
		Name:   "mixed",
		Seed:   7,
		Repeat: 40,
		Segments: []sim.Segment{{
			BaseCycles:  work,
			SlicePeriod: slice,
			Regions:     []sim.RegionBehavior{rb(w.l1), rb(w.l2)},
		}},
	}
}

func hpmCfg() hpm.Config {
	return hpm.Config{Period: 1000, BufferSize: 128, JitterFrac: 0.1}
}

func run(t *testing.T, w *workload, sched *sim.Schedule, cfg Config) RunResult {
	t.Helper()
	rto, err := New(w.prog, sched, hpmCfg(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return rto.Run()
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Policy = Policy(42) },
		func(c *Config) { c.MinTraceSamples = 0 },
		func(c *Config) { c.GPD.HistorySize = 0 },
		func(c *Config) { c.SelfMonitor = true; c.HarmFactor = 0.5 },
		func(c *Config) { c.SelfMonitor = true; c.HarmWindow = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig(PolicyGPD)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	lcfg := DefaultConfig(PolicyLPD)
	lcfg.Region.UCRThreshold = 0
	if err := lcfg.Validate(); err == nil {
		t.Error("bad region config accepted")
	}
}

func TestNoneBaselineDeploysNothing(t *testing.T) {
	w := buildWorkload(t)
	res := run(t, w, w.alternating(400_000, 100_000), DefaultConfig(PolicyNone))
	if res.Patches != 0 || res.Unpatches != 0 || len(res.Events) != 0 {
		t.Errorf("baseline run deployed: %+v", res)
	}
	if res.Sim.Cycles != res.Sim.BaseCycles {
		t.Errorf("baseline cycles %d != base %d", res.Sim.Cycles, res.Sim.BaseCycles)
	}
}

func TestGPDControllerPatchesAndUnpatches(t *testing.T) {
	w := buildWorkload(t)
	// Fine interleaving: the sample mix per interval is steady, GPD
	// stabilizes and patches the hot loops.
	sched := w.mixed(400_000, 20_000)
	res := run(t, w, sched, DefaultConfig(PolicyGPD))
	if res.Patches == 0 {
		t.Fatalf("GPD controller never patched: %+v", res)
	}
	if res.StableFraction == 0 {
		t.Error("GPD never stable on fine interleaving")
	}
	// Optimization must have saved cycles vs the none baseline.
	base := run(t, w, w.mixed(400_000, 20_000), DefaultConfig(PolicyNone))
	if res.Sim.Cycles >= base.Sim.Cycles {
		t.Errorf("GPD run not faster than baseline: %d vs %d", res.Sim.Cycles, base.Sim.Cycles)
	}
}

func TestLPDControllerFormsRegionsAndPatches(t *testing.T) {
	w := buildWorkload(t)
	res := run(t, w, w.alternating(400_000, 20_000), DefaultConfig(PolicyLPD))
	if res.Regions < 2 {
		t.Fatalf("LPD monitored %d regions; want >= 2", res.Regions)
	}
	if res.Patches == 0 {
		t.Fatal("LPD controller never patched")
	}
	base := run(t, w, w.alternating(400_000, 20_000), DefaultConfig(PolicyNone))
	if res.Sim.Cycles >= base.Sim.Cycles {
		t.Errorf("LPD run not faster than baseline: %d vs %d", res.Sim.Cycles, base.Sim.Cycles)
	}
}

// TestLPDBeatsGPDOnPeriodicSwitching is the Figure 17 mechanism in
// miniature: coarse alternation between two loops keeps GPD's centroid
// swinging (traces thrash or never deploy) while LPD sees two individually
// stable regions and keeps both optimized.
func TestLPDBeatsGPDOnPeriodicSwitching(t *testing.T) {
	w := buildWorkload(t)
	// Slice period ≈ interval cycles: consecutive intervals see different
	// centroids.
	mk := func() *sim.Schedule { return w.alternating(400_000, 400_000) }

	gpdRes := run(t, w, mk(), DefaultConfig(PolicyGPD))
	lpdRes := run(t, w, mk(), DefaultConfig(PolicyLPD))
	if gpdRes.Sim.BaseCycles != lpdRes.Sim.BaseCycles {
		t.Fatalf("work differs: %d vs %d", gpdRes.Sim.BaseCycles, lpdRes.Sim.BaseCycles)
	}
	speedup := lpdRes.Sim.Speedup(gpdRes.Sim)
	if speedup <= 0 {
		t.Errorf("LPD speedup over GPD = %.3f; want positive (gpd stable %.2f, lpd stable %.2f)",
			speedup, gpdRes.StableFraction, lpdRes.StableFraction)
	}
	if lpdRes.StableFraction <= gpdRes.StableFraction {
		t.Errorf("LPD stable fraction %.2f should exceed GPD's %.2f under periodic switching",
			lpdRes.StableFraction, gpdRes.StableFraction)
	}
}

// TestSelfMonitoringUndoesHarmfulOptimization checks the feedback
// mechanism: a region for which "prefetching" is counterproductive gets
// patched, detected as harmed, unpatched and blacklisted.
func TestSelfMonitoringUndoesHarmfulOptimization(t *testing.T) {
	w := buildWorkload(t)
	sched := w.mixed(400_000, 20_000)
	cfg := DefaultConfig(PolicyLPD)
	cfg.SelfMonitor = true
	cfg.HarmFactor = 1.25
	// Prefetching hurts l1 (doubles its miss stalls — pollution) and
	// helps l2.
	cfg.Model = func(start, _ isa.Addr) float64 {
		if start == w.l1.Start {
			return -1.0
		}
		return 0.5
	}
	rto, err := New(w.prog, sched, hpmCfg(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := rto.Run()
	if res.HarmUndos == 0 {
		t.Fatalf("self-monitoring never undid the harmful optimization: %+v", res)
	}
	// After blacklisting, the harmful span must never be re-patched.
	harmName := sim.Span{Start: w.l1.Start, End: w.l1.End}.Name()
	undoSeen := false
	for _, ev := range res.Events {
		if ev.Kind == EventHarmUndo && ev.Region == harmName {
			undoSeen = true
		}
		if undoSeen && ev.Kind == EventPatch && ev.Region == harmName {
			t.Fatalf("harmful region re-patched after blacklisting at cycle %d", ev.Cycle)
		}
	}
	if !undoSeen {
		t.Fatal("no harm-undo event for the harmful region")
	}

	// Without self-monitoring the same workload must be slower.
	cfgNo := cfg
	cfgNo.SelfMonitor = false
	rtoNo, err := New(w.prog, w.mixed(400_000, 20_000), hpmCfg(), cfgNo)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	resNo := rtoNo.Run()
	if res.Sim.Cycles >= resNo.Sim.Cycles {
		t.Errorf("self-monitoring did not pay off: %d vs %d cycles", res.Sim.Cycles, resNo.Sim.Cycles)
	}
}

func TestDeterministicRuns(t *testing.T) {
	w := buildWorkload(t)
	r1 := run(t, w, w.alternating(400_000, 400_000), DefaultConfig(PolicyLPD))
	r2 := run(t, w, w.alternating(400_000, 400_000), DefaultConfig(PolicyLPD))
	if r1.Sim.Cycles != r2.Sim.Cycles || r1.Patches != r2.Patches || r1.PhaseChanges != r2.PhaseChanges {
		t.Errorf("runs differ: %+v vs %+v", r1, r2)
	}
}

// TestGPDRepatchesAfterRestabilization: the ORIG controller unpatches all
// traces on a global phase change and re-selects traces when the phase
// stabilizes again.
func TestGPDRepatchesAfterRestabilization(t *testing.T) {
	w := buildWorkload(t)
	// Long steady stretches separated by one working-set move: stable in
	// l1, shift, stable in l2.
	seg := func(span isa.LoopSpan) sim.Segment {
		return sim.Segment{
			BaseCycles:  4_000_000,
			SlicePeriod: 20_000,
			Regions: []sim.RegionBehavior{{
				Start: span.Start, End: span.End, Weight: 1,
				MissRate: 0.5, MissPenalty: 40, HotspotIdx: -1,
			}},
		}
	}
	sched := &sim.Schedule{
		Name:     "two-phases",
		Segments: []sim.Segment{seg(w.l1), seg(w.l2)},
	}
	cfg := DefaultConfig(PolicyGPD)
	rto, err := New(w.prog, sched, hpmCfg(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := rto.Run()
	if res.Patches < 2 {
		t.Fatalf("patches = %d; want >= 2 (one per stable phase)", res.Patches)
	}
	if res.Unpatches < 1 {
		t.Fatalf("unpatches = %d; want >= 1 (working-set move)", res.Unpatches)
	}
	// Patch targets must cover both loops across the run.
	patched := map[string]bool{}
	for _, ev := range res.Events {
		if ev.Kind == EventPatch {
			patched[ev.Region] = true
		}
	}
	l1Name := sim.Span{Start: w.l1.Start, End: w.l1.End}.Name()
	l2Name := sim.Span{Start: w.l2.Start, End: w.l2.End}.Name()
	if !patched[l1Name] || !patched[l2Name] {
		t.Errorf("patched spans = %v; want both %s and %s", patched, l1Name, l2Name)
	}
}

// TestMinTraceSamplesGatesSelection: loops below the hotness threshold are
// not selected as traces by either controller.
func TestMinTraceSamplesGatesSelection(t *testing.T) {
	w := buildWorkload(t)
	sched := &sim.Schedule{
		Name:   "skewed",
		Repeat: 40,
		Segments: []sim.Segment{{
			BaseCycles:  400_000,
			SlicePeriod: 20_000,
			Regions: []sim.RegionBehavior{
				{Start: w.l1.Start, End: w.l1.End, Weight: 0.97,
					MissRate: 0.5, MissPenalty: 40, HotspotIdx: -1},
				{Start: w.l2.Start, End: w.l2.End, Weight: 0.03,
					MissRate: 0.5, MissPenalty: 40, HotspotIdx: -1},
			},
		}},
	}
	cfg := DefaultConfig(PolicyLPD)
	cfg.MinTraceSamples = 32 // l2 gets ~4 of 128 samples per interval
	rto, err := New(w.prog, sched, hpmCfg(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := rto.Run()
	l2Name := sim.Span{Start: w.l2.Start, End: w.l2.End}.Name()
	for _, ev := range res.Events {
		if ev.Kind == EventPatch && ev.Region == l2Name {
			t.Fatalf("cold loop patched at cycle %d", ev.Cycle)
		}
	}
	if res.Patches == 0 {
		t.Error("hot loop never patched")
	}
}

// TestTraceSelectionMatchesFormation: RTO-ORIG's trace selection and
// region formation rank loops with one function (region.HotLoops), so on
// an interval no region monitors, with MinTraceSamples equal to
// MinRegionSamples, the spans RTO-ORIG selects are the loop regions
// formation builds, in the same order. The interval holds nested and
// sibling loops, a tie broken by address, a loop at the threshold, one
// below it, a misaligned PC and idle samples.
func TestTraceSelectionMatchesFormation(t *testing.T) {
	b := isa.NewBuilder(0x10000)
	p := b.Proc("main")
	p.BeginLoop()
	p.Code(8, isa.KindALU)
	inner := p.Loop(8, []isa.Kind{isa.KindLoad, isa.KindALU}, nil)
	outer := p.EndLoop()
	s1 := p.Loop(12, []isa.Kind{isa.KindLoad, isa.KindALU, isa.KindALU}, nil)
	s2 := p.Loop(16, []isa.Kind{isa.KindLoad, isa.KindALU}, nil)
	q := b.Proc("other")
	s3 := q.Loop(20, []isa.Kind{isa.KindLoad, isa.KindFP}, nil)
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	cfg := DefaultConfig(PolicyGPD)
	cfg.Region.MinRegionSamples = cfg.MinTraceSamples
	th := cfg.MinTraceSamples
	ov := &hpm.Overflow{}
	add := func(start isa.Addr, instrs, n int) {
		for i := 0; i < n; i++ {
			ov.Samples = append(ov.Samples, hpm.Sample{PC: start + isa.Addr(i%instrs)*isa.InstrBytes})
		}
	}
	add(inner.Start, inner.NumInstrs(), 2*th)
	add(outer.Start, 8, th+8) // the outer loop's own straight code
	add(s1.Start, s1.NumInstrs(), 2*th-1)
	add(s1.Start+1, 1, 1) // misaligned: s1 ties with inner
	add(s2.Start, s2.NumInstrs(), th-1)
	add(s3.Start, s3.NumInstrs(), th)
	add(0, 1, 3*th) // idle

	rto := &RTO{cfg: cfg, prog: prog}
	traces := rto.hotLoops(ov)
	mon, err := region.NewMonitor(prog, cfg.Region)
	if err != nil {
		t.Fatal(err)
	}
	rep := mon.ProcessOverflow(ov)
	want := []isa.LoopSpan{inner, s1, outer, s3}
	if len(traces) != len(want) || len(rep.NewRegions) != len(want) {
		t.Fatalf("RTO-ORIG selected %v and formation built %d regions; want %d of each", traces, len(rep.NewRegions), len(want))
	}
	for i, w := range want {
		reg := rep.NewRegions[i]
		if traces[i] != (sim.Span{Start: w.Start, End: w.End}) || reg.Start != w.Start || reg.End != w.End {
			t.Errorf("rank %d: trace %v, region %s; want %s for both", i, traces[i].Name(), reg.Name(), w.Name())
		}
	}
}

// TestCPITrackerFlagsCharacteristicChange sets up the case the centroid
// cannot see: the working set never moves (one loop, fixed weights) but
// the data set outgrows the cache mid-run, tripling the miss rate. The
// CPI tracker flags the change and the GPD controller re-evaluates its
// traces.
func TestCPITrackerFlagsCharacteristicChange(t *testing.T) {
	b := isa.NewBuilder(0x10000)
	p := b.Proc("main")
	loop := p.Loop(16, []isa.Kind{isa.KindLoad, isa.KindALU, isa.KindALU, isa.KindALU}, nil)
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	seg := func(missRate float64) sim.Segment {
		return sim.Segment{
			BaseCycles:  2_000_000,
			SlicePeriod: 20_000,
			Regions: []sim.RegionBehavior{{
				Start: loop.Start, End: loop.End, Weight: 1,
				MissRate: missRate, MissPenalty: 60, HotspotIdx: -1,
			}},
		}
	}
	sched := &sim.Schedule{
		Name:     "cpi-jump",
		Segments: []sim.Segment{seg(0.1), seg(0.9)},
	}
	cfg := DefaultConfig(PolicyGPD)
	cfg.TrackCPI = true
	rto, err := New(prog, sched, hpmCfg(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := rto.Run()
	if rto.CPITracker() == nil || rto.CPITracker().Changes() == 0 {
		t.Fatalf("CPI tracker flagged no change across a 0.1 -> 0.9 miss-rate jump")
	}
	var perfEvents, reEvals int
	for _, ev := range res.Events {
		switch {
		case ev.Kind == EventPerfChange:
			perfEvents++
		case ev.Kind == EventUnpatch && ev.Detail == "performance characteristics changed":
			reEvals++
		}
	}
	if perfEvents == 0 {
		t.Error("no perf-change events logged")
	}
	if res.Patches > 0 && reEvals == 0 {
		t.Error("patched traces were not re-evaluated on the CPI change")
	}
	// Without tracking, no such events appear.
	cfgOff := DefaultConfig(PolicyGPD)
	rtoOff, err := New(prog, &sim.Schedule{Name: "cpi-jump", Segments: []sim.Segment{seg(0.1), seg(0.9)}}, hpmCfg(), cfgOff)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if rtoOff.CPITracker() != nil {
		t.Error("tracker attached without TrackCPI")
	}
}

func TestStringers(t *testing.T) {
	if PolicyGPD.String() != "rto-orig" || PolicyLPD.String() != "rto-lpd" || PolicyNone.String() != "none" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should render")
	}
	kinds := []EventKind{EventPatch, EventUnpatch, EventPhaseChange, EventFormation, EventHarmUndo, EventKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("event kind %d renders empty", int(k))
		}
	}
}

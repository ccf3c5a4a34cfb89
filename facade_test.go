package regionmon

// Compile-and-smoke coverage for every façade re-export, so drift between
// the internal packages and regionmon.go is caught by `go test ./.`
// rather than by downstream examples.

import (
	"slices"
	"testing"
)

// facadeProgram builds a small two-loop program through the façade types.
func facadeProgram(t *testing.T) (*Program, LoopSpan) {
	t.Helper()
	b := NewProgramBuilder(0x10000)
	p := b.Proc("main")
	p.Code(16, KindALU)
	span := p.Loop(32, []Kind{KindLoad, KindALU, KindFP, KindStore}, nil)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog, span
}

func TestFacadeProgramModel(t *testing.T) {
	prog, span := facadeProgram(t)
	if prog.NumInstrs() < 48 {
		t.Errorf("NumInstrs = %d; want >= 48 (straight code + loop body)", prog.NumInstrs())
	}
	var proc *Procedure = prog.Proc("main")
	if proc == nil || !proc.Contains(span.Start) {
		t.Fatal("procedure lookup broken")
	}
	var blk *Block = prog.BlockAt(span.Start)
	if blk == nil {
		t.Fatal("BlockAt broken")
	}
	var loop *Loop = proc.InnermostLoopAt(span.Start)
	if loop == nil || loop.NumInstrs() != span.NumInstrs() {
		t.Fatal("loop analysis broken")
	}
	if k, ok := prog.KindAt(span.Start); !ok || k != KindLoad {
		t.Errorf("KindAt = %v, %v", k, ok)
	}
	for _, k := range []Kind{KindALU, KindLoad, KindStore, KindFP, KindBranch, KindCall, KindRet, KindNop} {
		if !k.Valid() {
			t.Errorf("kind %v invalid", k)
		}
	}
}

func TestFacadeDetectors(t *testing.T) {
	prog, span := facadeProgram(t)

	gdet, err := NewGlobalDetector(DefaultGlobalConfig())
	if err != nil {
		t.Fatal(err)
	}
	ldet, err := NewLocalDetector(span.NumInstrs(), DefaultLocalConfig())
	if err != nil {
		t.Fatal(err)
	}
	rmon, err := NewRegionMonitor(prog, DefaultRegionConfig())
	if err != nil {
		t.Fatal(err)
	}
	bbv, err := NewBBVDetector(prog, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := NewWorkingSetDetector(prog, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := NewPerfTracker(DefaultPerfConfig())
	if err != nil {
		t.Fatal(err)
	}
	cpd, err := NewChangePointDetector(DefaultChangePointConfig())
	if err != nil {
		t.Fatal(err)
	}

	// All detector families drive one Pipeline through the common
	// interface — the tentpole contract, exercised via the façade.
	pipe := NewPipeline()
	for _, d := range []PhaseDetector{
		AdaptGPD(gdet), AdaptRegionMonitor(rmon),
		AdaptBBV(bbv), AdaptWorkingSet(ws),
		AdaptCPI(tracker), AdaptDPI(MustTracker(t)),
		AdaptChangePoint(cpd),
	} {
		if err := pipe.Register(d); err != nil {
			t.Fatalf("Register(%s): %v", d.Name(), err)
		}
	}
	wantNames := []string{DetectorGPD, DetectorRegions, DetectorBBV, DetectorWorkingSet, DetectorCPI, DetectorDPI, DetectorChange}
	if len(pipe.Detectors()) != len(wantNames) {
		t.Fatalf("detectors = %d; want %d", len(pipe.Detectors()), len(wantNames))
	}
	var observed int
	var lastVerdicts int
	pipe.AddObserver(func(rep *PipelineReport) {
		observed++
		lastVerdicts = len(rep.Verdicts)
	})
	ov := &Overflow{Samples: make([]Sample, 64)}
	for i := range ov.Samples {
		ov.Samples[i] = Sample{PC: span.Start + Addr(i%span.NumInstrs())*4, Instrs: 8, DCMisses: 1}
	}
	for seq := 0; seq < 6; seq++ {
		ov.Seq = seq
		rep := pipe.ProcessOverflow(ov)
		var v *DetectorVerdict = rep.Verdict(DetectorGPD)
		if v == nil {
			t.Fatal("gpd verdict missing")
		}
	}
	if observed != 6 || lastVerdicts != len(wantNames) {
		t.Errorf("observer saw %d reports of %d verdicts", observed, lastVerdicts)
	}
	if n := bbv.Intervals(); n != 6 {
		t.Errorf("bbv intervals = %d", n)
	}
	if _ = CPI(ov); DPI(ov) <= 0 {
		t.Error("CPI/DPI helpers broken")
	}
	// LPD façade surface.
	hist := make([]int64, span.NumInstrs())
	for i := range hist {
		hist[i] = int64(i + 1)
	}
	var lv LocalVerdict
	for i := 0; i < 4; i++ {
		lv = ldet.Observe(hist)
	}
	if lv.State != LocalStable || ldet.StableFraction() == 0 {
		t.Errorf("local detector state %v (stable frac %v)", lv.State, ldet.StableFraction())
	}
	_ = []LocalState{LocalUnstable, LocalLessUnstable, LocalStable}
	_ = []SimilarityMetric{MetricPearson, MetricManhattan, MetricTopK}
	_ = []GlobalState{GlobalUnstable, GlobalLessStable, GlobalStable}

	// Offline change-point façade surface: a clean level shift is found.
	series := make([]float64, 64)
	for i := range series {
		series[i] = 1.0
		if i >= 32 {
			series[i] = 2.0
		}
	}
	cps, err := DetectChangePoints(series, 7, DefaultChangePointEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || cps[0].Index != 32 {
		t.Errorf("change points = %+v; want one at index 32", cps)
	}
}

// MustTracker builds a PerfTracker or fails the test.
func MustTracker(t *testing.T) *PerfTracker {
	t.Helper()
	tr, err := NewPerfTracker(DefaultPerfConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFacadeSystemAndExecutionModel(t *testing.T) {
	bench, err := LoadBenchmark("181.mcf", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	names := BenchmarkNames()
	if len(names) == 0 {
		t.Fatal("no benchmarks")
	}
	// Piecewise wiring: monitor + executor built from parts.
	var deliveries int
	mon, err := NewSamplingMonitor(SamplingConfig{Period: 450, BufferSize: DefaultBufferSize},
		func(ov *Overflow) { deliveries++ })
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(bench.Prog, bench.Sched, mon)
	if err != nil {
		t.Fatal(err)
	}
	var res ExecResult = ex.Run()
	if res.Cycles == 0 || deliveries == 0 {
		t.Fatalf("executor produced %d cycles, %d deliveries", res.Cycles, deliveries)
	}
	_ = DefaultCostModel()

	// Convenience harness with a pipeline observer.
	sys, err := NewSystem(bench.Prog, bench.Sched, SystemConfig{
		Sampling: SamplingConfig{Period: 450, BufferSize: 512, JitterFrac: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var hooked int
	sys.AddObserver(func(rep *PipelineReport) { hooked++ })
	stats := sys.Run()
	if stats.Intervals == 0 || hooked != stats.Intervals {
		t.Errorf("intervals %d, hooked %d", stats.Intervals, hooked)
	}
	if sys.GlobalDetector() == nil || sys.RegionMonitor() == nil ||
		sys.Executor() == nil || sys.Pipeline() == nil {
		t.Error("System accessors broken")
	}
}

func TestFacadeRTO(t *testing.T) {
	bench, err := LoadBenchmark("172.mgrid", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []Policy{PolicyGPD, PolicyLPD, PolicyNone} {
		cfg := DefaultRTOConfig(policy)
		cfg.Model = ConstantModel(bench.PrefetchSave)
		rto, err := NewRTO(bench.Prog, bench.Sched, SamplingConfig{Period: 450, BufferSize: 512}, cfg)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		var res RTOResult = rto.Run()
		if res.Policy != policy || res.Sim.Cycles == 0 {
			t.Errorf("%v: result %+v", policy, res)
		}
		for _, ev := range res.Events {
			var e RTOEvent = ev
			if e.Kind.String() == "" {
				t.Error("event kind unprintable")
			}
		}
	}
}

func TestFacadeExperiments(t *testing.T) {
	if Fig8Table() == nil {
		t.Fatal("Fig8Table nil")
	}
	if len(Fig13BenchmarkNames()) == 0 || len(Fig17BenchmarkNames()) == 0 {
		t.Fatal("figure name sets empty")
	}
	opts := QuickExperimentOptions()
	full := DefaultExperimentOptions()
	if opts.Scale <= 0 || full.Scale <= 0 {
		t.Fatal("experiment options broken")
	}
	// One tiny sweep through both the sequential and parallel façade
	// entry points; equality is covered in internal/experiments.
	seq, err := RunSweep(opts, []string{"172.mgrid"})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSweepParallel(opts, []string{"172.mgrid"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Cells) != len(par.Cells) || len(seq.Cells) != len(opts.Periods) {
		t.Fatalf("sweep cells: seq %d par %d", len(seq.Cells), len(par.Cells))
	}
	var tab *ExperimentTable = seq.Fig3Table()
	if tab.String() == "" || tab.CSV() == "" {
		t.Error("table rendering broken")
	}
}

func TestFacadeSchedule(t *testing.T) {
	prog, span := facadeProgram(t)
	sched := &Schedule{
		Name: "facade",
		Seed: 7,
		Segments: []Segment{{
			Name:        "steady",
			BaseCycles:  200_000,
			SlicePeriod: 10_000,
			Regions: []RegionBehavior{{
				Start: span.Start, End: span.End,
				Weight: 1, MissRate: 0.05, MissPenalty: 20,
				HotspotIdx: -1,
			}},
		}},
	}
	if err := sched.Validate(prog); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(prog, sched, SystemConfig{
		Sampling: SamplingConfig{Period: 450, BufferSize: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats := sys.Run(); stats.Exec.Cycles == 0 {
		t.Error("scheduled run produced no cycles")
	}
	// Region-monitoring façade extras: manual regions and annotations.
	rmon, err := NewRegionMonitor(prog, DefaultRegionConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg, err := rmon.AddRegion(span.Start, span.End)
	if err != nil {
		t.Fatal(err)
	}
	var rv RegionVerdict
	_ = rv
	if reg.NumInstrs() != span.NumInstrs() {
		t.Errorf("region size %d", reg.NumInstrs())
	}
	ann := Annotation{Start: span.Start, End: span.End, Name: "hot"}
	if err := ann.Validate(prog); err != nil {
		t.Errorf("annotation: %v", err)
	}
}

// TestFacadeRegionHistograms pins the region re-exports: a monitor built
// through the façade distributes samples, and both histogram accessors
// return the interval's bins, which the region's detector observed: all
// 64 samples on the first instruction.
func TestFacadeRegionHistograms(t *testing.T) {
	prog, span := facadeProgram(t)
	rmon, err := NewRegionMonitor(prog, DefaultRegionConfig())
	if err != nil {
		t.Fatalf("NewRegionMonitor: %v", err)
	}
	r, err := rmon.AddRegion(span.Start, span.End)
	if err != nil {
		t.Fatal(err)
	}
	ov := &Overflow{Samples: make([]Sample, 64)}
	for i := range ov.Samples {
		ov.Samples[i] = Sample{PC: span.Start, Instrs: 8}
	}
	if rep := rmon.ProcessOverflow(ov); rep.MonitoredSamples != 64 {
		t.Fatalf("MonitoredSamples = %d, want 64", rep.MonitoredSamples)
	}
	want := make([]int64, span.NumInstrs())
	want[0] = 64
	if h := r.Histogram(); !slices.Equal(h, want) {
		t.Fatalf("Histogram() = %v, want %v", h, want)
	}
	if got := r.AppendHistogram([]int64{-1}); !slices.Equal(got[1:], want) || got[0] != -1 {
		t.Fatalf("AppendHistogram([-1]) = %v, want -1 then %v", got, want)
	}
	if got := rmon.Regions(); len(got) != 1 || got[0] != r {
		t.Fatalf("Regions() = %v", got)
	}
}

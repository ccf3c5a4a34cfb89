package regionmon

import (
	"bytes"
	"slices"
	"testing"

	"regionmon/internal/stats"
	"regionmon/internal/vhash"
)

// buildDemo constructs a small two-loop program and a schedule through the
// public façade only.
func buildDemo(t testing.TB) (*Program, *Schedule, LoopSpan, LoopSpan) {
	t.Helper()
	b := NewProgramBuilder(0x10000)
	p := b.Proc("main")
	p.Code(16, KindALU)
	l1 := p.Loop(20, []Kind{KindLoad, KindALU, KindALU, KindALU}, nil)
	b.Skip(0x20000)
	q := b.Proc("aux")
	l2 := q.Loop(24, []Kind{KindLoad, KindALU, KindStore, KindALU}, nil)
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sched := &Schedule{
		Name:   "demo",
		Repeat: 20,
		Segments: []Segment{{
			BaseCycles:  200_000,
			SlicePeriod: 10_000,
			Regions: []RegionBehavior{
				{Start: l1.Start, End: l1.End, Weight: 0.6, MissRate: 0.4, MissPenalty: 40, HotspotIdx: -1},
				{Start: l2.Start, End: l2.End, Weight: 0.4, MissRate: 0.2, MissPenalty: 40, HotspotIdx: -1},
			},
		}},
	}
	return prog, sched, l1, l2
}

func TestSystemEndToEnd(t *testing.T) {
	prog, sched, _, _ := buildDemo(t)
	sys, err := NewSystem(prog, sched, SystemConfig{
		Sampling: SamplingConfig{Period: 500, BufferSize: 256, JitterFrac: 0.1},
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	observed := 0
	sys.AddObserver(func(*PipelineReport) { observed++ })
	stats := sys.Run()
	if stats.Intervals == 0 || observed != stats.Intervals {
		t.Fatalf("intervals = %d, observer saw %d", stats.Intervals, observed)
	}
	if stats.Regions < 2 {
		t.Errorf("regions = %d; want >= 2 (both loops formed)", stats.Regions)
	}
	if stats.Exec.Cycles == 0 {
		t.Error("no cycles executed")
	}
	// Steady behaviour: GPD and every region eventually stable.
	if stats.GlobalStableFraction == 0 {
		t.Error("GPD never stable on steady demo")
	}
	// Steady behaviour: every region is locally stable for most of the
	// run (the very last interval is a sparse partial-buffer flush and
	// may read unstable).
	for _, r := range sys.RegionMonitor().Regions() {
		if frac := r.Detector.StableFraction(); frac < 0.5 {
			t.Errorf("region %s stable fraction %.2f; want >= 0.5", r.Name(), frac)
		}
	}
}

// TestSystemSnapshotRestore checks the facade checkpoint path: a snapshot
// taken mid-run restores into a second identically configured System,
// re-encodes byte-identically and, fed the rest of the run's overflows
// through its pipeline, reports the verdicts of the uninterrupted run,
// compared by vhash digest.
func TestSystemSnapshotRestore(t *testing.T) {
	prog, sched, _, _ := buildDemo(t)
	sampling := SamplingConfig{Period: 500, BufferSize: 256, JitterFrac: 0.1}
	newSys := func() *System {
		sys, err := NewSystem(prog, sched, SystemConfig{Sampling: sampling})
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		return sys
	}

	// The run's overflows, recorded by a sampling monitor of the same
	// configuration over the same schedule.
	var recorded []*Overflow
	mon, err := NewSamplingMonitor(sampling, func(ov *Overflow) {
		c := *ov
		c.Samples = slices.Clone(ov.Samples)
		recorded = append(recorded, &c)
	})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewExecutor(prog, sched, mon)
	if err != nil {
		t.Fatal(err)
	}
	exec.Run()

	sys := newSys()
	var snap []byte
	var snapErr error
	intervals := 0
	want := vhash.New()
	sys.AddObserver(func(rep *PipelineReport) {
		intervals++
		if intervals == 25 {
			snap, snapErr = sys.Snapshot()
		}
		if intervals > 25 {
			if err := want.Report(rep); err != nil {
				t.Fatal(err)
			}
		}
	})
	sys.Run()
	if snapErr != nil {
		t.Fatalf("mid-run Snapshot: %v", snapErr)
	}
	if snap == nil || intervals < 30 {
		t.Fatalf("run too short: %d intervals, want 30 or more", intervals)
	}
	if len(recorded) != intervals {
		t.Fatalf("recorded %d overflows, the System observed %d", len(recorded), intervals)
	}

	other := newSys()
	if err := other.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := other.Pipeline().Intervals(); got != 25 {
		t.Errorf("restored Intervals = %d; want 25", got)
	}
	resnap, err := other.Snapshot()
	if err != nil {
		t.Fatalf("re-Snapshot: %v", err)
	}
	if !bytes.Equal(snap, resnap) {
		t.Error("restored snapshot re-encodes differently")
	}
	got := vhash.New()
	other.AddObserver(func(rep *PipelineReport) {
		if err := got.Report(rep); err != nil {
			t.Fatal(err)
		}
	})
	for _, ov := range recorded[25:] {
		other.Pipeline().ProcessOverflow(ov)
	}
	if got.Sum() != want.Sum() {
		t.Errorf("resumed run's digest %#x over intervals 26-%d; uninterrupted run's %#x", got.Sum(), intervals, want.Sum())
	}
	if err := other.Restore([]byte("garbage")); err == nil {
		t.Error("Restore accepted garbage")
	}
}

// TestSystemUCRMedianCoversWholeRun: SystemStats.UCRMedian is the median
// of every interval's UCR fraction, not of a recent window. The run's
// first 3,000 intervals sample straight-line code, which forms no region
// (UCR fraction 1), and its last 2,500 sample a loop the monitor covers
// (fraction near 0). So the whole run's median is 1, while the median of
// its last 4,096 intervals, the most the monitor used to keep, is near 0.
func TestSystemUCRMedianCoversWholeRun(t *testing.T) {
	b := NewProgramBuilder(0x10000)
	p := b.Proc("main")
	p.Code(32, KindALU)
	loop := p.Loop(16, []Kind{KindLoad, KindALU}, nil)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	straight := prog.Procs[0].Blocks[0]
	const period, buffer = 100, 16
	segment := func(start, end Addr, intervals uint64) Segment {
		return Segment{
			BaseCycles:  intervals * period * buffer,
			SlicePeriod: 10_000,
			Regions:     []RegionBehavior{{Start: start, End: end, Weight: 1, HotspotIdx: -1}},
		}
	}
	sched := &Schedule{Name: "straight-then-loop", Segments: []Segment{
		segment(straight.Start, straight.End(), 3000),
		segment(loop.Start, loop.End, 2500),
	}}
	sys, err := NewSystem(prog, sched, SystemConfig{
		Sampling: SamplingConfig{Period: period, BufferSize: buffer},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ucr []float64
	sys.AddObserver(func(rep *PipelineReport) {
		ucr = append(ucr, rep.Verdict(DetectorRegions).Payload.(*RegionReport).UCRFraction)
	})
	st := sys.Run()
	if len(ucr) != st.Intervals || len(ucr) <= 4096 {
		t.Fatalf("observer saw %d intervals of %d; want the same count, above 4,096", len(ucr), st.Intervals)
	}
	if want := stats.Median(ucr); st.UCRMedian != want {
		t.Fatalf("UCRMedian = %v; the median over all %d intervals is %v", st.UCRMedian, len(ucr), want)
	}
	if recent := stats.Median(ucr[len(ucr)-4096:]); st.UCRMedian != 1 || recent > 0.1 {
		t.Fatalf("whole-run median %v, last-4,096 median %v; the run does not tell them apart", st.UCRMedian, recent)
	}
}

func TestSystemValidation(t *testing.T) {
	prog, sched, _, _ := buildDemo(t)
	if _, err := NewSystem(nil, sched, SystemConfig{Sampling: SamplingConfig{Period: 100}}); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := NewSystem(prog, nil, SystemConfig{Sampling: SamplingConfig{Period: 100}}); err == nil {
		t.Error("nil schedule accepted")
	}
	if _, err := NewSystem(prog, sched, SystemConfig{}); err == nil {
		t.Error("zero sampling period accepted")
	}
	bad := DefaultGlobalConfig()
	bad.HistorySize = 0
	if _, err := NewSystem(prog, sched, SystemConfig{
		Sampling: SamplingConfig{Period: 100},
		Global:   &bad,
	}); err == nil {
		t.Error("bad global config accepted")
	}
	badR := DefaultRegionConfig()
	badR.UCRThreshold = 0
	if _, err := NewSystem(prog, sched, SystemConfig{
		Sampling: SamplingConfig{Period: 100},
		Region:   &badR,
	}); err == nil {
		t.Error("bad region config accepted")
	}
}

func TestFacadeConstructors(t *testing.T) {
	if _, err := NewGlobalDetector(DefaultGlobalConfig()); err != nil {
		t.Errorf("NewGlobalDetector: %v", err)
	}
	if _, err := NewLocalDetector(32, DefaultLocalConfig()); err != nil {
		t.Errorf("NewLocalDetector: %v", err)
	}
	prog, sched, _, _ := buildDemo(t)
	if _, err := NewRegionMonitor(prog, DefaultRegionConfig()); err != nil {
		t.Errorf("NewRegionMonitor: %v", err)
	}
	mon, err := NewSamplingMonitor(SamplingConfig{Period: 1000}, func(*Overflow) {})
	if err != nil {
		t.Fatalf("NewSamplingMonitor: %v", err)
	}
	if _, err := NewExecutor(prog, sched, mon); err != nil {
		t.Errorf("NewExecutor: %v", err)
	}
	rto, err := NewRTO(prog, sched, SamplingConfig{Period: 1000, BufferSize: 64}, DefaultRTOConfig(PolicyLPD))
	if err != nil {
		t.Fatalf("NewRTO: %v", err)
	}
	res := rto.Run()
	if res.Sim.Cycles == 0 {
		t.Error("RTO run executed nothing")
	}
	cm := DefaultCostModel()
	if cm.Cost(KindFP) != 3 {
		t.Error("cost model re-export broken")
	}
	if DefaultBufferSize != 2032 {
		t.Error("buffer size re-export broken")
	}
}

func TestBenchmarkFacade(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 24 {
		t.Fatalf("suite has %d benchmarks; want 24", len(names))
	}
	b, err := LoadBenchmark("181.mcf", 0.001)
	if err != nil {
		t.Fatalf("LoadBenchmark: %v", err)
	}
	if b.Name != "181.mcf" || b.Prog == nil {
		t.Error("benchmark malformed")
	}
	if _, err := LoadBenchmark("nope", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestExperimentFacade(t *testing.T) {
	if len(Fig13BenchmarkNames()) != 8 || len(Fig17BenchmarkNames()) != 4 {
		t.Error("figure subsets wrong")
	}
	tab := Fig8Table()
	if len(tab.Rows) != 2 {
		t.Error("Fig8 table wrong")
	}
	opts := QuickExperimentOptions()
	if err := opts.Validate(); err != nil {
		t.Errorf("quick options invalid: %v", err)
	}
	dflt := DefaultExperimentOptions()
	if err := dflt.Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
}

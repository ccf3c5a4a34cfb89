package pipeline

import (
	"testing"

	"regionmon/internal/altdetect"
	"regionmon/internal/changepoint"
	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/region"
)

// testProgram builds a two-loop program.
func testProgram(t testing.TB) (*isa.Program, isa.LoopSpan, isa.LoopSpan) {
	t.Helper()
	b := isa.NewBuilder(0x10000)
	p := b.Proc("main")
	p.Code(32, isa.KindALU)
	l1 := p.Loop(16, []isa.Kind{isa.KindLoad, isa.KindALU}, nil)
	p.Code(8, isa.KindALU)
	l2 := p.Loop(24, []isa.Kind{isa.KindLoad, isa.KindALU, isa.KindALU}, nil)
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return prog, l1, l2
}

// overflow fabricates an overflow whose samples cycle over the given PCs.
func overflow(seq, n int, pcs ...isa.Addr) *hpm.Overflow {
	ov := &hpm.Overflow{Seq: seq, Samples: make([]hpm.Sample, n)}
	for i := range ov.Samples {
		ov.Samples[i] = hpm.Sample{PC: pcs[i%len(pcs)], Cycle: uint64(seq*n + i), Instrs: 10}
	}
	ov.Cycle = ov.Samples[n-1].Cycle
	return ov
}

// spanPCs returns k distinct instruction addresses inside span.
func spanPCs(span isa.LoopSpan, k int) []isa.Addr {
	pcs := make([]isa.Addr, k)
	n := span.NumInstrs()
	for i := range pcs {
		pcs[i] = span.Start + isa.Addr((i%n)*isa.InstrBytes)
	}
	return pcs
}

// fullPipeline builds a pipeline with all detector families attached
// (including the E-divisive change-point detector over CPI), returning
// the principal adapters for inspection.
func fullPipeline(t testing.TB, prog *isa.Program) (*Pipeline, *GPD, *RegionMonitor, *Alt, *Alt) {
	t.Helper()
	gdet, err := gpd.New(gpd.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rmon, err := region.NewMonitor(prog, region.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bbv, err := altdetect.NewBBV(prog, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := altdetect.NewWorkingSet(prog, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cpd, err := changepoint.New(changepoint.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pipe := New()
	ga := NewGPD(gdet)
	ra := NewRegionMonitor(rmon)
	ba := NewBBV(bbv)
	wa := NewWorkingSet(ws)
	ca := NewChangePoint(cpd)
	for _, d := range []PhaseDetector{ga, ra, ba, wa, ca} {
		if err := pipe.Register(d); err != nil {
			t.Fatalf("Register(%s): %v", d.Name(), err)
		}
	}
	return pipe, ga, ra, ba, wa
}

// namedDetector is a detector registered under the name it holds; it
// judges nothing.
type namedDetector string

func (d namedDetector) Name() string                          { return string(d) }
func (d namedDetector) ObserveInterval(*hpm.Overflow) Verdict { return Verdict{Detector: string(d)} }

func TestRegisterValidation(t *testing.T) {
	prog, _, _ := testProgram(t)
	pipe, _, _, _, _ := fullPipeline(t, prog)
	if err := pipe.Register(nil); err == nil {
		t.Error("nil detector accepted")
	}
	gdet := gpd.MustNew(gpd.DefaultConfig())
	if err := pipe.Register(NewGPD(gdet)); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := pipe.Register(namedDetector("")); err == nil {
		t.Error("empty name accepted")
	}
	if pipe.Detector(NameGPD) == nil || pipe.Detector("nope") != nil {
		t.Error("Detector lookup broken")
	}
	if len(pipe.Detectors()) != 5 {
		t.Errorf("detectors = %d; want 5", len(pipe.Detectors()))
	}
}

func TestFanOutMergesAllDetectors(t *testing.T) {
	prog, l1, _ := testProgram(t)
	pipe, ga, ra, _, _ := fullPipeline(t, prog)

	var observed int
	pipe.AddObserver(func(rep *IntervalReport) {
		observed++
		if len(rep.Verdicts) != 5 {
			t.Fatalf("verdicts = %d; want 5", len(rep.Verdicts))
		}
		// Registration order preserved.
		wantOrder := []string{NameGPD, NameRegions, NameBBV, NameWorkingSet, NameChangePoint}
		for i, w := range wantOrder {
			if rep.Verdicts[i].Detector != w {
				t.Fatalf("verdict %d from %q; want %q", i, rep.Verdicts[i].Detector, w)
			}
		}
	})

	pcs := spanPCs(l1, 4)
	const intervals = 12
	for seq := 0; seq < intervals; seq++ {
		rep := pipe.ProcessOverflow(overflow(seq, 64, pcs...))
		if rep.Seq != seq {
			t.Fatalf("report seq = %d; want %d", rep.Seq, seq)
		}
		if v := rep.Verdict(NameGPD); v == nil {
			t.Fatal("gpd verdict missing")
		}
		if rep.Verdict("nope") != nil {
			t.Fatal("verdict lookup invented a detector")
		}
	}
	if observed != intervals {
		t.Errorf("observer ran %d times; want %d", observed, intervals)
	}
	if pipe.Intervals() != intervals {
		t.Errorf("Intervals = %d; want %d", pipe.Intervals(), intervals)
	}

	// Steady stream: GPD ends stable, every adapter agrees with its
	// underlying detector's counters.
	if ga.Detector().State() != gpd.Stable {
		t.Errorf("gpd state = %v; want stable on steady stream", ga.Detector().State())
	}
	if n := ga.Detector().Intervals(); n != intervals {
		t.Errorf("gpd intervals = %d; want %d", n, intervals)
	}
	if ga.Detector().StableFraction() == 0 {
		t.Error("gpd never stable")
	}
	// Region monitor formed the loop region and judged it stable.
	if len(ra.Monitor().Regions()) == 0 {
		t.Fatal("no regions formed")
	}
	if f := ra.WeightedStableFraction(); f < 0.5 {
		t.Errorf("weighted stable fraction = %.2f; want >= 0.5", f)
	}
}

func TestVerdictPayloads(t *testing.T) {
	prog, l1, _ := testProgram(t)
	pipe, _, _, _, _ := fullPipeline(t, prog)
	pcs := spanPCs(l1, 4)
	var rep *IntervalReport
	for seq := 0; seq < 8; seq++ {
		rep = pipe.ProcessOverflow(overflow(seq, 64, pcs...))
	}
	if _, ok := rep.Verdict(NameGPD).Payload.(*gpd.Verdict); !ok {
		t.Errorf("gpd payload %T; want *gpd.Verdict", rep.Verdict(NameGPD).Payload)
	}
	if _, ok := rep.Verdict(NameRegions).Payload.(*region.Report); !ok {
		t.Errorf("regions payload %T; want *region.Report", rep.Verdict(NameRegions).Payload)
	}
	if _, ok := rep.Verdict(NameBBV).Payload.(*altdetect.Verdict); !ok {
		t.Errorf("bbv payload %T; want *altdetect.Verdict", rep.Verdict(NameBBV).Payload)
	}
	if _, ok := rep.Verdict(NameChangePoint).Payload.(*changepoint.Verdict); !ok {
		t.Errorf("changepoint payload %T; want *changepoint.Verdict", rep.Verdict(NameChangePoint).Payload)
	}
}

func TestPerfAdapter(t *testing.T) {
	tr, err := gpd.NewPerfTracker(gpd.DefaultPerfConfig())
	if err != nil {
		t.Fatal(err)
	}
	cpi := NewCPI(tr)
	pipe := New()
	pipe.MustRegister(cpi)
	prog, l1, _ := testProgram(t)
	_ = prog
	pcs := spanPCs(l1, 4)
	for seq := 0; seq < 10; seq++ {
		v := pipe.ProcessOverflow(overflow(seq, 64, pcs...)).Verdicts[0]
		if _, ok := v.Payload.(*gpd.PerfVerdict); !ok {
			t.Fatalf("payload %T; want *gpd.PerfVerdict", v.Payload)
		}
	}
	if tr.Intervals() != 10 {
		t.Errorf("tracker intervals = %d; want 10", tr.Intervals())
	}
}

func TestObserverSlots(t *testing.T) {
	pipe := New()
	gdet := gpd.MustNew(gpd.DefaultConfig())
	pipe.MustRegister(NewGPD(gdet))
	var calls string
	slotA := pipe.AddObserver(func(*IntervalReport) { calls += "a" })
	slotB := pipe.AddObserver(func(*IntervalReport) { calls += "b" })
	if slotA != 0 || slotB != 1 {
		t.Errorf("slots = %d, %d; want 0, 1", slotA, slotB)
	}
	ov := &hpm.Overflow{Samples: []hpm.Sample{{PC: 0x10000, Instrs: 1}}}
	pipe.ProcessOverflow(ov)
	pipe.ProcessOverflow(ov)
	if calls != "abab" {
		t.Errorf("observer calls = %q; want %q (attachment order, once per interval)", calls, "abab")
	}
}

// TestObserveBatchMatchesPerItem is the pipeline-level half of the batch
// byte-identity contract: a run of intervals through ObserveBatch produces
// exactly the interleaving of per-item ProcessOverflow calls — same
// verdicts in the same order, observers fired once per interval between
// detector passes, GPD's whole-run counters identical.
func TestObserveBatchMatchesPerItem(t *testing.T) {
	type event struct {
		seq      int
		verdicts []Verdict
	}
	type counters struct {
		intervals, changes int
		stable             float64
	}
	drive := func(batch int) ([]event, counters) {
		prog, l1, l2 := testProgram(t)
		pipe, ga, _, _, _ := fullPipeline(t, prog)
		var events []event
		pipe.AddObserver(func(rep *IntervalReport) {
			// Copy: the report and its payloads are reused per interval.
			vs := make([]Verdict, len(rep.Verdicts))
			copy(vs, rep.Verdicts)
			for i := range vs {
				vs[i].Payload = nil
			}
			events = append(events, event{rep.Seq, vs})
		})
		pcs := append(spanPCs(l1, 8), spanPCs(l2, 8)...)
		const intervals = 48
		if batch <= 1 {
			for seq := 0; seq < intervals; seq++ {
				pipe.ProcessOverflow(overflow(seq, 64, pcs...))
			}
		} else {
			for base := 0; base < intervals; base += batch {
				n := batch
				if base+n > intervals {
					n = intervals - base
				}
				ovs := make([]*hpm.Overflow, n)
				for k := range ovs {
					ovs[k] = overflow(base+k, 64, pcs...)
				}
				pipe.ObserveBatch(ovs)
			}
		}
		if pipe.Intervals() != intervals {
			t.Fatalf("batch %d: Intervals = %d; want %d", batch, pipe.Intervals(), intervals)
		}
		g := ga.Detector()
		return events, counters{g.Intervals(), g.PhaseChanges(), g.StableFraction()}
	}

	refEvents, refCounters := drive(1)
	for _, batch := range []int{5, 16, 64} {
		events, c := drive(batch)
		if c != refCounters {
			t.Errorf("batch %d: gpd counters %+v != per-item %+v", batch, c, refCounters)
		}
		if len(events) != len(refEvents) {
			t.Fatalf("batch %d: %d observer events; want %d", batch, len(events), len(refEvents))
		}
		for i := range events {
			if events[i].seq != refEvents[i].seq {
				t.Fatalf("batch %d: event %d seq %d; want %d", batch, i, events[i].seq, refEvents[i].seq)
			}
			for j := range events[i].verdicts {
				if events[i].verdicts[j] != refEvents[i].verdicts[j] {
					t.Errorf("batch %d: interval %d verdict %d = %+v; want %+v",
						batch, i, j, events[i].verdicts[j], refEvents[i].verdicts[j])
				}
			}
		}
	}
}

// TestObserveBatchEmpty: a zero-length batch is a no-op, not a panic.
func TestObserveBatchEmpty(t *testing.T) {
	pipe := New()
	pipe.MustRegister(NewGPD(gpd.MustNew(gpd.DefaultConfig())))
	pipe.ObserveBatch(nil)
	pipe.ObserveBatch([]*hpm.Overflow{})
	if pipe.Intervals() != 0 {
		t.Errorf("Intervals = %d after empty batches; want 0", pipe.Intervals())
	}
}

// TestHotPathAllocs gates the per-interval allocation budget of the whole
// fan-out (GPD + region monitoring with formed regions, whose histograms
// read the per-slot counts): after warm-up, processing an interval must
// not allocate.
func TestHotPathAllocs(t *testing.T) {
	// The subtest keeps the name it had when the distribution path read
	// an epoch index; it measures the whole fan-out all the same.
	t.Run("epoch", func(t *testing.T) {
		prog, l1, l2 := testProgram(t)
		pipe, _, ra, _, _ := fullPipeline(t, prog)
		pcs := append(spanPCs(l1, 8), spanPCs(l2, 8)...)
		for seq := 0; seq < 64; seq++ { // warm-up: form regions, fill scratch
			pipe.ProcessOverflow(overflow(seq, 128, pcs...))
		}
		if len(ra.Monitor().Regions()) < 2 {
			t.Fatalf("regions = %d; want 2 before measuring", len(ra.Monitor().Regions()))
		}
		ov := overflow(64, 128, pcs...)
		avg := testing.AllocsPerRun(200, func() {
			pipe.ProcessOverflow(ov)
		})
		// Every detector's state is sized at construction or formation,
		// so the steady state allocates nothing at all.
		if avg != 0 {
			t.Errorf("hot path allocates %.2f allocs/interval; want 0", avg)
		}
		// The batch entry holds the same budget.
		batch := make([]*hpm.Overflow, 8)
		for i := range batch {
			batch[i] = ov
		}
		if avg := testing.AllocsPerRun(50, func() {
			pipe.ObserveBatch(batch)
		}) / float64(len(batch)); avg != 0 {
			t.Errorf("batched hot path allocates %.2f allocs/interval; want 0", avg)
		}
	})
}

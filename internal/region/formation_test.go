package region

import (
	"strings"
	"testing"

	"regionmon/internal/isa"
	"regionmon/internal/stats"
)

// dispatcherProgram builds a program whose hot code is a big straight-line
// procedure called from a loop elsewhere — the crafty/gap pattern the
// baseline region builder cannot cover.
func dispatcherProgram(t testing.TB) (*isa.Program, *isa.Procedure, isa.LoopSpan) {
	t.Helper()
	b := isa.NewBuilder(0x10000)
	h := b.Proc("hotproc") // straight-line, no loops
	h.Code(120, isa.KindLoad, isa.KindALU, isa.KindALU)
	b.Skip(0x8000)
	m := b.Proc("main")
	loop := m.Loop(16, []isa.Kind{isa.KindLoad, isa.KindALU}, nil)
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return prog, prog.Proc("hotproc"), loop
}

func TestBaselineCannotCoverStraightProc(t *testing.T) {
	prog, hot, _ := dispatcherProgram(t)
	m := newMonitor(t, prog, nil)
	for seq := 0; seq < 4; seq++ {
		rep := m.ProcessOverflow(overflow(seq, 200, hot.Start(), hot.Start()+40, hot.Start()+80))
		if len(rep.NewRegions) != 0 {
			t.Fatalf("baseline formed regions over straight-line code: %v", rep.NewRegions)
		}
		if rep.UCRFraction != 1 {
			t.Fatalf("interval %d UCR = %v; want 1", seq, rep.UCRFraction)
		}
	}
}

func TestAnnotationFormsRegion(t *testing.T) {
	prog, hot, _ := dispatcherProgram(t)
	ann := Annotation{Start: hot.Start(), End: hot.Start() + 200, Name: "hot-path"}
	m := newMonitor(t, prog, func(c *Config) { c.Annotations = []Annotation{ann} })

	rep := m.ProcessOverflow(overflow(0, 200, hot.Start(), hot.Start()+40, hot.Start()+80))
	if !rep.FormationTriggered || len(rep.NewRegions) != 1 {
		t.Fatalf("annotation did not form a region: %+v", rep)
	}
	r := rep.NewRegions[0]
	if r.Start != ann.Start || r.End != ann.End {
		t.Errorf("region span %s; want annotation span %v-%v", r.Name(), ann.Start, ann.End)
	}
	if r.Loop != nil {
		t.Error("annotation region should have no loop")
	}

	// Subsequent intervals: the annotated span is monitored, UCR drops.
	rep = m.ProcessOverflow(overflow(1, 200, hot.Start(), hot.Start()+40, hot.Start()+80))
	if rep.UCRFraction != 0 {
		t.Errorf("UCR after annotation coverage = %v; want 0", rep.UCRFraction)
	}
}

func TestInterProceduralRegion(t *testing.T) {
	prog, hot, _ := dispatcherProgram(t)
	m := newMonitor(t, prog, func(c *Config) { c.InterProcedural = true })

	rep := m.ProcessOverflow(overflow(0, 200, hot.Start(), hot.Start()+40, hot.Start()+80))
	if len(rep.NewRegions) != 1 {
		t.Fatalf("inter-procedural formation failed: %+v", rep)
	}
	r := rep.NewRegions[0]
	if r.Start != hot.Start() || r.End != hot.End() {
		t.Errorf("region span %s; want whole procedure %v-%v", r.Name(), hot.Start(), hot.End())
	}
	// And local phase detection runs on it like any region.
	for seq := 1; seq < 5; seq++ {
		rep = m.ProcessOverflow(overflow(seq, 200, hot.Start(), hot.Start()+40, hot.Start()+80))
	}
	if got := rep.Verdicts[0].Verdict.State.String(); got != "stable" {
		t.Errorf("procedure region state = %s; want stable", got)
	}
}

func TestInterProceduralSizeCap(t *testing.T) {
	b := isa.NewBuilder(0x10000)
	big := b.Proc("big")
	big.Code(900, isa.KindLoad, isa.KindALU) // 900 instrs + ret > cap 800
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m := newMonitor(t, prog, func(c *Config) {
		c.InterProcedural = true
		c.MaxProcRegionInstrs = 800
	})
	rep := m.ProcessOverflow(overflow(0, 200, prog.Procs[0].Start()))
	if len(rep.NewRegions) != 0 {
		t.Errorf("oversized procedure formed a region: %v", rep.NewRegions)
	}
}

func TestLoopSamplesDoNotFeedProcedureRegions(t *testing.T) {
	prog, _, loop := dispatcherProgram(t)
	m := newMonitor(t, prog, func(c *Config) { c.InterProcedural = true })
	// All samples inside the loop: a loop region must form, not a
	// procedure region over main.
	rep := m.ProcessOverflow(overflow(0, 200, loop.Start, loop.Start+8))
	if len(rep.NewRegions) != 1 {
		t.Fatalf("formed %d regions; want 1", len(rep.NewRegions))
	}
	if rep.NewRegions[0].Loop == nil {
		t.Error("loop samples produced a non-loop region")
	}
}

func TestAnnotationValidation(t *testing.T) {
	prog, hot, _ := dispatcherProgram(t)
	bad := []Annotation{
		{Start: hot.End(), End: hot.Start()},                              // inverted
		{Start: 0x100, End: 0x200},                                        // outside text
		{Start: hot.Start(), End: hot.Start()},                            // empty
		{Start: hot.Start(), End: hot.Start() + isa.InstrBytes + 2},       // partial instruction
		{Start: hot.Start() + 2, End: hot.Start() + 2 + 4*isa.InstrBytes}, // starts inside an instruction
	}
	for i, a := range bad {
		cfg := DefaultConfig()
		cfg.Annotations = []Annotation{a}
		if _, err := NewMonitor(prog, cfg); err == nil {
			t.Errorf("bad annotation %d accepted", i)
		}
	}
	// Past the procedure's end but on its last code page: AddRegion would
	// take the span, an annotation must also start and end in blocks.
	past := Annotation{Start: hot.End(), End: hot.End() + 2*isa.InstrBytes}
	if err := past.Validate(prog); err == nil || !strings.Contains(err.Error(), "outside program text") {
		t.Errorf("annotation past the text on a code page: %v; want the block check", err)
	}
	if _, err := NewMonitor(prog, func() Config {
		c := DefaultConfig()
		c.MaxProcRegionInstrs = -1
		return c
	}()); err == nil {
		t.Error("negative procedure-region cap accepted")
	}
}

func TestAnnotationReducesUCRForDispatcherWorkload(t *testing.T) {
	// End-to-end: the same sample stream with and without the annotation;
	// the annotated monitor's median UCR must drop below the threshold.
	prog, hot, loop := dispatcherProgram(t)
	pcs := []isa.Addr{hot.Start(), hot.Start() + 40, hot.Start() + 80, loop.Start}

	baseline := newMonitor(t, prog, nil)
	annotated := newMonitor(t, prog, func(c *Config) {
		c.Annotations = []Annotation{{Start: hot.Start(), End: hot.End(), Name: "hot"}}
	})
	var baseUCR, annUCR []float64
	for seq := 0; seq < 10; seq++ {
		baseUCR = append(baseUCR, baseline.ProcessOverflow(overflow(seq, 200, pcs...)).UCRFraction)
		annUCR = append(annUCR, annotated.ProcessOverflow(overflow(seq, 200, pcs...)).UCRFraction)
	}
	if base, ann := stats.Median(baseUCR), stats.Median(annUCR); ann >= base || ann > 0.05 {
		t.Errorf("annotation did not reduce UCR: baseline %.2f, annotated %.2f", base, ann)
	}
}

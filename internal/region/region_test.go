package region

import (
	"bytes"
	"strings"
	"testing"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/lpd"
	"regionmon/internal/snap"
)

// testProgram builds a program with two loops and a straight-line stretch,
// returning the program and the two loop spans.
func testProgram(t testing.TB) (*isa.Program, isa.LoopSpan, isa.LoopSpan) {
	t.Helper()
	b := isa.NewBuilder(0x10000)
	p := b.Proc("main")
	p.Code(64, isa.KindALU) // straight-line code: never becomes a region
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
		ov.Samples[i] = hpm.Sample{PC: pcs[i%len(pcs)], Cycle: uint64(i), Instrs: 10}
	}
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

func newMonitor(t testing.TB, prog *isa.Program, mut func(*Config)) *Monitor {
	t.Helper()
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	m, err := NewMonitor(prog, cfg)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	prog, _, _ := testProgram(t)
	bad := []func(*Config){
		func(c *Config) { c.UCRThreshold = 0 },
		func(c *Config) { c.UCRThreshold = 1.5 },
		func(c *Config) { c.MinRegionSamples = 0 },
		func(c *Config) { c.PruneAfter = -1 },
		func(c *Config) { c.MaxRegions = -1 },
		func(c *Config) { c.Detector.RT = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := NewMonitor(prog, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewMonitor(nil, DefaultConfig()); err == nil {
		t.Error("nil program accepted")
	}
}

func TestFormationTriggerAndLoopRegions(t *testing.T) {
	prog, l1, _ := testProgram(t)
	m := newMonitor(t, prog, nil)

	// All samples in l1, none monitored yet: 100% UCR → formation.
	rep := m.ProcessOverflow(overflow(0, 256, spanPCs(l1, 8)...))
	if !rep.FormationTriggered {
		t.Fatal("formation not triggered at 100% UCR")
	}
	if len(rep.NewRegions) != 1 {
		t.Fatalf("formed %d regions; want 1", len(rep.NewRegions))
	}
	r := rep.NewRegions[0]
	if r.Start != l1.Start || r.End != l1.End {
		t.Errorf("region span %s; want %s", r.Name(), l1.Name())
	}
	if r.Loop == nil {
		t.Error("formed region lost its loop")
	}
	if rep.UCRFraction != 1 {
		t.Errorf("UCR fraction = %v; want 1", rep.UCRFraction)
	}
	// Replay: the new region already saw this interval's samples.
	if len(rep.Verdicts) != 1 || rep.Verdicts[0].Samples != 256 {
		t.Fatalf("verdicts = %+v; want one with 256 samples", rep.Verdicts)
	}

	// Next interval: same behaviour, now monitored → low UCR.
	rep = m.ProcessOverflow(overflow(1, 256, spanPCs(l1, 8)...))
	if rep.FormationTriggered {
		t.Error("formation re-triggered while region is monitored")
	}
	if rep.UCRFraction != 0 {
		t.Errorf("UCR fraction = %v; want 0", rep.UCRFraction)
	}
}

func TestStraightLineCodeStaysUCR(t *testing.T) {
	prog, _, _ := testProgram(t)
	m := newMonitor(t, prog, nil)
	straight := prog.Procs[0].Blocks[0] // the 64-instruction straight block
	pcs := []isa.Addr{straight.Start, straight.Start + 16, straight.Start + 32}

	for seq := 0; seq < 5; seq++ {
		rep := m.ProcessOverflow(overflow(seq, 200, pcs...))
		if !rep.FormationTriggered {
			t.Fatalf("interval %d: formation should keep triggering", seq)
		}
		if len(rep.NewRegions) != 0 {
			t.Fatalf("interval %d: straight-line code formed regions %v", seq, rep.NewRegions)
		}
		if rep.UCRFraction != 1 {
			t.Fatalf("interval %d: UCR fraction %v; want 1 (persistent UCR)", seq, rep.UCRFraction)
		}
	}
}

func TestLocalDetectionStabilizes(t *testing.T) {
	prog, l1, _ := testProgram(t)
	m := newMonitor(t, prog, nil)
	pcs := spanPCs(l1, 6)

	var last lpd.Verdict
	for seq := 0; seq < 5; seq++ {
		rep := m.ProcessOverflow(overflow(seq, 256, pcs...))
		if len(rep.Verdicts) > 0 {
			last = rep.Verdicts[0].Verdict
		}
	}
	if last.State != lpd.Stable {
		t.Errorf("region state after steady behaviour = %v; want stable", last.State)
	}
	// Shift the hot instructions within the loop: local phase change.
	shifted := make([]isa.Addr, len(pcs))
	for i, pc := range pcs {
		shifted[i] = pc + 4*isa.InstrBytes
		if shifted[i] >= l1.End {
			shifted[i] = l1.Start + (shifted[i] - l1.End)
		}
	}
	rep := m.ProcessOverflow(overflow(5, 256, shifted...))
	if got := rep.Verdicts[0].Verdict; got.State != lpd.Unstable || !got.PhaseChange {
		t.Errorf("shifted behaviour verdict = %+v; want unstable + change", got)
	}
	if m.Regions()[0].Detector.PhaseChanges() != 1 {
		t.Errorf("phase changes = %d; want 1", m.Regions()[0].Detector.PhaseChanges())
	}
}

func TestOverlappingRegionsBothIncremented(t *testing.T) {
	b := isa.NewBuilder(0x20000)
	p := b.Proc("nest")
	p.BeginLoop()
	p.Code(8, isa.KindALU)
	inner := p.Loop(8, []isa.Kind{isa.KindLoad, isa.KindALU}, nil)
	outer := p.EndLoop()
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m := newMonitor(t, prog, nil)
	if _, err := m.AddRegion(outer.Start, outer.End); err != nil {
		t.Fatalf("AddRegion outer: %v", err)
	}
	if _, err := m.AddRegion(inner.Start, inner.End); err != nil {
		t.Fatalf("AddRegion inner: %v", err)
	}
	rep := m.ProcessOverflow(overflow(0, 100, inner.Start))
	if rep.MonitoredSamples != 100 {
		t.Fatalf("monitored = %d; want 100", rep.MonitoredSamples)
	}
	// Both regions saw all 100 samples (total attribution 200).
	for _, v := range rep.Verdicts {
		if v.Samples != 100 {
			t.Errorf("region %s got %d samples; want 100", v.Region.Name(), v.Samples)
		}
	}
}

func TestIdleSamplesCountAsUCR(t *testing.T) {
	prog, l1, _ := testProgram(t)
	m := newMonitor(t, prog, nil)
	m.AddRegion(l1.Start, l1.End)
	// Half the samples at PC 0 (idle), half in the region.
	ov := overflow(0, 100, 0, l1.Start)
	rep := m.ProcessOverflow(ov)
	if rep.UCRSamples != 50 || rep.MonitoredSamples != 50 {
		t.Errorf("ucr/monitored = %d/%d; want 50/50", rep.UCRSamples, rep.MonitoredSamples)
	}
	// Idle PCs must not be considered for formation even at high UCR.
	if len(rep.NewRegions) != 0 {
		t.Error("idle samples formed regions")
	}
}

func TestFormationRespectsMinSamples(t *testing.T) {
	prog, l1, l2 := testProgram(t)
	m := newMonitor(t, prog, func(c *Config) { c.MinRegionSamples = 60 })
	// 100 samples: 70 in l1, 30 in l2 → only l1 qualifies.
	pcs := make([]isa.Addr, 0, 100)
	for i := 0; i < 70; i++ {
		pcs = append(pcs, l1.Start)
	}
	for i := 0; i < 30; i++ {
		pcs = append(pcs, l2.Start)
	}
	ov := &hpm.Overflow{Seq: 0, Samples: make([]hpm.Sample, len(pcs))}
	for i, pc := range pcs {
		ov.Samples[i] = hpm.Sample{PC: pc}
	}
	rep := m.ProcessOverflow(ov)
	if len(rep.NewRegions) != 1 || rep.NewRegions[0].Start != l1.Start {
		t.Errorf("formed %v; want only l1", rep.NewRegions)
	}
}

func TestMaxRegionsCap(t *testing.T) {
	prog, l1, l2 := testProgram(t)
	m := newMonitor(t, prog, func(c *Config) { c.MaxRegions = 1 })
	rep := m.ProcessOverflow(overflow(0, 200, l1.Start, l2.Start))
	if len(rep.NewRegions) != 1 {
		t.Fatalf("formed %d regions; want 1 (cap)", len(rep.NewRegions))
	}
	if _, err := m.AddRegion(l2.Start, l2.End); err == nil {
		t.Error("AddRegion beyond cap should fail")
	}
}

func TestPruning(t *testing.T) {
	prog, l1, l2 := testProgram(t)
	m := newMonitor(t, prog, func(c *Config) { c.PruneAfter = 3 })
	m.AddRegion(l1.Start, l1.End)
	m.AddRegion(l2.Start, l2.End)
	// l1 active, l2 idle.
	var pruned []*Region
	for seq := 0; seq < 5; seq++ {
		rep := m.ProcessOverflow(overflow(seq, 100, l1.Start))
		pruned = append(pruned, rep.Pruned...)
	}
	if len(pruned) != 1 || pruned[0].Start != l2.Start {
		t.Fatalf("pruned = %v; want exactly l2", pruned)
	}
	if len(m.Regions()) != 1 {
		t.Errorf("regions after pruning = %d; want 1", len(m.Regions()))
	}
	// A pruned region's span can be re-formed later.
	rep := m.ProcessOverflow(overflow(5, 300, l2.Start))
	if len(rep.NewRegions) != 1 || rep.NewRegions[0].Start != l2.Start {
		t.Errorf("re-formation after pruning failed: %v", rep.NewRegions)
	}
}

func TestAddRegionValidation(t *testing.T) {
	prog, l1, _ := testProgram(t)
	m := newMonitor(t, prog, nil)
	if _, err := m.AddRegion(l1.End, l1.Start); err == nil {
		t.Error("inverted span accepted")
	}
	if _, err := m.AddRegion(l1.Start, l1.End); err != nil {
		t.Fatalf("AddRegion: %v", err)
	}
	if _, err := m.AddRegion(l1.Start, l1.End); err == nil {
		t.Error("duplicate span accepted")
	}
	// A span ending inside an instruction: before, it was accepted with a
	// one-bin histogram, and the next sample at the partial
	// instruction's address panicked, index out of range.
	if _, err := m.AddRegion(l1.Start, l1.Start+isa.InstrBytes+2); err == nil {
		t.Error("span of one and a half instructions accepted")
	}
	// A span starting inside an instruction, of whole instructions: the
	// sample at the instruction's own address would miss the region
	// while one two bytes on hit it, so a PC and its slot's address
	// could disagree.
	if _, err := m.AddRegion(l1.Start+2, l1.End+2); err == nil {
		t.Error("span starting inside an instruction accepted")
	}
	m.ProcessOverflow(overflow(0, 64, l1.Start+isa.InstrBytes))
}

// TestOffCodeSpansRefused: every region lies on the code map, so
// AddRegion, Annotation.Validate (and with it NewMonitor) and restore
// staging refuse each of offCodeSpans with the code-page error, and a
// refused restore leaves the monitor as it was. Each refused snapshot is
// hand-encoded in the current version 3 with one such region, which only
// AddRegion before the check could make: the format did not change.
func TestOffCodeSpansRefused(t *testing.T) {
	prog, spans := gappedProgram(t)
	m := newMonitor(t, prog, nil)
	if _, err := m.AddRegion(spans[0].Start, spans[0].End); err != nil {
		t.Fatal(err)
	}
	before := snap.Marshal(m)
	for _, span := range offCodeSpans(prog, spans) {
		start, end := span[0], span[1]
		refused := func(what string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), offCodeErr) {
				t.Fatalf("%s of %v-%v: %v; want the code-page check", what, start, end, err)
			}
		}
		_, err := m.AddRegion(start, end)
		refused("AddRegion", err)
		ann := Annotation{Start: start, End: end, Name: "off"}
		refused("Annotation.Validate", ann.Validate(prog))
		cfg := DefaultConfig()
		cfg.Annotations = []Annotation{ann}
		_, err = NewMonitor(prog, cfg)
		refused("NewMonitor with the annotation", err)

		e := snap.NewEncoder()
		e.Header(monitorTag, 3)
		e.Int(0) // seq
		e.Int(1) // nextID
		e.Int(1) // regions
		e.Int(0) // ID
		e.U64(uint64(start))
		e.U64(uint64(end))
		e.Int(0) // FormedAt
		e.I64(0) // totalSamples
		e.Int(0) // idleFor
		det, err := lpd.New(int(end-start)/isa.InstrBytes, m.cfg.Detector)
		if err != nil {
			t.Fatal(err)
		}
		det.AppendSnapshot(e)
		refused("restore", snap.Unmarshal(m, e.Bytes()))
		if !bytes.Equal(snap.Marshal(m), before) {
			t.Fatalf("refused restore of %v-%v changed the monitor", start, end)
		}
	}
}

func TestGranularityCycles(t *testing.T) {
	prog, l1, _ := testProgram(t)
	m := newMonitor(t, prog, nil)
	r, err := m.AddRegion(l1.Start, l1.End)
	if err != nil {
		t.Fatal(err)
	}
	unit := func(isa.Kind) uint64 { return 1 }
	if got := r.GranularityCycles(prog, unit); got != uint64(r.NumInstrs()) {
		t.Errorf("unit-cost granularity = %d; want %d", got, r.NumInstrs())
	}
	weighted := func(k isa.Kind) uint64 {
		if k == isa.KindLoad {
			return 3
		}
		return 1
	}
	// l1's body alternates load/alu (16 instrs, 8 loads) + 2-instr latch.
	want := uint64(8*3 + 8 + 2)
	if got := r.GranularityCycles(prog, weighted); got != want {
		t.Errorf("weighted granularity = %d; want %d", got, want)
	}
}

func TestEmptyOverflow(t *testing.T) {
	prog, _, _ := testProgram(t)
	m := newMonitor(t, prog, nil)
	rep := m.ProcessOverflow(&hpm.Overflow{Seq: 0})
	if rep.UCRFraction != 0 || rep.FormationTriggered {
		t.Errorf("empty overflow report = %+v", rep)
	}
}

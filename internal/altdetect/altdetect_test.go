package altdetect

import (
	"testing"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
)

// twoBlockProgram builds a program with two well-separated straight
// blocks (plus loop machinery) so working-set membership is controllable.
func testProgram(t testing.TB) (*isa.Program, isa.Addr, isa.Addr) {
	t.Helper()
	b := isa.NewBuilder(0x10000)
	p := b.Proc("a")
	p.Code(32, isa.KindALU)
	p.NewBlock()
	p.Code(32, isa.KindLoad, isa.KindALU)
	b.Skip(0x4000)
	q := b.Proc("b")
	q.Code(32, isa.KindALU)
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return prog, prog.Procs[0].Start(), prog.Procs[1].Start()
}

// ov builds an overflow whose samples cycle over pcs.
func ov(seq, n int, pcs ...isa.Addr) *hpm.Overflow {
	o := &hpm.Overflow{Seq: seq, Samples: make([]hpm.Sample, n)}
	for i := range o.Samples {
		o.Samples[i] = hpm.Sample{PC: pcs[i%len(pcs)]}
	}
	return o
}

func TestValidation(t *testing.T) {
	prog, _, _ := testProgram(t)
	if _, err := NewBBV(nil, 0.8); err == nil {
		t.Error("BBV nil program accepted")
	}
	if _, err := NewBBV(prog, 0); err == nil {
		t.Error("BBV zero threshold accepted")
	}
	if _, err := NewBBV(prog, 1); err == nil {
		t.Error("BBV threshold 1 accepted")
	}
	if _, err := NewWorkingSet(nil, 0.5); err == nil {
		t.Error("WS nil program accepted")
	}
	if _, err := NewWorkingSet(prog, 1.5); err == nil {
		t.Error("WS bad threshold accepted")
	}
}

func TestBBVSteadyStream(t *testing.T) {
	prog, a, b := testProgram(t)
	d, err := NewBBV(prog, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 10; seq++ {
		v := d.Observe(ov(seq, 100, a, b))
		if v.Changed {
			t.Fatalf("interval %d: steady stream flagged (sim %.3f)", seq, v.Similarity)
		}
		if seq > 0 && v.Similarity < 0.99 {
			t.Fatalf("interval %d: similarity %.3f; want ~1", seq, v.Similarity)
		}
	}
	if d.Changes() != 0 || d.StableFraction() != 1 {
		t.Errorf("changes %d stable %.2f", d.Changes(), d.StableFraction())
	}
}

func TestBBVDetectsWorkingSetMove(t *testing.T) {
	prog, a, b := testProgram(t)
	d, _ := NewBBV(prog, 0.8)
	for seq := 0; seq < 5; seq++ {
		d.Observe(ov(seq, 100, a))
	}
	v := d.Observe(ov(5, 100, b))
	if !v.Changed || v.Similarity > 0.1 {
		t.Fatalf("working-set move not flagged: %+v", v)
	}
	if d.Changes() != 1 {
		t.Errorf("changes = %d; want 1", d.Changes())
	}
}

// TestBBVSeesFrequencyShiftWorkingSetDoesNot is the paper's Section 4
// distinction between Sherwood's and Dhodapkar's schemes: a pure
// frequency shift over the same block set is visible to BBV (it keeps
// frequencies) and invisible to the working-set signature (it does not).
func TestBBVSeesFrequencyShiftWorkingSetDoesNot(t *testing.T) {
	prog, a, b := testProgram(t)
	bbv, _ := NewBBV(prog, 0.8)
	ws, _ := NewWorkingSet(prog, 0.5)

	// 90/10 split between the two blocks.
	mk9010 := func(seq int) *hpm.Overflow {
		o := &hpm.Overflow{Seq: seq, Samples: make([]hpm.Sample, 100)}
		for i := range o.Samples {
			pc := a
			if i%10 == 0 {
				pc = b
			}
			o.Samples[i] = hpm.Sample{PC: pc}
		}
		return o
	}
	// 10/90 split: same working set, inverted frequencies.
	mk1090 := func(seq int) *hpm.Overflow {
		o := &hpm.Overflow{Seq: seq, Samples: make([]hpm.Sample, 100)}
		for i := range o.Samples {
			pc := b
			if i%10 == 0 {
				pc = a
			}
			o.Samples[i] = hpm.Sample{PC: pc}
		}
		return o
	}
	for seq := 0; seq < 5; seq++ {
		bbv.Observe(mk9010(seq))
		ws.Observe(mk9010(seq))
	}
	vb := bbv.Observe(mk1090(5))
	vw := ws.Observe(mk1090(5))
	if !vb.Changed {
		t.Errorf("BBV missed the frequency inversion (sim %.3f)", vb.Similarity)
	}
	if vw.Changed {
		t.Errorf("working-set flagged a frequency-only change (sim %.3f)", vw.Similarity)
	}
}

func TestWorkingSetDetectsNewBlocks(t *testing.T) {
	prog, a, b := testProgram(t)
	d, _ := NewWorkingSet(prog, 0.5)
	for seq := 0; seq < 5; seq++ {
		d.Observe(ov(seq, 100, a))
	}
	v := d.Observe(ov(5, 100, b))
	if !v.Changed || v.Similarity != 0 {
		t.Fatalf("disjoint working set not flagged: %+v", v)
	}
}

func TestIdleSamplesIgnored(t *testing.T) {
	prog, a, _ := testProgram(t)
	bbv, _ := NewBBV(prog, 0.8)
	ws, _ := NewWorkingSet(prog, 0.5)
	for seq := 0; seq < 3; seq++ {
		bbv.Observe(ov(seq, 100, a))
		ws.Observe(ov(seq, 100, a))
	}
	// An all-idle interval (PC 0) must not flag either detector.
	if v := bbv.Observe(ov(3, 100, 0)); v.Changed {
		t.Errorf("BBV flagged an idle interval: %+v", v)
	}
	if v := ws.Observe(ov(3, 100, 0)); v.Changed {
		t.Errorf("WS flagged an idle interval: %+v", v)
	}
	if v := bbv.Observe(ov(4, 100, a)); v.Changed {
		t.Errorf("BBV flagged resumption after idle: %+v", v)
	}
}

func TestVerdictBlocksCount(t *testing.T) {
	prog, a, b := testProgram(t)
	d, _ := NewBBV(prog, 0.8)
	v := d.Observe(ov(0, 100, a, b))
	if v.Blocks != 2 {
		t.Errorf("Blocks = %d; want 2", v.Blocks)
	}
}

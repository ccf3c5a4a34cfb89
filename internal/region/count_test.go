package region

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/isa/isatest"
)

// gappedProgram builds a program of three procedures: two sharing a
// code-map page, so the slots between them have no block, and a third
// 0x20000 bytes further on, past a run of pages without code — the soak
// program's layout.
func gappedProgram(t testing.TB) (*isa.Program, []isa.LoopSpan) {
	t.Helper()
	b := isa.NewBuilder(0x10000)
	p := b.Proc("a")
	p.Code(12, isa.KindALU)
	la := p.Loop(20, []isa.Kind{isa.KindLoad, isa.KindALU}, nil)
	q := b.Proc("b")
	q.Code(40, isa.KindALU)
	lb := q.Loop(28, []isa.Kind{isa.KindLoad, isa.KindALU, isa.KindStore}, nil)
	b.Skip(0x20000)
	r := b.Proc("c")
	r.Code(8, isa.KindALU)
	lc := r.Loop(36, []isa.Kind{isa.KindLoad, isa.KindFP, isa.KindALU}, nil)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog, []isa.LoopSpan{la, lb, lc}
}

// malformedPCs returns addresses no well-formed sample carries, on a
// program with at least two procedures: idle PC 0, addresses below the
// text, in the gap after every procedure but the last (its first
// address, its middle and the last address before the next procedure),
// past the end (just past, a page past, far past, the top of the address
// space), and misaligned addresses inside the first and last procedures.
func malformedPCs(prog *isa.Program) []isa.Addr {
	pcs := []isa.Addr{0, 1, prog.Start() - isa.InstrBytes, prog.Start() - 1}
	for i, p := range prog.Procs[:len(prog.Procs)-1] {
		next := prog.Procs[i+1].Start()
		pcs = append(pcs, p.End(), (p.End()+next)/2&^3, next-isa.InstrBytes, next-1)
	}
	end := prog.End()
	pcs = append(pcs, end, end+1, end+0x100, end+0x10000, 1<<63, ^isa.Addr(0))
	for _, p := range []*isa.Procedure{prog.Procs[0], prog.Procs[len(prog.Procs)-1]} {
		pcs = append(pcs, p.Start()+1, p.Start()+2*isa.InstrBytes+3, p.End()-1)
	}
	return pcs
}

// randomSlotBuffer returns n samples: mostly loopy hits on the program's
// instructions, some misaligned, plus malformed PCs.
func randomSlotBuffer(rng *rand.Rand, prog *isa.Program, n int) []hpm.Sample {
	bad := malformedPCs(prog)
	instrs := prog.NumInstrs()
	out := make([]hpm.Sample, n)
	for i := range out {
		switch r := rng.IntN(20); {
		case r == 0:
			out[i].PC = bad[rng.IntN(len(bad))]
		default:
			// A random instruction of the program, from the first 40
			// most of the time.
			k := rng.IntN(instrs)
			if r < 15 {
				k = rng.IntN(min(instrs, 40))
			}
			for _, p := range prog.Procs {
				if k < p.NumInstrs() {
					out[i].PC = p.Start() + isa.Addr(k)*isa.InstrBytes
					break
				}
				k -= p.NumInstrs()
			}
			if r == 1 {
				out[i].PC += isa.Addr(1 + rng.IntN(isa.InstrBytes-1))
			}
		}
	}
	return out
}

// countRun is one distinct instruction of a buffer and its sample count.
type countRun struct {
	pc isa.Addr
	n  int
}

// refCount is the reference count: a map from instruction address to
// samples, in first-seen order, over the samples on a code page, plus the
// indices of the others in sample order.
func refCount(prog *isa.Program, samples []hpm.Sample) (runs []countRun, off []int32) {
	idx := make(map[isa.Addr]int)
	for i, s := range samples {
		if prog.Slot(s.PC) < 0 {
			off = append(off, int32(i))
			continue
		}
		pc := s.PC &^ (isa.InstrBytes - 1)
		k, ok := idx[pc]
		if !ok {
			k = len(runs)
			idx[pc] = k
			runs = append(runs, countRun{pc: pc})
		}
		runs[k].n++
	}
	return runs, off
}

// takeCounts counts buf with countSlots and reads what it left — the
// runs of seen[:n] and the off-map indices of seen[back:] in sample
// order — then clears the counts, as distribute and ProcessOverflow do
// between them.
func takeCounts(m *Monitor, buf []hpm.Sample) (runs []countRun, off []int32) {
	seen, n, back := m.countSlots(buf)
	for _, s := range seen[:n] {
		runs = append(runs, countRun{m.prog.SlotAddr(int(s)), int(m.counts[s])})
		m.counts[s] = 0
	}
	for j := len(seen) - 1; j >= back; j-- {
		off = append(off, seen[j])
	}
	return runs, off
}

// TestCountSlotsMatchesMapCount: on seeded random buffers over a gapped
// program, with PC 0, off-map and misaligned PCs among them, and of sizes
// on both sides of each growth, countSlots yields the same runs, in the
// same first-seen order, as a map count over instruction addresses, lists
// every off-map sample, and leaves the buffer as it was.
func TestCountSlotsMatchesMapCount(t *testing.T) {
	prog, _ := gappedProgram(t)
	m := newMonitor(t, prog, nil)
	rng := rand.New(rand.NewPCG(96, 2032))
	same := make([]hpm.Sample, 300)
	for i := range same {
		same[i].PC = prog.Procs[1].Start() + 8
	}
	idle := make([]hpm.Sample, 40)
	for round := 0; round < 3; round++ {
		for _, n := range []int{1, 2, 95, 96, 97, 700, hpm.DefaultBufferSize} {
			for _, buf := range [][]hpm.Sample{randomSlotBuffer(rng, prog, n), same[:min(n, len(same))], idle[:min(n, len(idle))], nil} {
				wantRuns, wantOff := refCount(prog, buf)
				before := slices.Clone(buf)
				gotRuns, gotOff := takeCounts(m, buf)
				if !slices.Equal(gotRuns, wantRuns) || !slices.Equal(gotOff, wantOff) {
					t.Fatalf("round %d, buffer of %d: %d runs and %d off-map samples, map count %d and %d, or different runs or order",
						round, len(buf), len(gotRuns), len(gotOff), len(wantRuns), len(wantOff))
				}
				if !slices.Equal(buf, before) {
					t.Fatalf("round %d, buffer of %d: count modified the buffer", round, len(buf))
				}
			}
		}
	}
	if i := slices.IndexFunc(m.counts, func(c uint32) bool { return c != 0 }); i >= 0 {
		t.Fatalf("slot %d kept count %d", i, m.counts[i])
	}
}

// TestCountSlotsGrowsOnce: the count scratch fed 96-, 2032- and again
// 96-sample buffers sizes itself for 96 samples, grows once for 2032 and
// then allocates nothing at either size; a monitor fed only 96-sample
// buffers holds scratch for 96 samples and, interval after interval,
// forming regions or not, leaves every slot's count at zero.
func TestCountSlotsGrowsOnce(t *testing.T) {
	prog, spans := gappedProgram(t)
	rng := rand.New(rand.NewPCG(1, 96))
	small := randomSlotBuffer(rng, prog, 96)
	large := randomSlotBuffer(rng, prog, hpm.DefaultBufferSize)
	m := newMonitor(t, prog, nil)
	var first *int32
	for i, step := range []struct {
		buf  []hpm.Sample
		size int
	}{{small, 96}, {large, hpm.DefaultBufferSize}, {small, hpm.DefaultBufferSize}} {
		takeCounts(m, step.buf)
		if len(m.seen) != step.size {
			t.Fatalf("step %d (%d samples): scratch for %d samples; want %d", i, len(step.buf), len(m.seen), step.size)
		}
		if i == 1 {
			first = &m.seen[0]
		}
		if i == 2 && &m.seen[0] != first {
			t.Fatal("the 96-sample buffer after a 2032-sample one grew the scratch again")
		}
	}
	if avg := testing.AllocsPerRun(50, func() {
		for _, buf := range [][]hpm.Sample{small, large} {
			seen, n, _ := m.countSlots(buf)
			for _, s := range seen[:n] {
				m.counts[s] = 0
			}
		}
	}); avg != 0 {
		t.Errorf("steady-state count allocates %.2f allocs/run; want 0", avg)
	}

	fed := newMonitor(t, prog, nil)
	pcs := append(spanPCs(spans[0], 16), spanPCs(spans[2], 24)...)
	pcs = append(pcs, malformedPCs(prog)...)
	for seq := 0; seq < 20; seq++ {
		ov := overflow(seq, 96, pcs...)
		if seq >= 10 {
			ov = overflow(seq, 96, spanPCs(spans[1], 28)...)
		}
		rep := fed.ProcessOverflow(ov)
		if i := slices.IndexFunc(fed.counts, func(c uint32) bool { return c != 0 }); i >= 0 {
			t.Fatalf("interval %d (formation %v): slot %d kept count %d", seq, rep.FormationTriggered, i, fed.counts[i])
		}
	}
	if len(fed.Regions()) != 3 {
		t.Errorf("formed %d regions; want the 3 loops", len(fed.Regions()))
	}
	if len(fed.seen) != 96 {
		t.Errorf("monitor fed 96-sample buffers holds scratch for %d samples; want 96", len(fed.seen))
	}
}

// TestBenchProgramCodeMap checks the code map of every benchProgram the
// benchmarks and the oracle use, and of gappedProgram, against a linear
// scan.
func TestBenchProgramCodeMap(t *testing.T) {
	for _, layout := range benchLayouts {
		for _, n := range []int{4, 64, 512} {
			t.Run(fmt.Sprintf("%s/regions=%d", layout, n), func(t *testing.T) {
				prog, _ := benchProgram(t, n, layout)
				isatest.CheckCodeMap(t, prog)
			})
		}
	}
	prog, _ := gappedProgram(t)
	isatest.CheckCodeMap(t, prog)
}

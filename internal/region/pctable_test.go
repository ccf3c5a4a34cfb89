package region

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
)

// mapCount is the reference count: a map from PC to samples, with the
// PCs in first-seen order.
func mapCount(samples []hpm.Sample) []pcRun {
	idx := make(map[isa.Addr]int)
	var runs []pcRun
	for _, s := range samples {
		i, ok := idx[s.PC]
		if !ok {
			i = len(runs)
			idx[s.PC] = i
			runs = append(runs, pcRun{pc: s.PC})
		}
		runs[i].n++
	}
	return runs
}

// pcSamples returns a buffer whose samples hit pcs in order.
func pcSamples(pcs []isa.Addr) []hpm.Sample {
	out := make([]hpm.Sample, len(pcs))
	for i, pc := range pcs {
		out[i].PC = pc
	}
	return out
}

// bufferShapes names randomBuffers' buffers in a fixed order.
var bufferShapes = []string{"loopy", "same", "distinct", "wide", "empty"}

// randomBuffers returns seeded buffers of several shapes: loopy (a few
// hundred distinct PCs, PC 0 among them), one PC repeated, every PC
// distinct (a full table's worth of runs), PCs spread over the whole
// 64-bit range, and empty.
func randomBuffers(rng *rand.Rand, n int) map[string][]hpm.Sample {
	loopy := make([]isa.Addr, n)
	for i := range loopy {
		if rng.IntN(20) == 0 {
			continue // PC 0: idle
		}
		loopy[i] = 0x10000 + isa.Addr(rng.IntN(300))*isa.InstrBytes
	}
	same := make([]isa.Addr, n)
	for i := range same {
		same[i] = 0x4242 * isa.InstrBytes
	}
	distinct := make([]isa.Addr, n)
	for i := range distinct {
		distinct[i] = isa.Addr(i) * isa.InstrBytes // includes PC 0
	}
	rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	wide := make([]isa.Addr, n)
	for i := range wide {
		wide[i] = isa.Addr(rng.Uint64() &^ 3)
		if i%3 == 0 && i > 0 {
			wide[i] = wide[rng.IntN(i)]
		}
	}
	return map[string][]hpm.Sample{
		"loopy":    pcSamples(loopy),
		"same":     pcSamples(same),
		"distinct": pcSamples(distinct),
		"wide":     pcSamples(wide),
		"empty":    nil,
	}
}

// TestPCTableMatchesMapCount: on seeded random buffers of every shape and
// of sizes on both sides of each growth, one reused table yields the same
// runs, in the same first-seen order, as a map-based count, and leaves
// the buffer as it was.
func TestPCTableMatchesMapCount(t *testing.T) {
	rng := rand.New(rand.NewPCG(96, 2032))
	var tab pcTable
	for round := 0; round < 3; round++ {
		for _, n := range []int{1, 2, 95, 96, 97, 128, 129, 700, hpm.DefaultBufferSize} {
			bufs := randomBuffers(rng, n)
			for _, name := range bufferShapes {
				buf := bufs[name]
				want, before := mapCount(buf), slices.Clone(buf)
				if got := tab.count(buf); !slices.Equal(got, want) {
					t.Fatalf("round %d, %s buffer of %d: %d runs, map count %d, or different runs or order",
						round, name, len(buf), len(got), len(want))
				}
				if !slices.Equal(buf, before) {
					t.Fatalf("round %d, %s buffer of %d: count modified the buffer", round, name, len(buf))
				}
			}
		}
	}
}

// TestPCTableGrowsOnce: a table fed 96-, 2032- and again 96-sample
// buffers sizes itself for 96 samples, grows once for 2032 and then
// allocates nothing at either size; a monitor fed only 96-sample buffers
// holds a table sized for 96 samples.
func TestPCTableGrowsOnce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 96))
	small := randomBuffers(rng, 96)["loopy"]
	large := randomBuffers(rng, hpm.DefaultBufferSize)["loopy"]
	var tab pcTable
	for i, step := range []struct {
		buf   []hpm.Sample
		slots int
	}{{small, 256}, {large, 4096}, {small, 4096}} {
		slots := tab.slots
		tab.count(step.buf)
		if len(tab.slots) != step.slots {
			t.Fatalf("step %d (%d samples): %d slots; want %d", i, len(step.buf), len(tab.slots), step.slots)
		}
		if i == 2 && &tab.slots[0] != &slots[0] {
			t.Fatal("the 96-sample buffer after a 2032-sample one grew the table again")
		}
	}
	if avg := testing.AllocsPerRun(50, func() {
		tab.count(small)
		tab.count(large)
	}); avg != 0 {
		t.Errorf("steady-state count allocates %.2f allocs/run; want 0", avg)
	}

	prog, l1, l2 := testProgram(t)
	m := newMonitor(t, prog, nil)
	pcs := append(spanPCs(l1, 16), spanPCs(l2, 24)...)
	for seq := 0; seq < 20; seq++ {
		m.ProcessOverflow(overflow(seq, 96, pcs...))
	}
	if len(m.pcs.slots) != 256 || len(m.pcs.runs) != 128 {
		t.Errorf("monitor fed 96-sample buffers holds %d slots and %d runs; want 256 and 128",
			len(m.pcs.slots), len(m.pcs.runs))
	}
}

// TestPCTableGenerationWrap: with the generation stamp forced to its
// maximum, the next two buffers still count exactly — the wrap to 0
// must not let never-written or stale slots read as current.
func TestPCTableGenerationWrap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 32))
	bufs := randomBuffers(rng, 300)
	var tab pcTable
	tab.count(bufs["distinct"]) // every slot it touches holds a run
	tab.gen = math.MaxUint32
	for i, name := range []string{"loopy", "wide"} {
		got := tab.count(bufs[name])
		if want := mapCount(bufs[name]); !slices.Equal(got, want) {
			t.Fatalf("buffer %d after the wrap (%s): %d runs, map count %d, or different runs or order",
				i, name, len(got), len(want))
		}
	}
	if tab.gen != 2 {
		t.Errorf("generation %d after two buffers past the wrap; want 2", tab.gen)
	}
}

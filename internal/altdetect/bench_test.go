package altdetect_test

import (
	"fmt"
	"testing"

	"regionmon/internal/altdetect"
	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/soak"
)

// soakIntervals returns the soak program and the first n intervals of
// its seed-1 workload, 96 samples each (the fleet's buffer size), each
// in its own buffer.
func soakIntervals(tb testing.TB, n int) (*isa.Program, []*hpm.Overflow) {
	tb.Helper()
	prog, loops, err := soak.BuildProgram()
	if err != nil {
		tb.Fatal(err)
	}
	w := soak.NewWorkload(1, loops, 96)
	ovs := soak.NewOverflowBatch(n, 96)
	for i, ov := range ovs {
		w.IntervalInto(i, ov)
	}
	return prog, ovs
}

// TestObserveAllocs gates both detectors' hot path: once warm, observing
// an interval does not allocate.
func TestObserveAllocs(t *testing.T) {
	prog, ovs := soakIntervals(t, 320)
	bbv, err := altdetect.NewBBV(prog, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := altdetect.NewWorkingSet(prog, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, ov := range ovs[:160] {
		bbv.Observe(ov)
		ws.Observe(ov)
	}
	for name, observe := range map[string]func(*hpm.Overflow) altdetect.Verdict{
		"BBV":         bbv.Observe,
		"working set": ws.Observe,
	} {
		i := 160
		if avg := testing.AllocsPerRun(160, func() {
			observe(ovs[i%len(ovs)])
			i++
		}); avg != 0 {
			t.Errorf("%s Observe allocates %.2f allocs/op steady-state; want 0", name, avg)
		}
	}
}

// gappedIntervals returns a program of 32 procedures, 0x20000 bytes
// apart as in the soak program, each holding one loop, and n 96-sample
// intervals whose hot set of 8 loops moves every 40 intervals; a few
// samples per interval land on idle PC 0 or between procedures.
func gappedIntervals(tb testing.TB, n int) (*isa.Program, []*hpm.Overflow) {
	tb.Helper()
	bld := isa.NewBuilder(0x10000)
	var loops []isa.LoopSpan
	for i := 0; i < 32; i++ {
		if i > 0 {
			bld.Skip(0x20000)
		}
		p := bld.Proc(fmt.Sprintf("p%d", i))
		p.Code(8, isa.KindALU)
		loops = append(loops, p.Loop(16+i%5*4, []isa.Kind{isa.KindLoad, isa.KindALU}, nil))
	}
	prog, err := bld.Build()
	if err != nil {
		tb.Fatal(err)
	}
	ovs := soak.NewOverflowBatch(n, 96)
	rng := uint64(0x5eed)
	for i, ov := range ovs {
		for j := range ov.Samples {
			rng = rng*6364136223846793005 + 1442695040888963407
			r := rng >> 33
			switch {
			case r%32 == 0:
				ov.Samples[j].PC = 0
			case r%32 == 1:
				ov.Samples[j].PC = loops[r/32%32].End + 0x1000
			default:
				l := loops[(i/40*8+int(r/32%8))%len(loops)]
				ov.Samples[j].PC = l.Start + isa.Addr(r/256%uint64(l.NumInstrs()))*isa.InstrBytes
			}
		}
	}
	return prog, ovs
}

// benchPrograms are the two layouts the altdetect benchmarks time:
// the soak workload (two procedures) and gappedIntervals' 32.
var benchPrograms = []struct {
	name      string
	intervals func(testing.TB, int) (*isa.Program, []*hpm.Overflow)
}{{"soak", soakIntervals}, {"gapped", gappedIntervals}}

var verdictSink altdetect.Verdict

// BenchmarkBBVObserve and BenchmarkWorkingSetObserve time one Observe
// over 320 96-sample intervals of each benchmark program, the soak
// workload's through two of its phases.
func BenchmarkBBVObserve(b *testing.B) {
	for _, bp := range benchPrograms {
		b.Run(bp.name, func(b *testing.B) {
			prog, ovs := bp.intervals(b, 320)
			d, err := altdetect.NewBBV(prog, 0.8)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verdictSink = d.Observe(ovs[i%len(ovs)])
			}
		})
	}
}

func BenchmarkWorkingSetObserve(b *testing.B) {
	for _, bp := range benchPrograms {
		b.Run(bp.name, func(b *testing.B) {
			prog, ovs := bp.intervals(b, 320)
			d, err := altdetect.NewWorkingSet(prog, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verdictSink = d.Observe(ovs[i%len(ovs)])
			}
		})
	}
}

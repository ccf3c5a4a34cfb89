package region

import (
	"fmt"
	"testing"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
)

// benchLayouts are benchProgram's layouts: "dense" packs 32 loops into
// each procedure, procedures ProcGap apart; "gapped" puts 2 loops into
// each procedure and the procedures 0x20000 bytes apart, as in the soak
// program, so PCs resolve through a sparse page directory.
var benchLayouts = []string{"dense", "gapped"}

// benchProgram builds a program with nLoops loops in the given layout,
// every one registered as a region by the caller.
func benchProgram(t testing.TB, nLoops int, layout string) (*isa.Program, []isa.LoopSpan) {
	t.Helper()
	perProc := 32
	if layout == "gapped" {
		perProc = 2
	}
	bld := isa.NewBuilder(0x10000)
	spans := make([]isa.LoopSpan, 0, nLoops)
	var p *isa.ProcBuilder
	for i := 0; i < nLoops; i++ {
		if i%perProc == 0 {
			if layout == "gapped" && i > 0 {
				bld.Skip(0x20000)
			}
			p = bld.Proc(fmt.Sprintf("p%d", i/perProc))
			p.Code(8, isa.KindALU)
		}
		spans = append(spans, p.Loop(16+(i%5)*4, []isa.Kind{isa.KindLoad, isa.KindALU}, nil))
		p.Code(6, isa.KindALU)
	}
	prog, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog, spans
}

// benchOverflow fabricates one loopy full-size buffer: heavy repetition
// inside a four-loop hot set, a warm tail over all loops, plus idle and
// straight-line stragglers.
func benchOverflow(spans []isa.LoopSpan, samples int) *hpm.Overflow {
	rng := uint64(0xB0B)
	next := func() uint64 {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	ov := &hpm.Overflow{Samples: make([]hpm.Sample, samples)}
	for i := range ov.Samples {
		var pc isa.Addr
		switch r := next() % 100; {
		case r < 3:
			pc = 0
		case r < 88:
			span := spans[int(next()%4)%len(spans)]
			pc = span.Start + isa.Addr(next()%uint64(span.NumInstrs()))*isa.InstrBytes
		case r < 95:
			span := spans[next()%uint64(len(spans))]
			pc = span.Start + isa.Addr(next()%uint64(span.NumInstrs()))*isa.InstrBytes
		default:
			pc = spans[next()%uint64(len(spans))].End + isa.InstrBytes
		}
		ov.Samples[i] = hpm.Sample{PC: pc, Cycle: uint64(i), Instrs: 10}
	}
	return ov
}

// BenchmarkProcessOverflow measures one interval of region monitoring —
// distribution, UCR accounting, per-region detection — per layout and
// region count, on a loopy buffer of the paper's full 2032 samples and of
// the 96 samples perfbench's fleet-full streams deliver per interval.
func BenchmarkProcessOverflow(b *testing.B) {
	for _, layout := range benchLayouts {
		for _, n := range []int{4, 64, 512} {
			prog, spans := benchProgram(b, n, layout)
			for _, size := range []int{96, hpm.DefaultBufferSize} {
				ov := benchOverflow(spans, size)
				b.Run(fmt.Sprintf("%s/regions=%d/samples=%d", layout, n, size), func(b *testing.B) {
					m := newMonitor(b, prog, nil)
					for _, s := range spans {
						if _, err := m.AddRegion(s.Start, s.End); err != nil {
							b.Fatal(err)
						}
					}
					for i := 0; i < 4; i++ { // warm scratch, build snapshot
						ov.Seq = i
						m.ProcessOverflow(ov)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ov.Seq = 4 + i
						m.ProcessOverflow(ov)
					}
				})
			}
		}
	}
}

package region

import (
	"fmt"
	"testing"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
)

// benchProgram builds a program with nLoops loops, every one registered
// as a region by the caller.
func benchProgram(t testing.TB, nLoops int) (*isa.Program, []isa.LoopSpan) {
	t.Helper()
	bld := isa.NewBuilder(0x10000)
	spans := make([]isa.LoopSpan, 0, nLoops)
	var p *isa.ProcBuilder
	for i := 0; i < nLoops; i++ {
		if i%32 == 0 {
			p = bld.Proc(fmt.Sprintf("p%d", i/32))
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
// distribution, UCR accounting, per-region detection — per distribution
// structure and region count, on a full-size loopy buffer.
func BenchmarkProcessOverflow(b *testing.B) {
	kinds := []struct {
		name string
		kind IndexKind
	}{{"list", IndexList}, {"tree", IndexTree}, {"epoch", IndexEpoch}}
	for _, n := range []int{4, 64, 512} {
		prog, spans := benchProgram(b, n)
		ov := benchOverflow(spans, hpm.DefaultBufferSize)
		for _, k := range kinds {
			b.Run(fmt.Sprintf("%s/regions=%d", k.name, n), func(b *testing.B) {
				m := newMonitor(b, prog, func(c *Config) { c.Index = k.kind })
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

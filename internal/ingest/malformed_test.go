package ingest

import (
	"fmt"
	"testing"

	"regionmon/internal/altdetect"
	"regionmon/internal/changepoint"
	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/pipeline"
	"regionmon/internal/region"
	"regionmon/internal/vhash"
)

// malformedProgram builds a three-procedure program: two neighbours on a
// shared page and a third 0x20000 bytes further on, each with a loop.
func malformedProgram(t *testing.T) (*isa.Program, []isa.LoopSpan) {
	t.Helper()
	b := isa.NewBuilder(0x10000)
	var loops []isa.LoopSpan
	for i, body := range []int{20, 28, 36} {
		if i == 2 {
			b.Skip(0x20000)
		}
		p := b.Proc(fmt.Sprintf("p%d", i))
		p.Code(8+4*i, isa.KindALU)
		loops = append(loops, p.Loop(body, []isa.Kind{isa.KindLoad, isa.KindALU, isa.KindALU}, nil))
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog, loops
}

// programStack is soak.NewStack's six-detector stack (the ingest tests
// cannot import soak, which imports ingest): every detector that reads
// the program's code map, plus GPD, CPI and change-point.
func programStack(prog *isa.Program) (*pipeline.Pipeline, error) {
	gdet, err := gpd.New(gpd.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rmon, err := region.NewMonitor(prog, region.DefaultConfig())
	if err != nil {
		return nil, err
	}
	bbv, err := altdetect.NewBBV(prog, 0.8)
	if err != nil {
		return nil, err
	}
	ws, err := altdetect.NewWorkingSet(prog, 0.5)
	if err != nil {
		return nil, err
	}
	tr, err := gpd.NewPerfTracker(gpd.DefaultPerfConfig())
	if err != nil {
		return nil, err
	}
	cpd, err := changepoint.New(changepoint.DefaultConfig())
	if err != nil {
		return nil, err
	}
	pipe := pipeline.New()
	for _, d := range []pipeline.PhaseDetector{
		pipeline.NewGPD(gdet), pipeline.NewRegionMonitor(rmon), pipeline.NewBBV(bbv),
		pipeline.NewWorkingSet(ws), pipeline.NewCPI(tr), pipeline.NewChangePoint(cpd),
	} {
		if err := pipe.Register(d); err != nil {
			return nil, err
		}
	}
	return pipe, nil
}

// malformedIntervals returns stream's intervals. Every stream mixes loop
// samples with PCs no well-formed sample carries — idle PC 0, below the
// text, between the procedures on their shared page and in the wide gap,
// past the end, misaligned — at its own rate: stream 0 rarely, stream 1
// in half its samples, stream 2 in all of them. Every seventh interval is
// empty. Only stream 0's Seq rises: stream 1's stays at 0, and stream 2's
// counts down.
func malformedIntervals(prog *isa.Program, loops []isa.LoopSpan, stream, n int) []*hpm.Overflow {
	bad := []isa.Addr{
		0, 1, prog.Start() - isa.InstrBytes, prog.Start() - 1,
		prog.Procs[0].End(), prog.Procs[1].Start() - 2,
		prog.Procs[1].End() + 0x10000, prog.Procs[2].Start() - isa.InstrBytes,
		prog.End(), prog.End() + 0x1000, ^isa.Addr(0),
		loops[0].Start + 1, loops[1].Start + 2, loops[2].End - 1,
	}
	rate := []uint64{16, 2, 1}[stream]
	rng := uint64(stream+1) * 0x9e3779b97f4a7c15
	ovs := make([]*hpm.Overflow, n)
	var cycle uint64
	for seq := range ovs {
		ov := &hpm.Overflow{Seq: []int{seq, 0, n - 1 - seq}[stream]}
		if seq%7 != 6 {
			ov.Samples = make([]hpm.Sample, 48)
		}
		hot := loops[seq/30%len(loops)]
		for i := range ov.Samples {
			cycle += 80 + smix(&rng)%40
			s := hpm.Sample{Cycle: cycle, Instrs: 6 + smix(&rng)%10, DCMisses: smix(&rng) % 3}
			if smix(&rng)%rate == 0 {
				s.PC = bad[smix(&rng)%uint64(len(bad))]
			} else {
				s.PC = hot.Start + isa.Addr(smix(&rng)%uint64(hot.NumInstrs()))*isa.InstrBytes
			}
			ov.Samples[i] = s
		}
		ov.Cycle = cycle
		ovs[seq] = ov
	}
	return ovs
}

// TestFleetMalformedIntervals pins malformed samples at the fleet
// boundary: streams of intervals whose PCs fall outside the program or
// inside an instruction, of empty intervals, and with a stalled or
// backwards Seq, run without a panic through the six-detector stack, and
// at 1 and 3 shards every stream's digest equals a sequential
// ObserveBatch over a fresh stack.
func TestFleetMalformedIntervals(t *testing.T) {
	const streams, intervals = 3, 150
	prog, loops := malformedProgram(t)
	inputs := make([][]*hpm.Overflow, streams)
	ref := make([]uint64, streams)
	for s := range inputs {
		inputs[s] = malformedIntervals(prog, loops, s, intervals)
		pipe, err := programStack(prog)
		if err != nil {
			t.Fatal(err)
		}
		dig := vhash.New()
		pipe.AddObserver(func(rep *pipeline.IntervalReport) {
			if err := dig.Report(rep); err != nil {
				t.Fatal(err)
			}
		})
		pipe.ObserveBatch(inputs[s])
		ref[s] = dig.Sum()
	}
	for _, shards := range []int{1, 3} {
		f, err := NewFleet(streams, Config{Shards: shards, QueueCap: 16, MaxSamples: 48,
			Build: func(int) (*pipeline.Pipeline, error) { return programStack(prog) }})
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < intervals; lo += 8 {
			for s := range inputs {
				f.PushBatchWait(s, inputs[s][lo:min(lo+8, intervals)])
			}
		}
		f.Drain()
		for s := range ref {
			info, err := f.StreamInfo(s)
			if err != nil {
				t.Fatal(err)
			}
			if info.Intervals != intervals || info.Digest != ref[s] {
				t.Errorf("%d shards, stream %d: %d intervals, digest %#x; want %d, %#x (sequential ObserveBatch)",
					shards, s, info.Intervals, info.Digest, intervals, ref[s])
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

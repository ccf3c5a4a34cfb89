package altdetect_test

import (
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

var verdictSink altdetect.Verdict

// BenchmarkBBVObserve and BenchmarkWorkingSetObserve time one Observe
// over the soak workload's 96-sample intervals, through two of its
// phases.
func BenchmarkBBVObserve(b *testing.B) {
	prog, ovs := soakIntervals(b, 320)
	d, err := altdetect.NewBBV(prog, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verdictSink = d.Observe(ovs[i%len(ovs)])
	}
}

func BenchmarkWorkingSetObserve(b *testing.B) {
	prog, ovs := soakIntervals(b, 320)
	d, err := altdetect.NewWorkingSet(prog, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verdictSink = d.Observe(ovs[i%len(ovs)])
	}
}

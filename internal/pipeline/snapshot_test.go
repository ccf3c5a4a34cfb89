package pipeline

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/snap"
)

// pipeStream fabricates a deterministic overflow for interval i that
// alternates between the two loops every 20 intervals, so detectors see
// real phase transitions before and after the snapshot point.
func pipeStream(i int, l1, l2 isa.LoopSpan) *hpm.Overflow {
	span := l1
	if (i/20)%2 == 1 {
		span = l2
	}
	return overflow(i, 200, spanPCs(span, 8)...)
}

// commonVerdicts copies the payload-independent fields of a report's
// verdicts (payloads alias detector-owned scratch).
func commonVerdicts(rep *IntervalReport) []Verdict {
	vs := make([]Verdict, len(rep.Verdicts))
	for i, v := range rep.Verdicts {
		vs[i] = Verdict{Detector: v.Detector, Stable: v.Stable, PhaseChange: v.PhaseChange}
	}
	return vs
}

func TestPipelineSnapshotForkEquality(t *testing.T) {
	prog, l1, l2 := testProgram(t)
	const total, cut = 90, 37

	// Reference: uninterrupted run over the full stream.
	ref, refGPD, refRegions, _, _ := fullPipeline(t, prog)
	var refV [][]Verdict
	ref.AddObserver(func(rep *IntervalReport) { refV = append(refV, commonVerdicts(rep)) })
	for i := 0; i < total; i++ {
		ref.ProcessOverflow(pipeStream(i, l1, l2))
	}

	// Primary: run to the cut, snapshot, and keep going.
	prim, _, _, _, _ := fullPipeline(t, prog)
	for i := 0; i < cut; i++ {
		prim.ProcessOverflow(pipeStream(i, l1, l2))
	}
	s1, err := prim.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s2, err := prim.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot (second): %v", err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("Snapshot is not deterministic")
	}

	// Fork: a fresh identically configured pipeline restored from the
	// snapshot must replay the rest of the stream identically.
	fork, forkGPD, forkRegions, _, _ := fullPipeline(t, prog)
	if err := fork.Restore(s1); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := fork.Intervals(), prim.Intervals(); got != want {
		t.Fatalf("restored Intervals = %d; want %d", got, want)
	}
	var forkV [][]Verdict
	fork.AddObserver(func(rep *IntervalReport) { forkV = append(forkV, commonVerdicts(rep)) })
	for i := cut; i < total; i++ {
		fork.ProcessOverflow(pipeStream(i, l1, l2))
	}
	if len(forkV) != total-cut {
		t.Fatalf("fork observed %d intervals; want %d", len(forkV), total-cut)
	}
	for i, vs := range forkV {
		want := refV[cut+i]
		for j := range vs {
			if vs[j] != want[j] {
				t.Fatalf("interval %d detector %d: fork %+v, ref %+v", cut+i, j, vs[j], want[j])
			}
		}
	}

	// After replay the fork's full internal state must match the
	// uninterrupted reference bit for bit.
	refSnap, err := ref.Snapshot()
	if err != nil {
		t.Fatalf("ref Snapshot: %v", err)
	}
	forkSnap, err := fork.Snapshot()
	if err != nil {
		t.Fatalf("fork Snapshot: %v", err)
	}
	if !bytes.Equal(refSnap, forkSnap) {
		t.Fatal("fork state diverged from uninterrupted reference")
	}

	// The region adapter's whole-run weighted accumulators steer no
	// verdict, so only a direct comparison sees them lost.
	if got, want := forkRegions.WeightedStableFraction(), refRegions.WeightedStableFraction(); got != want {
		t.Errorf("fork WeightedStableFraction = %v; want %v", got, want)
	}

	// So must a detector's whole-run counters.
	if got, want := forkGPD.Detector(), refGPD.Detector(); got.Intervals() != want.Intervals() ||
		got.PhaseChanges() != want.PhaseChanges() || got.StableFraction() != want.StableFraction() {
		t.Errorf("fork gpd counters %d/%d/%v; want %d/%d/%v", got.Intervals(), got.PhaseChanges(), got.StableFraction(),
			want.Intervals(), want.PhaseChanges(), want.StableFraction())
	}
}

func TestPipelineRestoreRejectsMismatch(t *testing.T) {
	prog, _, _ := testProgram(t)
	pipe, _, _, _, _ := fullPipeline(t, prog)
	snap, err := pipe.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// Fewer detectors registered than the snapshot carries.
	small := New()
	small.MustRegister(NewGPD(gpd.MustNew(gpd.DefaultConfig())))
	if err := small.Restore(snap); err == nil {
		t.Error("Restore accepted a snapshot with a different detector count")
	}

	// Same count, different registration order/names.
	if err := pipe.Restore(snap[:len(snap)-3]); err == nil {
		t.Error("Restore accepted a truncated snapshot")
	}
	if err := pipe.Restore([]byte("not a snapshot")); err == nil {
		t.Error("Restore accepted garbage")
	}
}

// fedPipeline returns the full five-detector pipeline after the first n
// intervals of pipeStream, with its region adapter.
func fedPipeline(t testing.TB, n int) (*Pipeline, *RegionMonitor) {
	t.Helper()
	prog, l1, l2 := testProgram(t)
	p, _, ra, _, _ := fullPipeline(t, prog)
	for i := 0; i < n; i++ {
		p.ProcessOverflow(pipeStream(i, l1, l2))
	}
	return p, ra
}

func mustSnapshot(t testing.TB, p *Pipeline) []byte {
	t.Helper()
	b, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkRestoreFailures requires restore to reject src with a trailing
// byte and every truncation of src, and requires each failure to leave
// snapshot's bytes unchanged.
func checkRestoreFailures(t *testing.T, src []byte, snapshot func() []byte, restore func([]byte) error) {
	t.Helper()
	before := snapshot()
	check := func(name string, data []byte) {
		t.Helper()
		if err := restore(data); err == nil {
			t.Fatalf("%s: restore accepted", name)
		}
		if !bytes.Equal(snapshot(), before) {
			t.Fatalf("%s: failed restore changed the target", name)
		}
	}
	check("trailing byte", append(append([]byte(nil), src...), 0))
	for cut := 0; cut < len(src); cut++ {
		check(fmt.Sprintf("cut at %d of %d", cut, len(src)), src[:cut])
	}
}

// TestRegionAdapterRestoreFailureLeavesAdapterUntouched: the region
// adapter stages its monitor and its own accumulators together. Before,
// it restored the monitor first, so a cut in the accumulators or a
// trailing byte left the monitor overwritten.
func TestRegionAdapterRestoreFailureLeavesAdapterUntouched(t *testing.T) {
	_, src := fedPipeline(t, 57)
	_, ra := fedPipeline(t, 23)
	checkRestoreFailures(t, snap.Marshal(src),
		func() []byte { return snap.Marshal(ra) },
		func(data []byte) error { return snap.Unmarshal(ra, data) })
}

// TestPipelineRestoreFailureLeavesPipelineUntouched: a pipeline stages
// every detector before any commits. Before, each detector committed as
// it was decoded, so a cut in the last detector left the first four
// overwritten. A snapshot relabelled version 1 is refused by name.
func TestPipelineRestoreFailureLeavesPipelineUntouched(t *testing.T) {
	src, _ := fedPipeline(t, 57)
	data := mustSnapshot(t, src)
	p, _ := fedPipeline(t, 23)
	before := mustSnapshot(t, p)
	checkRestoreFailures(t, data, func() []byte { return mustSnapshot(t, p) }, p.Restore)

	// The forged child: the outer frame, every name and the first four
	// detectors are valid; the last detector's bytes are one short.
	last := p.Detectors()[len(p.Detectors())-1].Name()
	err := p.Restore(data[:len(data)-1])
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("restoring detector %q", last)) {
		t.Fatalf("forged last detector: restore error %v, want it to name detector %q", err, last)
	}
	if !bytes.Equal(mustSnapshot(t, p), before) {
		t.Fatal("forged last detector: failed restore changed the pipeline")
	}

	// Version 1, the layout with three per-detector counters after each
	// name, is refused at the header.
	v1 := append([]byte(nil), data...)
	v1[8+len(pipelineTag)] = 1 // the version byte after the length-prefixed tag
	if err := p.Restore(v1); err == nil || !strings.Contains(err.Error(), `"pipeline" version 1, want 2`) {
		t.Fatalf("version 1: restore error %v, want the version check", err)
	}
	if !bytes.Equal(mustSnapshot(t, p), before) {
		t.Fatal("version 1: failed restore changed the pipeline")
	}
}

// TestForgedSpanInputFailsAtSpanCheck: the kept fuzz input, a pipeline
// snapshot whose region monitor holds a region of 1<<40 instructions,
// decodes up to that region and is refused there, before the span sizes
// an allocation. It is encoded in the current layout, so no version
// header refuses it first.
func TestForgedSpanInputFailsAtSpanCheck(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzPipelineRestore/ee6ed3c9adbfe494")
	if err != nil {
		t.Fatal(err)
	}
	_, quoted, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(quoted, "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := fedPipeline(t, 23)
	err = p.Restore([]byte(data))
	if err == nil || !strings.Contains(err.Error(), "span") || !strings.Contains(err.Error(), "longer than the remaining input") {
		t.Fatalf("restore error %v; want the region's forged-span check", err)
	}
}

// FuzzPipelineRestore: Restore never panics, a failed restore leaves the
// pipeline's snapshot bytes unchanged, and a restored pipeline keeps
// processing intervals.
func FuzzPipelineRestore(f *testing.F) {
	for _, n := range []int{0, 23, 57, 90} {
		p, _ := fedPipeline(f, n)
		f.Add(mustSnapshot(f, p))
	}
	p, _ := fedPipeline(f, 57)
	src := mustSnapshot(f, p)
	for _, cut := range []int{len(src) / 3, len(src) / 2, len(src) - 1} {
		f.Add(src[:cut])
	}
	f.Add(append(append([]byte(nil), src...), 0))
	base, _ := fedPipeline(f, 23)
	target := mustSnapshot(f, base)
	prog, l1, l2 := testProgram(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, _, _, _, _ := fullPipeline(t, prog)
		if err := p.Restore(target); err != nil {
			t.Fatal(err)
		}
		if err := p.Restore(data); err != nil {
			if !bytes.Equal(mustSnapshot(t, p), target) {
				t.Fatalf("failed restore (%v) changed the pipeline", err)
			}
			return
		}
		for i := 23; i < 60; i++ {
			p.ProcessOverflow(pipeStream(i, l1, l2))
		}
	})
}

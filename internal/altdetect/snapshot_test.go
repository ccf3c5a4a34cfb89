package altdetect

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/snap"
)

// altStream generates overflows alternating between the two procedures
// with occasional out-of-text (idle) intervals.
func altStream(a, b isa.Addr, n int) []*hpm.Overflow {
	out := make([]*hpm.Overflow, n)
	for i := range out {
		switch {
		case i%13 == 7:
			out[i] = ov(i, 50, 0) // idle PCs only
		case (i/6)%2 == 0:
			out[i] = ov(i, 100, a, a, b)
		default:
			out[i] = ov(i, 100, b)
		}
	}
	return out
}

func TestBBVSnapshotForkEquality(t *testing.T) {
	prog, a, b := testProgram(t)
	const total, at = 60, 23
	stream := altStream(a, b, total)

	ref, _ := NewBBV(prog, 0.8)
	forked, _ := NewBBV(prog, 0.8)
	for i := 0; i < at; i++ {
		ref.Observe(stream[i])
		forked.Observe(stream[i])
	}
	restored, _ := NewBBV(prog, 0.8)
	if err := snap.Unmarshal(restored, snap.Marshal(forked)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for i := at; i < total; i++ {
		rv := ref.Observe(stream[i])
		sv := restored.Observe(stream[i])
		if rv != sv {
			t.Fatalf("interval %d: verdict diverged: %+v vs %+v", i, rv, sv)
		}
	}
	if ref.Changes() != restored.Changes() || ref.Intervals() != restored.Intervals() {
		t.Fatal("counters diverged")
	}
}

func TestWorkingSetSnapshotForkEquality(t *testing.T) {
	prog, a, b := testProgram(t)
	const total, at = 60, 29
	stream := altStream(a, b, total)

	ref, _ := NewWorkingSet(prog, 0.5)
	forked, _ := NewWorkingSet(prog, 0.5)
	for i := 0; i < at; i++ {
		ref.Observe(stream[i])
		forked.Observe(stream[i])
	}
	// Snapshot twice: the encoding must not depend on anything but state.
	s1, s2 := snap.Marshal(forked), snap.Marshal(forked)
	if string(s1) != string(s2) {
		t.Fatal("working-set snapshot is not deterministic")
	}
	restored, _ := NewWorkingSet(prog, 0.5)
	if err := snap.Unmarshal(restored, s1); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for i := at; i < total; i++ {
		rv := ref.Observe(stream[i])
		sv := restored.Observe(stream[i])
		if rv != sv {
			t.Fatalf("interval %d: verdict diverged: %+v vs %+v", i, rv, sv)
		}
	}
	if ref.Changes() != restored.Changes() || ref.Intervals() != restored.Intervals() {
		t.Fatal("counters diverged")
	}
}

func TestWorkingSetSnapshotRejectsBadBlock(t *testing.T) {
	prog, a, b := testProgram(t)
	d, _ := NewWorkingSet(prog, 0.5)
	d.Observe(ov(0, 10, a, b))
	snapBytes := snap.Marshal(d)

	// A single-proc program has fewer blocks; restoring the richer
	// snapshot into it must fail validation.
	small := isa.NewBuilder(0x10000)
	small.Proc("tiny").Code(8, isa.KindALU)
	sp, err := small.Build()
	if err != nil {
		t.Fatal(err)
	}
	sd, _ := NewWorkingSet(sp, 0.5)
	if err := snap.Unmarshal(sd, snapBytes); err == nil {
		t.Fatal("expected block-range validation error")
	}
}

// fedBBV and fedWorkingSet return detectors over testProgram fed the
// first n intervals of altStream.
func fedBBV(t testing.TB, n int) *BBV {
	prog, a, b := testProgram(t)
	d, err := NewBBV(prog, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range altStream(a, b, n) {
		d.Observe(o)
	}
	return d
}

func fedWorkingSet(t testing.TB, n int) *WorkingSet {
	prog, a, b := testProgram(t)
	d, err := NewWorkingSet(prog, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range altStream(a, b, n) {
		d.Observe(o)
	}
	return d
}

// badSnapshot is a snapshot restore must reject and a fragment of the
// error it must give.
type badSnapshot struct {
	name, err string
	data      []byte
}

// badBBVSnapshots and badWorkingSetSnapshots return snapshots Restore
// must reject: a real snapshot cut short or with a trailing byte, and
// hand-encoded ones under the current header whose counters or blocks no
// run can produce. Each names its error, so a header the decoder refuses
// cannot pass for the defect a case is about.
func badBBVSnapshots(t testing.TB) []badSnapshot {
	src := snap.Marshal(fedBBV(t, 23))
	blocks := len(fedBBV(t, 0).prev)
	encode := func(changes, total int) []byte {
		e := snap.NewEncoder()
		e.Header(bbvTag, 1)
		e.Bool(true)
		e.F64s(make([]float64, blocks))
		e.Int(changes)
		e.Int(total)
		return e.Bytes()
	}
	return []badSnapshot{
		{"cut by 8 bytes", "truncated input", src[:len(src)-8]},
		{"trailing byte", "trailing bytes", append(append([]byte(nil), src...), 0)},
		{"negative counts", "counts -5 changes over -9 intervals", encode(-5, -9)},
		{"negative changes", "counts -1 changes over 4 intervals", encode(-1, 4)},
		{"changes above total", "counts 7 changes over 2 intervals", encode(7, 2)},
	}
}

func badWorkingSetSnapshots(t testing.TB) []badSnapshot {
	src := snap.Marshal(fedWorkingSet(t, 29))
	encode := func(changes, total int, blocks ...int) []byte {
		e := snap.NewEncoder()
		e.Header(wsTag, 1)
		e.Ints(blocks)
		e.Int(changes)
		e.Int(total)
		return e.Bytes()
	}
	return []badSnapshot{
		{"cut by 8 bytes", "truncated input", src[:len(src)-8]},
		{"trailing byte", "trailing bytes", append(append([]byte(nil), src...), 0)},
		{"changes above total", "counts 7 changes over 2 intervals", encode(7, 2, 0, 1)},
		{"negative total", "counts 0 changes over -1 intervals", encode(0, -1, 0)},
		{"descending blocks", "not strictly ascending (0 after 1)", encode(0, 2, 1, 0)},
		{"repeated block", "not strictly ascending (1 after 1)", encode(0, 2, 1, 1)},
		{"block out of range", "block 99 outside program", encode(0, 2, 0, 99)},
	}
}

// detector is the surface BBV and WorkingSet share.
type detector interface {
	Observe(*hpm.Overflow) Verdict
	snap.Snapshotter
}

// checkRestoreFails asserts that restoring data into d fails with an
// error mentioning wantErr and leaves d's state byte-identical.
func checkRestoreFails(t *testing.T, name, wantErr string, d detector, data []byte) {
	t.Helper()
	before := snap.Marshal(d)
	err := snap.Unmarshal(d, data)
	if err == nil {
		t.Fatalf("%s: restore accepted", name)
	}
	if !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("%s: restore error %q, want it to mention %q", name, err, wantErr)
	}
	if !bytes.Equal(snap.Marshal(d), before) {
		t.Fatalf("%s: failed restore changed the detector", name)
	}
}

// TestRestoreRejectsImpossibleState: negative counters, more changes than
// intervals and unordered working-set blocks used to be accepted (a
// working set restored with 7 changes over 2 intervals reported a stable
// fraction of -2.5). Every rejection, and every truncation of a real
// snapshot, leaves the target untouched.
func TestRestoreRejectsImpossibleState(t *testing.T) {
	bbv := fedBBV(t, 11)
	for _, bad := range badBBVSnapshots(t) {
		checkRestoreFails(t, "BBV "+bad.name, bad.err, bbv, bad.data)
	}
	src := snap.Marshal(fedBBV(t, 23))
	for cut := 0; cut < len(src); cut++ {
		checkRestoreFails(t, fmt.Sprintf("BBV cut at %d", cut), "", bbv, src[:cut])
	}
	ws := fedWorkingSet(t, 11)
	for _, bad := range badWorkingSetSnapshots(t) {
		checkRestoreFails(t, "working set "+bad.name, bad.err, ws, bad.data)
	}
	src = snap.Marshal(fedWorkingSet(t, 29))
	for cut := 0; cut < len(src); cut++ {
		checkRestoreFails(t, fmt.Sprintf("working set cut at %d", cut), "", ws, src[:cut])
	}
}

// fuzzRestore is the body of both restore fuzz targets: Restore never
// panics, a failed restore leaves the detector's state byte-identical,
// and a restored detector keeps observing.
func fuzzRestore(t *testing.T, d detector, data []byte) {
	before := snap.Marshal(d)
	if err := snap.Unmarshal(d, data); err != nil {
		if !bytes.Equal(snap.Marshal(d), before) {
			t.Fatalf("failed restore (%v) changed the detector", err)
		}
		return
	}
	_, a, b := testProgram(t)
	for _, o := range altStream(a, b, 14) {
		d.Observe(o)
	}
}

func FuzzBBVRestore(f *testing.F) {
	f.Add(snap.Marshal(fedBBV(f, 23)))
	f.Add(snap.Marshal(fedBBV(f, 0)))
	for _, bad := range badBBVSnapshots(f) {
		f.Add(bad.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRestore(t, fedBBV(t, 11), data)
	})
}

func FuzzWorkingSetRestore(f *testing.F) {
	f.Add(snap.Marshal(fedWorkingSet(f, 29)))
	f.Add(snap.Marshal(fedWorkingSet(f, 0)))
	for _, bad := range badWorkingSetSnapshots(f) {
		f.Add(bad.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRestore(t, fedWorkingSet(t, 11), data)
	})
}

package changepoint

import (
	"bytes"
	"fmt"
	"testing"

	"regionmon/internal/snap"
)

func TestSnapshotForkEquality(t *testing.T) {
	const total, at = 360, 170
	stream := metricStream(total, 120, 1.0, 1.5)

	ref := MustNew(DefaultConfig())
	forked := MustNew(DefaultConfig())
	for i := 0; i < at; i++ {
		ref.Observe(stream[i])
		forked.Observe(stream[i])
	}
	snapBytes := forked.Snapshot()

	restored := MustNew(DefaultConfig())
	if err := restored.Restore(snapBytes); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// The restored detector re-snapshots to identical bytes.
	if string(restored.Snapshot()) != string(snapBytes) {
		t.Fatal("restored detector snapshots to different bytes")
	}

	for i := at; i < total; i++ {
		rv := ref.Observe(stream[i])
		sv := restored.Observe(stream[i])
		if rv != sv {
			t.Fatalf("interval %d: verdict diverged: ref %+v restored %+v", i, rv, sv)
		}
	}
	if ref.Changes() != restored.Changes() || ref.LastChange() != restored.LastChange() ||
		ref.Intervals() != restored.Intervals() {
		t.Fatalf("counters diverged: (%d,%d,%d) vs (%d,%d,%d)",
			ref.Changes(), ref.LastChange(), ref.Intervals(),
			restored.Changes(), restored.LastChange(), restored.Intervals())
	}
}

func TestSnapshotWindowMismatch(t *testing.T) {
	d := MustNew(DefaultConfig())
	for i := 0; i < 100; i++ {
		d.Observe(float64(i))
	}
	snapBytes := d.Snapshot()

	cfg := DefaultConfig()
	cfg.Window = 64
	other := MustNew(cfg)
	if err := other.Restore(snapBytes); err == nil {
		t.Fatal("restore into a differently sized window accepted")
	}
	// The failed restore left the target untouched.
	if other.Intervals() != 0 || other.Changes() != 0 {
		t.Errorf("failed restore mutated target: %d intervals, %d changes",
			other.Intervals(), other.Changes())
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	d := MustNew(DefaultConfig())
	if err := d.Restore([]byte{0, 1, 2}); err == nil {
		t.Error("garbage snapshot accepted")
	}
	e := snap.NewEncoder()
	e.Header("other", 1)
	if err := d.Restore(e.Bytes()); err == nil {
		t.Error("foreign component tag accepted")
	}
}

// fedDetector returns a default detector fed the first n observations of
// a stream with a level shift at 120.
func fedDetector(n int) *Detector {
	d := MustNew(DefaultConfig())
	for _, x := range metricStream(n, 120, 1.0, 1.5) {
		d.Observe(x)
	}
	return d
}

// badSnapshots returns detector snapshots Restore must reject: a real
// one cut by 8 bytes or followed by a stray byte, and hand-encoded ones
// whose fields decode but cannot describe a run.
func badSnapshots() map[string][]byte {
	src := fedDetector(170).Snapshot()
	encode := func(lastChange int64, changes int, capa int, total int64, vals ...float64) []byte {
		e := snap.NewEncoder()
		e.Header(detectorTag, 1)
		e.I64(lastChange)
		e.Int(changes)
		e.Header("series", 1)
		e.Bool(false)
		e.Int(capa)
		e.I64(total)
		e.F64(0)
		e.F64s(vals)
		return e.Bytes()
	}
	w := DefaultConfig().Window
	return map[string][]byte{
		"cut by 8 bytes":        src[:len(src)-8],
		"trailing byte":         append(append([]byte(nil), src...), 0),
		"negative changes":      encode(-1, -3, w, 5, 1, 2, 3, 4, 5),
		"total below values":    encode(-1, 0, w, 2, 1, 2, 3),
		"last change too late":  encode(5, 1, w, 5, 1, 2, 3, 4, 5),
		"last change below -1":  encode(-2, 0, w, 5, 1, 2, 3, 4, 5),
		"window capacity wrong": encode(-1, 0, w+1, 5, 1, 2, 3, 4, 5),
	}
}

// TestRestoreFailureLeavesDetectorUntouched: a restore that fails, at
// any truncation of a real snapshot or on any of badSnapshots, leaves
// the target's state byte-identical. Before, a truncated window was
// emptied before the error surfaced.
func TestRestoreFailureLeavesDetectorUntouched(t *testing.T) {
	src := fedDetector(170).Snapshot()
	d := fedDetector(100)
	before := d.Snapshot()
	check := func(name string, data []byte) {
		t.Helper()
		if err := d.Restore(data); err == nil {
			t.Fatalf("%s: restore accepted", name)
		}
		if !bytes.Equal(d.Snapshot(), before) {
			t.Fatalf("%s: failed restore changed the detector (%d intervals)", name, d.Intervals())
		}
	}
	for cut := 0; cut < len(src); cut++ {
		check(fmt.Sprintf("cut at %d of %d", cut, len(src)), src[:cut])
	}
	for name, data := range badSnapshots() {
		check(name, data)
	}
}

// FuzzDetectorRestore: Restore never panics, a failed restore leaves the
// detector's state byte-identical, and a restored detector keeps
// observing without panicking.
func FuzzDetectorRestore(f *testing.F) {
	f.Add(fedDetector(170).Snapshot())
	f.Add(fedDetector(20).Snapshot())
	f.Add(MustNew(DefaultConfig()).Snapshot())
	for _, data := range badSnapshots() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fedDetector(100)
		before := d.Snapshot()
		if err := d.Restore(data); err != nil {
			if !bytes.Equal(d.Snapshot(), before) {
				t.Fatalf("failed restore (%v) changed the detector", err)
			}
			return
		}
		for _, x := range metricStream(2*DefaultConfig().EvalEvery, 0, 1, 1) {
			d.Observe(x)
		}
	})
}

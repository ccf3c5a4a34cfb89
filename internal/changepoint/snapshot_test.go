package changepoint

import (
	"bytes"
	"fmt"
	"strings"
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
	snapBytes := snap.Marshal(forked)

	restored := MustNew(DefaultConfig())
	if err := snap.Unmarshal(restored, snapBytes); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// The restored detector re-snapshots to identical bytes.
	if string(snap.Marshal(restored)) != string(snapBytes) {
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
	snapBytes := snap.Marshal(d)

	cfg := DefaultConfig()
	cfg.Window = 64
	other := MustNew(cfg)
	if err := snap.Unmarshal(other, snapBytes); err == nil {
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
	if err := snap.Unmarshal(d, []byte{0, 1, 2}); err == nil {
		t.Error("garbage snapshot accepted")
	}
	e := snap.NewEncoder()
	e.Header("other", 1)
	if err := snap.Unmarshal(d, e.Bytes()); err == nil {
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

// badSnapshot is a forged detector snapshot and a fragment of the error
// restoring it must give.
type badSnapshot struct {
	data []byte
	err  string
}

// badSnapshots returns detector snapshots Restore must reject: a real
// one cut by 8 bytes, followed by a stray byte or relabelled version 1,
// and hand-encoded ones whose fields decode but cannot describe a run.
func badSnapshots() map[string]badSnapshot {
	src := snap.Marshal(fedDetector(170))
	v1 := append([]byte(nil), src...)
	v1[8+len(detectorTag)] = 1 // the version byte after the length-prefixed tag
	encode := func(count, lastChange int64, changes int, capa int, vals ...float64) []byte {
		e := snap.NewEncoder()
		e.Header(detectorTag, 2)
		e.I64(count)
		e.I64(lastChange)
		e.Int(changes)
		e.Header("window", 1)
		e.Int(capa)
		e.F64(0)
		e.F64(0)
		e.F64s(vals)
		return e.Bytes()
	}
	w := DefaultConfig().Window
	return map[string]badSnapshot{
		"cut by 8 bytes":           {src[:len(src)-8], ""},
		"trailing byte":            {append(append([]byte(nil), src...), 0), "trailing bytes"},
		"version 1":                {v1, "version 1, want 2"},
		"negative changes":         {encode(5, -1, -3, w, 1, 2, 3, 4, 5), "negative change count"},
		"negative count":           {encode(-1, -1, 0, w), "negative observation count"},
		"window past count":        {encode(2, -1, 0, w, 1, 2, 3), "holds 3 values, want 2"},
		"window short of count":    {encode(5, -1, 0, w, 1, 2, 3), "holds 3 values, want 5"},
		"window short of capacity": {encode(int64(w)+52, -1, 0, w, make([]float64, w-1)...), "want 48"},
		"last change at count":     {encode(5, 5, 1, w, 1, 2, 3, 4, 5), "last change 5 outside"},
		"last change below -1":     {encode(5, -2, 0, w, 1, 2, 3, 4, 5), "last change -2 outside"},
		"window capacity wrong":    {encode(5, -1, 0, w+1, 1, 2, 3, 4, 5), "capacity 49"},
	}
}

// TestRestoreFailureLeavesDetectorUntouched: a restore that fails, at
// any truncation of a real snapshot or on any of badSnapshots, leaves
// the target's state byte-identical. Before, a truncated window was
// emptied before the error surfaced.
func TestRestoreFailureLeavesDetectorUntouched(t *testing.T) {
	src := snap.Marshal(fedDetector(170))
	d := fedDetector(100)
	before := snap.Marshal(d)
	check := func(name, wantErr string, data []byte) {
		t.Helper()
		err := snap.Unmarshal(d, data)
		if err == nil {
			t.Fatalf("%s: restore accepted", name)
		}
		if !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s: restore error %q, want it to mention %q", name, err, wantErr)
		}
		if !bytes.Equal(snap.Marshal(d), before) {
			t.Fatalf("%s: failed restore changed the detector (%d intervals)", name, d.Intervals())
		}
	}
	for cut := 0; cut < len(src); cut++ {
		check(fmt.Sprintf("cut at %d of %d", cut, len(src)), "", src[:cut])
	}
	for name, bad := range badSnapshots() {
		check(name, bad.err, bad.data)
	}
}

// FuzzDetectorRestore: Restore never panics, a failed restore leaves the
// detector's state byte-identical, and a restored detector keeps
// observing without panicking.
func FuzzDetectorRestore(f *testing.F) {
	f.Add(snap.Marshal(fedDetector(170)))
	f.Add(snap.Marshal(fedDetector(20)))
	f.Add(snap.Marshal(MustNew(DefaultConfig())))
	for _, bad := range badSnapshots() {
		f.Add(bad.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fedDetector(100)
		before := snap.Marshal(d)
		if err := snap.Unmarshal(d, data); err != nil {
			if !bytes.Equal(snap.Marshal(d), before) {
				t.Fatalf("failed restore (%v) changed the detector", err)
			}
			return
		}
		for _, x := range metricStream(2*DefaultConfig().EvalEvery, 0, 1, 1) {
			d.Observe(x)
		}
	})
}

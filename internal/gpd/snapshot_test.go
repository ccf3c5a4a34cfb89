package gpd

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"regionmon/internal/snap"
)

// centroidStream deterministically generates centroids with stable
// plateaus, drifts and one drastic jump, so the fork test crosses every
// state and exercises the history-reset path.
func centroidStream(n int) []float64 {
	out := make([]float64, n)
	for t := range out {
		base := 1e6
		switch {
		case t >= n/2 && t < n/2+10:
			base = 5e6 // drastic jump, then a new plateau
		case t >= n/2+10:
			base = 5e6 + float64(t%3)*1e3
		default:
			base = 1e6 + float64(t%4)*500
		}
		out[t] = base
	}
	return out
}

// TestDetectorSnapshotForkEquality forks at every interval of the stream:
// a snapshot taken there and restored into a fresh detector must track
// the never-snapshotted original verdict for verdict to the end. A fork
// at a single point misses state that happens to match there (a stability
// timer at zero, a stable count equal to its restored default).
func TestDetectorSnapshotForkEquality(t *testing.T) {
	const total = 100
	stream := centroidStream(total)
	for at := 0; at < total; at++ {
		ref := MustNew(DefaultConfig())
		forked := MustNew(DefaultConfig())
		for i := 0; i < at; i++ {
			ref.Observe(stream[i])
			forked.Observe(stream[i])
		}
		snapBytes := snap.Marshal(forked)

		restored := MustNew(DefaultConfig())
		if err := snap.Unmarshal(restored, snapBytes); err != nil {
			t.Fatalf("fork at %d: Restore: %v", at, err)
		}
		if string(snap.Marshal(restored)) != string(snapBytes) {
			t.Fatalf("fork at %d: restored detector snapshots to different bytes", at)
		}

		for i := at; i < total; i++ {
			rv := ref.Observe(stream[i])
			sv := restored.Observe(stream[i])
			if rv != sv {
				t.Fatalf("fork at %d, interval %d: verdict diverged: ref %+v restored %+v", at, i, rv, sv)
			}
		}
		if ref.PhaseChanges() != restored.PhaseChanges() || ref.Intervals() != restored.Intervals() ||
			ref.StableFraction() != restored.StableFraction() {
			t.Fatalf("fork at %d: counters diverged: (%d,%d,%v) vs (%d,%d,%v)", at,
				ref.PhaseChanges(), ref.Intervals(), ref.StableFraction(),
				restored.PhaseChanges(), restored.Intervals(), restored.StableFraction())
		}
	}
}

func TestDetectorSnapshotConfigMismatch(t *testing.T) {
	d := MustNew(DefaultConfig())
	d.Observe(100)
	cfg := DefaultConfig()
	cfg.HistorySize = 16
	if err := snap.Unmarshal(MustNew(cfg), snap.Marshal(d)); err == nil || !strings.Contains(err.Error(), "window capacity 16") {
		t.Fatalf("restore error %v, want a history-capacity mismatch", err)
	}
}

// TestPerfTrackerSnapshotForkEquality forks the CPI tracker at every
// interval, as TestDetectorSnapshotForkEquality does the detector.
func TestPerfTrackerSnapshotForkEquality(t *testing.T) {
	const total = 80
	mk := func() *PerfTracker {
		p, err := NewPerfTracker(DefaultPerfConfig())
		if err != nil {
			t.Fatalf("NewPerfTracker: %v", err)
		}
		return p
	}
	value := func(i int) float64 {
		if i >= 40 && i < 50 {
			return 3.5 // CPI spike
		}
		return 1.2 + float64(i%5)*0.01
	}

	for at := 0; at < total; at++ {
		ref, forked := mk(), mk()
		for i := 0; i < at; i++ {
			ref.Observe(value(i))
			forked.Observe(value(i))
		}
		restored := mk()
		if err := snap.Unmarshal(restored, snap.Marshal(forked)); err != nil {
			t.Fatalf("fork at %d: Restore: %v", at, err)
		}
		for i := at; i < total; i++ {
			rv := ref.Observe(value(i))
			sv := restored.Observe(value(i))
			if rv != sv {
				t.Fatalf("fork at %d, interval %d: verdict diverged: %+v vs %+v", at, i, rv, sv)
			}
		}
		if ref.Changes() != restored.Changes() || ref.Intervals() != restored.Intervals() {
			t.Fatalf("fork at %d: counters diverged", at)
		}
	}
}

// checkRestoreFailures restores a real snapshot with one trailing byte,
// and every truncation of it, into a target and requires each restore to
// fail with the target's snapshot bytes unchanged. Before, the trailing
// byte was reported only after the target had taken the snapshot's
// state.
func checkRestoreFailures(t *testing.T, src []byte, target snap.Snapshotter) {
	t.Helper()
	before := snap.Marshal(target)
	check := func(name, wantErr string, data []byte) {
		t.Helper()
		err := snap.Unmarshal(target, data)
		if err == nil {
			t.Fatalf("%s: restore accepted", name)
		}
		if !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s: restore error %q, want it to mention %q", name, err, wantErr)
		}
		if !bytes.Equal(snap.Marshal(target), before) {
			t.Fatalf("%s: failed restore changed the target", name)
		}
	}
	check("trailing byte", "trailing bytes", append(append([]byte(nil), src...), 0))
	for cut := 0; cut < len(src); cut++ {
		check(fmt.Sprintf("cut at %d of %d", cut, len(src)), "", src[:cut])
	}
}

func TestDetectorRestoreFailureLeavesDetectorUntouched(t *testing.T) {
	fed := func(n int) *Detector {
		d := MustNew(DefaultConfig())
		for _, c := range centroidStream(n) {
			d.Observe(c)
		}
		return d
	}
	d := fed(20)
	checkRestoreFailures(t, snap.Marshal(fed(70)), d)
}

func TestPerfTrackerRestoreFailureLeavesTrackerUntouched(t *testing.T) {
	fed := func(n int) *PerfTracker {
		p, err := NewPerfTracker(DefaultPerfConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			p.Observe(1.2 + float64(i%5)*0.01)
		}
		return p
	}
	p := fed(3)
	checkRestoreFailures(t, snap.Marshal(fed(30)), p)
}

// fuzzRestore seeds f with snapshots of a target fed 0, 13, 37 and 70
// intervals, three truncations of the 37-interval one and that snapshot
// with a trailing byte. For every input restored into a target fed 20
// intervals it checks that Restore does not panic, that a failed restore
// leaves the target's snapshot bytes unchanged, and that a restored
// target keeps observing without panicking. observe feeds target its
// i-th interval.
func fuzzRestore[T snap.Snapshotter](f *testing.F, fresh func() T, observe func(target T, i int)) {
	fed := func(n int) []byte {
		target := fresh()
		for i := 0; i < n; i++ {
			observe(target, i)
		}
		return snap.Marshal(target)
	}
	for _, n := range []int{0, 13, 37, 70} {
		f.Add(fed(n))
	}
	src := fed(37)
	for _, cut := range []int{len(src) / 3, len(src) / 2, len(src) - 1} {
		f.Add(src[:cut])
	}
	f.Add(append(append([]byte(nil), src...), 0))
	base := fed(20)
	f.Fuzz(func(t *testing.T, data []byte) {
		target := fresh()
		if err := snap.Unmarshal(target, base); err != nil {
			t.Fatal(err)
		}
		if err := snap.Unmarshal(target, data); err != nil {
			if !bytes.Equal(snap.Marshal(target), base) {
				t.Fatalf("failed restore (%v) changed the target", err)
			}
			return
		}
		for i := 20; i < 60; i++ {
			observe(target, i)
		}
	})
}

func FuzzDetectorRestore(f *testing.F) {
	stream := centroidStream(100)
	fuzzRestore(f, func() *Detector { return MustNew(DefaultConfig()) },
		func(d *Detector, i int) { d.Observe(stream[i]) })
}

func FuzzPerfTrackerRestore(f *testing.F) {
	fuzzRestore(f, func() *PerfTracker {
		p, err := NewPerfTracker(DefaultPerfConfig())
		if err != nil {
			f.Fatal(err)
		}
		return p
	}, func(p *PerfTracker, i int) {
		v := 1.2 + float64(i%5)*0.01
		if i >= 40 && i < 50 {
			v = 3.5 // CPI spike
		}
		p.Observe(v)
	})
}

package lpd

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"regionmon/internal/snap"
)

// histStream deterministically generates interval histograms with phase
// shifts and occasional empty intervals, exercising every state-machine
// path (reference establishment, stable runs, phase changes, empty
// re-reporting).
func histStream(n, intervals int) [][]int64 {
	out := make([][]int64, intervals)
	lcg := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg >> 33
	}
	for t := 0; t < intervals; t++ {
		h := make([]int64, n)
		switch {
		case t%17 == 13:
			// empty interval
		case (t/20)%2 == 0:
			// phase A: hot front half, mild noise
			for i := 0; i < n/2; i++ {
				h[i] = 50 + int64(next()%7)
			}
		default:
			// phase B: hot back half
			for i := n / 2; i < n; i++ {
				h[i] = 80 + int64(next()%5)
			}
		}
		out[t] = h
	}
	return out
}

func TestSnapshotForkEquality(t *testing.T) {
	const n, total = 32, 120
	stream := histStream(n, total)

	// Fork at every interval: state that matches its restored default at
	// one fork point rarely matches it at all of them.
	for at := 0; at < total; at++ {
		ref := MustNew(n, DefaultConfig())
		forked := MustNew(n, DefaultConfig())
		for i := 0; i < at; i++ {
			ref.Observe(stream[i])
			forked.Observe(stream[i])
		}
		snapBytes := snap.Marshal(forked)

		restored := MustNew(n, DefaultConfig())
		if err := snap.Unmarshal(restored, snapBytes); err != nil {
			t.Fatalf("fork at %d: Restore: %v", at, err)
		}
		// The restored detector re-snapshots to identical bytes.
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
		if ref.PhaseChanges() != restored.PhaseChanges() ||
			ref.StableFraction() != restored.StableFraction() ||
			ref.Intervals() != restored.Intervals() {
			t.Fatalf("fork at %d: counters diverged: (%d,%v,%d) vs (%d,%v,%d)", at,
				ref.PhaseChanges(), ref.StableFraction(), ref.Intervals(),
				restored.PhaseChanges(), restored.StableFraction(), restored.Intervals())
		}
	}
}

func TestSnapshotSizeMismatch(t *testing.T) {
	d := MustNew(8, DefaultConfig())
	d.Observe(make([]int64, 8))
	if err := snap.Unmarshal(MustNew(16, DefaultConfig()), snap.Marshal(d)); err == nil {
		t.Fatal("expected region-size mismatch error")
	}
}

// TestSnapshotRejectsCorruptState: a snapshot under the current header
// whose state is none of the three, and three bytes of garbage, are
// refused, each with its own error, so a header the decoder refuses
// cannot pass for the invalid state.
func TestSnapshotRejectsCorruptState(t *testing.T) {
	d := MustNew(4, DefaultConfig())
	e := snap.NewEncoder()
	e.Header(snapshotTag, 1)
	e.Int(4)
	e.Bool(false)
	e.I64s(make([]int64, 4))
	e.Int(99) // invalid state
	e.F64(0)
	e.Int(0)
	e.Int(0)
	e.Int(0)
	for _, c := range []struct {
		name, err string
		data      []byte
	}{
		{"invalid state", "invalid state 99", e.Bytes()},
		{"garbage", "truncated input", []byte{1, 2, 3}},
	} {
		err := snap.Unmarshal(d, c.data)
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: restore error %v, want it to mention %q", c.name, err, c.err)
		}
	}
}

// TestRestoreFailureLeavesDetectorUntouched: a restore that fails — a
// real snapshot with one trailing byte, or cut at any length — leaves
// the target's state byte-identical. Before, the trailing byte was
// reported only after the target had taken the snapshot's state.
func TestRestoreFailureLeavesDetectorUntouched(t *testing.T) {
	const n = 32
	fed := func(intervals int) *Detector {
		d := MustNew(n, DefaultConfig())
		for _, h := range histStream(n, intervals) {
			d.Observe(h)
		}
		return d
	}
	src := snap.Marshal(fed(47))
	d := fed(25)
	before := snap.Marshal(d)
	check := func(name string, data []byte) {
		t.Helper()
		if err := snap.Unmarshal(d, data); err == nil {
			t.Fatalf("%s: restore accepted", name)
		}
		if !bytes.Equal(snap.Marshal(d), before) {
			t.Fatalf("%s: failed restore changed the detector", name)
		}
	}
	check("trailing byte", append(append([]byte(nil), src...), 0))
	for cut := 0; cut < len(src); cut++ {
		check(fmt.Sprintf("cut at %d of %d", cut, len(src)), src[:cut])
	}
}

// FuzzDetectorRestore: Restore never panics, a failed restore leaves the
// detector's state byte-identical, and a restored detector keeps
// observing without panicking.
func FuzzDetectorRestore(f *testing.F) {
	const n = 32
	stream := histStream(n, 120)
	fed := func(intervals int) *Detector {
		d := MustNew(n, DefaultConfig())
		for _, h := range stream[:intervals] {
			d.Observe(h)
		}
		return d
	}
	for _, k := range []int{0, 13, 47, 120} {
		f.Add(snap.Marshal(fed(k)))
	}
	src := snap.Marshal(fed(47))
	for _, cut := range []int{len(src) / 3, len(src) / 2, len(src) - 1} {
		f.Add(src[:cut])
	}
	f.Add(append(append([]byte(nil), src...), 0))
	target := snap.Marshal(fed(25))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := MustNew(n, DefaultConfig())
		if err := snap.Unmarshal(d, target); err != nil {
			t.Fatal(err)
		}
		if err := snap.Unmarshal(d, data); err != nil {
			if !bytes.Equal(snap.Marshal(d), target) {
				t.Fatalf("failed restore (%v) changed the detector", err)
			}
			return
		}
		for _, h := range stream[25:60] {
			d.Observe(h)
		}
	})
}

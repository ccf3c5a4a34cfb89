package ingest

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"regionmon/internal/snap"
)

// fedFleet returns a 4-stream, 2-shard fleet that has processed the
// first n intervals of every stream.
func fedFleet(t testing.TB, n int) *Fleet {
	t.Helper()
	f, err := NewFleet(4, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	feedFleet(f, 0, n)
	return f
}

// feedFleet pushes intervals [from, to) of every stream and drains.
func feedFleet(f *Fleet, from, to int) {
	ov := newOverflow(24)
	for seq := from; seq < to; seq++ {
		for s := 0; s < f.NumStreams(); s++ {
			fillOverflow(ov, s, seq)
			f.PushWait(s, ov)
		}
	}
	f.Drain()
}

func mustFleetSnapshot(t testing.TB, f *Fleet) []byte {
	t.Helper()
	b, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cutByOne drops a stream snapshot's last byte.
func cutByOne(blob []byte) []byte { return blob[:len(blob)-1] }

// streamVersion1 relabels a stream snapshot version 1, the layout that
// also carried the stream's interval count.
func streamVersion1(blob []byte) []byte {
	blob[8+len(streamTag)] = 1 // the version byte after the length-prefixed tag
	return blob
}

// forgeLastStream re-encodes a fleet snapshot with a valid outer frame
// whose last stream's nested bytes are passed through forge, so that only
// the last stream's own restore can refuse it.
func forgeLastStream(t testing.TB, data []byte, forge func([]byte) []byte) []byte {
	t.Helper()
	d := snap.NewDecoder(data)
	d.Header(fleetTag, 1)
	n := d.Int()
	e := snap.NewEncoder()
	e.Header(fleetTag, 1)
	e.Int(n)
	for id := 0; id < n; id++ {
		e.U64(d.U64())
		e.U64(d.U64())
		blob := d.Bytes64()
		if id == n-1 {
			blob = forge(append([]byte(nil), blob...))
		}
		e.Bytes64(blob)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

// TestFleetRestoreFailureLeavesFleetUntouched: a fleet stages every
// stream before any commits, and sets its accepted and dropped counts
// only after the commits. Before, streams restored one at a time, so a
// forged last stream was rejected only after the first three had been
// overwritten.
func TestFleetRestoreFailureLeavesFleetUntouched(t *testing.T) {
	data := mustFleetSnapshot(t, fedFleet(t, 57))
	f := fedFleet(t, 23)
	before, stats := mustFleetSnapshot(t, f), f.Stats()
	check := func(name, wantErr string, data []byte) {
		t.Helper()
		err := f.Restore(data)
		if err == nil {
			t.Fatalf("%s: restore accepted", name)
		}
		if !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s: restore error %q, want it to mention %q", name, err, wantErr)
		}
		if !bytes.Equal(mustFleetSnapshot(t, f), before) {
			t.Fatalf("%s: failed restore changed the fleet", name)
		}
		if got := f.Stats(); got.Accepted != stats.Accepted || got.Dropped != stats.Dropped {
			t.Fatalf("%s: failed restore changed accepted/dropped to %d/%d, want %d/%d",
				name, got.Accepted, got.Dropped, stats.Accepted, stats.Dropped)
		}
	}
	check("forged last stream", "restore stream 3: snap: length", forgeLastStream(t, data, cutByOne))
	check("stream version 1", `restore stream 3: snap: component "ingest-stream" version 1, want 2`, forgeLastStream(t, data, streamVersion1))
	check("trailing byte", "trailing bytes", append(append([]byte(nil), data...), 0))
	for cut := 0; cut < len(data); cut++ {
		check(fmt.Sprintf("cut at %d of %d", cut, len(data)), "", data[:cut])
	}

	// After the refused inputs, a good snapshot still restores exactly.
	if err := f.Restore(data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustFleetSnapshot(t, f), data) {
		t.Fatal("restored fleet snapshots to different bytes")
	}
}

// FuzzFleetRestore: Restore never panics, a failed restore leaves the
// fleet's snapshot bytes and accepted/dropped counts unchanged, and a
// restored fleet keeps processing intervals. One fleet serves every
// input: each starts by restoring the same 23-interval snapshot.
func FuzzFleetRestore(f *testing.F) {
	for _, n := range []int{0, 23, 57} {
		f.Add(mustFleetSnapshot(f, fedFleet(f, n)))
	}
	src := mustFleetSnapshot(f, fedFleet(f, 57))
	for _, cut := range []int{len(src) / 3, len(src) / 2, len(src) - 1} {
		f.Add(src[:cut])
	}
	f.Add(append(append([]byte(nil), src...), 0))
	f.Add(forgeLastStream(f, src, cutByOne))
	f.Add(forgeLastStream(f, src, streamVersion1))
	fl := fedFleet(f, 23)
	base, stats := mustFleetSnapshot(f, fl), fl.Stats()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := fl.Restore(base); err != nil {
			t.Fatal(err)
		}
		if err := fl.Restore(data); err != nil {
			if !bytes.Equal(mustFleetSnapshot(t, fl), base) {
				t.Fatalf("failed restore (%v) changed the fleet", err)
			}
			if got := fl.Stats(); got.Accepted != stats.Accepted || got.Dropped != stats.Dropped {
				t.Fatalf("failed restore (%v) changed accepted/dropped", err)
			}
			return
		}
		feedFleet(fl, 23, 40)
	})
}

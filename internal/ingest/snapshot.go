package ingest

import (
	"fmt"

	"regionmon/internal/snap"
	"regionmon/internal/vhash"
)

// Snapshot and Restore checkpoint the whole fleet. The encoding is keyed
// by stream, not by shard: a snapshot taken from a 16-shard fleet restores
// into a 1-shard fleet (and vice versa), because sharding is a throughput
// topology, not stream state. Each stream contributes its verdict-digest
// sum and its pipeline's own nested snapshot, which holds the stream's
// interval count; the owner adds the producer-side accepted/dropped
// counters. Stream snapshots are version 2; version 1 is refused.
//
// Both operations ride the rings in-band (control ops per stream), so
// the captured state is exactly "after every batch pushed before the
// call" — the same cut Drain would establish — without stopping the
// workers. Restore stages every stream before any stream commits.

const (
	fleetTag  = "ingest-fleet"
	streamTag = "ingest-stream"
)

// Snapshot serializes every stream's detector stack, digest and counters.
func (f *Fleet) Snapshot() ([]byte, error) {
	e := snap.NewEncoder()
	e.Header(fleetTag, 1)
	e.Int(len(f.shardOf))
	for id := range f.shardOf {
		c := f.roundTrip(&control{op: opSnapshot, stream: id})
		if c.err != nil {
			return nil, fmt.Errorf("ingest: snapshot stream %d: %w", id, c.err)
		}
		e.U64(f.accepted[id])
		e.U64(f.dropped[id])
		e.Bytes64(c.out)
	}
	return e.Bytes(), nil
}

// Restore loads a fleet snapshot into this fleet. The stream count must
// match; the shard count need not (stream state is topology-independent).
// The fleet's streams must be built from the same configuration as the
// snapshotted ones — nested pipeline stages validate shape and reject
// mismatches. Every stream's worker stages its state before any stream
// commits, so on error the fleet, its accepted and dropped counts
// included, is untouched.
func (f *Fleet) Restore(data []byte) error {
	d := snap.NewDecoder(data)
	d.Header(fleetTag, 1)
	n := d.Int()
	if err := d.Err(); err != nil {
		return fmt.Errorf("ingest: restore: %w", err)
	}
	if n != len(f.shardOf) {
		return fmt.Errorf("ingest: snapshot has %d streams, fleet has %d", n, len(f.shardOf))
	}
	type streamState struct {
		accepted, dropped uint64
		blob              []byte
	}
	states := make([]streamState, n)
	for id := range states {
		states[id].accepted = d.U64()
		states[id].dropped = d.U64()
		states[id].blob = d.Bytes64()
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("ingest: restore: %w", err)
	}
	for id := range states {
		if c := f.roundTrip(&control{op: opStage, stream: id, data: states[id].blob}); c.err != nil {
			f.commitStaged(id, false)
			return fmt.Errorf("ingest: restore stream %d: %w", id, c.err)
		}
	}
	f.commitStaged(n, true)
	for id := range states {
		f.accepted[id] = states[id].accepted
		f.dropped[id] = states[id].dropped
	}
	return nil
}

// commitStaged applies, or discards, the staged restores of streams
// [0, n).
func (f *Fleet) commitStaged(n int, apply bool) {
	for id := 0; id < n; id++ {
		f.roundTrip(&control{op: opCommit, stream: id, apply: apply})
	}
}

// snapshot encodes one stream's worker-side state. Worker goroutine only.
func (st *stream) snapshot() ([]byte, error) {
	if st.err != nil {
		return nil, st.err
	}
	pb, err := st.pipe.Snapshot()
	if err != nil {
		return nil, err
	}
	e := snap.NewEncoder()
	e.Header(streamTag, 2)
	e.U64(st.dig.Sum())
	e.Bytes64(pb)
	return e.Bytes(), nil
}

// stage decodes and checks one stream's worker-side state, its pipeline's
// included, and returns the commit that applies it. Worker goroutine
// only.
func (st *stream) stage(data []byte) (func(), error) {
	d := snap.NewDecoder(data)
	d.Header(streamTag, 2)
	sum := d.U64()
	pb := d.Bytes64()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	commitPipe, err := st.pipe.Stage(pb)
	if err != nil {
		return nil, err
	}
	return func() {
		commitPipe()
		st.dig = vhash.Resume(sum)
		st.err = nil
	}, nil
}

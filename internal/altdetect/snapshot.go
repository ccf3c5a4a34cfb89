package altdetect

import (
	"fmt"

	"regionmon/internal/snap"
)

// Checkpointing for the related-work detectors. As with the other
// detectors, a snapshot captures mutable observation state only; Restore
// targets a detector built over the same program with the same threshold.
// The working-set signature is written as ascending block indices, so
// two snapshots of the same set are byte-identical whatever order its
// blocks were sampled in. Both restores decode and check the whole
// snapshot before touching the detector, so a failed restore leaves it as
// it was.

const (
	bbvTag = "bbv"
	wsTag  = "wset"
)

// AppendSnapshot encodes the detector's mutable state onto e.
func (d *BBV) AppendSnapshot(e *snap.Encoder) {
	e.Header(bbvTag, 1)
	e.Bool(d.hasPrev)
	e.F64s(d.prev)
	e.Int(d.changes)
	e.Int(d.total)
}

// RestoreSnapshot decodes state written by AppendSnapshot into d. The
// snapshot's vector length must match the detector's program.
func (d *BBV) RestoreSnapshot(dec *snap.Decoder) error {
	return d.restore(dec, dec.Err)
}

// Snapshot returns the detector's state as a standalone versioned byte
// snapshot.
func (d *BBV) Snapshot() []byte {
	e := snap.NewEncoder()
	d.AppendSnapshot(e)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// Restore replaces the detector's state from a Snapshot produced by a
// detector over the same program. Trailing bytes are an error.
func (d *BBV) Restore(data []byte) error {
	dec := snap.NewDecoder(data)
	return d.restore(dec, dec.Finish)
}

// restore decodes and checks a snapshot, committing it only once done
// (the decoder's Err, or Finish for a standalone snapshot) reports
// success.
func (d *BBV) restore(dec *snap.Decoder, done func() error) error {
	dec.Header(bbvTag, 1)
	hasPrev := dec.Bool()
	prev := dec.F64s()
	changes := dec.Int()
	total := dec.Int()
	if err := done(); err != nil {
		return err
	}
	if len(prev) != len(d.prev) {
		return fmt.Errorf("altdetect: BBV snapshot has %d blocks, detector has %d", len(prev), len(d.prev))
	}
	if err := checkCounts(changes, total); err != nil {
		return err
	}
	copy(d.prev, prev)
	d.hasPrev = hasPrev
	d.changes = changes
	d.total = total
	return nil
}

// AppendSnapshot encodes the detector's mutable state onto e. The previous
// working set is written as ascending block indices.
func (d *WorkingSet) AppendSnapshot(e *snap.Encoder) {
	e.Header(wsTag, 1)
	prev := make([]int, 0, len(d.prev))
	for b, in := range d.prevIn {
		if in {
			prev = append(prev, b)
		}
	}
	e.Ints(prev)
	e.Int(d.changes)
	e.Int(d.total)
}

// RestoreSnapshot decodes state written by AppendSnapshot into d.
func (d *WorkingSet) RestoreSnapshot(dec *snap.Decoder) error {
	return d.restore(dec, dec.Err)
}

// Snapshot returns the detector's state as a standalone versioned byte
// snapshot.
func (d *WorkingSet) Snapshot() []byte {
	e := snap.NewEncoder()
	d.AppendSnapshot(e)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// Restore replaces the detector's state from a Snapshot produced by a
// detector over the same program. Trailing bytes are an error.
func (d *WorkingSet) Restore(data []byte) error {
	dec := snap.NewDecoder(data)
	return d.restore(dec, dec.Finish)
}

// restore is BBV.restore for the working set.
func (d *WorkingSet) restore(dec *snap.Decoder, done func() error) error {
	dec.Header(wsTag, 1)
	prev := dec.Ints()
	changes := dec.Int()
	total := dec.Int()
	if err := done(); err != nil {
		return err
	}
	for i, b := range prev {
		if b < 0 || b >= len(d.prevIn) {
			return fmt.Errorf("altdetect: working-set snapshot block %d outside program (%d blocks)", b, len(d.prevIn))
		}
		if i > 0 && b <= prev[i-1] {
			return fmt.Errorf("altdetect: working-set snapshot blocks not strictly ascending (%d after %d)", b, prev[i-1])
		}
	}
	if err := checkCounts(changes, total); err != nil {
		return err
	}
	for _, b := range d.prev {
		d.prevIn[b] = false
	}
	d.prev = append(d.prev[:0], prev...)
	for _, b := range prev {
		d.prevIn[b] = true
	}
	d.changes = changes
	d.total = total
	return nil
}

// checkCounts rejects change/interval counters no run can produce.
func checkCounts(changes, total int) error {
	if changes < 0 || total < 0 || changes > total {
		return fmt.Errorf("altdetect: snapshot counts %d changes over %d intervals", changes, total)
	}
	return nil
}

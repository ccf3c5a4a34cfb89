package altdetect

import (
	"fmt"

	"regionmon/internal/snap"
)

// Checkpointing for the related-work detectors. As with the other
// detectors, a snapshot captures mutable observation state only; a
// restore targets a detector built over the same program with the same
// threshold. The working-set signature is written as ascending block
// indices, so two snapshots of the same set are byte-identical whatever
// order its blocks were sampled in.

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

// StageSnapshot decodes and checks state written by AppendSnapshot and
// returns a commit that applies it; d is untouched until then. The
// snapshot's vector length must match the detector's program.
func (d *BBV) StageSnapshot(dec *snap.Decoder) (func(), error) {
	dec.Header(bbvTag, 1)
	hasPrev := dec.Bool()
	prev := dec.F64s()
	changes := dec.Int()
	total := dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if len(prev) != len(d.prev) {
		return nil, fmt.Errorf("altdetect: BBV snapshot has %d blocks, detector has %d", len(prev), len(d.prev))
	}
	if err := checkCounts(changes, total); err != nil {
		return nil, err
	}
	return func() {
		copy(d.prev, prev)
		d.hasPrev = hasPrev
		d.changes = changes
		d.total = total
	}, nil
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

// StageSnapshot is BBV.StageSnapshot for the working set.
func (d *WorkingSet) StageSnapshot(dec *snap.Decoder) (func(), error) {
	dec.Header(wsTag, 1)
	prev := dec.Ints()
	changes := dec.Int()
	total := dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	for i, b := range prev {
		if b < 0 || b >= len(d.prevIn) {
			return nil, fmt.Errorf("altdetect: working-set snapshot block %d outside program (%d blocks)", b, len(d.prevIn))
		}
		if i > 0 && b <= prev[i-1] {
			return nil, fmt.Errorf("altdetect: working-set snapshot blocks not strictly ascending (%d after %d)", b, prev[i-1])
		}
	}
	if err := checkCounts(changes, total); err != nil {
		return nil, err
	}
	return func() {
		for _, b := range d.prev {
			d.prevIn[b] = false
		}
		d.prev = append(d.prev[:0], prev...)
		for _, b := range prev {
			d.prevIn[b] = true
		}
		d.changes = changes
		d.total = total
	}, nil
}

// checkCounts rejects change/interval counters no run can produce.
func checkCounts(changes, total int) error {
	if changes < 0 || total < 0 || changes > total {
		return fmt.Errorf("altdetect: snapshot counts %d changes over %d intervals", changes, total)
	}
	return nil
}

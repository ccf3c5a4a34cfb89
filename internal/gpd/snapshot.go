package gpd

import (
	"fmt"

	"regionmon/internal/snap"
)

// Detector and PerfTracker checkpointing. Snapshots capture the mutable
// observation state — the centroid/metric window (including its exact
// incremental sums, so band comparisons replay bit-for-bit), the state
// machine position, the stability timer and the counters — but not the
// configuration: a restore targets a detector constructed with the same
// Config, and a resumed detector then produces a byte-identical verdict
// stream for the same subsequent inputs.

const (
	detectorTag = "gpd"
	perfTag     = "gpdperf"
)

// AppendSnapshot encodes the detector's mutable state onto e.
func (d *Detector) AppendSnapshot(e *snap.Encoder) {
	e.Header(detectorTag, 1)
	e.Int(int(d.state))
	e.Int(d.timer)
	e.Int(d.changes)
	e.Int(d.stable)
	e.Int(d.total)
	d.hist.AppendSnapshot(e)
}

// StageSnapshot decodes and checks state written by AppendSnapshot and
// returns a commit that applies it; d is untouched until then. The
// snapshot's history capacity must match the detector's HistorySize.
func (d *Detector) StageSnapshot(dec *snap.Decoder) (func(), error) {
	dec.Header(detectorTag, 1)
	state := State(dec.Int())
	timer := dec.Int()
	changes := dec.Int()
	stable := dec.Int()
	total := dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	switch state {
	case Unstable, LessStable, Stable:
	default:
		return nil, fmt.Errorf("gpd: snapshot has invalid state %d", int(state))
	}
	commitHist, err := d.hist.StageSnapshot(dec)
	if err != nil {
		return nil, err
	}
	return func() {
		commitHist()
		d.state = state
		d.timer = timer
		d.changes = changes
		d.stable = stable
		d.total = total
	}, nil
}

// AppendSnapshot encodes the tracker's mutable state onto e.
func (p *PerfTracker) AppendSnapshot(e *snap.Encoder) {
	e.Header(perfTag, 1)
	e.Int(p.changes)
	e.Int(p.total)
	p.hist.AppendSnapshot(e)
}

// StageSnapshot is Detector.StageSnapshot for the tracker.
func (p *PerfTracker) StageSnapshot(dec *snap.Decoder) (func(), error) {
	dec.Header(perfTag, 1)
	changes := dec.Int()
	total := dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	commitHist, err := p.hist.StageSnapshot(dec)
	if err != nil {
		return nil, err
	}
	return func() {
		commitHist()
		p.changes = changes
		p.total = total
	}, nil
}

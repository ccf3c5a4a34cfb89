package changepoint

import (
	"fmt"

	"regionmon/internal/snap"
	"regionmon/internal/stats"
)

// Detector checkpointing. A snapshot captures the mutable observation
// state — the metric window ring (with its exact accounting) and the
// change bookkeeping — but not the configuration: a restore targets a
// detector constructed with the same Config, and a resumed detector then
// produces a byte-identical verdict stream for the same subsequent
// inputs (evaluation cadence is derived from the ring's absolute
// observation count, which the ring snapshot carries).

const detectorTag = "chgpt"

// AppendSnapshot encodes the detector's mutable state onto e.
func (d *Detector) AppendSnapshot(e *snap.Encoder) {
	e.Header(detectorTag, 1)
	e.I64(d.lastChange)
	e.Int(d.changes)
	d.hist.AppendSnapshot(e)
}

// StageSnapshot decodes and checks state written by AppendSnapshot and
// returns a commit that applies it; d is untouched until then. The
// snapshot's window capacity must match the detector's Window. The ring
// is staged into a fresh series, whose observation count bounds the
// last change.
func (d *Detector) StageSnapshot(dec *snap.Decoder) (func(), error) {
	dec.Header(detectorTag, 1)
	lastChange := dec.I64()
	changes := dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if changes < 0 {
		return nil, fmt.Errorf("changepoint: snapshot has negative change count %d", changes)
	}
	hist := stats.NewSeries(d.cfg.Window)
	commitHist, err := hist.StageSnapshot(dec)
	if err != nil {
		return nil, err
	}
	commitHist()
	if lastChange < -1 || lastChange >= hist.Total() {
		return nil, fmt.Errorf("changepoint: snapshot's last change %d outside its %d observations", lastChange, hist.Total())
	}
	return func() {
		d.hist = hist
		d.lastChange = lastChange
		d.changes = changes
	}, nil
}

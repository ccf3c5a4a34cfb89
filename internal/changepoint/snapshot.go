package changepoint

import (
	"fmt"

	"regionmon/internal/snap"
	"regionmon/internal/stats"
)

// Detector checkpointing. A snapshot captures the mutable observation
// state — the observation count, the metric window ring (with its exact
// sums) and the change bookkeeping — but not the configuration: a
// restore targets a detector constructed with the same Config, and a
// resumed detector then produces a byte-identical verdict stream for the
// same subsequent inputs (evaluation cadence is derived from the absolute
// observation count). Version 1 carried a history ring that counted the
// observations itself; it is refused.

const detectorTag = "chgpt"

// AppendSnapshot encodes the detector's mutable state onto e.
func (d *Detector) AppendSnapshot(e *snap.Encoder) {
	e.Header(detectorTag, 2)
	e.I64(d.count)
	e.I64(d.lastChange)
	e.Int(d.changes)
	d.hist.AppendSnapshot(e)
}

// StageSnapshot decodes and checks state written by AppendSnapshot and
// returns a commit that applies it; d is untouched until then. The
// snapshot's window capacity must match the detector's Window, the
// window must hold the last min(count, Window) observations, and the last
// change must fall before the count. The ring is staged into a fresh
// window, which the commit swaps in.
func (d *Detector) StageSnapshot(dec *snap.Decoder) (func(), error) {
	dec.Header(detectorTag, 2)
	count := dec.I64()
	lastChange := dec.I64()
	changes := dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, fmt.Errorf("changepoint: snapshot has negative observation count %d", count)
	}
	if changes < 0 {
		return nil, fmt.Errorf("changepoint: snapshot has negative change count %d", changes)
	}
	if lastChange < -1 || lastChange >= count {
		return nil, fmt.Errorf("changepoint: snapshot's last change %d outside its %d observations", lastChange, count)
	}
	hist := stats.NewWindow(d.cfg.Window)
	commitHist, err := hist.StageSnapshot(dec)
	if err != nil {
		return nil, err
	}
	commitHist()
	if want := min(count, int64(d.cfg.Window)); int64(hist.Len()) != want {
		return nil, fmt.Errorf("changepoint: snapshot window holds %d values, want %d after %d observations", hist.Len(), want, count)
	}
	return func() {
		d.hist = hist
		d.count = count
		d.lastChange = lastChange
		d.changes = changes
	}, nil
}

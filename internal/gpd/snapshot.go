package gpd

import (
	"fmt"

	"regionmon/internal/snap"
	"regionmon/internal/stats"
)

// Detector and PerfTracker checkpointing. Snapshots capture the mutable
// observation state — the centroid/metric window (including its exact
// incremental sums, so band comparisons replay bit-for-bit), the state
// machine position, the stability timer and the counters — but not the
// configuration: Restore targets a detector constructed with the same
// Config, and a resumed detector then produces a byte-identical verdict
// stream for the same subsequent inputs. Both restores decode into a
// fresh window and commit only after the whole snapshot checks out, so a
// failed restore leaves the target as it was.

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

// RestoreSnapshot decodes state written by AppendSnapshot into d. The
// snapshot's history capacity must match the detector's HistorySize.
func (d *Detector) RestoreSnapshot(dec *snap.Decoder) error {
	return d.restore(dec, dec.Err)
}

// restore decodes and checks a snapshot, committing it only once done
// (the decoder's Err, or Finish for a standalone snapshot) reports
// success.
func (d *Detector) restore(dec *snap.Decoder, done func() error) error {
	dec.Header(detectorTag, 1)
	state := State(dec.Int())
	timer := dec.Int()
	changes := dec.Int()
	stable := dec.Int()
	total := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	switch state {
	case Unstable, LessStable, Stable:
	default:
		return fmt.Errorf("gpd: snapshot has invalid state %d", int(state))
	}
	hist := stats.NewWindow(d.cfg.HistorySize)
	if err := hist.RestoreSnapshot(dec); err != nil {
		return err
	}
	if err := done(); err != nil {
		return err
	}
	d.hist = hist
	d.state = state
	d.timer = timer
	d.changes = changes
	d.stable = stable
	d.total = total
	return nil
}

// Snapshot returns the detector's state as a standalone versioned byte
// snapshot.
func (d *Detector) Snapshot() []byte {
	e := snap.NewEncoder()
	d.AppendSnapshot(e)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// Restore replaces the detector's state from a Snapshot produced by a
// detector with the same configuration. Trailing bytes are an error.
func (d *Detector) Restore(data []byte) error {
	dec := snap.NewDecoder(data)
	return d.restore(dec, dec.Finish)
}

// AppendSnapshot encodes the tracker's mutable state onto e.
func (p *PerfTracker) AppendSnapshot(e *snap.Encoder) {
	e.Header(perfTag, 1)
	e.Int(p.changes)
	e.Int(p.total)
	p.hist.AppendSnapshot(e)
}

// RestoreSnapshot decodes state written by AppendSnapshot into p.
func (p *PerfTracker) RestoreSnapshot(dec *snap.Decoder) error {
	return p.restore(dec, dec.Err)
}

// restore is Detector.restore for the tracker.
func (p *PerfTracker) restore(dec *snap.Decoder, done func() error) error {
	dec.Header(perfTag, 1)
	changes := dec.Int()
	total := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	hist := stats.NewWindow(p.cfg.HistorySize)
	if err := hist.RestoreSnapshot(dec); err != nil {
		return err
	}
	if err := done(); err != nil {
		return err
	}
	p.hist = hist
	p.changes = changes
	p.total = total
	return nil
}

// Snapshot returns the tracker's state as a standalone versioned byte
// snapshot.
func (p *PerfTracker) Snapshot() []byte {
	e := snap.NewEncoder()
	p.AppendSnapshot(e)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// Restore replaces the tracker's state from a Snapshot produced by a
// tracker with the same configuration. Trailing bytes are an error.
func (p *PerfTracker) Restore(data []byte) error {
	dec := snap.NewDecoder(data)
	return p.restore(dec, dec.Finish)
}

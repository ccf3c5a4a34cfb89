package pipeline

// Pipeline checkpointing. A pipeline snapshot nests one component
// snapshot per registered detector (in registration order, keyed by
// registered name) plus the pipeline's own aggregate counters, so an
// entire monitoring stack checkpoints through a single Snapshot call and
// resumes mid-stream with a byte-identical subsequent verdict stream.
//
// Restore targets a pipeline with the same detectors registered in the
// same order over the same program; the executor/hpm side of a run is
// deliberately not captured (resuming a stream means re-attaching the
// restored stack to the live sample source — see the System facade).

import (
	"fmt"

	"regionmon/internal/gpd"
	"regionmon/internal/region"
	"regionmon/internal/snap"
)

// Snapshotter is implemented by detectors (and adapters) that support
// checkpointing. AppendSnapshot encodes the component's mutable state;
// RestoreSnapshot decodes it back into an identically configured
// component.
type Snapshotter interface {
	AppendSnapshot(e *snap.Encoder) error
	RestoreSnapshot(d *snap.Decoder) error
}

const pipelineTag = "pipeline"

// Snapshot serializes the pipeline and every registered detector to a
// versioned, deterministic byte form. It fails if any registered detector
// does not implement Snapshotter.
func (p *Pipeline) Snapshot() ([]byte, error) {
	e := snap.NewEncoder()
	e.Header(pipelineTag, 1)
	e.Int(p.intervals)
	e.Int(len(p.dets))
	for i, d := range p.dets {
		s, ok := d.(Snapshotter)
		if !ok {
			return nil, fmt.Errorf("pipeline: detector %q (%T) does not support snapshotting", d.Name(), d)
		}
		e.String(d.Name())
		st := p.stats[i]
		e.Int(st.Intervals)
		e.Int(st.StableIntervals)
		e.Int(st.PhaseChanges)
		if err := s.AppendSnapshot(e); err != nil {
			return nil, fmt.Errorf("pipeline: snapshotting detector %q: %w", d.Name(), err)
		}
	}
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

// Restore replaces the pipeline's state (and every registered detector's)
// from a Snapshot. The pipeline must have the same detectors registered
// in the same order as the snapshotted one.
func (p *Pipeline) Restore(data []byte) error {
	d := snap.NewDecoder(data)
	d.Header(pipelineTag, 1)
	intervals := d.Int()
	count := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if count != len(p.dets) {
		return fmt.Errorf("pipeline: snapshot has %d detectors, pipeline has %d", count, len(p.dets))
	}
	stats := make([]DetectorStats, count)
	for i, det := range p.dets {
		name := d.String()
		stats[i].Intervals = d.Int()
		stats[i].StableIntervals = d.Int()
		stats[i].PhaseChanges = d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if name != det.Name() {
			return fmt.Errorf("pipeline: snapshot detector %d is %q, pipeline has %q", i, name, det.Name())
		}
		s, ok := det.(Snapshotter)
		if !ok {
			return fmt.Errorf("pipeline: detector %q (%T) does not support snapshotting", det.Name(), det)
		}
		if err := s.RestoreSnapshot(d); err != nil {
			return fmt.Errorf("pipeline: restoring detector %q: %w", name, err)
		}
	}
	if err := d.Finish(); err != nil {
		return err
	}
	p.intervals = intervals
	copy(p.stats, stats)
	return nil
}

// Adapter snapshots. Each adapter nests its wrapped detector's snapshot
// and its own last-verdict/accumulator state, so a restored adapter is
// indistinguishable from the uninterrupted one from the next interval on.

const (
	gpdAdapterTag   = "a-gpd"
	rmonAdapterTag  = "a-regions"
	altAdapterTag   = "a-alt"
	perfAdapterTag  = "a-perf"
	chgptAdapterTag = "a-chgpt"
)

// AppendSnapshot implements Snapshotter.
func (g *GPD) AppendSnapshot(e *snap.Encoder) error {
	e.Header(gpdAdapterTag, 1)
	g.det.AppendSnapshot(e)
	e.Int(int(g.last.State))
	e.Int(int(g.last.Prev))
	e.Bool(g.last.PhaseChange)
	e.Bool(g.last.Drastic)
	e.F64(g.last.Centroid)
	e.F64(g.last.Delta)
	e.F64(g.last.BandLow)
	e.F64(g.last.BandHigh)
	return nil
}

// RestoreSnapshot implements Snapshotter.
func (g *GPD) RestoreSnapshot(d *snap.Decoder) error {
	d.Header(gpdAdapterTag, 1)
	if err := g.det.RestoreSnapshot(d); err != nil {
		return err
	}
	g.last.State = gpd.State(d.Int())
	g.last.Prev = gpd.State(d.Int())
	g.last.PhaseChange = d.Bool()
	g.last.Drastic = d.Bool()
	g.last.Centroid = d.F64()
	g.last.Delta = d.F64()
	g.last.BandLow = d.F64()
	g.last.BandHigh = d.F64()
	return d.Err()
}

// AppendSnapshot implements Snapshotter. The last Report is not captured
// (it aliases monitor-owned scratch and is overwritten on the next
// interval); Last() is zero on a restored adapter until then.
func (r *RegionMonitor) AppendSnapshot(e *snap.Encoder) error {
	e.Header(rmonAdapterTag, 1)
	r.mon.AppendSnapshot(e)
	e.F64(r.stableW)
	e.F64(r.totalW)
	return nil
}

// RestoreSnapshot implements Snapshotter.
func (r *RegionMonitor) RestoreSnapshot(d *snap.Decoder) error {
	d.Header(rmonAdapterTag, 1)
	if err := r.mon.RestoreSnapshot(d); err != nil {
		return err
	}
	r.stableW = d.F64()
	r.totalW = d.F64()
	r.last = region.Report{}
	return d.Err()
}

// AppendSnapshot implements Snapshotter.
func (a *Alt) AppendSnapshot(e *snap.Encoder) error {
	e.Header(altAdapterTag, 1)
	a.det.AppendSnapshot(e)
	e.F64(a.last.Similarity)
	e.Bool(a.last.Changed)
	e.Int(a.last.Blocks)
	return nil
}

// RestoreSnapshot implements Snapshotter.
func (a *Alt) RestoreSnapshot(d *snap.Decoder) error {
	d.Header(altAdapterTag, 1)
	if err := a.det.RestoreSnapshot(d); err != nil {
		return err
	}
	a.last.Similarity = d.F64()
	a.last.Changed = d.Bool()
	a.last.Blocks = d.Int()
	return d.Err()
}

// AppendSnapshot implements Snapshotter.
func (p *Perf) AppendSnapshot(e *snap.Encoder) error {
	e.Header(perfAdapterTag, 1)
	p.tr.AppendSnapshot(e)
	e.F64(p.last.Value)
	e.F64(p.last.Mean)
	e.F64(p.last.SD)
	e.F64(p.last.Delta)
	e.Bool(p.last.Changed)
	return nil
}

// RestoreSnapshot implements Snapshotter.
func (p *Perf) RestoreSnapshot(d *snap.Decoder) error {
	d.Header(perfAdapterTag, 1)
	if err := p.tr.RestoreSnapshot(d); err != nil {
		return err
	}
	p.last.Value = d.F64()
	p.last.Mean = d.F64()
	p.last.SD = d.F64()
	p.last.Delta = d.F64()
	p.last.Changed = d.Bool()
	return d.Err()
}

// AppendSnapshot implements Snapshotter.
func (c *ChangePoint) AppendSnapshot(e *snap.Encoder) error {
	e.Header(chgptAdapterTag, 1)
	c.det.AppendSnapshot(e)
	e.F64(c.last.Value)
	e.Bool(c.last.Evaluated)
	e.Bool(c.last.Changed)
	e.I64(c.last.ChangeAt)
	e.F64(c.last.Stat)
	e.F64(c.last.PValue)
	return nil
}

// RestoreSnapshot implements Snapshotter.
func (c *ChangePoint) RestoreSnapshot(d *snap.Decoder) error {
	d.Header(chgptAdapterTag, 1)
	if err := c.det.RestoreSnapshot(d); err != nil {
		return err
	}
	c.last.Value = d.F64()
	c.last.Evaluated = d.Bool()
	c.last.Changed = d.Bool()
	c.last.ChangeAt = d.I64()
	c.last.Stat = d.F64()
	c.last.PValue = d.F64()
	return d.Err()
}

// Interface conformance for every built-in adapter.
var (
	_ Snapshotter = (*GPD)(nil)
	_ Snapshotter = (*RegionMonitor)(nil)
	_ Snapshotter = (*Alt)(nil)
	_ Snapshotter = (*Perf)(nil)
	_ Snapshotter = (*ChangePoint)(nil)
)

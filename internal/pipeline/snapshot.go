package pipeline

// Pipeline checkpointing. A pipeline snapshot (version 2) is the
// pipeline's interval count followed by one component snapshot per
// registered detector, in registration order and keyed by registered
// name, so an entire monitoring stack checkpoints through a single
// Snapshot call and resumes mid-stream with a byte-identical subsequent
// verdict stream.
//
// Restore targets a pipeline with the same detectors registered in the
// same order over the same program; the executor/hpm side of a run is
// deliberately not captured (resuming a stream means re-attaching the
// restored stack to the live sample source — see the System facade).

import (
	"fmt"

	"regionmon/internal/snap"
)

const pipelineTag = "pipeline"

// Snapshot serializes the pipeline and every registered detector to a
// versioned, deterministic byte form. It fails if any registered detector
// does not implement snap.Snapshotter.
func (p *Pipeline) Snapshot() ([]byte, error) {
	e := snap.NewEncoder()
	e.Header(pipelineTag, 2)
	e.Int(p.intervals)
	e.Int(len(p.dets))
	for _, d := range p.dets {
		s, ok := d.(snap.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("pipeline: detector %q (%T) does not support snapshotting", d.Name(), d)
		}
		e.String(d.Name())
		s.AppendSnapshot(e)
	}
	return e.Bytes(), nil
}

// Stage decodes and checks a Snapshot — every registered detector's part
// of it, and that no bytes trail — without changing the pipeline, and
// returns a commit that applies it. The pipeline must have the same
// detectors registered in the same order as the snapshotted one.
func (p *Pipeline) Stage(data []byte) (commit func(), err error) {
	d := snap.NewDecoder(data)
	d.Header(pipelineTag, 2)
	intervals := d.Int()
	count := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if count != len(p.dets) {
		return nil, fmt.Errorf("pipeline: snapshot has %d detectors, pipeline has %d", count, len(p.dets))
	}
	commits := make([]func(), count)
	for i, det := range p.dets {
		name := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if name != det.Name() {
			return nil, fmt.Errorf("pipeline: snapshot detector %d is %q, pipeline has %q", i, name, det.Name())
		}
		s, ok := det.(snap.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("pipeline: detector %q (%T) does not support snapshotting", det.Name(), det)
		}
		if commits[i], err = s.StageSnapshot(d); err != nil {
			return nil, fmt.Errorf("pipeline: restoring detector %q: %w", name, err)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return func() {
		for _, c := range commits {
			c()
		}
		p.intervals = intervals
	}, nil
}

// Restore replaces the pipeline's state (and every registered detector's)
// from a Snapshot. On error nothing changes.
func (p *Pipeline) Restore(data []byte) error {
	commit, err := p.Stage(data)
	if err != nil {
		return err
	}
	commit()
	return nil
}

// Adapter snapshots. An adapter's last verdict is payload storage that
// the next interval overwrites before any consumer reads it, so it is not
// state: GPD, Alt, Perf and ChangePoint snapshot exactly their wrapped
// detector. RegionMonitor adds its whole-run weighted accumulators.

const rmonAdapterTag = "a-regions"

// AppendSnapshot implements snap.Snapshotter.
func (g *GPD) AppendSnapshot(e *snap.Encoder) { g.det.AppendSnapshot(e) }

// StageSnapshot implements snap.Snapshotter.
func (g *GPD) StageSnapshot(d *snap.Decoder) (func(), error) { return g.det.StageSnapshot(d) }

// AppendSnapshot implements snap.Snapshotter.
func (r *RegionMonitor) AppendSnapshot(e *snap.Encoder) {
	e.Header(rmonAdapterTag, 1)
	r.mon.AppendSnapshot(e)
	e.F64(r.stableW)
	e.F64(r.totalW)
}

// StageSnapshot implements snap.Snapshotter.
func (r *RegionMonitor) StageSnapshot(d *snap.Decoder) (func(), error) {
	d.Header(rmonAdapterTag, 1)
	commitMon, err := r.mon.StageSnapshot(d)
	if err != nil {
		return nil, err
	}
	stableW := d.F64()
	totalW := d.F64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return func() {
		commitMon()
		r.stableW = stableW
		r.totalW = totalW
	}, nil
}

// AppendSnapshot implements snap.Snapshotter.
func (a *Alt) AppendSnapshot(e *snap.Encoder) { a.det.AppendSnapshot(e) }

// StageSnapshot implements snap.Snapshotter.
func (a *Alt) StageSnapshot(d *snap.Decoder) (func(), error) { return a.det.StageSnapshot(d) }

// AppendSnapshot implements snap.Snapshotter.
func (p *Perf) AppendSnapshot(e *snap.Encoder) { p.tr.AppendSnapshot(e) }

// StageSnapshot implements snap.Snapshotter.
func (p *Perf) StageSnapshot(d *snap.Decoder) (func(), error) { return p.tr.StageSnapshot(d) }

// AppendSnapshot implements snap.Snapshotter.
func (c *ChangePoint) AppendSnapshot(e *snap.Encoder) { c.det.AppendSnapshot(e) }

// StageSnapshot implements snap.Snapshotter.
func (c *ChangePoint) StageSnapshot(d *snap.Decoder) (func(), error) { return c.det.StageSnapshot(d) }

// Interface conformance for every built-in adapter.
var (
	_ snap.Snapshotter = (*GPD)(nil)
	_ snap.Snapshotter = (*RegionMonitor)(nil)
	_ snap.Snapshotter = (*Alt)(nil)
	_ snap.Snapshotter = (*Perf)(nil)
	_ snap.Snapshotter = (*ChangePoint)(nil)
)

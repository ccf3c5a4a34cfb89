// Package pipeline decouples the sample stream from the phase detectors
// observing it — the architectural move at the heart of the paper: the
// hardware monitor produces one overflow delivery per sampling interval,
// and any number of detectors (the centroid GPD baseline, the region
// monitor with per-region LPD, the Section 4 related-work schemes,
// performance-characteristic trackers) consume that same stream side by
// side.
//
// The pieces:
//
//   - PhaseDetector is the common detector interface: one ObserveInterval
//     call per overflow delivery, returning a unified Verdict (stable or
//     not, stable-boundary crossing or not, plus the detector-specific
//     payload for consumers that want the full story).
//   - Pipeline fans each overflow out to every registered detector in
//     registration order and merges the verdicts into one IntervalReport.
//     ObserveBatch is the batch-first entry consuming a whole run of
//     intervals per call (the ingest fleet's worker loop drains ring runs
//     straight into it); ProcessOverflow is its per-item wrapper.
//   - Observers hook the merged report; any number may be attached, and
//     the pipeline additionally maintains per-detector aggregate counters
//     (DetectorStats) so consumers do not each re-derive interval, stable
//     and phase-change totals.
//
// A Pipeline is single-owner: one goroutine drives ProcessOverflow, in
// step with the monitor that produced the overflow. Scaling across cores
// happens one level up — many independent (executor, monitor, pipeline)
// stacks run in parallel (see internal/experiments' sweep runner) — not by
// sharing one pipeline between goroutines.
package pipeline

import (
	"fmt"

	"regionmon/internal/hpm"
)

// Verdict is the unified per-interval event a detector emits: the common
// fields every consumer needs (stability, transition) plus the
// detector-specific payload for those that need more.
type Verdict struct {
	// Detector is the emitting detector's registered name.
	Detector string
	// Stable reports the detector's post-observation judgement: the
	// behaviour it watches is in a stable phase.
	Stable bool
	// PhaseChange reports a crossing of the stable boundary in either
	// direction this interval (the dotted transitions of the paper's
	// state diagrams).
	PhaseChange bool
	// Payload carries the detector-specific verdict: *gpd.Verdict,
	// *region.Report, *altdetect.Verdict or *gpd.PerfVerdict for the
	// built-in adapters. The pointee is owned by the detector and is
	// valid only until its next ObserveInterval call; consumers that
	// retain it must copy.
	Payload any
}

// PhaseDetector observes one sampling interval per call and renders a
// unified verdict. Implementations are single-owner (not safe for
// concurrent use) like every other per-run component; the pipeline calls
// ObserveInterval exactly once per overflow delivery, in registration
// order.
type PhaseDetector interface {
	// Name identifies the detector within its pipeline (unique per
	// pipeline, e.g. "gpd", "regions", "bbv").
	Name() string
	// ObserveInterval consumes one overflow delivery. The overflow's
	// sample slice is only valid for the duration of the call (the
	// monitor reuses the backing array).
	ObserveInterval(ov *hpm.Overflow) Verdict
}

// DetectorStats aggregates one detector's whole-run counters, maintained
// by the pipeline so observers need not re-derive them.
type DetectorStats struct {
	// Intervals is the number of intervals observed.
	Intervals int
	// StableIntervals counts intervals judged stable.
	StableIntervals int
	// PhaseChanges counts stable-boundary crossings (both directions).
	PhaseChanges int
}

// StableFraction returns the fraction of observed intervals judged stable.
func (s DetectorStats) StableFraction() float64 {
	if s.Intervals == 0 {
		return 0
	}
	return float64(s.StableIntervals) / float64(s.Intervals)
}

// IntervalReport is the merged delivery for one sampling interval: every
// registered detector's verdict, in registration order. The report and
// its Verdicts slice are reused across intervals — they are valid only
// for the duration of the observer callbacks (the same lifetime rule as
// hpm.Overflow.Samples); observers that retain data must copy it.
type IntervalReport struct {
	// Seq is the overflow sequence number.
	Seq int
	// Cycle is the absolute cycle at the end of the interval.
	Cycle uint64
	// Verdicts holds one entry per registered detector.
	Verdicts []Verdict //lint:bounded -- reset per interval; one entry per detector
}

// Verdict returns the named detector's verdict in this report, or nil.
func (r *IntervalReport) Verdict(name string) *Verdict {
	for i := range r.Verdicts {
		if r.Verdicts[i].Detector == name {
			return &r.Verdicts[i]
		}
	}
	return nil
}

// Observer is a per-interval hook receiving the merged report.
type Observer func(*IntervalReport)

// Pipeline fans one overflow stream out to N registered detectors and
// delivers the merged IntervalReport to its observers. Single-owner; see
// the package comment for the concurrency contract.
//
//lint:single-owner
type Pipeline struct {
	dets      []PhaseDetector
	stats     []DetectorStats
	byName    map[string]int   //lint:config -- derived from dets at construction
	observers []Observer       //lint:config -- wiring, not observation state
	rep       IntervalReport   //lint:config -- per-interval scratch, reused across intervals
	one       [1]*hpm.Overflow //lint:config -- scratch backing the per-item ProcessOverflow wrapper
	intervals int
}

// New returns an empty pipeline.
func New() *Pipeline {
	return &Pipeline{byName: make(map[string]int)}
}

// Register attaches a detector to the fan-out. Names must be non-empty
// and unique within the pipeline; detectors observe in registration
// order. Registering mid-stream is allowed (the detector simply misses
// the earlier intervals).
func (p *Pipeline) Register(d PhaseDetector) error {
	if d == nil {
		return fmt.Errorf("pipeline: nil detector")
	}
	name := d.Name()
	if name == "" {
		return fmt.Errorf("pipeline: detector has empty name")
	}
	if _, dup := p.byName[name]; dup {
		return fmt.Errorf("pipeline: detector %q already registered", name)
	}
	p.byName[name] = len(p.dets)
	p.dets = append(p.dets, d)
	p.stats = append(p.stats, DetectorStats{})
	return nil
}

// MustRegister is Register, panicking on error (registration errors are
// programming mistakes: duplicate or empty names).
func (p *Pipeline) MustRegister(d PhaseDetector) {
	if err := p.Register(d); err != nil {
		panic(err)
	}
}

// Detectors returns the registered detectors in registration order (the
// returned slice is shared; do not modify).
func (p *Pipeline) Detectors() []PhaseDetector { return p.dets }

// Detector returns the registered detector with the given name, or nil.
func (p *Pipeline) Detector(name string) PhaseDetector {
	if i, ok := p.byName[name]; ok {
		return p.dets[i]
	}
	return nil
}

// AddObserver attaches a per-interval hook and returns its slot, the
// count of observers attached before it. Observers run after every
// detector has observed the interval, in attachment order.
func (p *Pipeline) AddObserver(fn Observer) int {
	p.observers = append(p.observers, fn)
	return len(p.observers) - 1
}

// Stats returns the named detector's aggregate counters (zero value for
// an unknown name).
func (p *Pipeline) Stats(name string) DetectorStats {
	if i, ok := p.byName[name]; ok {
		return p.stats[i]
	}
	return DetectorStats{}
}

// Intervals returns the number of overflow deliveries processed.
func (p *Pipeline) Intervals() int { return p.intervals }

// Handler returns ProcessOverflow shaped as an hpm overflow callback,
// for passing straight to hpm.New.
func (p *Pipeline) Handler() func(*hpm.Overflow) {
	return func(ov *hpm.Overflow) { p.ProcessOverflow(ov) }
}

// ProcessOverflow runs one sampling interval through every registered
// detector and delivers the merged report to the observers. Per-item
// wrapper over the ObserveBatch core. The returned report is reused
// across calls (see IntervalReport's lifetime rule). It is the natural
// hpm overflow callback:
//
//	mon, _ := hpm.New(cfg, func(ov *hpm.Overflow) { pipe.ProcessOverflow(ov) })
func (p *Pipeline) ProcessOverflow(ov *hpm.Overflow) *IntervalReport {
	p.one[0] = ov
	p.ObserveBatch(p.one[:])
	return &p.rep
}

// ObserveBatch runs a run of sampling intervals through the fan-out in
// one call — the batch-first entry the ingest worker drains ring runs
// into. The per-interval contract is exactly ProcessOverflow's, interval
// by interval: for each overflow, every detector observes it in
// registration order, then the observers receive the merged report, and
// only then does the next interval start. That interleaving is forced by
// the payload lifetime rule (a detector's verdict payload is only valid
// until its next ObserveInterval call), and it is what makes the batched
// and per-item paths verdict-stream byte-identical. What the batch entry
// amortizes is everything around that core: one call dispatch, one
// intervals-counter update, and one report/stats setup per batch instead
// of per interval — plus, upstream, the ring reserve/publish/wake the
// ingest layer pays once per batch.
//
// Every overflow in ovs (and the report delivered to observers) follows
// the usual lifetime rule: valid only until the call returns.
func (p *Pipeline) ObserveBatch(ovs []*hpm.Overflow) {
	p.intervals += len(ovs)
	for _, ov := range ovs {
		p.rep.Seq = ov.Seq
		p.rep.Cycle = ov.Cycle
		p.rep.Verdicts = p.rep.Verdicts[:0]
		for i, d := range p.dets {
			v := d.ObserveInterval(ov)
			p.rep.Verdicts = append(p.rep.Verdicts, v)
			st := &p.stats[i]
			st.Intervals++
			if v.Stable {
				st.StableIntervals++
			}
			if v.PhaseChange {
				st.PhaseChanges++
			}
		}
		for _, fn := range p.observers {
			fn(&p.rep)
		}
	}
}

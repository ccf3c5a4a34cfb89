package pipeline

// Adapters wrapping each of the repo's detector families behind the
// PhaseDetector interface. Each adapter owns whatever scratch state its
// detector needs per interval (last-verdict storage) and reuses it
// across intervals, so the fan-out adds no per-interval allocations to
// the monitoring hot path. Verdict payloads point into that reused
// storage — valid until the adapter's next ObserveInterval.

import (
	"regionmon/internal/altdetect"
	"regionmon/internal/changepoint"
	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/lpd"
	"regionmon/internal/region"
	"regionmon/internal/snap"
)

// The names the adapters register under. NewPerf alone takes a name of
// the caller's; NewCPI and NewDPI pass it NameCPI and NameDPI.
const (
	NameGPD         = "gpd"
	NameRegions     = "regions"
	NameBBV         = "bbv"
	NameWorkingSet  = "working-set"
	NameCPI         = "cpi"
	NameDPI         = "dpi"
	NameChangePoint = "changepoint"
)

// GPD adapts the centroid-based global detector. Payload: *gpd.Verdict.
//
//lint:single-owner
type GPD struct {
	det  *gpd.Detector
	last gpd.Verdict //lint:config -- payload storage; the next interval overwrites it
}

// NewGPD wraps det under NameGPD.
func NewGPD(det *gpd.Detector) *GPD { return &GPD{det: det} }

// Name implements PhaseDetector.
func (g *GPD) Name() string { return NameGPD }

// Detector exposes the wrapped centroid detector.
func (g *GPD) Detector() *gpd.Detector { return g.det }

// ObserveInterval implements PhaseDetector.
func (g *GPD) ObserveInterval(ov *hpm.Overflow) Verdict {
	g.last = g.det.ObserveOverflow(ov)
	return Verdict{
		Detector:    NameGPD,
		Stable:      g.last.State == gpd.Stable,
		PhaseChange: g.last.PhaseChange,
		Payload:     &g.last,
	}
}

// RegionMonitor adapts the region monitoring framework (UCR accounting,
// formation, per-region LPD). Payload: *region.Report.
//
// The unified verdict condenses the per-region picture: Stable reports
// that the sample-weighted majority of this interval's monitored samples
// landed in locally stable regions; PhaseChange reports that at least one
// region crossed its stable boundary this interval. Consumers needing the
// full per-region detail read the payload.
//
//lint:single-owner
type RegionMonitor struct {
	mon  *region.Monitor
	last region.Report //lint:config -- aliases monitor-owned scratch; rebuilt next interval

	stableW float64 // sample-weighted locally-stable accumulation
	totalW  float64
}

// NewRegionMonitor wraps mon under NameRegions.
func NewRegionMonitor(mon *region.Monitor) *RegionMonitor {
	return &RegionMonitor{mon: mon}
}

// Name implements PhaseDetector.
func (r *RegionMonitor) Name() string { return NameRegions }

// Monitor exposes the wrapped region monitor.
func (r *RegionMonitor) Monitor() *region.Monitor { return r.mon }

// WeightedStableFraction returns the whole-run sample-weighted share of
// monitored samples that landed in locally stable regions — the
// aggregate the paper's RTO-LPD accounting and the detector-panel
// experiment both report.
func (r *RegionMonitor) WeightedStableFraction() float64 {
	if r.totalW == 0 {
		return 0
	}
	return r.stableW / r.totalW
}

// PhaseChanges returns the total per-region stable→unstable count, summed
// over the currently monitored regions (Figure 13's aggregate).
func (r *RegionMonitor) PhaseChanges() int {
	n := 0
	for _, reg := range r.mon.Regions() {
		n += reg.Detector.PhaseChanges()
	}
	return n
}

// ObserveInterval implements PhaseDetector.
func (r *RegionMonitor) ObserveInterval(ov *hpm.Overflow) Verdict {
	r.last = r.mon.ProcessOverflow(ov)
	var stableW, totalW float64
	change := false
	for i := range r.last.Verdicts {
		rv := &r.last.Verdicts[i]
		if rv.Verdict.PhaseChange {
			change = true
		}
		if rv.Samples > 0 {
			w := float64(rv.Samples)
			totalW += w
			if rv.Verdict.State == lpd.Stable {
				stableW += w
			}
		}
	}
	r.stableW += stableW
	r.totalW += totalW
	return Verdict{
		Detector:    NameRegions,
		Stable:      totalW > 0 && stableW*2 > totalW,
		PhaseChange: change,
		Payload:     &r.last,
	}
}

// altDetector is the shared shape of the Section 4 related-work schemes.
type altDetector interface {
	Observe(ov *hpm.Overflow) altdetect.Verdict
	snap.Snapshotter
}

// Alt adapts either Section 4 related-work scheme (basic-block vectors or
// working-set signatures). Payload: *altdetect.Verdict. These schemes
// have no multi-state machine: Stable is simply "no change flagged this
// interval", and every flagged change is a phase change.
//
//lint:single-owner
type Alt struct {
	det  altDetector
	name string            //lint:config -- fixed at construction
	last altdetect.Verdict //lint:config -- payload storage; the next interval overwrites it
}

// NewBBV wraps a basic-block-vector detector under the default name.
func NewBBV(det *altdetect.BBV) *Alt { return &Alt{det: det, name: NameBBV} }

// NewWorkingSet wraps a working-set-signature detector under the default
// name.
func NewWorkingSet(det *altdetect.WorkingSet) *Alt {
	return &Alt{det: det, name: NameWorkingSet}
}

// Name implements PhaseDetector.
func (a *Alt) Name() string { return a.name }

// ObserveInterval implements PhaseDetector.
func (a *Alt) ObserveInterval(ov *hpm.Overflow) Verdict {
	a.last = a.det.Observe(ov)
	return Verdict{
		Detector:    a.name,
		Stable:      !a.last.Changed,
		PhaseChange: a.last.Changed,
		Payload:     &a.last,
	}
}

// Perf adapts a performance-characteristic tracker (gpd.PerfTracker) over
// any scalar per-interval metric. Payload: *gpd.PerfVerdict. Stable is
// "value inside the band"; a flagged change is a phase change in the
// performance characteristics (the paper's CPI/DPI signal).
//
//lint:single-owner
type Perf struct {
	tr     *gpd.PerfTracker
	name   string                      //lint:config -- fixed at construction
	metric func(*hpm.Overflow) float64 //lint:config -- fixed at construction
	last   gpd.PerfVerdict             //lint:config -- payload storage; the next interval overwrites it
}

// NewCPI wraps tr over the interval CPI metric.
func NewCPI(tr *gpd.PerfTracker) *Perf { return NewPerf(NameCPI, tr, hpm.CPI) }

// NewDPI wraps tr over the interval DPI metric.
func NewDPI(tr *gpd.PerfTracker) *Perf { return NewPerf(NameDPI, tr, hpm.DPI) }

// NewPerf wraps tr over an arbitrary per-interval metric.
func NewPerf(name string, tr *gpd.PerfTracker, metric func(*hpm.Overflow) float64) *Perf {
	return &Perf{tr: tr, name: name, metric: metric}
}

// Name implements PhaseDetector.
func (p *Perf) Name() string { return p.name }

// Tracker exposes the wrapped tracker.
func (p *Perf) Tracker() *gpd.PerfTracker { return p.tr }

// ObserveInterval implements PhaseDetector.
func (p *Perf) ObserveInterval(ov *hpm.Overflow) Verdict {
	p.last = p.tr.Observe(p.metric(ov))
	return Verdict{
		Detector:    p.name,
		Stable:      !p.last.Changed,
		PhaseChange: p.last.Changed,
		Payload:     &p.last,
	}
}

// ChangePoint adapts the E-divisive online detector over the interval CPI
// (hpm.CPI). Payload: *changepoint.Verdict.
// Stable is "no change point confirmed this interval"; a confirmed
// change point is a phase change in the metric's distribution — the
// statistically grounded counterpart of the Perf adapter's band check
// over the same signal.
//
//lint:single-owner
type ChangePoint struct {
	det  *changepoint.Detector
	last changepoint.Verdict //lint:config -- payload storage; the next interval overwrites it
}

// NewChangePoint wraps det over the interval CPI under NameChangePoint.
func NewChangePoint(det *changepoint.Detector) *ChangePoint {
	return &ChangePoint{det: det}
}

// Name implements PhaseDetector.
func (c *ChangePoint) Name() string { return NameChangePoint }

// Detector exposes the wrapped change-point detector.
func (c *ChangePoint) Detector() *changepoint.Detector { return c.det }

// ObserveInterval implements PhaseDetector.
func (c *ChangePoint) ObserveInterval(ov *hpm.Overflow) Verdict {
	c.last = c.det.Observe(hpm.CPI(ov))
	return Verdict{
		Detector:    NameChangePoint,
		Stable:      !c.last.Changed,
		PhaseChange: c.last.Changed,
		Payload:     &c.last,
	}
}

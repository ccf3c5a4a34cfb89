// Package adore models the prototype runtime optimization system the paper
// builds on (ADORE on SPARC, references [12][13]): sampling-driven trace
// selection, optimization deployment by binary patching, and phase
// detection deciding when to patch and unpatch.
//
// Two controllers are provided:
//
//   - RTO-ORIG: the paper's baseline comparison system — centroid-based
//     global phase detection; when a stable phase is entered, hot loop
//     traces are selected from the current interval's samples and patched
//     (deploying the simulated prefetching optimization); on a global
//     phase change every trace is unpatched so optimizations can be
//     re-evaluated (the modification Section 3.2.4 describes for a fair
//     comparison).
//
//   - RTO-LPD: the paper's contribution — region monitoring with local
//     phase detection; each region is patched while its *own* phase is
//     stable and unpatched on its own phase change, so a globally noisy
//     program keeps its locally stable loops optimized. With self-
//     monitoring enabled the controller also watches deployed
//     optimizations and undoes ones that hurt (Section 5's feedback
//     mechanism).
//
// The optimization itself (helper-thread data prefetching in the paper) is
// simulated: deploying a trace on a region activates a stall-cycle
// modifier in the executor whose true effectiveness comes from the
// workload's OptimizationModel — the controller cannot observe it except
// through the program's performance, which is exactly the position the
// real optimizer is in.
package adore

import (
	"fmt"
	"sort"

	"regionmon/internal/altdetect"
	"regionmon/internal/changepoint"
	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/lpd"
	"regionmon/internal/pipeline"
	"regionmon/internal/region"
	"regionmon/internal/sim"
)

// Policy selects the phase-detection controller.
type Policy int

const (
	// PolicyGPD is the RTO-ORIG baseline (global centroid detection).
	PolicyGPD Policy = iota
	// PolicyLPD is RTO-LPD (region monitoring + local phase detection).
	PolicyLPD
	// PolicyNone deploys no optimizations (plain execution; used as the
	// reference baseline in speedup accounting).
	PolicyNone
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyGPD:
		return "rto-orig"
	case PolicyLPD:
		return "rto-lpd"
	case PolicyNone:
		return "none"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// OptimizationModel reports the true effectiveness of deploying the
// optimization on the span [start, end): the fraction of the region's
// stall cycles removed while patched. Negative values model speculative
// optimizations that hurt (bad prefetches evicting useful lines). The
// model is a property of the workload, not of the controller.
type OptimizationModel func(start, end isa.Addr) float64

// ConstantModel returns a model with uniform effectiveness.
func ConstantModel(save float64) OptimizationModel {
	return func(isa.Addr, isa.Addr) float64 { return save }
}

// Config parameterizes an RTO run.
type Config struct {
	// Policy selects the controller.
	Policy Policy
	// GPD configures the centroid detector (PolicyGPD).
	GPD gpd.Config
	// Region configures the region monitor (PolicyLPD).
	Region region.Config
	// MinTraceSamples is the interval sample count a loop must gather to
	// be selected as an optimization trace.
	MinTraceSamples int
	// PatchCycles is the main-thread overhead of patching or unpatching
	// one trace.
	PatchCycles uint64
	// Model is the workload's true optimization effectiveness
	// (defaults to ConstantModel(0.35)).
	Model OptimizationModel
	// SelfMonitor enables the feedback mechanism: a patched region whose
	// time share grows by HarmFactor after patching is unpatched and
	// blacklisted (PolicyLPD only).
	SelfMonitor bool
	// HarmFactor is the growth ratio treated as harm (default 1.4).
	HarmFactor float64
	// HarmWindow is the number of post-patch intervals averaged before
	// judging (default 3).
	HarmWindow int
	// TrackCPI attaches a performance-characteristic tracker over the
	// interval CPI (the paper's "other metrics of performance, such as
	// CPI and DPI, are used to determine if the program performance
	// characteristics have changed"). A flagged change is logged and, for
	// PolicyGPD, unpatches all traces for re-evaluation even when the
	// centroid is steady — the same working set suddenly performing
	// differently warrants a new look.
	TrackCPI bool
	// CPI configures the tracker (zero value = gpd.DefaultPerfConfig).
	CPI gpd.PerfConfig
}

// DefaultConfig returns a configuration with the paper's detector
// parameters and moderate optimization effectiveness.
func DefaultConfig(policy Policy) Config {
	return Config{
		Policy:          policy,
		GPD:             gpd.DefaultConfig(),
		Region:          region.DefaultConfig(),
		MinTraceSamples: 16,
		PatchCycles:     20_000,
		Model:           ConstantModel(0.35),
		HarmFactor:      1.4,
		HarmWindow:      3,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch c.Policy {
	case PolicyGPD:
		if err := c.GPD.Validate(); err != nil {
			return err
		}
	case PolicyLPD:
		if err := c.Region.Validate(); err != nil {
			return err
		}
	case PolicyNone:
	default:
		return fmt.Errorf("adore: unknown policy %v", c.Policy)
	}
	if c.MinTraceSamples < 1 {
		return fmt.Errorf("adore: min trace samples %d < 1", c.MinTraceSamples)
	}
	if c.SelfMonitor {
		if c.HarmFactor <= 1 {
			return fmt.Errorf("adore: harm factor %v must exceed 1", c.HarmFactor)
		}
		if c.HarmWindow < 1 {
			return fmt.Errorf("adore: harm window %d < 1", c.HarmWindow)
		}
	}
	return nil
}

// EventKind classifies controller events.
type EventKind int

const (
	// EventPatch: a trace was deployed on a region.
	EventPatch EventKind = iota
	// EventUnpatch: a trace was removed.
	EventUnpatch
	// EventPhaseChange: the governing detector crossed the stable
	// boundary.
	EventPhaseChange
	// EventFormation: region formation added regions (PolicyLPD).
	EventFormation
	// EventHarmUndo: self-monitoring undid a harmful optimization.
	EventHarmUndo
	// EventPerfChange: the CPI tracker flagged a performance-
	// characteristic change.
	EventPerfChange
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EventPatch:
		return "patch"
	case EventUnpatch:
		return "unpatch"
	case EventPhaseChange:
		return "phase-change"
	case EventFormation:
		return "formation"
	case EventHarmUndo:
		return "harm-undo"
	case EventPerfChange:
		return "perf-change"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one entry in the controller's log.
type Event struct {
	// Cycle is the absolute cycle of the triggering overflow.
	Cycle uint64
	// Seq is the overflow sequence number.
	Seq int
	// Kind classifies the event.
	Kind EventKind
	// Region names the affected region ("" for global events).
	Region string
	// Detail carries extra context (state names, r values).
	Detail string
}

// RunResult summarizes a completed RTO run.
type RunResult struct {
	// Policy is the controller that ran.
	Policy Policy
	// Sim carries cycle/work accounting; Sim.Speedup compares runs.
	Sim sim.Result
	// Patches and Unpatches count trace deployments and removals.
	Patches, Unpatches int
	// PhaseChanges counts governing-detector stable→unstable crossings
	// (GPD: global; LPD: summed over regions).
	PhaseChanges int
	// StableFraction is the fraction of intervals the governing detector
	// judged stable (LPD: sample-weighted mean across regions).
	StableFraction float64
	// HarmUndos counts self-monitoring reversals.
	HarmUndos int
	// Regions is the number of regions monitored at end of run (LPD).
	Regions int
	// Events is the whole controller log in chronological order: one
	// entry per decision (patch, unpatch, phase change, formation, harm
	// undo, performance change), so it grows with decisions, not with
	// intervals.
	Events []Event
}

// patchState tracks one deployed trace.
type patchState struct {
	span     sim.Span
	preShare float64 // region time share at patch time
	// postSum and postN sum and count the post-patch interval time shares
	// (self-monitoring).
	postSum float64
	postN   int
	judged  bool
}

// RTO wires a program, schedule, sampling monitor, executor and a
// controller policy into one runnable system.
//
// Policies are detector pipeline configurations, not separate control
// paths: New registers the policy's detectors (the CPI tracker when
// enabled, then the governing detector — GPD's centroid or the region
// monitor) on one pipeline, and the controller is a single dispatch loop
// over each interval's merged verdicts.
//
// Like the System facade, an RTO is single-owner: one goroutine calls Run.
//
//lint:single-owner
type RTO struct {
	cfg  Config
	prog *isa.Program

	exec *sim.Executor
	mon  *hpm.Monitor

	pipe  *pipeline.Pipeline
	ga    *pipeline.GPD           // nil unless PolicyGPD
	ra    *pipeline.RegionMonitor // nil unless PolicyLPD
	cpiAd *pipeline.Perf          // nil unless TrackCPI

	patched   map[sim.Span]*patchState
	blacklist map[sim.Span]bool
	events    []Event
	patches   int
	unpatches int
	harmUndos int
}

// New constructs an RTO over prog and sched, sampling with hpmCfg.
func New(prog *isa.Program, sched *sim.Schedule, hpmCfg hpm.Config, cfg Config) (*RTO, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model == nil {
		cfg.Model = ConstantModel(0.35)
	}
	r := &RTO{
		cfg:       cfg,
		prog:      prog,
		pipe:      pipeline.New(),
		patched:   make(map[sim.Span]*patchState),
		blacklist: make(map[sim.Span]bool),
	}
	mon, err := hpm.New(hpmCfg, r.onOverflow)
	if err != nil {
		return nil, err
	}
	r.mon = mon
	exec, err := sim.NewExecutor(prog, sched, mon)
	if err != nil {
		return nil, err
	}
	r.exec = exec
	// Registration order is control order: the CPI tracker's verdict is
	// handled before the governing detector's, matching the paper's "check
	// performance characteristics first" sequencing.
	if cfg.TrackCPI {
		pcfg := cfg.CPI
		if pcfg == (gpd.PerfConfig{}) {
			pcfg = gpd.DefaultPerfConfig()
		}
		tr, err := gpd.NewPerfTracker(pcfg)
		if err != nil {
			return nil, err
		}
		r.cpiAd = pipeline.NewCPI(tr)
		r.pipe.MustRegister(r.cpiAd)
	}
	switch cfg.Policy {
	case PolicyGPD:
		d, err := gpd.New(cfg.GPD)
		if err != nil {
			return nil, err
		}
		r.ga = pipeline.NewGPD(d)
		r.pipe.MustRegister(r.ga)
	case PolicyLPD:
		m, err := region.NewMonitor(prog, cfg.Region)
		if err != nil {
			return nil, err
		}
		r.ra = pipeline.NewRegionMonitor(m)
		r.pipe.MustRegister(r.ra)
	}
	return r, nil
}

// Executor exposes the underlying executor (tests and examples).
func (r *RTO) Executor() *sim.Executor { return r.exec }

// Pipeline exposes the detector pipeline the policy was configured on
// (e.g. to attach extra observers or comparison detectors before Run).
func (r *RTO) Pipeline() *pipeline.Pipeline { return r.pipe }

// RegionMonitor exposes the region monitor (nil unless PolicyLPD).
func (r *RTO) RegionMonitor() *region.Monitor {
	if r.ra == nil {
		return nil
	}
	return r.ra.Monitor()
}

// GlobalDetector exposes the GPD detector (nil unless PolicyGPD).
func (r *RTO) GlobalDetector() *gpd.Detector {
	if r.ga == nil {
		return nil
	}
	return r.ga.Detector()
}

// Run executes the schedule under the controller and returns the summary.
func (r *RTO) Run() RunResult {
	simRes := r.exec.Run()
	res := RunResult{
		Policy:       r.cfg.Policy,
		Sim:          simRes,
		Patches:      r.patches,
		Unpatches:    r.unpatches,
		PhaseChanges: r.phaseChanges(),
		HarmUndos:    r.harmUndos,
		Events:       r.events,
	}
	switch r.cfg.Policy {
	case PolicyGPD:
		res.StableFraction = r.ga.Detector().StableFraction()
	case PolicyLPD:
		res.StableFraction = r.ra.WeightedStableFraction()
		res.Regions = len(r.ra.Monitor().Regions())
	}
	return res
}

func (r *RTO) phaseChanges() int {
	switch r.cfg.Policy {
	case PolicyGPD:
		return r.ga.Detector().PhaseChanges()
	case PolicyLPD:
		return r.ra.PhaseChanges()
	default:
		return 0
	}
}

func (r *RTO) log(ev Event) { r.events = append(r.events, ev) }

// onOverflow is the monitoring thread: it runs synchronously on every
// sample-buffer overflow. Every registered detector observes the interval
// through the pipeline; the controller is one dispatch loop over the
// merged verdicts, switching on each detector's payload type.
func (r *RTO) onOverflow(ov *hpm.Overflow) {
	rep := r.pipe.ProcessOverflow(ov)
	for i := range rep.Verdicts {
		switch v := rep.Verdicts[i].Payload.(type) {
		case *gpd.PerfVerdict:
			r.perfControl(v, ov)
		case *gpd.Verdict:
			r.gpdControl(v, ov)
		case *region.Report:
			r.lpdControl(v, ov)
		case *altdetect.Verdict:
			// Comparison-only detectors (BBV, working-set signatures) ride
			// along for the ablation studies; they drive no control action.
		case *changepoint.Verdict:
			// The E-divisive detector likewise rides along for comparison;
			// the band-based perf tracker remains the control signal.
		}
	}
}

// CPITracker exposes the CPI tracker (nil unless TrackCPI).
func (r *RTO) CPITracker() *gpd.PerfTracker {
	if r.cpiAd == nil {
		return nil
	}
	return r.cpiAd.Tracker()
}

// perfControl reacts to the CPI tracker's verdict: log characteristic
// changes and, under RTO-ORIG, re-evaluate every trace — the working set
// may be steady but its performance characteristics moved.
func (r *RTO) perfControl(v *gpd.PerfVerdict, ov *hpm.Overflow) {
	if !v.Changed {
		return
	}
	r.log(Event{Cycle: ov.Cycle, Seq: ov.Seq, Kind: EventPerfChange,
		Detail: fmt.Sprintf("CPI %.3f outside band [%.3f±%.3f]", v.Value, v.Mean, v.SD)})
	if r.cfg.Policy == PolicyGPD {
		r.unpatchAll(ov, "performance characteristics changed")
	}
}

// unpatchAll removes every deployed trace in address order.
func (r *RTO) unpatchAll(ov *hpm.Overflow, why string) {
	spans := make([]sim.Span, 0, len(r.patched))
	for s := range r.patched {
		spans = append(spans, s)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		r.unpatch(s, ov, why)
	}
}

// gpdControl implements RTO-ORIG: patch hot traces on stable entry,
// unpatch everything on stable exit.
func (r *RTO) gpdControl(v *gpd.Verdict, ov *hpm.Overflow) {
	if v.PhaseChange {
		r.log(Event{Cycle: ov.Cycle, Seq: ov.Seq, Kind: EventPhaseChange,
			Detail: fmt.Sprintf("%v -> %v (delta %.3f)", v.Prev, v.State, v.Delta)})
	}
	switch {
	case v.PhaseChange && v.State == gpd.Stable:
		// Entering stable: select hot loop traces from this interval.
		for _, hot := range r.hotLoops(ov) {
			r.patch(hot, ov)
		}
	case v.PhaseChange && v.State != gpd.Stable:
		// Leaving stable: unpatch all traces for re-evaluation.
		r.unpatchAll(ov, "global phase change")
	}
}

// hotLoops tallies an interval's samples by innermost natural loop, read
// from the code map, and returns the spans of the loops gathering at
// least MinTraceSamples in region formation's order (region.HotLoops).
func (r *RTO) hotLoops(ov *hpm.Overflow) []sim.Span {
	tally := make([]int, r.prog.NumLoops())
	for i := range ov.Samples {
		if s := r.prog.Slot(ov.Samples[i].PC); s >= 0 {
			if l := r.prog.SlotLoop(s); l >= 0 {
				tally[l]++
			}
		}
	}
	loops := region.HotLoops(r.prog, tally, r.cfg.MinTraceSamples)
	spans := make([]sim.Span, len(loops))
	for i, l := range loops {
		spans[i] = sim.Span{Start: l.Start(), End: l.End()}
	}
	return spans
}

// lpdControl implements RTO-LPD: region monitoring governs patching
// region-by-region. (The sample-weighted stability accounting lives in
// the pipeline's RegionMonitor adapter.)
func (r *RTO) lpdControl(rep *region.Report, ov *hpm.Overflow) {
	if rep.FormationTriggered && len(rep.NewRegions) > 0 {
		names := make([]string, len(rep.NewRegions))
		for i, reg := range rep.NewRegions {
			names[i] = reg.Name()
		}
		r.log(Event{Cycle: ov.Cycle, Seq: ov.Seq, Kind: EventFormation,
			Detail: fmt.Sprintf("UCR %.0f%%: %v", rep.UCRFraction*100, names)})
	}
	total := rep.TotalSamples
	for _, rv := range rep.Verdicts {
		span := sim.Span{Start: rv.Region.Start, End: rv.Region.End}
		if rv.Verdict.PhaseChange {
			r.log(Event{Cycle: ov.Cycle, Seq: ov.Seq, Kind: EventPhaseChange, Region: rv.Region.Name(),
				Detail: fmt.Sprintf("%v -> %v (r %.3f)", rv.Verdict.Prev, rv.Verdict.State, rv.Verdict.R)})
		}
		ps, isPatched := r.patched[span]
		switch {
		case !isPatched && rv.Verdict.State == lpd.Stable &&
			rv.Samples >= r.cfg.MinTraceSamples && !r.blacklist[span]:
			ps = r.patch(span, ov)
			if ps != nil && total > 0 {
				ps.preShare = float64(rv.Samples) / float64(total)
			}
		case isPatched && rv.Verdict.PhaseChange && rv.Verdict.State != lpd.Stable:
			r.unpatch(span, ov, "local phase change")
		case isPatched && r.cfg.SelfMonitor && !ps.judged:
			r.selfMonitor(ps, rv.Samples, total, ov)
		}
	}
	// Pruned regions lose their traces: the code is cold, keep the patch
	// out of the way.
	for _, pr := range rep.Pruned {
		span := sim.Span{Start: pr.Start, End: pr.End}
		if _, ok := r.patched[span]; ok {
			r.unpatch(span, ov, "region pruned")
		}
	}
}

// selfMonitor accumulates post-patch interval samples and undoes the
// optimization if the region's time share grew by HarmFactor.
func (r *RTO) selfMonitor(ps *patchState, samples, total int, ov *hpm.Overflow) {
	if total == 0 {
		return
	}
	ps.postSum += float64(samples) / float64(total)
	ps.postN++
	if ps.postN < r.cfg.HarmWindow {
		return
	}
	ps.judged = true
	postShare := ps.postSum / float64(ps.postN)
	if ps.preShare > 0 && postShare > ps.preShare*r.cfg.HarmFactor {
		span := ps.span
		r.unpatch(span, ov, fmt.Sprintf("harmful: share %.3f -> %.3f", ps.preShare, postShare))
		r.blacklist[span] = true
		r.harmUndos++
		r.log(Event{Cycle: ov.Cycle, Seq: ov.Seq, Kind: EventHarmUndo, Region: span.Name(),
			Detail: fmt.Sprintf("share %.3f -> %.3f", ps.preShare, postShare)})
	}
}

// patch deploys the optimization on span.
func (r *RTO) patch(span sim.Span, ov *hpm.Overflow) *patchState {
	if _, ok := r.patched[span]; ok {
		return r.patched[span]
	}
	save := r.cfg.Model(span.Start, span.End)
	r.exec.SetOptimization(span, save)
	r.exec.Stall(r.cfg.PatchCycles)
	ps := &patchState{span: span}
	r.patched[span] = ps
	r.patches++
	r.log(Event{Cycle: ov.Cycle, Seq: ov.Seq, Kind: EventPatch, Region: span.Name(),
		Detail: fmt.Sprintf("save %.2f", save)})
	return ps
}

// unpatch removes the optimization from span.
func (r *RTO) unpatch(span sim.Span, ov *hpm.Overflow, why string) {
	if _, ok := r.patched[span]; !ok {
		return
	}
	r.exec.ClearOptimization(span)
	r.exec.Stall(r.cfg.PatchCycles)
	delete(r.patched, span)
	r.unpatches++
	r.log(Event{Cycle: ov.Cycle, Seq: ov.Seq, Kind: EventUnpatch, Region: span.Name(), Detail: why})
}

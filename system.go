package regionmon

import (
	"fmt"

	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/pipeline"
	"regionmon/internal/region"
	"regionmon/internal/sim"
	"regionmon/internal/stats"
)

// SystemStats summarizes a completed System run.
type SystemStats struct {
	// Exec carries cycle and instruction totals.
	Exec ExecResult
	// Intervals is the number of sampling intervals observed.
	Intervals int
	// GlobalPhaseChanges is GPD's stable→unstable count.
	GlobalPhaseChanges int
	// GlobalStableFraction is GPD's stable-time share.
	GlobalStableFraction float64
	// UCRMedian is the median unmonitored-sample fraction over every
	// interval the System's sampling monitor delivered.
	UCRMedian float64
	// Regions is the number of monitored regions at end of run.
	Regions int
}

// System is the convenience harness most users want: a program and a
// schedule wired to the sampling monitor, with the centroid global
// detector and the region monitoring framework both attached through a
// detector pipeline. Construct with NewSystem, optionally register
// observers or extra detectors via Pipeline(), then Run.
//
// A System (and the pipeline underneath it) is single-owner: one
// goroutine calls Run. Scaling across cores means running many
// independent Systems in parallel (see the experiments sweep runner),
// never sharing one.
//
//lint:single-owner
type System struct {
	prog *Program //lint:config -- fixed at construction

	exec *sim.Executor //lint:config -- owns no snapshot state of its own
	mon  *hpm.Monitor  //lint:config -- snapshotted through pipe's detector set
	pipe *pipeline.Pipeline
	ga   *pipeline.GPD           //lint:config -- aliases a pipe-owned detector
	ra   *pipeline.RegionMonitor //lint:config -- aliases a pipe-owned detector
	// ucr holds each delivered interval's UCR fraction for Run's
	// whole-run median. It summarizes the run, not the monitoring stack,
	// so a snapshot leaves it out.
	ucr []float64 //lint:config -- run summary input, not detector state
}

// SystemConfig bundles a System's tunables; the zero value of each field
// selects the paper's defaults.
type SystemConfig struct {
	// Sampling programs the performance monitor; Sampling.Period is
	// required.
	Sampling SamplingConfig
	// Global overrides the GPD configuration (nil = paper defaults).
	Global *GlobalConfig
	// Region overrides the region-monitoring configuration (nil = paper
	// defaults).
	Region *RegionConfig
}

// NewSystem wires prog and sched under cfg.
func NewSystem(prog *Program, sched *Schedule, cfg SystemConfig) (*System, error) {
	if prog == nil || sched == nil {
		return nil, fmt.Errorf("regionmon: nil program or schedule")
	}
	gcfg := gpd.DefaultConfig()
	if cfg.Global != nil {
		gcfg = *cfg.Global
	}
	rcfg := region.DefaultConfig()
	if cfg.Region != nil {
		rcfg = *cfg.Region
	}
	s := &System{prog: prog}
	gdet, err := gpd.New(gcfg)
	if err != nil {
		return nil, err
	}
	rmon, err := region.NewMonitor(prog, rcfg)
	if err != nil {
		return nil, err
	}
	s.pipe = pipeline.New()
	s.ga = pipeline.NewGPD(gdet)
	s.ra = pipeline.NewRegionMonitor(rmon)
	s.pipe.MustRegister(s.ga)
	s.pipe.MustRegister(s.ra)
	mon, err := hpm.New(cfg.Sampling, func(ov *hpm.Overflow) {
		rep := s.pipe.ProcessOverflow(ov)
		// The region adapter registered second, so its verdict is second.
		s.ucr = append(s.ucr, rep.Verdicts[1].Payload.(*region.Report).UCRFraction)
	})
	if err != nil {
		return nil, err
	}
	s.mon = mon
	exec, err := sim.NewExecutor(prog, sched, mon)
	if err != nil {
		return nil, err
	}
	s.exec = exec
	return s, nil
}

// AddObserver attaches a per-interval hook to the System's pipeline and
// returns its slot. Any number of observers may be attached; they run in
// attachment order after every detector has observed the interval.
func (s *System) AddObserver(fn Observer) int { return s.pipe.AddObserver(fn) }

// Pipeline exposes the System's detector pipeline, e.g. to register
// additional detectors (BBV, working-set, CPI trackers) before Run or to
// read per-detector aggregate stats after.
func (s *System) Pipeline() *Pipeline { return s.pipe }

// GlobalDetector exposes the attached centroid detector.
func (s *System) GlobalDetector() *GlobalDetector { return s.ga.Detector() }

// RegionMonitor exposes the attached region monitor.
func (s *System) RegionMonitor() *RegionMonitor { return s.ra.Monitor() }

// Executor exposes the underlying executor (e.g. to deploy optimizations
// manually).
func (s *System) Executor() *Executor { return s.exec }

// Snapshot serializes the System's complete detector state — the
// pipeline, both built-in detectors and any additionally registered
// snapshottable detectors — to a versioned, deterministic byte form. The
// executor and sampling monitor are deliberately not captured: a snapshot
// checkpoints the *monitoring stack*. To resume, restore it into a System
// built the same way and feed that System's pipeline the rest of the
// stream (Pipeline().ProcessOverflow); its verdicts are then those of the
// uninterrupted run (TestSystemSnapshotRestore compares their vhash
// digests).
func (s *System) Snapshot() ([]byte, error) { return s.pipe.Snapshot() }

// Restore replaces the System's detector state from a Snapshot taken of
// an identically configured System (same program, same configuration,
// same extra detectors registered in the same order). Every detector is
// staged before any commits, so on error nothing changes.
func (s *System) Restore(data []byte) error { return s.pipe.Restore(data) }

// Run executes the schedule to completion and returns the run summary.
func (s *System) Run() SystemStats {
	res := s.exec.Run()
	gdet := s.ga.Detector()
	rmon := s.ra.Monitor()
	return SystemStats{
		Exec:                 res,
		Intervals:            s.pipe.Intervals(),
		GlobalPhaseChanges:   gdet.PhaseChanges(),
		GlobalStableFraction: gdet.StableFraction(),
		UCRMedian:            stats.Median(s.ucr),
		Regions:              len(rmon.Regions()),
	}
}

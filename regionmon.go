// Package regionmon is a library reproduction of "Region Monitoring for
// Local Phase Detection in Dynamic Optimization Systems" (Das, Lu, Hsu —
// CGO 2006): phase detection for sampling-based dynamic optimizers, both
// the classic centroid-based Global Phase Detection (GPD) baseline and the
// paper's contribution, per-region Local Phase Detection (LPD) inside a
// region monitoring framework, together with the simulated hardware
// substrate (synthetic programs, a cycle-level executor, a sampling
// performance-monitor model) and a runtime-optimizer harness that
// reproduces the paper's evaluation.
//
// The package is a façade: it re-exports the stable API of the internal
// subsystems so downstream code imports a single path.
//
//	prog  — build synthetic programs       (NewProgramBuilder)
//	sched — script phase behaviour         (Schedule, Segment, RegionBehavior)
//	run   — sample + detect                (System, or the pieces: NewSamplingMonitor,
//	        NewExecutor, NewGlobalDetector, NewRegionMonitor)
//	rto   — optimize under a controller    (NewRTO, PolicyGPD / PolicyLPD)
//	eval  — regenerate the paper's figures (Experiments* helpers)
//
// See examples/ for runnable walkthroughs and DESIGN.md for the
// paper-to-package map.
package regionmon

import (
	"regionmon/internal/adore"
	"regionmon/internal/altdetect"
	"regionmon/internal/changepoint"
	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/lpd"
	"regionmon/internal/pipeline"
	"regionmon/internal/region"
	"regionmon/internal/sim"
	"regionmon/internal/snap"
	"regionmon/internal/workload"
)

// Program model (internal/isa).
type (
	// Addr is a virtual text address.
	Addr = isa.Addr
	// Kind classifies an instruction for the cost model.
	Kind = isa.Kind
	// Program is a synthetic binary.
	Program = isa.Program
	// Procedure is one program procedure.
	Procedure = isa.Procedure
	// Block is a basic block.
	Block = isa.Block
	// Loop is a detected natural loop.
	Loop = isa.Loop
	// LoopSpan is a built loop's address range.
	LoopSpan = isa.LoopSpan
	// ProgramBuilder assembles synthetic programs.
	ProgramBuilder = isa.Builder
	// ProcBuilder assembles one procedure.
	ProcBuilder = isa.ProcBuilder
)

// Instruction kinds.
const (
	KindALU    = isa.KindALU
	KindLoad   = isa.KindLoad
	KindStore  = isa.KindStore
	KindFP     = isa.KindFP
	KindBranch = isa.KindBranch
	KindCall   = isa.KindCall
	KindRet    = isa.KindRet
	KindNop    = isa.KindNop
)

// NewProgramBuilder returns a builder placing the first procedure at base.
func NewProgramBuilder(base Addr) *ProgramBuilder { return isa.NewBuilder(base) }

// Execution model (internal/sim).
type (
	// Schedule scripts a program's phase behaviour.
	Schedule = sim.Schedule
	// Segment is one stretch of fixed behaviour.
	Segment = sim.Segment
	// RegionBehavior describes one region's behaviour in a segment.
	RegionBehavior = sim.RegionBehavior
	// Span is a half-open address range.
	Span = sim.Span
	// CostModel maps instruction kinds to cycle costs.
	CostModel = sim.CostModel
	// Executor runs a schedule over a program.
	Executor = sim.Executor
	// ExecResult summarizes an execution.
	ExecResult = sim.Result
)

// NewExecutor returns an executor for prog under sched, driving mon.
func NewExecutor(prog *Program, sched *Schedule, mon *SamplingMonitor) (*Executor, error) {
	return sim.NewExecutor(prog, sched, mon)
}

// DefaultCostModel returns the SPARC-flavoured base cost model.
func DefaultCostModel() CostModel { return sim.DefaultCostModel() }

// Sampling substrate (internal/hpm).
type (
	// SamplingConfig programs the simulated performance monitor.
	SamplingConfig = hpm.Config
	// SamplingMonitor is the simulated performance monitoring unit.
	SamplingMonitor = hpm.Monitor
	// Sample is one sampling-interrupt record.
	Sample = hpm.Sample
	// Overflow is one sample-buffer delivery.
	Overflow = hpm.Overflow
)

// DefaultBufferSize is the paper's sample-buffer size (2032).
const DefaultBufferSize = hpm.DefaultBufferSize

// NewSamplingMonitor returns a simulated performance monitor delivering
// buffer overflows to onOverflow.
func NewSamplingMonitor(cfg SamplingConfig, onOverflow func(*Overflow)) (*SamplingMonitor, error) {
	return hpm.New(cfg, onOverflow)
}

// Global phase detection (internal/gpd).
type (
	// GlobalDetector is the centroid-based GPD baseline.
	GlobalDetector = gpd.Detector
	// GlobalConfig parameterizes GPD (thresholds TH1..TH4 etc.).
	GlobalConfig = gpd.Config
	// GlobalVerdict is one GPD interval outcome.
	GlobalVerdict = gpd.Verdict
	// GlobalState is the GPD state enum.
	GlobalState = gpd.State
)

// GPD states.
const (
	GlobalUnstable   = gpd.Unstable
	GlobalLessStable = gpd.LessStable
	GlobalStable     = gpd.Stable
)

// DefaultGlobalConfig returns the paper's GPD parameters.
func DefaultGlobalConfig() GlobalConfig { return gpd.DefaultConfig() }

// NewGlobalDetector returns a centroid-based global phase detector.
func NewGlobalDetector(cfg GlobalConfig) (*GlobalDetector, error) { return gpd.New(cfg) }

// Performance-characteristic tracking (the paper's CPI/DPI signal).
type (
	// PerfTracker watches a scalar performance metric (CPI, DPI) per
	// interval and flags characteristic changes.
	PerfTracker = gpd.PerfTracker
	// PerfConfig parameterizes a PerfTracker.
	PerfConfig = gpd.PerfConfig
	// PerfVerdict is one PerfTracker observation outcome.
	PerfVerdict = gpd.PerfVerdict
)

// DefaultPerfConfig returns the default performance-tracker parameters.
func DefaultPerfConfig() PerfConfig { return gpd.DefaultPerfConfig() }

// NewPerfTracker returns a performance-characteristic tracker.
func NewPerfTracker(cfg PerfConfig) (*PerfTracker, error) { return gpd.NewPerfTracker(cfg) }

// CPI computes cycles-per-instruction over an overflow delivery.
func CPI(ov *Overflow) float64 { return hpm.CPI(ov) }

// DPI computes data-cache misses-per-instruction over an overflow
// delivery.
func DPI(ov *Overflow) float64 { return hpm.DPI(ov) }

// Local phase detection (internal/lpd).
type (
	// LocalDetector is one region's Pearson-correlation phase detector.
	LocalDetector = lpd.Detector
	// LocalConfig parameterizes LPD (r_t, similarity metric, ...).
	LocalConfig = lpd.Config
	// LocalVerdict is one LPD interval outcome.
	LocalVerdict = lpd.Verdict
	// LocalState is the LPD state enum.
	LocalState = lpd.State
	// SimilarityMetric selects Pearson or a cheaper alternative.
	SimilarityMetric = lpd.Metric
)

// LPD states and metrics.
const (
	LocalUnstable     = lpd.Unstable
	LocalLessUnstable = lpd.LessUnstable
	LocalStable       = lpd.Stable

	MetricPearson   = lpd.MetricPearson
	MetricManhattan = lpd.MetricManhattan
	MetricTopK      = lpd.MetricTopK
)

// DefaultLocalConfig returns the paper's LPD parameters (Pearson, 0.8).
func DefaultLocalConfig() LocalConfig { return lpd.DefaultConfig() }

// NewLocalDetector returns a local phase detector for a region of
// numInstrs instructions.
func NewLocalDetector(numInstrs int, cfg LocalConfig) (*LocalDetector, error) {
	return lpd.New(numInstrs, cfg)
}

// Region monitoring (internal/region).
type (
	// RegionMonitor is the region monitoring framework: sample
	// distribution, UCR-driven region formation, per-region LPD.
	RegionMonitor = region.Monitor
	// RegionConfig parameterizes the monitor.
	RegionConfig = region.Config
	// Region is one monitored code region.
	Region = region.Region
	// RegionReport is one interval's monitoring outcome.
	RegionReport = region.Report
	// RegionVerdict pairs a region with its interval verdict.
	RegionVerdict = region.RegionVerdict
	// Annotation is a compiler-provided candidate region span (the
	// Section 3.1 future-work extension).
	Annotation = region.Annotation
)

// DefaultRegionConfig returns the paper's region-monitoring parameters
// (30% UCR threshold, Pearson LPD).
func DefaultRegionConfig() RegionConfig { return region.DefaultConfig() }

// NewRegionMonitor returns a region monitor for prog.
func NewRegionMonitor(prog *Program, cfg RegionConfig) (*RegionMonitor, error) {
	return region.NewMonitor(prog, cfg)
}

// Detector pipeline (internal/pipeline): the fan-out layer letting any
// number of phase detectors observe one sample stream side by side.
type (
	// Pipeline fans one overflow stream out to N registered detectors.
	Pipeline = pipeline.Pipeline
	// PhaseDetector is the common detector interface.
	PhaseDetector = pipeline.PhaseDetector
	// DetectorVerdict is a detector's unified per-interval event.
	DetectorVerdict = pipeline.Verdict
	// DetectorStats aggregates one detector's whole-run counters.
	DetectorStats = pipeline.DetectorStats
	// PipelineReport is the merged per-interval delivery (reused across
	// intervals; copy to retain).
	PipelineReport = pipeline.IntervalReport
	// Observer is a per-interval pipeline hook.
	Observer = pipeline.Observer
	// GPDAdapter presents a GlobalDetector as a PhaseDetector.
	GPDAdapter = pipeline.GPD
	// RegionAdapter presents a RegionMonitor as a PhaseDetector.
	RegionAdapter = pipeline.RegionMonitor
	// AltAdapter presents a related-work detector as a PhaseDetector.
	AltAdapter = pipeline.Alt
	// PerfAdapter presents a PerfTracker as a PhaseDetector.
	PerfAdapter = pipeline.Perf
	// ChangePointAdapter presents a ChangePointDetector as a
	// PhaseDetector.
	ChangePointAdapter = pipeline.ChangePoint
	// Snapshotter is implemented by detectors that support the
	// checkpoint/resume protocol (every built-in adapter does); a
	// Pipeline or System snapshots only if all its detectors do.
	Snapshotter = snap.Snapshotter
)

// Default detector names within a pipeline.
const (
	DetectorGPD        = pipeline.NameGPD
	DetectorRegions    = pipeline.NameRegions
	DetectorBBV        = pipeline.NameBBV
	DetectorWorkingSet = pipeline.NameWorkingSet
	DetectorCPI        = pipeline.NameCPI
	DetectorDPI        = pipeline.NameDPI
	DetectorChange     = pipeline.NameChangePoint
)

// NewPipeline returns an empty detector pipeline.
func NewPipeline() *Pipeline { return pipeline.New() }

// AdaptGPD presents det as a pipeline PhaseDetector named DetectorGPD.
func AdaptGPD(det *GlobalDetector) *GPDAdapter { return pipeline.NewGPD(det) }

// AdaptRegionMonitor presents mon as a pipeline PhaseDetector named
// DetectorRegions.
func AdaptRegionMonitor(mon *RegionMonitor) *RegionAdapter {
	return pipeline.NewRegionMonitor(mon)
}

// AdaptBBV presents det as a pipeline PhaseDetector named DetectorBBV.
func AdaptBBV(det *BBVDetector) *AltAdapter { return pipeline.NewBBV(det) }

// AdaptWorkingSet presents det as a pipeline PhaseDetector named
// DetectorWorkingSet.
func AdaptWorkingSet(det *WorkingSetDetector) *AltAdapter {
	return pipeline.NewWorkingSet(det)
}

// AdaptCPI presents tr as a pipeline PhaseDetector over the interval CPI
// metric, named DetectorCPI.
func AdaptCPI(tr *PerfTracker) *PerfAdapter { return pipeline.NewCPI(tr) }

// AdaptDPI presents tr as a pipeline PhaseDetector over the interval DPI
// metric, named DetectorDPI.
func AdaptDPI(tr *PerfTracker) *PerfAdapter { return pipeline.NewDPI(tr) }

// E-divisive change-point detection (internal/changepoint): the
// statistically grounded counterpart of the PerfTracker band check, online
// per interval or offline over a whole series (DetectChangePoints).
type (
	// ChangePointDetector is the online windowed E-divisive detector.
	ChangePointDetector = changepoint.Detector
	// ChangePointConfig parameterizes a ChangePointDetector.
	ChangePointConfig = changepoint.Config
	// ChangePointVerdict is one ChangePointDetector observation outcome.
	ChangePointVerdict = changepoint.Verdict
	// ChangePointEngineConfig parameterizes the offline engine
	// (permutations, alpha, minimum segment).
	ChangePointEngineConfig = changepoint.EngineConfig
	// ChangePoint is one detected distributional shift in a series.
	ChangePoint = changepoint.ChangePoint
)

// DefaultChangePointConfig returns the online detector defaults.
func DefaultChangePointConfig() ChangePointConfig { return changepoint.DefaultConfig() }

// DefaultChangePointEngineConfig returns the offline engine defaults.
func DefaultChangePointEngineConfig() ChangePointEngineConfig {
	return changepoint.DefaultEngineConfig()
}

// NewChangePointDetector returns an online windowed E-divisive detector.
func NewChangePointDetector(cfg ChangePointConfig) (*ChangePointDetector, error) {
	return changepoint.New(cfg)
}

// AdaptChangePoint presents det as a pipeline PhaseDetector over the
// interval CPI metric, named DetectorChange.
func AdaptChangePoint(det *ChangePointDetector) *ChangePointAdapter {
	return pipeline.NewChangePoint(det)
}

// DetectChangePoints runs the offline E-divisive engine over a series,
// returning every significant change point in ascending index order.
// Identical (xs, seed, cfg) inputs always yield identical output.
func DetectChangePoints(xs []float64, seed uint64, cfg ChangePointEngineConfig) ([]ChangePoint, error) {
	return changepoint.Detect(xs, seed, cfg)
}

// Runtime optimization (internal/adore).
type (
	// RTO is the runtime optimization system.
	RTO = adore.RTO
	// RTOConfig parameterizes a run.
	RTOConfig = adore.Config
	// RTOResult summarizes a run.
	RTOResult = adore.RunResult
	// Policy selects the controller.
	Policy = adore.Policy
	// OptimizationModel is the workload's true optimization effect.
	OptimizationModel = adore.OptimizationModel
	// RTOEvent is one controller log entry.
	RTOEvent = adore.Event
)

// RTO policies.
const (
	PolicyGPD  = adore.PolicyGPD
	PolicyLPD  = adore.PolicyLPD
	PolicyNone = adore.PolicyNone
)

// DefaultRTOConfig returns the default controller configuration for a
// policy.
func DefaultRTOConfig(p Policy) RTOConfig { return adore.DefaultConfig(p) }

// ConstantModel returns an optimization model with uniform effectiveness.
func ConstantModel(save float64) OptimizationModel { return adore.ConstantModel(save) }

// NewRTO wires prog, sched and a sampling configuration under a
// controller.
func NewRTO(prog *Program, sched *Schedule, scfg SamplingConfig, cfg RTOConfig) (*RTO, error) {
	return adore.New(prog, sched, scfg, cfg)
}

// Workloads (internal/workload).
type (
	// Benchmark is one synthetic SPEC CPU2000 program.
	Benchmark = workload.Benchmark
)

// BenchmarkNames returns the synthetic suite's benchmark names.
func BenchmarkNames() []string { return workload.Names() }

// LoadBenchmark builds one synthetic benchmark at the given work scale
// (1 = full experiment scale, ~10G base cycles).
func LoadBenchmark(name string, workScale float64) (*Benchmark, error) {
	return workload.ByName(name, workScale)
}

// Related-work detectors (internal/altdetect): the Section 4 comparison
// schemes, usable as standalone global phase detectors.
type (
	// BBVDetector is Sherwood-style basic-block-vector phase detection.
	BBVDetector = altdetect.BBV
	// WorkingSetDetector is Dhodapkar-style working-set-signature phase
	// detection.
	WorkingSetDetector = altdetect.WorkingSet
	// AltVerdict is either detector's per-interval outcome.
	AltVerdict = altdetect.Verdict
)

// NewBBVDetector returns a basic-block-vector detector over prog; see
// altdetect.NewBBV for the threshold's meaning.
func NewBBVDetector(prog *Program, threshold float64) (*BBVDetector, error) {
	return altdetect.NewBBV(prog, threshold)
}

// NewWorkingSetDetector returns a working-set-signature detector over
// prog; see altdetect.NewWorkingSet for the threshold's meaning.
func NewWorkingSetDetector(prog *Program, threshold float64) (*WorkingSetDetector, error) {
	return altdetect.NewWorkingSet(prog, threshold)
}

package changepoint

import (
	"fmt"

	"regionmon/internal/stats"
)

// Config parameterizes the online windowed detector. The zero value is
// not valid; start from DefaultConfig.
type Config struct {
	// Window is the number of recent observations the detector tests
	// (the bounded ring capacity).
	Window int
	// EvalEvery is the observation stride between engine runs: the
	// window is re-tested every EvalEvery observations once it has
	// filled. Evaluation is keyed to the absolute observation count, so
	// a restored detector evaluates on exactly the intervals the
	// uninterrupted one would have.
	EvalEvery int
	// Engine holds the E-divisive parameters (permutations, alpha,
	// minimum segment).
	Engine EngineConfig
	// Seed seeds the permutation PRNG. Each evaluation derives its
	// per-call seed from Seed and the absolute observation count, so the
	// verdict stream depends only on the observation sequence.
	Seed uint64
}

// DefaultConfig returns the online detector defaults: a 48-observation
// window re-tested every 32 observations with the default engine
// parameters. Measured on a 2-vCPU Xeon VM, one evaluation of the window
// costs about 34 µs on a steady stream and 86 µs on one stepping every
// 160 observations (BenchmarkDetectorObserve); on perfbench's fleet-full
// workload that amortizes to about 1.5 µs per interval, against about
// 9.5 µs for the rest of the pipeline's work on each interval.
func DefaultConfig() Config {
	return Config{Window: 48, EvalEvery: 32, Engine: DefaultEngineConfig(), Seed: 1}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if err := c.Engine.Validate(); err != nil {
		return err
	}
	if c.Window < 2*c.Engine.MinSegment {
		return fmt.Errorf("changepoint: window %d below 2*MinSegment %d", c.Window, 2*c.Engine.MinSegment)
	}
	if c.EvalEvery < 1 {
		return fmt.Errorf("changepoint: eval stride %d < 1", c.EvalEvery)
	}
	return nil
}

// Verdict is the outcome of observing one interval's metric value. It is
// the pipeline payload the ChangePoint adapter publishes.
type Verdict struct {
	// Value is the observed metric value.
	Value float64
	// Evaluated reports that this observation triggered an engine run
	// over the window (every EvalEvery observations once full, unless
	// the window holds a NaN or ±Inf).
	Evaluated bool
	// Changed reports a newly confirmed change point this interval.
	Changed bool
	// ChangeAt is the absolute observation index (0-based) of the most
	// recently confirmed change point, -1 before the first.
	ChangeAt int64
	// Stat and PValue describe the newest change point found by the last
	// evaluation (zero when the window held none).
	Stat, PValue float64
}

// Detector is the online windowed E-divisive detector: it appends one
// scalar metric observation per sampling interval to a bounded ring and
// periodically runs the engine over the window, confirming a change
// point when a significant split lands at least MinSegment past the
// previous one. Not safe for concurrent use.
//
//lint:single-owner
type Detector struct {
	cfg  Config //lint:config -- fixed at construction
	hist *stats.Window
	eng  *Engine       //lint:config -- stateless between Detect calls (scratch only)
	vals []float64     //lint:config -- window scratch, capacity fixed at construction
	cps  []ChangePoint //lint:config -- detection scratch, capacity fixed at construction

	count      int64 // observations ever fed; hist holds the last min(count, Window)
	lastChange int64
	changes    int
}

// New returns a detector with the given configuration.
func New(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng, err := NewEngine(cfg.Window, cfg.Engine)
	if err != nil {
		return nil, err
	}
	return &Detector{
		cfg:        cfg,
		hist:       stats.NewWindow(cfg.Window),
		eng:        eng,
		vals:       make([]float64, 0, cfg.Window),
		cps:        make([]ChangePoint, 0, cfg.Window/cfg.Engine.MinSegment+1),
		lastChange: -1,
	}, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config) *Detector {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Observe feeds one interval's metric value and returns the verdict.
func (d *Detector) Observe(value float64) Verdict {
	d.hist.Add(value)
	d.count++
	total := d.count
	v := Verdict{Value: value, ChangeAt: d.lastChange}
	if !d.hist.Full() || total%int64(d.cfg.EvalEvery) != 0 {
		return v
	}
	d.vals = d.hist.Values(d.vals[:0])
	// A non-finite value would read as a significant split (see
	// Engine.Detect), so the window is not tested until it slides out.
	if firstNonFinite(d.vals) >= 0 {
		return v
	}
	v.Evaluated = true
	d.cps = d.eng.Detect(d.vals, d.cfg.Seed^uint64(total)*0x9e3779b97f4a7c15, d.cps[:0])
	if len(d.cps) == 0 {
		return v
	}
	newest := d.cps[len(d.cps)-1]
	v.Stat, v.PValue = newest.Stat, newest.PValue
	global := total - int64(len(d.vals)) + int64(newest.Index)
	// A window slides under a confirmed change, so the same split keeps
	// re-appearing (its estimated position jittering by an observation or
	// two); only a split at least MinSegment past the last confirmed one
	// is a new event.
	if d.lastChange < 0 || global >= d.lastChange+int64(d.cfg.Engine.MinSegment) {
		d.lastChange = global
		d.changes++
		v.Changed = true
		v.ChangeAt = global
	}
	return v
}

// Changes returns the number of change points confirmed so far.
func (d *Detector) Changes() int { return d.changes }

// LastChange returns the absolute observation index of the most recently
// confirmed change point, -1 before the first.
func (d *Detector) LastChange() int64 { return d.lastChange }

// Intervals returns the number of observations.
func (d *Detector) Intervals() int64 { return d.count }

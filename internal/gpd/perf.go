package gpd

import (
	"fmt"

	"regionmon/internal/stats"
)

// The prototype systems do not rely on the centroid alone: "other metrics
// of performance, such as CPI and DPI (Data Cache Misses per Instruction),
// are used to determine if the program performance characteristics have
// changed" (Section 1). PerfTracker implements that second signal: a
// band-of-stability detector over any scalar performance metric. The RTO
// can consult it to re-evaluate optimization strategy even when the
// working set (centroid) is steady — e.g. the same loops suddenly missing
// the cache because the data set outgrew a level of the hierarchy.

// PerfConfig parameterizes a PerfTracker.
type PerfConfig struct {
	// HistorySize is the number of past metric values forming the band.
	HistorySize int
	// ChangeFrac is the relative drift outside the band that signals a
	// performance change (e.g. 0.15 = 15%).
	ChangeFrac float64
}

// DefaultPerfConfig returns a tracker configuration matching the
// centroid detector's history depth with a 15% change threshold.
func DefaultPerfConfig() PerfConfig {
	return PerfConfig{HistorySize: 8, ChangeFrac: 0.15}
}

// Validate reports configuration errors.
func (c *PerfConfig) Validate() error {
	if c.HistorySize < 2 {
		return fmt.Errorf("gpd: perf history size %d < 2", c.HistorySize)
	}
	if c.ChangeFrac <= 0 {
		return fmt.Errorf("gpd: perf change fraction %v <= 0", c.ChangeFrac)
	}
	return nil
}

// PerfVerdict is the outcome of observing one interval's metric value.
// It is the pipeline payload the Perf adapter publishes.
type PerfVerdict struct {
	// Value is the observed metric value.
	Value float64
	// Mean and SD describe the band the value was compared against.
	Mean, SD float64
	// Delta is the normalized drift outside the band (0 inside).
	Delta float64
	// Changed reports drift beyond ChangeFrac — a performance
	// characteristic change.
	Changed bool
}

// PerfTracker watches one scalar performance metric (CPI, DPI, ...) per
// interval and flags significant changes relative to its recent band.
// Not safe for concurrent use.
type PerfTracker struct {
	cfg     PerfConfig //lint:config -- fixed at construction
	hist    *stats.Window
	changes int
	total   int
}

// NewPerfTracker returns a tracker with the given configuration.
func NewPerfTracker(cfg PerfConfig) (*PerfTracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &PerfTracker{cfg: cfg, hist: stats.NewWindow(cfg.HistorySize)}, nil
}

// Observe feeds one interval's metric value.
func (p *PerfTracker) Observe(value float64) PerfVerdict {
	v := PerfVerdict{Value: value}
	v.Mean = p.hist.Mean()
	v.SD = p.hist.StdDev()
	if p.hist.Full() {
		lo, hi := v.Mean-v.SD, v.Mean+v.SD
		var drift float64
		switch {
		case value < lo:
			drift = lo - value
		case value > hi:
			drift = value - hi
		}
		if v.Mean > 0 {
			v.Delta = drift / v.Mean
		} else if drift > 0 {
			v.Delta = 1
		}
		if v.Delta > p.cfg.ChangeFrac {
			v.Changed = true
			p.changes++
			// A characteristic change obsoletes the old band.
			p.hist.Reset()
		}
	}
	p.hist.Add(value)
	p.total++
	return v
}

// Changes returns the number of performance changes flagged so far.
func (p *PerfTracker) Changes() int { return p.changes }

// Intervals returns the number of observations.
func (p *PerfTracker) Intervals() int { return p.total }

// Reset clears the tracker.
func (p *PerfTracker) Reset() {
	p.hist.Reset()
	p.changes = 0
	p.total = 0
}

// Package gpd implements the paper's baseline: centroid-based Global Phase
// Detection (Section 2, Figure 1), as used by the ADORE-family prototype
// runtime optimizers.
//
// On every sample-buffer overflow the mean (centroid) of the buffered
// program-counter values is computed. The detector keeps a history of
// centroids and derives a Band Of Stability (BOS) from their expectation E
// and standard deviation SD: [E-SD, E+SD]. The drift Δ of the newest
// centroid from the band (0 inside the band) drives a three-state machine
// — Unstable, LessStable, Stable — with empirically determined thresholds
// TH1..TH4 of 1%, 5%, 10% and 67% of E.
//
// Figure 1 in the source text is only partially legible; the transition
// rules below are this reproduction's documented interpretation (see also
// DESIGN.md):
//
//   - Unstable → LessStable when Δ/E ≤ TH2 and the band is not too thick
//     (SD < E/6, the paper's explicit check) and the history is full.
//   - LessStable → Stable when Δ/E ≤ TH1 for StableTimer consecutive
//     intervals (the paper's "timer is associated with the less stable
//     state").
//   - LessStable → Unstable when Δ/E > TH3.
//   - Stable → Unstable when Δ/E > TH3; this is a phase change.
//   - Δ/E > TH4 in any state additionally flags a drastic change — the
//     hint that the working set itself moved (new-code detection in the
//     prototype systems) — and clears the centroid history.
package gpd

import (
	"fmt"

	"regionmon/internal/hpm"
	"regionmon/internal/stats"
)

// State is the detector's phase state.
type State int

const (
	// Unstable: the centroid is drifting; no optimization is attempted.
	Unstable State = iota
	// LessStable: the centroid has been near the band; the stability
	// timer is running.
	LessStable
	// Stable: a stable phase — the optimizer's window of opportunity.
	Stable
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Unstable:
		return "unstable"
	case LessStable:
		return "less-stable"
	case Stable:
		return "stable"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config parameterizes the detector. The zero value is invalid; use
// DefaultConfig.
type Config struct {
	// HistorySize is the number of past centroids forming the band.
	HistorySize int
	// TH1 is the drift (fraction of E) below which the stability timer
	// advances (paper: 1%).
	TH1 float64
	// TH2 is the drift below which an unstable phase becomes less
	// stable (paper: 5%).
	TH2 float64
	// TH3 is the drift above which stability is lost (paper: 10%).
	TH3 float64
	// TH4 is the drastic-change drift hinting a working-set shift
	// (paper: 67%).
	TH4 float64
	// StableTimer is the number of consecutive low-drift intervals in
	// LessStable required to declare Stable.
	StableTimer int
	// MaxBandFrac is the maximum SD/E ratio for a meaningful band
	// (paper: 1/6).
	MaxBandFrac float64
}

// DefaultConfig returns the paper's empirically determined parameters.
func DefaultConfig() Config {
	return Config{
		HistorySize: 8,
		TH1:         0.01,
		TH2:         0.05,
		TH3:         0.10,
		TH4:         0.67,
		StableTimer: 2,
		MaxBandFrac: 1.0 / 6.0,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.HistorySize < 2 {
		return fmt.Errorf("gpd: history size %d < 2", c.HistorySize)
	}
	if !(c.TH1 > 0 && c.TH1 <= c.TH2 && c.TH2 <= c.TH3 && c.TH3 <= c.TH4) {
		return fmt.Errorf("gpd: thresholds must satisfy 0 < TH1 <= TH2 <= TH3 <= TH4 (got %v %v %v %v)",
			c.TH1, c.TH2, c.TH3, c.TH4)
	}
	if c.StableTimer < 1 {
		return fmt.Errorf("gpd: stable timer %d < 1", c.StableTimer)
	}
	if c.MaxBandFrac <= 0 {
		return fmt.Errorf("gpd: max band fraction %v <= 0", c.MaxBandFrac)
	}
	return nil
}

// Verdict is the outcome of observing one interval. It is the pipeline
// payload the GPD adapter publishes.
type Verdict struct {
	// State is the detector state after the observation.
	State State
	// Prev is the state before the observation.
	Prev State
	// PhaseChange reports a crossing of the stable boundary in either
	// direction (the dotted transitions of the paper's state diagrams).
	PhaseChange bool
	// Drastic reports drift beyond TH4 — the working-set-shift hint.
	Drastic bool
	// Centroid is the observed interval centroid.
	Centroid float64
	// Delta is the normalized drift Δ/E from the band of stability.
	Delta float64
	// BandLow and BandHigh delimit the band of stability used.
	BandLow, BandHigh float64
}

// Detector is the centroid-based global phase detector. Not safe for
// concurrent use; the monitoring loop is single-threaded.
type Detector struct {
	cfg     Config //lint:config -- fixed at construction
	hist    *stats.Window
	state   State
	timer   int
	changes int
	stable  int
	total   int
}

// New returns a Detector with the given configuration.
func New(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, hist: stats.NewWindow(cfg.HistorySize)}, nil
}

// MustNew is New, panicking on configuration error (for use with
// DefaultConfig-derived configurations in tests and examples).
func MustNew(cfg Config) *Detector {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// State returns the current phase state.
func (d *Detector) State() State { return d.state }

// PhaseChanges returns the number of stable-boundary crossings into
// Unstable observed so far — the quantity Figure 3 counts.
func (d *Detector) PhaseChanges() int { return d.changes }

// StableFraction returns the fraction of observed intervals spent in the
// Stable state — Figure 4's quantity.
func (d *Detector) StableFraction() float64 {
	if d.total == 0 {
		return 0
	}
	return float64(d.stable) / float64(d.total)
}

// Intervals returns the number of intervals observed.
func (d *Detector) Intervals() int { return d.total }

// ObserveOverflow computes the centroid of an interval's PC samples and
// feeds it to Observe. The centroid is the aggregate metric at the heart
// of global phase detection: "the average value of program counter
// obtained by sampling ... does not deviate much; when it does deviate,
// it often indicates a phase change". It is summed in float64 in buffer
// order: PC values fit the 52-bit mantissa for the simulated address
// space (< 2^40), and even real 64-bit address spaces lose at most a few
// ULPs, far below the detector's thresholds. An empty interval repeats
// the previous state without advancing the machine.
func (d *Detector) ObserveOverflow(ov *hpm.Overflow) Verdict {
	if len(ov.Samples) == 0 {
		d.total++
		if d.state == Stable {
			d.stable++
		}
		return Verdict{State: d.state, Prev: d.state}
	}
	var sum float64
	for i := range ov.Samples {
		sum += float64(ov.Samples[i].PC)
	}
	return d.Observe(sum / float64(len(ov.Samples)))
}

// Observe feeds one interval centroid to the detector and returns the
// verdict.
func (d *Detector) Observe(centroid float64) Verdict {
	v := Verdict{Prev: d.state, Centroid: centroid}

	e := d.hist.Mean()
	sd := d.hist.StdDev()
	v.BandLow, v.BandHigh = e-sd, e+sd

	// Normalized drift from the band.
	var delta float64
	switch {
	case d.hist.Len() < 2:
		// No band yet: treat as maximal uncertainty; stay/return to
		// Unstable until a history accumulates.
		delta = 1
	case centroid < v.BandLow:
		delta = v.BandLow - centroid
	case centroid > v.BandHigh:
		delta = centroid - v.BandHigh
	}
	if d.hist.Len() >= 2 {
		if e > 0 {
			delta /= e
		} else if delta > 0 {
			delta = 1
		}
	}
	v.Delta = delta
	v.Drastic = d.hist.Len() >= 2 && delta > d.cfg.TH4

	bandThin := e > 0 && sd < e*d.cfg.MaxBandFrac

	switch d.state {
	case Unstable:
		if d.hist.Full() && delta <= d.cfg.TH2 && bandThin {
			d.state = LessStable
			d.timer = 0
		}
	case LessStable:
		switch {
		case delta > d.cfg.TH3:
			d.state = Unstable
		case delta <= d.cfg.TH1:
			d.timer++
			if d.timer >= d.cfg.StableTimer {
				d.state = Stable
			}
		default:
			d.timer = 0
		}
	case Stable:
		if delta > d.cfg.TH3 {
			d.state = Unstable
			d.changes++
		}
	}

	v.State = d.state
	v.PhaseChange = (v.Prev == Stable) != (v.State == Stable)

	d.hist.Add(centroid)
	if v.Drastic {
		// Working set moved: the old band is meaningless.
		d.hist.Reset()
		d.hist.Add(centroid)
	}

	d.total++
	if d.state == Stable {
		d.stable++
	}
	return v
}

// Reset returns the detector to its initial state, clearing history and
// counters.
func (d *Detector) Reset() {
	d.hist.Reset()
	d.state = Unstable
	d.timer = 0
	d.changes = 0
	d.stable = 0
	d.total = 0
}

// Package changepoint implements E-divisive-style change-point detection
// over scalar metric series — the statistically grounded alternative to
// the paper's TH1..TH4 threshold state machines, following "Hunter: Using
// Change Point Detection to Hunt for Performance Regressions" (PAPERS.md).
//
// The core is an offline Engine: given a series, it finds the split that
// maximizes the energy-distance divergence between the two sides,
// assesses the split's significance with a permutation test on a seeded
// deterministic PRNG (splitmix64, Fisher-Yates), and — when significant —
// recurses on both halves (hierarchical bisection). Everything is exact
// and replayable: the same series, configuration and seed always yield
// the same change points, so a detection is a fact two runs can agree on
// byte-for-byte.
//
// Two entry points share the engine:
//
//   - the online Detector (detector.go): a windowed per-interval phase
//     detector behind the pipeline's PhaseDetector contract, watching a
//     scalar metric (CPI by default) for distributional shifts;
//   - Detect: one whole series at a time, offline (the façade's
//     DetectChangePoints).
package changepoint

import (
	"fmt"
	"math"
)

// EngineConfig parameterizes the offline engine. The zero value is not
// valid; start from DefaultEngineConfig.
type EngineConfig struct {
	// Permutations is the number of random re-orderings per segment test.
	// The smallest achievable p-value is 1/(Permutations+1), so with 19
	// permutations a split must beat every re-ordering to reach p = 0.05.
	Permutations int
	// Alpha is the significance level: a split is a change point when
	// its permutation p-value is <= Alpha.
	Alpha float64
	// MinSegment is the minimum number of observations on each side of a
	// split (and in each recursed segment). It bounds both the earliest
	// and latest detectable change position.
	MinSegment int
}

// DefaultEngineConfig returns the engine parameters used by the online
// detector: 99 permutations (p resolution 0.01), alpha 0.01, minimum
// segment 8. Alpha sits at the resolution floor, so a split must beat
// every permutation to count — an online detector evaluating every few
// dozen intervals needs the per-test false-positive rate this low or
// spurious "changes" accumulate over a long run.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{Permutations: 99, Alpha: 0.01, MinSegment: 8}
}

// Validate reports configuration errors.
func (c *EngineConfig) Validate() error {
	if c.Permutations < 1 {
		return fmt.Errorf("changepoint: permutations %d < 1", c.Permutations)
	}
	if !(c.Alpha > 0 && c.Alpha <= 1) {
		return fmt.Errorf("changepoint: alpha %v outside (0, 1]", c.Alpha)
	}
	if c.MinSegment < 1 {
		return fmt.Errorf("changepoint: min segment %d < 1", c.MinSegment)
	}
	return nil
}

// ChangePoint is one detected distributional shift: the series splits at
// Index (the first observation of the new regime).
type ChangePoint struct {
	// Index is the split position: observations [.., Index) belong to the
	// old regime, [Index, ..) to the new one.
	Index int
	// Stat is the energy-distance divergence statistic at the split.
	Stat float64
	// PValue is the permutation p-value of the split within its segment,
	// (1 + #{permutations >= Stat}) / (1 + Permutations).
	PValue float64
}

// span is one pending segment of the hierarchical bisection.
type span struct{ start, end int }

// Engine runs E-divisive detection over series of up to maxN
// observations with zero steady-state allocation: all scratch (the
// permutation buffer and the bisection stack) is sized at construction,
// so the online detector can run it on the monitoring hot path.
type Engine struct {
	cfg  EngineConfig //lint:config -- fixed at construction
	perm []float64    //lint:config -- permutation scratch, capacity fixed at construction
	// stack is the bisection worklist, reused via [:0] each Detect call.
	//lint:bounded -- capacity maxN/MinSegment+1 fixed at construction; Detect rejects longer series
	stack []span //lint:config -- bisection worklist scratch
	rng   uint64
}

// NewEngine returns an engine for series of at most maxN observations.
func NewEngine(maxN int, cfg EngineConfig) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if maxN < 2*cfg.MinSegment {
		return nil, fmt.Errorf("changepoint: maxN %d below 2*MinSegment %d", maxN, 2*cfg.MinSegment)
	}
	return &Engine{
		cfg:   cfg,
		perm:  make([]float64, maxN),
		stack: make([]span, 0, maxN/cfg.MinSegment+1),
	}, nil
}

// gamma is splitmix64's state increment: the PRNG is a counter that
// advances by gamma per draw.
const gamma = 0x9e3779b97f4a7c15

// next is splitmix64 over the engine's per-Detect PRNG state.
func (e *Engine) next() uint64 {
	e.rng += gamma
	z := e.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Detect appends every significant change point in xs to dst, in
// ascending Index order, and returns the extended slice. The PRNG is
// re-seeded from seed on every call, so identical (xs, seed) inputs
// yield identical output regardless of what the engine processed before.
// xs is read-only. A span whose best-split statistic is NaN is not
// significant and is not split further: no permutation can reach a NaN,
// so the test would otherwise call it significant at p = 1/(R+1). A NaN
// or ±Inf in xs does that, and so do finite values far enough apart
// (near ±1e308) that their differences overflow; the package-level
// Detect rejects non-finite input and the online Detector skips windows
// holding it. It panics if len(xs) exceeds the construction maxN.
func (e *Engine) Detect(xs []float64, seed uint64, dst []ChangePoint) []ChangePoint {
	if len(xs) > len(e.perm) {
		panic(fmt.Sprintf("changepoint: series length %d exceeds engine capacity %d", len(xs), len(e.perm)))
	}
	e.rng = seed
	base := len(dst)
	e.stack = e.stack[:0]
	e.stack = append(e.stack, span{0, len(xs)})
	for len(e.stack) > 0 {
		sp := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		if sp.end-sp.start < 2*e.cfg.MinSegment {
			continue
		}
		tau, stat := bestSplit(xs[sp.start:sp.end], e.cfg.MinSegment)
		if tau < 0 || math.IsNaN(stat) {
			continue
		}
		p := e.permutationPValue(xs[sp.start:sp.end], stat)
		if p > e.cfg.Alpha {
			continue
		}
		dst = insertSorted(dst, base, ChangePoint{Index: sp.start + tau, Stat: stat, PValue: p})
		e.stack = append(e.stack, span{sp.start, sp.start + tau})
		e.stack = append(e.stack, span{sp.start + tau, sp.end})
	}
	return dst
}

// permutationPValue estimates how often a random re-ordering of seg
// produces a best-split statistic at least as large as stat. The result
// is exact whenever it is <= Alpha. Otherwise the test stops at the
// exceedance that pushes (1+exceed)/(1+R) past Alpha and returns that
// partial value: later rounds can only raise it, so the verdict is
// already settled. Every round draws exactly len(seg)-1 numbers, so the
// early exit first advances the counter-based PRNG past the rounds it
// skips, and the segments tested after this one see the same stream as
// under a full test.
func (e *Engine) permutationPValue(seg []float64, stat float64) float64 {
	buf := e.perm[:len(seg)]
	copy(buf, seg)
	rounds := e.cfg.Permutations
	exceed := 0
	for r := 0; r < rounds; r++ {
		// Fisher-Yates; shuffling the previous round's order is itself a
		// uniform permutation of the original.
		for i := len(buf) - 1; i > 0; i-- {
			j := int(e.next() % uint64(i+1))
			buf[i], buf[j] = buf[j], buf[i]
		}
		if _, q := bestSplit(buf, e.cfg.MinSegment); q >= stat {
			exceed++
			if p := float64(1+exceed) / float64(1+rounds); p > e.cfg.Alpha {
				e.rng += uint64(rounds-r-1) * uint64(len(buf)-1) * gamma
				return p
			}
		}
	}
	return float64(1+exceed) / float64(1+rounds)
}

// bestSplit scans every admissible split position tau (MinSegment <= tau
// <= n-MinSegment) and returns the one maximizing the energy-distance
// divergence statistic
//
//	q(tau) = (m*k/(m+k)) * (2*E|X-Y| - E|X-X'| - E|Y-Y'|)
//
// where X is xs[:tau] (m points), Y is xs[tau:] (k points) and the
// expectations are means of pairwise absolute differences. The three
// pairwise sums are maintained incrementally as tau advances — O(n) per
// step after an O(n^2) initialization — so a full scan is O(n^2) rather
// than O(n^3). Returns (-1, 0) when no admissible split exists. Ties keep
// the earliest tau, so the scan is deterministic.
func bestSplit(xs []float64, minSeg int) (int, float64) {
	n := len(xs)
	if n < 2*minSeg {
		return -1, 0
	}
	// Sums at tau = 1: left = {x0}, right = {x1..}.
	var sxx, syy, sxy float64
	for j := 1; j < n; j++ {
		sxy += math.Abs(xs[0] - xs[j])
		for i := 1; i < j; i++ {
			syy += math.Abs(xs[i] - xs[j])
		}
	}
	bestTau, bestQ := -1, 0.0
	for tau := 1; tau <= n-minSeg; tau++ {
		if tau > 1 {
			// Move xs[tau-1] from the right side to the left side.
			p := xs[tau-1]
			var dLeft, dRight float64
			for i := 0; i < tau-1; i++ {
				dLeft += math.Abs(xs[i] - p)
			}
			for j := tau; j < n; j++ {
				dRight += math.Abs(p - xs[j])
			}
			sxx += dLeft
			syy -= dRight
			sxy += dRight - dLeft
		}
		if tau < minSeg {
			continue
		}
		m, k := float64(tau), float64(n-tau)
		exy := sxy / (m * k)
		var exx, eyy float64
		if tau > 1 {
			exx = 2 * sxx / (m * (m - 1))
		}
		if n-tau > 1 {
			eyy = 2 * syy / (k * (k - 1))
		}
		q := (m * k / (m + k)) * (2*exy - exx - eyy)
		if bestTau < 0 || q > bestQ {
			bestTau, bestQ = tau, q
		}
	}
	return bestTau, bestQ
}

// insertSorted inserts cp into dst keeping dst[base:] ascending by Index
// (the prefix dst[:base] belongs to the caller and is left untouched).
func insertSorted(dst []ChangePoint, base int, cp ChangePoint) []ChangePoint {
	dst = append(dst, cp)
	i := len(dst) - 1
	for i > base && dst[i-1].Index > cp.Index {
		dst[i] = dst[i-1]
		i--
	}
	dst[i] = cp
	return dst
}

// Detect is the offline convenience entry: it builds a one-shot engine
// sized to xs and returns every significant change point. The façade's
// DetectChangePoints and tests use it; the online detector constructs its
// Engine once. It returns an error naming the first NaN or ±Inf
// observation.
func Detect(xs []float64, seed uint64, cfg EngineConfig) ([]ChangePoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if i := firstNonFinite(xs); i >= 0 {
		return nil, fmt.Errorf("changepoint: observation %d is %v; the series must be finite", i, xs[i])
	}
	if len(xs) < 2*cfg.MinSegment {
		return nil, nil
	}
	e, err := NewEngine(len(xs), cfg)
	if err != nil {
		return nil, err
	}
	return e.Detect(xs, seed, nil), nil
}

// firstNonFinite returns the index of the first NaN or ±Inf in xs, or -1.
func firstNonFinite(xs []float64) int {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}

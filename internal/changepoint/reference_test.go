package changepoint

import (
	"math"
	"testing"
)

// refEngine is a frozen copy of the engine before the permutation test
// learned to stop early: every segment test runs all R rounds, and
// absolute differences use a branching abs. It is the oracle for
// TestEngineMatchesReference and must not be changed to track the engine.
type refEngine struct {
	cfg  EngineConfig
	perm []float64
	rng  uint64
}

func (e *refEngine) next() uint64 {
	e.rng += 0x9e3779b97f4a7c15
	z := e.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (e *refEngine) detect(xs []float64, seed uint64) []ChangePoint {
	e.perm = make([]float64, len(xs))
	e.rng = seed
	var dst []ChangePoint
	stack := []span{{0, len(xs)}}
	for len(stack) > 0 {
		sp := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if sp.end-sp.start < 2*e.cfg.MinSegment {
			continue
		}
		tau, stat := refBestSplit(xs[sp.start:sp.end], e.cfg.MinSegment)
		if tau < 0 {
			continue
		}
		p := e.permutationPValue(xs[sp.start:sp.end], stat)
		if p > e.cfg.Alpha {
			continue
		}
		dst = insertSorted(dst, 0, ChangePoint{Index: sp.start + tau, Stat: stat, PValue: p})
		stack = append(stack, span{sp.start, sp.start + tau}, span{sp.start + tau, sp.end})
	}
	return dst
}

func (e *refEngine) permutationPValue(seg []float64, stat float64) float64 {
	buf := e.perm[:len(seg)]
	copy(buf, seg)
	exceed := 0
	for r := 0; r < e.cfg.Permutations; r++ {
		for i := len(buf) - 1; i > 0; i-- {
			j := int(e.next() % uint64(i+1))
			buf[i], buf[j] = buf[j], buf[i]
		}
		if _, q := refBestSplit(buf, e.cfg.MinSegment); q >= stat {
			exceed++
		}
	}
	return float64(1+exceed) / float64(1+e.cfg.Permutations)
}

func refBestSplit(xs []float64, minSeg int) (int, float64) {
	n := len(xs)
	if n < 2*minSeg {
		return -1, 0
	}
	var sxx, syy, sxy float64
	for j := 1; j < n; j++ {
		sxy += refAbs(xs[0] - xs[j])
		for i := 1; i < j; i++ {
			syy += refAbs(xs[i] - xs[j])
		}
	}
	bestTau, bestQ := -1, 0.0
	for tau := 1; tau <= n-minSeg; tau++ {
		if tau > 1 {
			p := xs[tau-1]
			var dLeft, dRight float64
			for i := 0; i < tau-1; i++ {
				dLeft += refAbs(xs[i] - p)
			}
			for j := tau; j < n; j++ {
				dRight += refAbs(p - xs[j])
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

func refAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// randomSeries draws a piecewise series of 1 to 4 regimes with noise.
// One series in three is quantized to a few levels, so many pairwise
// differences are exactly zero (ties); one in eight replaces half its
// values with zeros of either sign, where the reference's abs returns -0
// and math.Abs +0; one in twenty is constant.
func randomSeries(g *noise, maxN int) []float64 {
	n := 16 + int(g.next()%uint64(maxN-15))
	xs := make([]float64, n)
	quantized := g.next()%3 == 0
	signedZeros := g.next()%8 == 0
	constant := g.next()%20 == 0
	regimes := 1 + int(g.next()%4)
	level := 1 + float64(g.next()%100)/50
	for i := range xs {
		if i > 0 && g.next()%uint64(n) < uint64(regimes-1) {
			level = 1 + float64(g.next()%100)/50
		}
		x := g.value(level, level*0.05)
		if quantized {
			x = math.Round(x*4) / 4
		}
		if signedZeros && g.next()%2 == 0 {
			x = math.Copysign(0, float64(g.next()%2)-0.5)
		}
		if constant {
			x = 2
		}
		xs[i] = x
	}
	return xs
}

// TestEngineMatchesReference checks the engine against the frozen
// full-permutation copy, bit for bit, over seeded random series. The
// configurations cover the online default (the first exceedance settles
// a test), tests settled only after many exceedances (R=199, alpha 0.5
// needs 100; R=99, alpha 0.05 needs 5) and one where no test can stop
// early (alpha 1). A skip-ahead off by one round, or by one draw per
// round, shifts the stream every later segment test sees.
func TestEngineMatchesReference(t *testing.T) {
	configs := []EngineConfig{
		DefaultEngineConfig(),
		{Permutations: 19, Alpha: 0.05, MinSegment: 4},
		{Permutations: 199, Alpha: 0.5, MinSegment: 4},
		{Permutations: 99, Alpha: 0.05, MinSegment: 3},
		{Permutations: 7, Alpha: 1, MinSegment: 2},
	}
	const series = 1000
	g := noise{rng: 0xc0ffee}
	changes := 0
	for i := 0; i < series; i++ {
		cfg := configs[i%len(configs)]
		xs := randomSeries(&g, 56)
		seed := g.next()
		ref := &refEngine{cfg: cfg}
		want := ref.detect(xs, seed)
		eng, err := NewEngine(len(xs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := eng.Detect(xs, seed, nil)
		if len(got) != len(want) {
			t.Fatalf("series %d (cfg %+v): %d change points, reference %d\n got %+v\nwant %+v", i, cfg, len(got), len(want), got, want)
		}
		for k := range got {
			if got[k].Index != want[k].Index ||
				math.Float64bits(got[k].Stat) != math.Float64bits(want[k].Stat) ||
				math.Float64bits(got[k].PValue) != math.Float64bits(want[k].PValue) {
				t.Fatalf("series %d (cfg %+v) change point %d: got %+v, reference %+v", i, cfg, k, got[k], want[k])
			}
		}
		// The PRNG ends where the reference's does: the skip-ahead
		// accounted for every draw the early exits left out.
		if eng.rng != ref.rng {
			t.Fatalf("series %d (cfg %+v): PRNG state %#x, reference %#x", i, cfg, eng.rng, ref.rng)
		}
		changes += len(got)
	}
	// Significant segments are where later tests' streams show; make
	// sure the series produce plenty of them.
	if changes < series/4 {
		t.Errorf("only %d change points over %d series", changes, series)
	}
}

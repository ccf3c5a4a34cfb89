package changepoint

import (
	"math"
	"strings"
	"testing"
)

// noise is a deterministic splitmix64-driven generator of values in
// [base-amp, base+amp).
type noise struct{ rng uint64 }

func (n *noise) next() uint64 {
	n.rng += 0x9e3779b97f4a7c15
	z := n.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (n *noise) value(base, amp float64) float64 {
	return base + amp*(float64(n.next()%1000)/500-1)
}

// series builds segments of noisy observations: segs is a list of
// (length, mean) pairs with 2% relative noise.
func series(seed uint64, segs ...[2]float64) []float64 {
	g := noise{rng: seed}
	var out []float64
	for _, s := range segs {
		n, mean := int(s[0]), s[1]
		for i := 0; i < n; i++ {
			out = append(out, g.value(mean, mean*0.02))
		}
	}
	return out
}

func TestEngineDetectsStep(t *testing.T) {
	cfg := EngineConfig{Permutations: 99, Alpha: 0.05, MinSegment: 4}
	xs := series(7, [2]float64{30, 100}, [2]float64{20, 70})
	cps, err := Detect(xs, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("no change point found on a 30% step")
	}
	// The dominant change point localizes near the true split at 30.
	best := cps[0]
	for _, cp := range cps {
		if cp.Stat > best.Stat {
			best = cp
		}
	}
	if best.Index < 27 || best.Index > 33 {
		t.Errorf("change point at %d; want near 30 (got %+v)", best.Index, cps)
	}
	if best.PValue > cfg.Alpha {
		t.Errorf("change point p = %v above alpha %v", best.PValue, cfg.Alpha)
	}
}

func TestEngineQuietOnHomogeneousSeries(t *testing.T) {
	cfg := EngineConfig{Permutations: 99, Alpha: 0.01, MinSegment: 4}
	falsePositives := 0
	for seed := uint64(1); seed <= 20; seed++ {
		xs := series(seed, [2]float64{60, 100})
		cps, err := Detect(xs, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(cps) > 0 {
			falsePositives++
		}
	}
	// At alpha 0.01 the expected false-positive count over 20 trials is
	// 0.2; allow a little slack but a systematic bias must fail.
	if falsePositives > 2 {
		t.Errorf("%d/20 homogeneous series flagged at alpha 0.01", falsePositives)
	}
}

func TestEngineHierarchicalBisection(t *testing.T) {
	cfg := EngineConfig{Permutations: 99, Alpha: 0.05, MinSegment: 4}
	xs := series(11, [2]float64{24, 100}, [2]float64{24, 60}, [2]float64{24, 140})
	cps, err := Detect(xs, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) < 2 {
		t.Fatalf("found %d change points on a two-step series; want >= 2 (%+v)", len(cps), cps)
	}
	for i := 1; i < len(cps); i++ {
		if cps[i-1].Index >= cps[i].Index {
			t.Fatalf("change points not ascending: %+v", cps)
		}
	}
	near := func(idx, want int) bool { return idx >= want-4 && idx <= want+4 }
	foundA, foundB := false, false
	for _, cp := range cps {
		if near(cp.Index, 24) {
			foundA = true
		}
		if near(cp.Index, 48) {
			foundB = true
		}
	}
	if !foundA || !foundB {
		t.Errorf("splits at 24/48 not both localized: %+v", cps)
	}
}

func TestEngineDeterministic(t *testing.T) {
	cfg := DefaultEngineConfig()
	eng, err := NewEngine(128, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs := series(5, [2]float64{40, 100}, [2]float64{40, 80})
	a := eng.Detect(xs, 42, nil)
	// Interleave an unrelated detection to perturb internal state.
	eng.Detect(series(9, [2]float64{50, 10}, [2]float64{30, 90}), 7, nil)
	b := eng.Detect(xs, 42, nil)
	if len(a) != len(b) {
		t.Fatalf("reruns found %d vs %d change points", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rerun change point %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed may move p-values but the call must stay valid.
	c := eng.Detect(xs, 43, nil)
	for i := 1; i < len(c); i++ {
		if c[i-1].Index >= c[i].Index {
			t.Fatalf("seed 43 results not ascending: %+v", c)
		}
	}
}

func TestEngineCapacityPanic(t *testing.T) {
	eng, err := NewEngine(16, DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Detect over capacity did not panic")
		}
	}()
	eng.Detect(make([]float64, 17), 1, nil)
}

func TestEngineShortSeries(t *testing.T) {
	cfg := DefaultEngineConfig()
	cps, err := Detect(make([]float64, 2*cfg.MinSegment-1), 1, cfg)
	if err != nil || cps != nil {
		t.Errorf("short series: got (%v, %v); want (nil, nil)", cps, err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []EngineConfig{
		{Permutations: 0, Alpha: 0.05, MinSegment: 4},
		{Permutations: 9, Alpha: 0, MinSegment: 4},
		{Permutations: 9, Alpha: 1.5, MinSegment: 4},
		{Permutations: 9, Alpha: 0.05, MinSegment: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("engine config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewEngine(4, DefaultEngineConfig()); err == nil {
		t.Error("engine with maxN below 2*MinSegment accepted")
	}
	c := DefaultConfig()
	c.Window = 2*c.Engine.MinSegment - 1
	if _, err := New(c); err == nil {
		t.Error("detector with window below 2*MinSegment accepted")
	}
	c = DefaultConfig()
	c.EvalEvery = 0
	if _, err := New(c); err == nil {
		t.Error("detector with zero eval stride accepted")
	}
}

func TestBestSplitTiesAndEdges(t *testing.T) {
	// Constant series: every split has q = 0; earliest admissible tau wins.
	xs := make([]float64, 20)
	tau, q := bestSplit(xs, 4)
	if tau != 4 || q != 0 {
		t.Errorf("constant series best split = (%d, %v); want (4, 0)", tau, q)
	}
	if tau, _ := bestSplit(xs[:7], 4); tau != -1 {
		t.Errorf("inadmissible series returned tau %d; want -1", tau)
	}
}

// TestDetectRejectsNonFinite: a NaN or ±Inf used to turn every split's
// statistic into NaN, which no permutation reaches, so a flat series
// grew spurious change points at p = 1/(R+1).
func TestDetectRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		xs := make([]float64, 48)
		for i := range xs {
			xs[i] = 1.5
		}
		xs[30] = bad
		cps, err := Detect(xs, 1, DefaultEngineConfig())
		if err == nil || !strings.Contains(err.Error(), "observation 30 ") {
			t.Errorf("%v at 30: err = %v; want one naming observation 30", bad, err)
		}
		if cps != nil {
			t.Errorf("%v at 30: change points %+v alongside the error", bad, cps)
		}
	}
}

// TestOverflowingSeriesNotSignificant: finite values alternating between
// +1e308 and -1e308 overflow the pairwise differences to +Inf and the
// statistic to NaN. Before, every such span read as significant: Detect
// returned four change points with Stat NaN and PValue 0.01, and the
// online detector confirmed them. A NaN statistic is now not significant
// on both paths.
func TestOverflowingSeriesNotSignificant(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = 1e308
		if i%2 == 1 {
			xs[i] = -1e308
		}
	}
	cps, err := Detect(xs, 1, DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 0 {
		t.Errorf("Detect found %d change points: %+v", len(cps), cps)
	}
	d := MustNew(DefaultConfig())
	for i := 0; i < 400; i++ {
		if v := d.Observe(xs[i%len(xs)]); v.Changed {
			t.Fatalf("online detector confirmed a change at interval %d: %+v", i, v)
		}
	}
}

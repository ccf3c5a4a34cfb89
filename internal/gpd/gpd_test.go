package gpd

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
)

func newDefault(t *testing.T) *Detector {
	t.Helper()
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

// feedStable pushes n identical-ish centroids.
func feedStable(d *Detector, centroid float64, n int) Verdict {
	var v Verdict
	for i := 0; i < n; i++ {
		// Tiny wobble so SD is nonzero but far below E/6.
		c := centroid * (1 + 0.001*float64(i%3-1))
		v = d.Observe(c)
	}
	return v
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.HistorySize = 1 },
		func(c *Config) { c.TH1 = 0 },
		func(c *Config) { c.TH1 = 0.2 }, // > TH2
		func(c *Config) { c.TH3 = 0.9 }, // > TH4
		func(c *Config) { c.StableTimer = 0 },
		func(c *Config) { c.MaxBandFrac = 0 },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if _, err := New(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad config should panic")
		}
	}()
	MustNew(Config{})
}

func TestReachesStableOnSteadyCentroid(t *testing.T) {
	d := newDefault(t)
	v := feedStable(d, 100_000, 20)
	if v.State != Stable {
		t.Fatalf("state after steady stream = %v; want stable", v.State)
	}
	if d.StableFraction() == 0 {
		t.Error("stable fraction should be positive")
	}
	if d.PhaseChanges() != 0 {
		t.Errorf("phase changes = %d; want 0", d.PhaseChanges())
	}
}

func TestEntersStableViaLessStable(t *testing.T) {
	d := newDefault(t)
	seen := map[State]bool{}
	for i := 0; i < 20; i++ {
		v := d.Observe(100_000)
		seen[v.State] = true
		if v.State == Stable {
			break
		}
	}
	if !seen[Unstable] || !seen[LessStable] || !seen[Stable] {
		t.Errorf("expected traversal through all states, saw %v", seen)
	}
}

func TestPhaseChangeOnCentroidShift(t *testing.T) {
	d := newDefault(t)
	v := feedStable(d, 100_000, 20)
	if v.State != Stable {
		t.Fatal("precondition: not stable")
	}
	// 20% shift: beyond TH3 (10%) but below TH4 (67%).
	v = d.Observe(120_000)
	if v.State != Unstable {
		t.Fatalf("state after 20%% shift = %v; want unstable", v.State)
	}
	if !v.PhaseChange {
		t.Error("20% shift should report a phase change")
	}
	if v.Drastic {
		t.Error("20% shift should not be drastic")
	}
	if d.PhaseChanges() != 1 {
		t.Errorf("phase changes = %d; want 1", d.PhaseChanges())
	}
}

func TestDrasticChangeFlagAndHistoryReset(t *testing.T) {
	d := newDefault(t)
	feedStable(d, 100_000, 20)
	v := d.Observe(300_000) // 200% drift
	if !v.Drastic {
		t.Fatal("200% drift should be drastic")
	}
	if v.State != Unstable {
		t.Fatalf("state = %v; want unstable", v.State)
	}
	// After the reset, the detector can re-stabilize around the new
	// centroid within history-size + timer intervals.
	v = feedStable(d, 300_000, 12)
	if v.State != Stable {
		t.Errorf("state after re-stabilization = %v; want stable", v.State)
	}
}

func TestSmallDriftWithinBandTolerated(t *testing.T) {
	d := newDefault(t)
	feedStable(d, 100_000, 20)
	// 0.5% wobble stays well inside TH1 territory.
	for i := 0; i < 10; i++ {
		v := d.Observe(100_000 * (1 + 0.005*float64(i%2*2-1)))
		if v.State != Stable {
			t.Fatalf("interval %d: 0.5%% wobble broke stability (%v)", i, v.State)
		}
	}
	if d.PhaseChanges() != 0 {
		t.Errorf("phase changes = %d; want 0", d.PhaseChanges())
	}
}

func TestThickBandBlocksLessStable(t *testing.T) {
	d := newDefault(t)
	// Alternate between two far-apart centroids: E ≈ 150k, SD ≈ 50k,
	// SD/E ≈ 1/3 > 1/6 → band too thick, LessStable never entered.
	for i := 0; i < 40; i++ {
		c := 100_000.0
		if i%2 == 1 {
			c = 200_000.0
		}
		v := d.Observe(c)
		if v.State != Unstable {
			t.Fatalf("interval %d: thick-band stream reached %v", i, v.State)
		}
	}
	if d.StableFraction() != 0 {
		t.Error("stable fraction should be 0 for a thick-band stream")
	}
}

// TestPeriodicSwitchingCausesInstability reproduces the facerec pathology:
// execution alternating between two region sets at a period comparable to
// the interval size keeps GPD perpetually out of stable phase even though
// each set is internally stable.
func TestPeriodicSwitchingCausesInstability(t *testing.T) {
	d := newDefault(t)
	phases := 0
	for rep := 0; rep < 30; rep++ {
		for i := 0; i < 3; i++ {
			if v := d.Observe(100_000); v.PhaseChange && v.State == Unstable {
				phases++
			}
		}
		for i := 0; i < 3; i++ {
			if v := d.Observe(180_000); v.PhaseChange && v.State == Unstable {
				phases++
			}
		}
	}
	if frac := d.StableFraction(); frac > 0.5 {
		t.Errorf("stable fraction under periodic switching = %.2f; want low", frac)
	}
}

// pcOverflow returns an overflow whose samples hit pcs in order.
func pcOverflow(pcs []isa.Addr) *hpm.Overflow {
	ov := &hpm.Overflow{Samples: make([]hpm.Sample, len(pcs))}
	for i, pc := range pcs {
		ov.Samples[i].PC = pc
	}
	return ov
}

func TestObserveOverflow(t *testing.T) {
	d := newDefault(t)
	pcs := make([]isa.Addr, 100)
	for i := range pcs {
		pcs[i] = 100_000
	}
	ov := pcOverflow(pcs)
	var v Verdict
	for i := 0; i < 20; i++ {
		v = d.ObserveOverflow(ov)
	}
	if v.State != Stable {
		t.Errorf("ObserveOverflow steady stream = %v; want stable", v.State)
	}
	// Empty interval: state repeats, no transition.
	v2 := d.ObserveOverflow(&hpm.Overflow{})
	if v2.State != Stable || v2.PhaseChange {
		t.Errorf("empty interval verdict = %+v; want unchanged stable", v2)
	}
	if d.Intervals() != 21 {
		t.Errorf("intervals = %d; want 21", d.Intervals())
	}
}

// TestObserveOverflowCentroidBits: the centroid ObserveOverflow feeds the
// machine is, bit for bit, the float64 sum of the sample PCs in buffer
// order divided by the sample count, over random PCs below 2^40 and
// random buffer lengths, including empty (centroid 0).
func TestObserveOverflowCentroidBits(t *testing.T) {
	rng := rand.New(rand.NewPCG(40, 2))
	d := newDefault(t)
	for trial := 0; trial < 300; trial++ {
		pcs := make([]isa.Addr, rng.IntN(2100))
		for i := range pcs {
			pcs[i] = isa.Addr(rng.Uint64N(1 << 40))
		}
		want := 0.0
		if len(pcs) > 0 {
			var sum float64
			for _, pc := range pcs {
				sum += float64(pc)
			}
			want = sum / float64(len(pcs))
		}
		got := d.ObserveOverflow(pcOverflow(pcs)).Centroid
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (%d samples): centroid %v (%#x); in-order sum gives %v (%#x)",
				trial, len(pcs), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestReset(t *testing.T) {
	d := newDefault(t)
	feedStable(d, 100_000, 20)
	d.Observe(200_000)
	d.Reset()
	if d.State() != Unstable || d.PhaseChanges() != 0 || d.Intervals() != 0 || d.StableFraction() != 0 {
		t.Error("Reset did not clear detector")
	}
}

func TestVerdictBandReporting(t *testing.T) {
	d := newDefault(t)
	feedStable(d, 100_000, 10)
	v := d.Observe(100_000)
	if !(v.BandLow <= 100_000 && 100_000 <= v.BandHigh) {
		t.Errorf("band [%v, %v] should straddle the steady centroid", v.BandLow, v.BandHigh)
	}
	if v.Delta != 0 {
		t.Errorf("delta inside band = %v; want 0", v.Delta)
	}
}

// Property: the detector never reports Stable before HistorySize + timer
// observations, and state is always one of the three defined values.
func TestWarmupProperty(t *testing.T) {
	cfg := DefaultConfig()
	minIntervals := cfg.HistorySize + cfg.StableTimer
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		d := MustNew(cfg)
		base := 1000 + rng.Float64()*1e6
		for i := 0; i < 50; i++ {
			c := base * (1 + (rng.Float64()-0.5)*0.004)
			v := d.Observe(c)
			if v.State < Unstable || v.State > Stable {
				return false
			}
			if v.State == Stable && i+1 < minIntervals {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: phase-change accounting is consistent — the verdict stream's
// stable→unstable crossings equal PhaseChanges().
func TestPhaseChangeAccountingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		d := MustNew(DefaultConfig())
		counted := 0
		for i := 0; i < 300; i++ {
			var c float64
			switch rng.IntN(3) {
			case 0:
				c = 100_000
			case 1:
				c = 100_000 * (1 + rng.Float64()*0.02)
			default:
				c = 100_000 * (1 + rng.Float64())
			}
			v := d.Observe(c)
			if v.Prev == Stable && v.State == Unstable {
				counted++
			}
		}
		return counted == d.PhaseChanges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	if Unstable.String() != "unstable" || LessStable.String() != "less-stable" || Stable.String() != "stable" {
		t.Error("state names wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state should render")
	}
}

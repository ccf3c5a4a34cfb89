package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"regionmon/internal/snap"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPearsonPerfectPositive(t *testing.T) {
	x := []int64{1, 2, 3, 4, 5}
	y := []int64{2, 4, 6, 8, 10}
	r, ok := Pearson(x, y)
	if !ok || !almost(r, 1, 1e-12) {
		t.Fatalf("Pearson(x, 2x) = %v, %v; want 1, true", r, ok)
	}
}

func TestPearsonPerfectNegative(t *testing.T) {
	x := []int64{1, 2, 3, 4, 5}
	y := []int64{10, 8, 6, 4, 2}
	r, ok := Pearson(x, y)
	if !ok || !almost(r, -1, 1e-12) {
		t.Fatalf("Pearson(x, -x) = %v, %v; want -1, true", r, ok)
	}
}

// TestPearsonBottleneckShift reproduces the paper's Figure 8: shifting a
// single-instruction bottleneck by one position destroys the correlation
// (r close to zero), while scaling all counts by a constant keeps r near 1.
func TestPearsonBottleneckShift(t *testing.T) {
	original := []int64{10, 10, 10, 350, 10, 10, 10, 10, 10, 10}
	shifted := []int64{10, 10, 10, 10, 350, 10, 10, 10, 10, 10}
	scaled := make([]int64, len(original))
	for i, v := range original {
		scaled[i] = v*3 + 2 // more samples, similar frequencies
	}

	r, ok := Pearson(original, shifted)
	if !ok {
		t.Fatal("Pearson(original, shifted) undefined")
	}
	if math.Abs(r) > 0.2 {
		t.Errorf("shifted bottleneck r = %v; want |r| near 0 (paper: -0.056)", r)
	}

	r, ok = Pearson(original, scaled)
	if !ok {
		t.Fatal("Pearson(original, scaled) undefined")
	}
	if r < 0.99 {
		t.Errorf("scaled distribution r = %v; want near 1 (paper: 0.998)", r)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	flat := []int64{5, 5, 5, 5}
	vary := []int64{1, 2, 3, 4}
	if _, ok := Pearson(flat, vary); ok {
		t.Error("Pearson(flat, varying) should be undefined")
	}
	if _, ok := Pearson(vary, flat); ok {
		t.Error("Pearson(varying, flat) should be undefined")
	}
	r, ok := Pearson(flat, []int64{7, 7, 7, 7})
	if !ok || r != 1 {
		t.Errorf("Pearson(flat, flat) = %v, %v; want 1, true", r, ok)
	}
	zero := []int64{0, 0, 0, 0}
	r, ok = Pearson(zero, zero)
	if !ok || r != 1 {
		t.Errorf("Pearson(zero, zero) = %v, %v; want 1, true", r, ok)
	}
}

func TestPearsonLengthMismatch(t *testing.T) {
	if _, ok := Pearson([]int64{1, 2}, []int64{1, 2, 3}); ok {
		t.Error("mismatched lengths should be undefined")
	}
	if _, ok := Pearson(nil, nil); ok {
		t.Error("empty vectors should be undefined")
	}
}

// Property: r is symmetric, bounded, and invariant under positive affine
// transforms of either argument.
func TestPearsonProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 42))
		n := 2 + r.IntN(30)
		x := make([]int64, n)
		y := make([]int64, n)
		for i := range x {
			x[i] = int64(r.IntN(1000))
			y[i] = int64(r.IntN(1000))
		}
		rxy, okxy := Pearson(x, y)
		ryx, okyx := Pearson(y, x)
		if okxy != okyx {
			return false
		}
		if !okxy {
			return true
		}
		if !almost(rxy, ryx, 1e-9) {
			return false
		}
		if rxy < -1 || rxy > 1 {
			return false
		}
		// Affine transform: y' = 3y + 7 preserves r.
		y2 := make([]int64, n)
		for i := range y {
			y2[i] = 3*y[i] + 7
		}
		r2, ok2 := Pearson(x, y2)
		if ok2 != okxy {
			return false
		}
		return almost(rxy, r2, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("Pearson property violated: %v", err)
	}
}

func TestManhattan(t *testing.T) {
	x := []int64{10, 0, 0}
	if d := Manhattan(x, x); d != 0 {
		t.Errorf("Manhattan(x,x) = %v; want 0", d)
	}
	y := []int64{0, 0, 10}
	if d := Manhattan(x, y); !almost(d, 2, 1e-12) {
		t.Errorf("Manhattan(disjoint) = %v; want 2", d)
	}
	// Scaling invariance after normalization.
	x2 := []int64{20, 0, 0}
	if d := Manhattan(x, x2); d != 0 {
		t.Errorf("Manhattan(x, 2x) = %v; want 0", d)
	}
	if d := Manhattan([]int64{0, 0}, []int64{0, 0}); d != 0 {
		t.Errorf("Manhattan(zero, zero) = %v; want 0", d)
	}
	if d := Manhattan([]int64{0, 0}, []int64{1, 0}); d != 2 {
		t.Errorf("Manhattan(zero, nonzero) = %v; want 2", d)
	}
}

func TestTopKOverlap(t *testing.T) {
	overlap := func(x, y []int64, k int) float64 { return NewTopKScratch(len(x), k).Overlap(x, y, k) }
	x := []int64{100, 90, 80, 1, 2, 3}
	y := []int64{95, 85, 75, 3, 2, 1}
	if o := overlap(x, y, 3); o != 1 {
		t.Errorf("same-hot overlap = %v; want 1", o)
	}
	z := []int64{1, 2, 3, 100, 90, 80}
	if o := overlap(x, z, 3); o != 0 {
		t.Errorf("disjoint-hot overlap = %v; want 0", o)
	}
	if o := overlap(x, y, 100); o < 0 || o > 1 {
		t.Errorf("clamped k out of range: %v", o)
	}
	if o := overlap(x, y, 0); o != 0 {
		t.Errorf("k=0 overlap = %v; want 0", o)
	}
	if o := overlap([]int64{1}, []int64{1, 2}, 1); o != 0 {
		t.Errorf("mismatched lengths overlap = %v; want 0", o)
	}
}

// TestTopKScratchReuseMatchesFresh checks one scratch reused across a
// seeded random stream and several k against a fresh scratch per call.
func TestTopKScratchReuseMatchesFresh(t *testing.T) {
	const n = 24
	s := NewTopKScratch(n, 5)
	seed := uint64(0x70CC)
	next := func() int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int64(seed >> 56)
	}
	for trial := 0; trial < 50; trial++ {
		x := make([]int64, n)
		y := make([]int64, n)
		for i := range x {
			x[i], y[i] = next(), next()
		}
		for _, k := range []int{0, 1, 3, 5} {
			want := NewTopKScratch(n, k).Overlap(x, y, k)
			if got := s.Overlap(x, y, k); got != want {
				t.Fatalf("trial %d k=%d: reused scratch Overlap = %v; fresh = %v", trial, k, got, want)
			}
		}
	}
}

// TestTopKScratchNoAllocs pins the hot-path contract: once constructed,
// Overlap performs no allocations.
func TestTopKScratchNoAllocs(t *testing.T) {
	const n = 64
	s := NewTopKScratch(n, 8)
	x := make([]int64, n)
	y := make([]int64, n)
	for i := range x {
		x[i] = int64(i * 7 % 13)
		y[i] = int64(i * 5 % 11)
	}
	allocs := testing.AllocsPerRun(100, func() { s.Overlap(x, y, 8) })
	if allocs != 0 {
		t.Errorf("TopKScratch.Overlap allocates %v per run; want 0", allocs)
	}
}

// TestPearsonRefBitIdentical pins the fused kernel's contract: for any
// reference/current pair — including zero-variance, negative and empty-ish
// shapes — PearsonRef.Observe returns exactly the bits Pearson returns.
func TestPearsonRefBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xFE44, 7))
	for _, n := range []int{1, 2, 3, 8, 64, 257} {
		p := NewPearsonRef(n)
		for trial := 0; trial < 200; trial++ {
			ref := make([]int64, n)
			cur := make([]int64, n)
			switch trial % 5 {
			case 0: // flat reference
				for i := range ref {
					ref[i] = 7
					cur[i] = int64(rng.IntN(50))
				}
			case 1: // flat current
				for i := range ref {
					ref[i] = int64(rng.IntN(50))
					cur[i] = 3
				}
			case 2: // both flat
				for i := range ref {
					ref[i], cur[i] = 9, 4
				}
			case 3: // negative entries exercise the general formula
				for i := range ref {
					ref[i] = int64(rng.IntN(200)) - 100
					cur[i] = int64(rng.IntN(200)) - 100
				}
			default:
				for i := range ref {
					ref[i] = int64(rng.IntN(400))
					cur[i] = int64(rng.IntN(400))
				}
			}
			p.Set(ref)
			gotR, gotOK := p.Observe(cur)
			wantR, wantOK := Pearson(cur, ref)
			if gotOK != wantOK || math.Float64bits(gotR) != math.Float64bits(wantR) {
				t.Fatalf("n=%d trial %d: PearsonRef.Observe = (%v, %v); Pearson = (%v, %v)",
					n, trial, gotR, gotOK, wantR, wantOK)
			}
		}
	}
}

func TestPearsonRefShapes(t *testing.T) {
	p := NewPearsonRef(4)
	if _, ok := p.Observe([]int64{1, 2, 3, 4}); ok {
		t.Error("Observe before Set should be undefined")
	}
	if m := p.Mean(); m != 0 {
		t.Errorf("Mean before Set = %v; want 0", m)
	}
	p.Set([]int64{2, 4, 6, 8})
	if m := p.Mean(); !almost(m, 5, 1e-12) {
		t.Errorf("Mean = %v; want 5", m)
	}
	if p.N() != 4 {
		t.Errorf("N = %d; want 4", p.N())
	}
	if _, ok := p.Observe([]int64{1, 2, 3}); ok {
		t.Error("Observe with mis-sized histogram should be undefined")
	}
	// Re-Set replaces the cached moments entirely.
	p.Set([]int64{1, 1, 1, 1})
	if r, ok := p.Observe([]int64{5, 5, 5, 5}); !ok || r != 1 {
		t.Errorf("flat/flat after re-Set = %v, %v; want 1, true", r, ok)
	}
	mustPanic(t, "NewPearsonRef(0)", func() { NewPearsonRef(0) })
	mustPanic(t, "Set size mismatch", func() { p.Set([]int64{1}) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

// TestPearsonRefNoAllocs pins the fused kernel's hot-path contract: once
// constructed, both Set (reference re-establishment) and Observe (the
// per-interval pass) perform no allocations.
func TestPearsonRefNoAllocs(t *testing.T) {
	const n = 64
	p := NewPearsonRef(n)
	ref := make([]int64, n)
	cur := make([]int64, n)
	for i := range ref {
		ref[i] = int64(i * 3 % 17)
		cur[i] = int64(i * 5 % 19)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.Set(ref) }); allocs != 0 {
		t.Errorf("PearsonRef.Set allocates %v per run; want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.Observe(cur) }); allocs != 0 {
		t.Errorf("PearsonRef.Observe allocates %v per run; want 0", allocs)
	}
}

func BenchmarkPearson(b *testing.B) {
	x, y := benchHistograms(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pearson(x, y)
	}
}

func BenchmarkPearsonRefObserve(b *testing.B) {
	x, y := benchHistograms(64)
	p := NewPearsonRef(64)
	p.Set(y)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(x)
	}
}

func benchHistograms(n int) (x, y []int64) {
	x = make([]int64, n)
	y = make([]int64, n)
	for i := range x {
		x[i] = int64(i * 3 % 17)
		y[i] = int64(i * 3 % 17)
	}
	x[13], y[13] = 400, 380
	return x, y
}

func TestMeanStdDevMedian(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(v); !almost(m, 5, 1e-12) {
		t.Errorf("Mean = %v; want 5", m)
	}
	if s := StdDev(v); !almost(s, 2, 1e-12) {
		t.Errorf("StdDev = %v; want 2", s)
	}
	if m := Median(v); !almost(m, 4.5, 1e-12) {
		t.Errorf("Median = %v; want 4.5", m)
	}
	odd := []float64{3, 1, 2}
	if m := Median(odd); m != 2 {
		t.Errorf("Median odd = %v; want 2", m)
	}
	// Median must not mutate its argument.
	if odd[0] != 3 || odd[1] != 1 || odd[2] != 2 {
		t.Errorf("Median mutated input: %v", odd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || Median(nil) != 0 {
		t.Error("empty-input statistics should be 0")
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("single-element StdDev should be 0")
	}
}

func TestWindowBasics(t *testing.T) {
	w := NewWindow(3)
	if w.Cap() != 3 || w.Len() != 0 || w.Full() {
		t.Fatal("fresh window misreports shape")
	}
	w.Add(1)
	w.Add(2)
	w.Add(3)
	if !w.Full() || !almost(w.Mean(), 2, 1e-12) {
		t.Fatalf("window [1 2 3]: mean = %v", w.Mean())
	}
	w.Add(4) // evicts 1
	if !almost(w.Mean(), 3, 1e-12) {
		t.Fatalf("window [2 3 4]: mean = %v", w.Mean())
	}
	got := w.Values(nil)
	want := []float64{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v; want %v", got, want)
		}
	}
	w.Reset()
	if w.Len() != 0 || w.Mean() != 0 {
		t.Error("Reset did not clear window")
	}
}

func TestWindowPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWindow(0) should panic")
		}
	}()
	NewWindow(0)
}

// Property: a sliding window's mean/stddev equal the two-pass statistics of
// the last capacity observations.
func TestWindowMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 50; trial++ {
		capacity := 1 + rng.IntN(20)
		w := NewWindow(capacity)
		var all []float64
		n := capacity + rng.IntN(100)
		for i := 0; i < n; i++ {
			x := rng.Float64() * 1e6
			w.Add(x)
			all = append(all, x)
		}
		tail := all
		if len(tail) > capacity {
			tail = tail[len(tail)-capacity:]
		}
		if !almost(w.Mean(), Mean(tail), 1e-6*(1+math.Abs(Mean(tail)))) {
			t.Fatalf("trial %d: window mean %v != %v", trial, w.Mean(), Mean(tail))
		}
		if !almost(w.StdDev(), StdDev(tail), 1e-5*(1+StdDev(tail))) {
			t.Fatalf("trial %d: window stddev %v != %v", trial, w.StdDev(), StdDev(tail))
		}
	}
}

func TestMedianLargeRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	v := make([]float64, 999)
	for i := range v {
		v[i] = rng.Float64()
	}
	m := Median(v)
	// Count how many are below/above; a true median splits evenly.
	var below, above int
	for _, x := range v {
		if x < m {
			below++
		} else if x > m {
			above++
		}
	}
	if below > len(v)/2 || above > len(v)/2 {
		t.Errorf("median %v splits %d below / %d above", m, below, above)
	}
}

func TestWindowSnapshotRoundTrip(t *testing.T) {
	w := NewWindow(8)
	// Enough adds to wrap the ring and accumulate float drift in sum/sum2.
	for i := 0; i < 100; i++ {
		w.Add(math.Sin(float64(i)) * 1e3)
	}
	e := snap.NewEncoder()
	w.AppendSnapshot(e)

	r := NewWindow(8)
	if err := snap.Unmarshal(r, e.Bytes()); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if r.Len() != w.Len() || r.Mean() != w.Mean() || r.StdDev() != w.StdDev() {
		t.Fatalf("restored window differs: Len %d/%d Mean %v/%v StdDev %v/%v",
			r.Len(), w.Len(), r.Mean(), w.Mean(), r.StdDev(), w.StdDev())
	}
	// Bit-identical continuation: the incremental sums were restored
	// verbatim, so the next Add yields identical Mean/StdDev on both.
	w.Add(0.125)
	r.Add(0.125)
	if r.Mean() != w.Mean() || r.StdDev() != w.StdDev() {
		t.Fatalf("post-restore divergence: Mean %v/%v StdDev %v/%v",
			r.Mean(), w.Mean(), r.StdDev(), w.StdDev())
	}

	if err := snap.Unmarshal(NewWindow(4), e.Bytes()); err == nil {
		t.Error("expected capacity mismatch error")
	}
}

// TestRestoreTruncatedLeavesTargetUntouched: a snapshot cut at any
// offset fails to restore and leaves the target byte-identical. The
// restore used to empty the target before reading the values.
func TestRestoreTruncatedLeavesTargetUntouched(t *testing.T) {
	window := func(n int, x float64) *Window {
		w := NewWindow(8)
		for i := 0; i < n; i++ {
			w.Add(x + float64(i))
		}
		return w
	}
	data := snap.Marshal(window(11, 0))
	target := window(3, -9)
	before := snap.Marshal(target)
	for cut := 0; cut < len(data); cut++ {
		if err := snap.Unmarshal(target, data[:cut]); err == nil {
			t.Fatalf("cut at %d of %d: restore accepted", cut, len(data))
		}
		if string(snap.Marshal(target)) != string(before) {
			t.Fatalf("cut at %d of %d: failed restore changed the target", cut, len(data))
		}
	}
}

// The TestSeries* tests pin the series of observations a Window holds,
// as the change-point detector reads it: eviction, oldest-first order
// across wraps, reset, zero-allocation Add, and snapshots taken at any
// head position.

func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSeriesBoundedEviction(t *testing.T) {
	w := NewWindow(4)
	for i := 1; i <= 10; i++ {
		w.Add(float64(i))
	}
	if w.Len() != 4 || !w.Full() {
		t.Fatalf("Len = %d, Full = %v, want 4, true", w.Len(), w.Full())
	}
	if got, want := w.Values(nil), []float64{7, 8, 9, 10}; !sameValues(got, want) {
		t.Fatalf("Values = %v, want %v", got, want)
	}
	if m := w.Mean(); m != 8.5 {
		t.Errorf("Mean = %v, want 8.5", m)
	}
	if m := Median(w.Values(nil)); m != 8.5 {
		t.Errorf("Median = %v, want 8.5", m)
	}
}

func TestSeriesOddMedian(t *testing.T) {
	w := NewWindow(8)
	for _, x := range []float64{5, 1, 3} {
		w.Add(x)
	}
	if m := Median(w.Values(nil)); m != 3 {
		t.Errorf("Median = %v, want 3", m)
	}
	if w.Mean() != 3 {
		t.Errorf("Mean = %v, want 3", w.Mean())
	}
	// Median sorts a copy: the window keeps its arrival order.
	if got, want := w.Values(nil), []float64{5, 1, 3}; !sameValues(got, want) {
		t.Errorf("Values = %v after Median, want %v", got, want)
	}
}

// TestSeriesWrapOrdering walks the ring across several full wraps,
// checking Values keeps exact oldest-first order at every step,
// including the Adds where the head returns to slot 0.
func TestSeriesWrapOrdering(t *testing.T) {
	const capacity = 5
	w := NewWindow(capacity)
	for i := 1; i <= 4*capacity+3; i++ {
		w.Add(float64(i))
		n := w.Len()
		if want := min(i, capacity); n != want {
			t.Fatalf("after %d adds: Len = %d, want %d", i, n, want)
		}
		lo := i - n + 1 // oldest retained value
		vals := w.Values(nil)
		if len(vals) != n {
			t.Fatalf("after %d adds: Values len %d, want %d", i, len(vals), n)
		}
		for j, v := range vals {
			if want := float64(lo + j); v != want {
				t.Fatalf("after %d adds: Values[%d] = %v, want %v", i, j, v, want)
			}
		}
	}
}

// TestSeriesSnapshotAtWrapBoundary snapshots a ring at every head
// position across several wraps (head 0 exactly included) and checks
// the restored ring re-snapshots bit-exact and continues identically.
func TestSeriesSnapshotAtWrapBoundary(t *testing.T) {
	const capacity = 4
	for adds := 0; adds <= 3*capacity+1; adds++ {
		w := NewWindow(capacity)
		for i := 0; i < adds; i++ {
			w.Add(float64(i) * 1.5)
		}
		data := snap.Marshal(w)
		r := NewWindow(capacity)
		if err := snap.Unmarshal(r, data); err != nil {
			t.Fatalf("adds=%d: Unmarshal: %v", adds, err)
		}
		if string(snap.Marshal(r)) != string(data) {
			t.Fatalf("adds=%d: restored window re-snapshots to different bytes", adds)
		}
		// Continue both across another full wrap: identical values and
		// statistics at every step.
		for i := 0; i < capacity+1; i++ {
			x := float64(100 + i)
			w.Add(x)
			r.Add(x)
			if wv, rv := w.Values(nil), r.Values(nil); !sameValues(wv, rv) {
				t.Fatalf("adds=%d step %d: post-restore divergence: %v vs %v", adds, i, rv, wv)
			}
			if r.Len() != w.Len() || r.Mean() != w.Mean() || r.StdDev() != w.StdDev() {
				t.Fatalf("adds=%d step %d: statistics diverged", adds, i)
			}
		}
	}
}

func TestSeriesReset(t *testing.T) {
	w := NewWindow(3)
	for i := 0; i < 7; i++ {
		w.Add(float64(i))
	}
	w.Reset()
	if w.Len() != 0 || w.Full() || w.Mean() != 0 || w.StdDev() != 0 || len(w.Values(nil)) != 0 {
		t.Fatalf("Reset left state: Len=%d Mean=%v StdDev=%v Values=%v",
			w.Len(), w.Mean(), w.StdDev(), w.Values(nil))
	}
	// A reset window encodes and refills exactly like a fresh one.
	fresh := NewWindow(3)
	if string(snap.Marshal(w)) != string(snap.Marshal(fresh)) {
		t.Fatal("reset window snapshots differently from a fresh one")
	}
	for _, x := range []float64{0.5, 2, 7, 11} {
		w.Add(x)
		fresh.Add(x)
		if !sameValues(w.Values(nil), fresh.Values(nil)) || w.Mean() != fresh.Mean() || w.StdDev() != fresh.StdDev() {
			t.Fatalf("after Add(%v): reset window %v differs from fresh %v", x, w.Values(nil), fresh.Values(nil))
		}
	}
}

func TestSeriesAppendNoAllocsBounded(t *testing.T) {
	w := NewWindow(64)
	allocs := testing.AllocsPerRun(200, func() {
		w.Add(0.5)
	})
	if allocs != 0 {
		t.Fatalf("Add allocates %v per op, want 0", allocs)
	}
}

func TestSeriesSnapshotRoundTrip(t *testing.T) {
	w := NewWindow(4)
	for i := 1; i <= 9; i++ {
		w.Add(float64(i) / 3)
	}
	r := NewWindow(4)
	if err := snap.Unmarshal(r, snap.Marshal(w)); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if r.Len() != w.Len() || r.Mean() != w.Mean() || r.StdDev() != w.StdDev() {
		t.Fatalf("restored window differs: Len %d/%d Mean %v/%v StdDev %v/%v",
			r.Len(), w.Len(), r.Mean(), w.Mean(), r.StdDev(), w.StdDev())
	}
	// Subsequent adds must behave identically (ring alignment restored).
	w.Add(100)
	r.Add(100)
	if wv, rv := w.Values(nil), r.Values(nil); !sameValues(wv, rv) {
		t.Fatalf("post-restore divergence: %v vs %v", rv, wv)
	}
}

// TestSeriesSnapshotMismatch: a snapshot restores only into a window of
// its own capacity, and one holding more values than its capacity is
// refused. A refused restore leaves the target as it was.
func TestSeriesSnapshotMismatch(t *testing.T) {
	w := NewWindow(4)
	w.Add(1)
	data := snap.Marshal(w)

	target := NewWindow(8)
	target.Add(7)
	before := snap.Marshal(target)
	if err := snap.Unmarshal(target, data); err == nil {
		t.Error("capacity-8 window accepted a capacity-4 snapshot")
	}
	if string(snap.Marshal(target)) != string(before) {
		t.Error("refused restore changed the target")
	}

	e := snap.NewEncoder()
	e.Header(windowTag, 1)
	e.Int(2)
	e.F64(6)
	e.F64(14)
	e.F64s([]float64{1, 2, 3})
	if err := snap.Unmarshal(NewWindow(2), e.Bytes()); err == nil {
		t.Error("capacity-2 snapshot holding 3 values accepted")
	}
}

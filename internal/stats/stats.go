// Package stats provides the statistical primitives shared by the global
// (centroid) and local (Pearson-correlation) phase detectors: correlation
// coefficients over sample histograms, the one bounded float ring
// (Window) with running mean and variance, and small order statistics
// helpers.
//
// All functions are deterministic and allocation-conscious; the phase
// detectors call them once per sample-buffer overflow, which in the paper's
// configuration happens every few million simulated cycles.
package stats

import (
	"fmt"
	"math"
	"sort"

	"regionmon/internal/snap"
)

// Pearson computes Pearson's coefficient of correlation r between two
// equal-length sample vectors x and y. It is the similarity metric of the
// paper's local phase detection (Section 3.2.1):
//
//	r = (Σxy − Σx·Σy/n) / sqrt((Σx² − (Σx)²/n)(Σy² − (Σy)²/n))
//
// The result lies in [-1, 1]. Values near 1 mean the two distributions of
// samples across a region's instructions agree (same bottlenecks, possibly
// scaled counts); values near 0 or negative indicate the bottleneck moved
// and therefore a local phase change.
//
// If either vector has zero variance (all entries equal, including the
// all-zero vector) the coefficient is undefined; Pearson returns 0 and
// ok=false so callers can fall back to their no-information path, except
// for the special case where both vectors are constant and element-wise
// proportional, which returns r=1, ok=true (identical flat behaviour is
// perfect agreement, not a phase change).
func Pearson(x, y []int64) (r float64, ok bool) {
	n := len(x)
	if n == 0 || n != len(y) {
		return 0, false
	}
	var sx, sy, sxx, syy, sxy float64
	for i := 0; i < n; i++ {
		xf, yf := float64(x[i]), float64(y[i])
		sx += xf
		sy += yf
		sxx += xf * xf
		syy += yf * yf
		sxy += xf * yf
	}
	nf := float64(n)
	vx := sxx - sx*sx/nf
	vy := syy - sy*sy/nf
	if vx <= 0 || vy <= 0 {
		// Zero variance on one or both sides. Two constant vectors are
		// perfectly correlated in the "same behaviour" sense the detector
		// cares about.
		if vx <= 0 && vy <= 0 {
			return 1, true
		}
		return 0, false
	}
	r = (sxy - sx*sy/nf) / math.Sqrt(vx*vy)
	// Guard against floating point drift pushing r marginally outside the
	// legal range.
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r, true
}

// Manhattan returns the normalized Manhattan (L1) distance between two
// sample vectors after normalizing each to a probability distribution.
// The result lies in [0, 2] (0 = identical distributions). It is one of the
// "cheaper means of measuring similarity" the paper's Section 5 proposes to
// investigate; internal/lpd exposes it as an alternative similarity metric.
func Manhattan(x, y []int64) float64 {
	var tx, ty int64
	for _, v := range x {
		tx += v
	}
	for _, v := range y {
		ty += v
	}
	if tx == 0 && ty == 0 {
		return 0
	}
	if tx == 0 || ty == 0 {
		return 2
	}
	var d float64
	for i := range x {
		d += math.Abs(float64(x[i])/float64(tx) - float64(y[i])/float64(ty))
	}
	return d
}

// TopKScratch is caller-owned working storage for top-k overlap: the
// fraction of overlap between the index sets of the k largest entries of
// two histograms (1 = same hot instructions, 0 = disjoint), the second
// cheap similarity metric of the ablation study. Detectors that compare
// histograms every interval size one at construction time
// (NewTopKScratch), so the per-interval computation performs no
// allocations.
type TopKScratch struct {
	xs, ys []int
	used   []bool
	inY    []bool
}

// NewTopKScratch returns scratch for histograms of up to n entries and
// top-k size k.
func NewTopKScratch(n, k int) *TopKScratch {
	if k > n {
		k = n
	}
	return &TopKScratch{
		xs:   make([]int, 0, k),
		ys:   make([]int, 0, k),
		used: make([]bool, n),
		inY:  make([]bool, n),
	}
}

// Overlap returns the top-k overlap of x and y without allocating. k is
// clamped to len(x), and ties are broken by lower index. x and y must be
// no longer than the n the scratch was built for; mismatched lengths,
// empty histograms and k <= 0 give 0.
func (s *TopKScratch) Overlap(x, y []int64, k int) float64 {
	if len(x) != len(y) || len(x) == 0 || k <= 0 {
		return 0
	}
	if k > len(x) {
		k = len(x)
	}
	s.xs = s.selectTopK(x, k, s.xs[:0])
	s.ys = s.selectTopK(y, k, s.ys[:0])
	inY := s.inY[:len(y)]
	for _, i := range s.ys {
		inY[i] = true
	}
	overlap := 0
	for _, i := range s.xs {
		if inY[i] {
			overlap++
		}
	}
	for _, i := range s.ys {
		inY[i] = false
	}
	return float64(overlap) / float64(k)
}

// selectTopK appends the indices of the k largest entries of v to dst,
// ties broken by lower index.
func (s *TopKScratch) selectTopK(v []int64, k int, dst []int) []int {
	used := s.used[:len(v)]
	for i := range used {
		used[i] = false
	}
	for j := 0; j < k; j++ {
		best := -1
		for i, val := range v {
			if used[i] {
				continue
			}
			if best == -1 || val > v[best] {
				best = i
			}
		}
		if best == -1 {
			break
		}
		used[best] = true
		dst = append(dst, best)
	}
	return dst
}

// PearsonRef is the fused-kernel form of Pearson for the detector hot
// loop: one side of the correlation (the reference histogram, the paper's
// prev_hist) changes only when a detector re-establishes its reference,
// while the other side arrives fresh every sampling interval. PearsonRef
// caches the reference's float conversion and moments (Σy, Σy², variance
// term) at Set time, so Observe makes a single fused pass accumulating
// only Σx, Σx² and Σxy — roughly half the floating-point work of the
// two-vector Pearson — while producing bit-identical r values (the same
// accumulators are summed in the same index order and combined with the
// same expressions).
//
// A PearsonRef is sized once at construction and performs no allocation
// in Set or Observe; like the detectors that own one, it is single-owner.
type PearsonRef struct {
	y   []float64 // float-converted reference histogram
	sy  float64   // Σy
	syy float64   // Σy²
	vy  float64   // Σy² − (Σy)²/n, the reference's variance term
	set bool
}

// NewPearsonRef returns a reference cache for histograms of exactly n
// entries. NewPearsonRef panics if n < 1: a zero-length histogram cannot
// correlate and indicates a configuration bug.
func NewPearsonRef(n int) *PearsonRef {
	if n < 1 {
		panic("stats: PearsonRef needs at least one histogram entry")
	}
	return &PearsonRef{y: make([]float64, n)}
}

// N returns the histogram length the cache was built for.
func (p *PearsonRef) N() int { return len(p.y) }

// Set (re)establishes the reference histogram, converting it to float64
// and recomputing its moments in one pass. ref must have exactly N
// entries; Set panics otherwise (the caller owns the histogram layout, a
// mismatch is a bug).
func (p *PearsonRef) Set(ref []int64) {
	if len(ref) != len(p.y) {
		panic(fmt.Sprintf("stats: reference has %d entries for a %d-entry PearsonRef", len(ref), len(p.y)))
	}
	var sy, syy float64
	for i, v := range ref {
		yf := float64(v)
		p.y[i] = yf
		sy += yf
		syy += yf * yf
	}
	p.sy, p.syy = sy, syy
	p.vy = syy - sy*sy/float64(len(p.y))
	p.set = true
}

// Mean returns the cached reference's mean sample count (0 before Set).
func (p *PearsonRef) Mean() float64 {
	if !p.set {
		return 0
	}
	return p.sy / float64(len(p.y))
}

// Observe computes Pearson(x, ref) against the cached reference in a
// single fused pass over x. The result is bit-identical to
// Pearson(x, ref) with the reference passed as the second argument,
// including the zero-variance conventions. Before Set, or for a
// mis-sized x, Observe returns (0, false).
func (p *PearsonRef) Observe(x []int64) (r float64, ok bool) {
	n := len(p.y)
	if !p.set || len(x) != n {
		return 0, false
	}
	y := p.y
	var sx, sxx, sxy float64
	for i := 0; i < n; i++ {
		xf := float64(x[i])
		sx += xf
		sxx += xf * xf
		sxy += xf * y[i]
	}
	nf := float64(n)
	vx := sxx - sx*sx/nf
	if vx <= 0 || p.vy <= 0 {
		// Same zero-variance conventions as Pearson: two flat vectors are
		// perfect agreement, one flat side is no information.
		if vx <= 0 && p.vy <= 0 {
			return 1, true
		}
		return 0, false
	}
	r = (sxy - sx*p.sy/nf) / math.Sqrt(vx*p.vy)
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r, true
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// StdDev returns the population standard deviation of v (0 for fewer than
// two elements). The centroid detector's band of stability uses population
// (not sample) deviation, matching "standard deviation value (SD) of these
// centroids" over the full history window.
func StdDev(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}

// Median returns the median of v without modifying it, sorting a copy in
// O(n log n). For an even count it returns the mean of the two central
// elements. Returns 0 for empty input.
func Median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	c := make([]float64, n)
	copy(c, v)
	sort.Float64s(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Window is a fixed-capacity sliding window of float64 observations with
// O(1) amortized mean and standard deviation: the repo's one bounded
// float ring. The GPD centroid history is a Window (the paper's detector
// keeps "a history of such centroids" and derives the band of stability
// from their expectation and deviation), and so is the change-point
// detector's metric window. Add never allocates.
type Window struct {
	buf  []float64
	head int
	n    int
	sum  float64
	sum2 float64
}

// NewWindow returns a window holding at most capacity observations.
// NewWindow panics if capacity < 1: a zero-size history cannot define a
// band of stability and indicates a configuration bug.
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		panic("stats: window capacity must be >= 1")
	}
	return &Window{buf: make([]float64, capacity)}
}

// Add appends an observation, evicting the oldest when full.
func (w *Window) Add(x float64) {
	if w.n == len(w.buf) {
		old := w.buf[w.head]
		w.sum -= old
		w.sum2 -= old * old
	} else {
		w.n++
	}
	w.buf[w.head] = x
	w.head = (w.head + 1) % len(w.buf)
	w.sum += x
	w.sum2 += x * x
}

// Len returns the current number of observations in the window.
func (w *Window) Len() int { return w.n }

// Cap returns the window capacity.
func (w *Window) Cap() int { return len(w.buf) }

// Full reports whether the window holds capacity observations.
func (w *Window) Full() bool { return w.n == len(w.buf) }

// Reset empties the window.
func (w *Window) Reset() {
	w.head, w.n, w.sum, w.sum2 = 0, 0, 0, 0
}

// Mean returns the mean of the windowed observations (0 when empty).
func (w *Window) Mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / float64(w.n)
}

// StdDev returns the population standard deviation of the windowed
// observations. To avoid catastrophic cancellation drift over very long
// runs it recomputes exactly from the buffer whenever the cheap two-pass
// estimate goes (impossibly) negative.
func (w *Window) StdDev() float64 {
	if w.n < 2 {
		return 0
	}
	m := w.Mean()
	v := w.sum2/float64(w.n) - m*m
	if v < 0 {
		// Recompute exactly; the incremental sums drifted.
		var s float64
		for i := 0; i < w.n; i++ {
			x := w.buf[(w.head-w.n+i+len(w.buf))%len(w.buf)]
			d := x - m
			s += d * d
		}
		v = s / float64(w.n)
	}
	return math.Sqrt(v)
}

// Values appends the windowed observations, oldest first, to dst and
// returns the extended slice.
func (w *Window) Values(dst []float64) []float64 {
	for i := 0; i < w.n; i++ {
		dst = append(dst, w.buf[(w.head-w.n+i+len(w.buf))%len(w.buf)])
	}
	return dst
}

const windowTag = "window"

// AppendSnapshot encodes the window (live values oldest first plus the
// exact incremental sum/sum2 bits) onto e. Storing the incremental sums
// verbatim — rather than recomputing them from the values on restore —
// is what makes a restored detector's subsequent Mean/StdDev comparisons
// replay bit-for-bit: recomputation would re-order the additions and
// drift by ULPs.
func (w *Window) AppendSnapshot(e *snap.Encoder) {
	e.Header(windowTag, 1)
	e.Int(len(w.buf))
	e.F64(w.sum)
	e.F64(w.sum2)
	e.Int(w.n)
	for i := 0; i < w.n; i++ {
		e.F64(w.buf[(w.head-w.n+i+len(w.buf))%len(w.buf)])
	}
}

// StageSnapshot decodes and checks state written by AppendSnapshot and
// returns a commit that replaces w's contents with it; w is untouched
// until then. The snapshot capacity must match the window's: a snapshot
// is a resume point for an identically configured owner, not a migration
// format.
func (w *Window) StageSnapshot(d *snap.Decoder) (func(), error) {
	d.Header(windowTag, 1)
	capa := d.Int()
	sum := d.F64()
	sum2 := d.F64()
	vals := d.F64s()
	if err := d.Err(); err != nil {
		return nil, err
	}
	n := len(vals)
	if capa != len(w.buf) {
		return nil, fmt.Errorf("stats: window snapshot capacity %d, window capacity %d", capa, len(w.buf))
	}
	if n > capa {
		return nil, fmt.Errorf("stats: window snapshot holds %d values, exceeds capacity %d", n, capa)
	}
	return func() {
		copy(w.buf, vals)
		w.n = n
		w.head = n % len(w.buf)
		w.sum = sum
		w.sum2 = sum2
	}, nil
}

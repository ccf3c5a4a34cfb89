// Series: the bounded per-interval history ring.
//
// Every monitor in this repo records one scalar per sample-buffer overflow
// (the region monitor's UCR fraction, the adore event stream, ...). On the
// paper's few-thousand-interval traces an append-forever slice is fine; on
// the ROADMAP's billions-of-intervals serving runs it is a slow leak inside
// the component that must cost <1% of execution. Series is the shared
// replacement: a fixed-capacity ring that keeps the most recent
// observations, maintains a running sum for O(1) Mean, and accounts
// explicitly for what it dropped so consumers can tell a complete series
// from a windowed one. Figure generators that genuinely need the full
// series opt into unbounded retention via NewUnboundedSeries.
package stats

import (
	"fmt"
	"sort"

	"regionmon/internal/snap"
)

// Series is a history of float64 observations, either bounded (a ring that
// keeps the most recent Cap observations) or unbounded (retain-everything
// mode for experiments and figure generation). Append is allocation-free
// in bounded mode, making it safe on detector hot paths.
type Series struct {
	buf       []float64 //lint:bounded -- ring in bounded mode; unbounded is an explicit experiment opt-in
	head      int       // next write position (bounded mode)
	n         int       // live observations (bounded mode; unbounded uses len(buf))
	total     int64     // observations ever appended
	sum       float64
	unbounded bool
}

// NewSeries returns a bounded series holding at most capacity observations.
// It panics if capacity < 1: a zero-size history cannot answer Median/Mean
// queries and indicates a configuration bug.
func NewSeries(capacity int) *Series {
	if capacity < 1 {
		panic("stats: series capacity must be >= 1")
	}
	return &Series{buf: make([]float64, capacity)}
}

// NewUnboundedSeries returns a retain-everything series: Append grows the
// backing slice forever and Dropped is always 0. Only offline consumers
// (experiments, figure generators) should use this mode.
func NewUnboundedSeries() *Series {
	return &Series{unbounded: true}
}

// Unbounded reports whether the series retains every observation.
func (s *Series) Unbounded() bool { return s.unbounded }

// Append records one observation, evicting the oldest in bounded mode when
// the ring is full.
func (s *Series) Append(x float64) {
	s.total++
	if s.unbounded {
		s.buf = append(s.buf, x)
		s.sum += x
		return
	}
	if s.n == len(s.buf) {
		s.sum -= s.buf[s.head]
	} else {
		s.n++
	}
	s.buf[s.head] = x
	s.head = (s.head + 1) % len(s.buf)
	s.sum += x
}

// Len returns the number of retained observations.
func (s *Series) Len() int {
	if s.unbounded {
		return len(s.buf)
	}
	return s.n
}

// Cap returns the ring capacity, or -1 for an unbounded series.
func (s *Series) Cap() int {
	if s.unbounded {
		return -1
	}
	return len(s.buf)
}

// Total returns the number of observations ever appended.
func (s *Series) Total() int64 { return s.total }

// Dropped returns how many observations have been evicted (always 0 for an
// unbounded series). Total == Dropped + Len.
func (s *Series) Dropped() int64 { return s.total - int64(s.Len()) }

// Reset empties the series and zeroes the Total/Dropped accounting.
func (s *Series) Reset() {
	if s.unbounded {
		s.buf = s.buf[:0]
	} else {
		s.head, s.n = 0, 0
	}
	s.total, s.sum = 0, 0
}

// At returns the i-th retained observation, oldest first (0 <= i < Len).
func (s *Series) At(i int) float64 {
	if i < 0 || i >= s.Len() {
		panic("stats: series index out of range")
	}
	if s.unbounded {
		return s.buf[i]
	}
	return s.buf[(s.head-s.n+i+len(s.buf))%len(s.buf)]
}

// Values appends the retained observations, oldest first, to dst and
// returns the extended slice.
func (s *Series) Values(dst []float64) []float64 {
	if s.unbounded {
		return append(dst, s.buf...)
	}
	for i := 0; i < s.n; i++ {
		dst = append(dst, s.buf[(s.head-s.n+i+len(s.buf))%len(s.buf)])
	}
	return dst
}

// Mean returns the mean of the retained observations in O(1) via the
// running sum (0 when empty). Over very long bounded runs the incremental
// sum can drift; drift is bounded by the window length and far below any
// detector threshold in this repo.
func (s *Series) Mean() float64 {
	n := s.Len()
	if n == 0 {
		return 0
	}
	return s.sum / float64(n)
}

// Median returns the median of the retained observations (0 when empty).
// It lets MedianInto grow a fresh scratch slice per call; periodic
// reporting loops should hold a scratch buffer and use MedianInto.
// Convenience wrapper over MedianInto.
//
//lint:wraps MedianInto
func (s *Series) Median() float64 {
	return s.MedianInto(nil)
}

// MedianInto returns the median of the retained observations (0 when
// empty), using scratch as working storage: the values are copied into
// scratch (growing it only if its capacity is short) and sorted there.
// The series itself is never reordered. A caller that reuses one scratch
// buffer across calls computes medians allocation-free, making repeated
// median reporting safe alongside the monitoring path.
func (s *Series) MedianInto(scratch []float64) float64 {
	n := s.Len()
	if n == 0 {
		return 0
	}
	c := s.Values(scratch[:0])
	sort.Float64s(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

const seriesTag = "series"

// AppendSnapshot encodes the series state (mode, retained values oldest
// first, total/sum accounting) onto e. The running sum is stored as exact
// float bits so a restored series answers Mean with the identical value.
func (s *Series) AppendSnapshot(e *snap.Encoder) {
	e.Header(seriesTag, 1)
	e.Bool(s.unbounded)
	e.Int(s.Cap())
	e.I64(s.total)
	e.F64(s.sum)
	e.Int(s.Len())
	for i, n := 0, s.Len(); i < n; i++ {
		e.F64(s.At(i))
	}
}

// RestoreSnapshot decodes state written by AppendSnapshot into s,
// replacing its contents. The snapshot must match the series' mode and
// (in bounded mode) capacity: a snapshot is a resume point for an
// identically configured monitor, not a migration format. The whole
// snapshot is decoded and checked before s changes, so on error s is
// left as it was.
func (s *Series) RestoreSnapshot(d *snap.Decoder) error {
	d.Header(seriesTag, 1)
	unbounded := d.Bool()
	capa := d.Int()
	total := d.I64()
	sum := d.F64()
	vals := d.F64s()
	if err := d.Err(); err != nil {
		return err
	}
	n := len(vals)
	if unbounded != s.unbounded {
		return fmt.Errorf("stats: series snapshot mode mismatch (snapshot unbounded=%v, series unbounded=%v)", unbounded, s.unbounded)
	}
	if !s.unbounded {
		if capa != len(s.buf) {
			return fmt.Errorf("stats: series snapshot capacity %d, series capacity %d", capa, len(s.buf))
		}
		if n > capa {
			return fmt.Errorf("stats: series snapshot holds %d values, exceeds capacity %d", n, capa)
		}
	}
	if total < int64(n) {
		return fmt.Errorf("stats: series snapshot total %d is below its %d values", total, n)
	}
	if s.unbounded {
		s.buf = vals
	} else {
		copy(s.buf, vals)
		s.n = n
		s.head = n % len(s.buf)
	}
	s.total = total
	s.sum = sum
	return nil
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

// RestoreSnapshot decodes state written by AppendSnapshot into w,
// replacing its contents. The snapshot capacity must match the window's.
// As with Series, a snapshot that fails to decode or check leaves w as
// it was.
func (w *Window) RestoreSnapshot(d *snap.Decoder) error {
	d.Header(windowTag, 1)
	capa := d.Int()
	sum := d.F64()
	sum2 := d.F64()
	vals := d.F64s()
	if err := d.Err(); err != nil {
		return err
	}
	n := len(vals)
	if capa != len(w.buf) {
		return fmt.Errorf("stats: window snapshot capacity %d, window capacity %d", capa, len(w.buf))
	}
	if n > capa {
		return fmt.Errorf("stats: window snapshot holds %d values, exceeds capacity %d", n, capa)
	}
	copy(w.buf, vals)
	w.n = n
	w.head = n % len(w.buf)
	w.sum = sum
	w.sum2 = sum2
	return nil
}

package stats

import (
	"math"
	"testing"

	"regionmon/internal/snap"
)

func TestSeriesBoundedEviction(t *testing.T) {
	s := NewSeries(4)
	for i := 1; i <= 10; i++ {
		s.Append(float64(i))
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.Total() != 10 {
		t.Fatalf("Total = %d, want 10", s.Total())
	}
	if s.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", s.Dropped())
	}
	got := s.Values(nil)
	want := []float64{7, 8, 9, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v, want %v", got, want)
		}
	}
	if m := s.Mean(); m != 8.5 {
		t.Errorf("Mean = %v, want 8.5", m)
	}
	if m := s.MedianInto(nil); m != 8.5 {
		t.Errorf("MedianInto(nil) = %v, want 8.5", m)
	}
	for i := range want {
		if s.At(i) != want[i] {
			t.Errorf("At(%d) = %v, want %v", i, s.At(i), want[i])
		}
	}
}

func TestSeriesUnboundedRetainsEverything(t *testing.T) {
	s := NewUnboundedSeries()
	for i := 0; i < 1000; i++ {
		s.Append(float64(i))
	}
	if s.Len() != 1000 || s.Dropped() != 0 || s.Total() != 1000 {
		t.Fatalf("Len=%d Dropped=%d Total=%d", s.Len(), s.Dropped(), s.Total())
	}
	if s.Cap() != -1 {
		t.Errorf("Cap = %d, want -1", s.Cap())
	}
	if m := s.MedianInto(nil); m != 499.5 {
		t.Errorf("MedianInto(nil) = %v, want 499.5", m)
	}
}

func TestSeriesOddMedian(t *testing.T) {
	s := NewSeries(8)
	for _, x := range []float64{5, 1, 3} {
		s.Append(x)
	}
	if m := s.MedianInto(nil); m != 3 {
		t.Errorf("MedianInto(nil) = %v, want 3", m)
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v, want 3", s.Mean())
	}
}

// TestSeriesMedianInto pins the scratch-reusing median: the same value
// with reused, short or nil scratch, no reordering of the series, and
// zero allocations once the scratch capacity covers the window.
func TestSeriesMedianInto(t *testing.T) {
	s := NewSeries(8)
	for _, x := range []float64{9, 2, 7, 4, 1, 8, 3, 6, 5, 0} {
		s.Append(x)
	}
	scratch := make([]float64, 0, s.Cap())
	if got := s.MedianInto(scratch); got != 4.5 {
		t.Fatalf("MedianInto = %v, want 4.5", got)
	}
	// The series itself is untouched by the sort.
	want := []float64{7, 4, 1, 8, 3, 6, 5, 0}
	for i, w := range want {
		if s.At(i) != w {
			t.Fatalf("At(%d) = %v after MedianInto, want %v", i, s.At(i), w)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.MedianInto(scratch)
	}); allocs != 0 {
		t.Errorf("MedianInto allocates %v per op with ample scratch, want 0", allocs)
	}
	// Short or nil scratch still yields the right answer (growing
	// internally).
	if got := s.MedianInto(make([]float64, 0, 1)); got != 4.5 {
		t.Errorf("MedianInto with short scratch = %v, want 4.5", got)
	}
	if got := s.MedianInto(nil); got != 4.5 {
		t.Errorf("MedianInto(nil) = %v, want 4.5", got)
	}
	if got := NewSeries(4).MedianInto(scratch); got != 0 {
		t.Errorf("empty series MedianInto = %v, want 0", got)
	}
}

// TestSeriesWrapOrdering walks the ring across several full wraps,
// checking At and Values keep exact oldest-first order at every step —
// including the boundary appends where head returns to slot 0.
func TestSeriesWrapOrdering(t *testing.T) {
	const capacity = 5
	s := NewSeries(capacity)
	for i := 1; i <= 4*capacity+3; i++ {
		s.Append(float64(i))
		n := s.Len()
		lo := i - n + 1 // oldest retained value
		for j := 0; j < n; j++ {
			if got, want := s.At(j), float64(lo+j); got != want {
				t.Fatalf("after %d appends: At(%d) = %v, want %v", i, j, got, want)
			}
		}
		vals := s.Values(nil)
		if len(vals) != n {
			t.Fatalf("after %d appends: Values len %d, want %d", i, len(vals), n)
		}
		for j, v := range vals {
			if want := float64(lo + j); v != want {
				t.Fatalf("after %d appends: Values[%d] = %v, want %v", i, j, v, want)
			}
		}
	}
}

// TestSeriesSnapshotAtWrapBoundary snapshots a ring at every head
// position across a wrap (including head == 0 exactly) and checks the
// restored ring re-snapshots bit-exact and continues identically.
func TestSeriesSnapshotAtWrapBoundary(t *testing.T) {
	const capacity = 4
	for appends := capacity - 1; appends <= 3*capacity+1; appends++ {
		s := NewSeries(capacity)
		for i := 0; i < appends; i++ {
			s.Append(float64(i) * 1.5)
		}
		e := snap.NewEncoder()
		s.AppendSnapshot(e)

		r := NewSeries(capacity)
		if err := snap.Unmarshal(r, e.Bytes()); err != nil {
			t.Fatalf("appends=%d: Unmarshal: %v", appends, err)
		}
		e2 := snap.NewEncoder()
		r.AppendSnapshot(e2)
		if string(e.Bytes()) != string(e2.Bytes()) {
			t.Fatalf("appends=%d: restored series re-snapshots to different bytes", appends)
		}
		// Continue both across another full wrap: identical values and
		// accounting at every step.
		for i := 0; i < capacity+1; i++ {
			x := float64(100 + i)
			s.Append(x)
			r.Append(x)
			sv, rv := s.Values(nil), r.Values(nil)
			for j := range sv {
				if sv[j] != rv[j] {
					t.Fatalf("appends=%d step %d: post-restore divergence: %v vs %v", appends, i, sv, rv)
				}
			}
			if s.Total() != r.Total() || s.Mean() != r.Mean() {
				t.Fatalf("appends=%d step %d: accounting diverged", appends, i)
			}
		}
	}
}

func TestSeriesReset(t *testing.T) {
	s := NewSeries(3)
	for i := 0; i < 7; i++ {
		s.Append(1)
	}
	s.Reset()
	if s.Len() != 0 || s.Total() != 0 || s.Dropped() != 0 || s.Mean() != 0 {
		t.Fatalf("Reset left state: Len=%d Total=%d Dropped=%d Mean=%v",
			s.Len(), s.Total(), s.Dropped(), s.Mean())
	}
}

func TestSeriesAppendNoAllocsBounded(t *testing.T) {
	s := NewSeries(64)
	allocs := testing.AllocsPerRun(200, func() {
		s.Append(0.5)
	})
	if allocs != 0 {
		t.Fatalf("bounded Append allocates %v per op, want 0", allocs)
	}
}

func TestSeriesSnapshotRoundTrip(t *testing.T) {
	s := NewSeries(4)
	for i := 1; i <= 9; i++ {
		s.Append(float64(i) / 3)
	}
	e := snap.NewEncoder()
	s.AppendSnapshot(e)

	r := NewSeries(4)
	if err := snap.Unmarshal(r, e.Bytes()); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if r.Total() != s.Total() || r.Dropped() != s.Dropped() || r.Len() != s.Len() {
		t.Fatalf("accounting mismatch: got (%d,%d,%d) want (%d,%d,%d)",
			r.Total(), r.Dropped(), r.Len(), s.Total(), s.Dropped(), s.Len())
	}
	if r.Mean() != s.Mean() {
		t.Fatalf("Mean mismatch: %v vs %v", r.Mean(), s.Mean())
	}
	// Subsequent appends must behave identically (ring alignment restored).
	s.Append(100)
	r.Append(100)
	sv, rv := s.Values(nil), r.Values(nil)
	for i := range sv {
		if sv[i] != rv[i] {
			t.Fatalf("post-restore divergence: %v vs %v", sv, rv)
		}
	}
}

func TestSeriesSnapshotMismatch(t *testing.T) {
	s := NewSeries(4)
	s.Append(1)
	e := snap.NewEncoder()
	s.AppendSnapshot(e)

	if err := snap.Unmarshal(NewSeries(8), e.Bytes()); err == nil {
		t.Error("expected capacity mismatch error")
	}
	if err := snap.Unmarshal(NewUnboundedSeries(), e.Bytes()); err == nil {
		t.Error("expected mode mismatch error")
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
// offset fails to restore and leaves the target byte-identical. Both
// restores used to empty the target before reading the values.
func TestRestoreTruncatedLeavesTargetUntouched(t *testing.T) {
	series := func(s *Series, n int, x float64) *Series {
		for i := 0; i < n; i++ {
			s.Append(x + float64(i))
		}
		return s
	}
	window := func(n int, x float64) *Window {
		w := NewWindow(8)
		for i := 0; i < n; i++ {
			w.Add(x + float64(i))
		}
		return w
	}
	for _, c := range []struct {
		name        string
		src, target snap.Snapshotter
	}{
		{"series", series(NewSeries(8), 11, 0), series(NewSeries(8), 3, -9)},
		{"unbounded series", series(NewUnboundedSeries(), 5, 0), series(NewUnboundedSeries(), 3, -9)},
		{"window", window(11, 0), window(3, -9)},
	} {
		data := snap.Marshal(c.src)
		before := snap.Marshal(c.target)
		for cut := 0; cut < len(data); cut++ {
			if err := snap.Unmarshal(c.target, data[:cut]); err == nil {
				t.Fatalf("%s cut at %d of %d: restore accepted", c.name, cut, len(data))
			}
			if string(snap.Marshal(c.target)) != string(before) {
				t.Fatalf("%s cut at %d of %d: failed restore changed the target", c.name, cut, len(data))
			}
		}
	}
}

// TestSeriesSnapshotRejectsTotalBelowValues: a ring cannot have seen
// fewer observations than it holds.
func TestSeriesSnapshotRejectsTotalBelowValues(t *testing.T) {
	e := snap.NewEncoder()
	e.Header(seriesTag, 1)
	e.Bool(false)
	e.Int(4)
	e.I64(2)
	e.F64(6)
	e.F64s([]float64{1, 2, 3})
	s := NewSeries(4)
	s.Append(7)
	if err := snap.Unmarshal(s, e.Bytes()); err == nil {
		t.Fatal("snapshot with total 2 below its 3 values accepted")
	}
	if s.Len() != 1 || s.Total() != 1 || s.At(0) != 7 {
		t.Errorf("failed restore changed the series: Len %d Total %d", s.Len(), s.Total())
	}
}

package interval

import "slices"

// Epoch is the batched-distribution index: an immutable flat snapshot of
// the current range set, rebuilt lazily after mutations. Where List pays
// O(n) and Tree O(log n + k) pointer-chasing per stab, Epoch slices the
// address space at every range boundary into disjoint segments and stores,
// per segment, the ranks of every range covering it in one flat CSR layout
// (segOff offsets into segRanks). A range's rank is its position in id
// order among the live ranges, so a caller that keeps its own items in
// id order indexes them with a rank directly. A stabbing query is then a
// single branch-light binary search over the boundary array followed by
// a contiguous slice read — no per-visit closure, no node traversal.
//
// The trade is rebuild cost on mutation: Insert and Remove only record the
// change and mark the snapshot dirty; the next query rebuilds it. Region
// monitoring mutates its index on formation and pruning — rare, declared-
// cold events (a handful per run) — while stabbing happens for every
// distinct PC of every interval, so paying O(n log n) per epoch to make the
// per-query constant minimal is exactly the right side of the trade
// (the Section 3.2.3 cost model with the rebuild amortized to zero).
//
// Worst-case snapshot size is O(n²) ids when every range overlaps every
// other; monitored regions are loop bodies whose overlap depth is the loop
// nesting depth, so in practice the snapshot is ~2n segments of small
// constant width.
type Epoch struct {
	// ranges holds the live ranges, in id order after every rebuild.
	ranges []Range
	byID   map[int]int //lint:bounded -- id -> index in ranges: one key per live range; Remove re-points an existing key and deletes its own
	dirty  bool
	// unordered records that an Insert below the largest id or a
	// swapping Remove broke the id order of ranges.
	unordered bool

	// Flat snapshot: the boundaries cut the line into len(bounds)+1
	// segments. Segment i holds the points with exactly i boundaries at
	// or below them — [bounds[i-1], bounds[i]), unbounded below for i = 0
	// and above for i = len(bounds) — and is covered by the ranges ranked
	// segRanks[segOff[i]:segOff[i+1]], ascending. The two unbounded
	// segments are always empty.
	bounds   []uint64
	segOff   []int
	segRanks []int

	spans []int // rebuild scratch: each range's first and last segment
}

// NewEpoch returns an empty Epoch.
func NewEpoch() *Epoch {
	return &Epoch{byID: make(map[int]int), segOff: []int{0, 0}}
}

// Insert implements Index.
func (e *Epoch) Insert(id int, start, end uint64) bool {
	if start >= end {
		return false
	}
	if _, dup := e.byID[id]; dup {
		return false
	}
	if n := len(e.ranges); n > 0 && id < e.ranges[n-1].ID {
		e.unordered = true
	}
	e.byID[id] = len(e.ranges)
	e.ranges = append(e.ranges, Range{ID: id, Start: start, End: end})
	e.dirty = true
	return true
}

// Remove implements Index (swap-delete, O(1); the snapshot is rebuilt on
// the next query).
func (e *Epoch) Remove(id int) bool {
	i, ok := e.byID[id]
	if !ok {
		return false
	}
	last := len(e.ranges) - 1
	if i != last {
		e.ranges[i] = e.ranges[last]
		e.byID[e.ranges[i].ID] = i
		e.unordered = true
	}
	e.ranges = e.ranges[:last]
	delete(e.byID, id)
	e.dirty = true
	return true
}

// Len implements Index.
func (e *Epoch) Len() int { return len(e.ranges) }

// Stab implements Index, mapping Lookup's ranks back to ids.
func (e *Epoch) Stab(point uint64, visit func(id int)) {
	for _, k := range e.Lookup(point) {
		visit(e.ranges[k].ID)
	}
}

// Lookup returns the ranks of every range containing point, ascending,
// as a sub-slice of the epoch's flat snapshot — valid until the next
// Insert or Remove, and not to be mutated. A rank is the range's position
// in id order among the live ranges: rank 0 is the smallest live id. It
// is the closure-free form of Stab: one binary search, one slice.
func (e *Epoch) Lookup(point uint64) []int {
	e.Sync()
	b := e.bounds
	n := len(b)
	if n == 0 || point < b[0] || point >= b[n-1] {
		return nil
	}
	// Largest i with b[i] <= point; the loop keeps the invariant
	// b[lo] <= point < b[hi].
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] <= point {
			lo = mid
		} else {
			hi = mid
		}
	}
	return e.Ranks(lo + 1)
}

// Sync rebuilds the snapshot if an Insert or Remove is pending. Bounds
// and Ranks read the snapshot as of the last Sync (Lookup and Stab sync
// themselves).
func (e *Epoch) Sync() {
	if e.dirty {
		e.rebuild()
	}
}

// Bounds returns the snapshot's segment boundaries, ascending: a point
// lies in segment i when exactly i boundaries are at or below it. A
// caller that resolves its points to segments once, with one merge pass
// over the boundaries, then reads their ranks with Ranks and no search.
// The slice is valid until the next Insert or Remove and is not to be
// mutated.
func (e *Epoch) Bounds() []uint64 { return e.bounds }

// Ranks returns the ranks of the ranges covering segment i, 0 <= i <=
// len(Bounds()), ascending, under the same validity as Lookup's result.
func (e *Epoch) Ranks(i int) []int { return e.segRanks[e.segOff[i]:e.segOff[i+1]] }

// rebuild recomputes the flat snapshot from the live range set. It runs
// only after the range set changed — region formation and pruning, the
// monitor's declared-cold events — never in steady state, so it is free
// to allocate (the scratch it grows is reused across epochs).
//
//lint:allow hotpath boundedstate -- epoch rebuild is a declared cold sub-path, output capped by the region set
func (e *Epoch) rebuild() {
	e.dirty = false
	if e.unordered {
		// Ranks are positions in id order: restore that order, and the
		// id -> index map with it.
		slices.SortFunc(e.ranges, func(a, b Range) int { return a.ID - b.ID })
		for i, r := range e.ranges {
			e.byID[r.ID] = i
		}
		e.unordered = false
	}

	// Boundaries: every Start and End, sorted and deduplicated. Segments
	// between consecutive boundaries are covered by a fixed rank set (a
	// gap between ranges is simply a segment with an empty set).
	e.bounds = e.bounds[:0]
	for _, r := range e.ranges {
		e.bounds = append(e.bounds, r.Start, r.End)
	}
	slices.Sort(e.bounds)
	e.bounds = slices.Compact(e.bounds)

	// CSR fill in two passes: count ranges per segment, prefix-sum into
	// offsets, then place ranks. A range [Start, End) covers segments
	// first+1 through last, where first and last index its two bounds;
	// both are found once. Iterating ranges in id order makes each
	// segment's rank list ascending, giving the snapshot a deterministic
	// shape independent of insertion and removal history.
	segs := len(e.bounds) + 1
	e.segOff = slices.Grow(e.segOff[:0], segs+1)[:segs+1]
	clear(e.segOff)
	spans := slices.Grow(e.spans[:0], 2*len(e.ranges))
	for _, r := range e.ranges {
		first, _ := slices.BinarySearch(e.bounds, r.Start)
		last, _ := slices.BinarySearch(e.bounds, r.End)
		spans = append(spans, first+1, last+1)
		for s := first + 1; s <= last; s++ {
			e.segOff[s+1]++
		}
	}
	e.spans = spans
	for i := 1; i <= segs; i++ {
		e.segOff[i] += e.segOff[i-1]
	}
	e.segRanks = slices.Grow(e.segRanks[:0], e.segOff[segs])[:e.segOff[segs]]
	// segOff[s] is segment s's fill cursor until the pass below advances
	// it to segment s+1's start; shifting the offsets back afterwards
	// restores them, so no separate cursor array is needed.
	for k := range e.ranges {
		for s := spans[2*k]; s < spans[2*k+1]; s++ {
			e.segRanks[e.segOff[s]] = k
			e.segOff[s]++
		}
	}
	copy(e.segOff[1:], e.segOff[:segs])
	e.segOff[0] = 0
}

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
	ranges []Range
	byID   map[int]int //lint:bounded -- id -> index in ranges: one key per live range; Remove re-points an existing key and deletes its own
	dirty  bool

	// Flat snapshot: segment i spans [bounds[i], bounds[i+1]) and is
	// covered by the ranges ranked segRanks[segOff[i]:segOff[i+1]]
	// (ascending); sorted[rank] is the range of that rank.
	bounds   []uint64
	segOff   []int
	segRanks []int

	sorted []Range // ranges ordered by id
	cursor []int   // rebuild scratch: per-segment fill position
}

// NewEpoch returns an empty Epoch.
func NewEpoch() *Epoch {
	return &Epoch{byID: make(map[int]int)}
}

// Insert implements Index.
func (e *Epoch) Insert(id int, start, end uint64) bool {
	if start >= end {
		return false
	}
	if _, dup := e.byID[id]; dup {
		return false
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
		visit(e.sorted[k].ID)
	}
}

// Lookup returns the ranks of every range containing point, ascending,
// as a sub-slice of the epoch's flat snapshot — valid until the next
// Insert or Remove, and not to be mutated. A rank is the range's position
// in id order among the live ranges: rank 0 is the smallest live id. It
// is the closure-free form of Stab the batched distribution hot path
// uses: one binary search, one slice.
func (e *Epoch) Lookup(point uint64) []int {
	if e.dirty {
		e.rebuild()
	}
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
	return e.segRanks[e.segOff[lo]:e.segOff[lo+1]]
}

// rebuild recomputes the flat snapshot from the live range set. It runs
// only after the range set changed — region formation and pruning, the
// monitor's declared-cold events — never in steady state, so it is free
// to allocate (the scratch it grows is reused across epochs).
//
//lint:allow hotpath boundedstate -- epoch rebuild is a declared cold sub-path, output capped by the region set
func (e *Epoch) rebuild() {
	e.dirty = false
	e.bounds = e.bounds[:0]
	e.segOff = e.segOff[:0]
	e.segRanks = e.segRanks[:0]
	sorted := append(e.sorted[:0], e.ranges...)
	slices.SortFunc(sorted, func(a, b Range) int { return a.ID - b.ID })
	e.sorted = sorted
	if len(sorted) == 0 {
		return
	}

	// Boundaries: every Start and End, sorted and deduplicated. Segments
	// between consecutive boundaries are covered by a fixed rank set (a
	// gap between ranges is simply a segment with an empty set).
	for _, r := range sorted {
		e.bounds = append(e.bounds, r.Start, r.End)
	}
	slices.Sort(e.bounds)
	e.bounds = slices.Compact(e.bounds)

	// CSR fill in two passes: count ranges per segment, prefix-sum into
	// offsets, then place ranks. Iterating ranges in id order makes each
	// segment's rank list ascending, giving the snapshot a deterministic
	// shape independent of insertion and removal history.
	segs := len(e.bounds) - 1
	e.segOff = slices.Grow(e.segOff, segs+1)[:segs+1]
	for i := range e.segOff {
		e.segOff[i] = 0
	}
	for _, r := range sorted {
		first, _ := slices.BinarySearch(e.bounds, r.Start)
		last, _ := slices.BinarySearch(e.bounds, r.End)
		for s := first; s < last; s++ {
			e.segOff[s+1]++
		}
	}
	for i := 1; i <= segs; i++ {
		e.segOff[i] += e.segOff[i-1]
	}
	e.segRanks = slices.Grow(e.segRanks, e.segOff[segs])[:e.segOff[segs]]
	cursor := slices.Grow(e.cursor[:0], segs)[:segs]
	copy(cursor, e.segOff[:segs])
	for k, r := range sorted {
		first, _ := slices.BinarySearch(e.bounds, r.Start)
		last, _ := slices.BinarySearch(e.bounds, r.End)
		for s := first; s < last; s++ {
			e.segRanks[cursor[s]] = k
			cursor[s]++
		}
	}
	e.cursor = cursor
}

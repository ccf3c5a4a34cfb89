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
// change; the next query rebuilds the snapshot. Region monitoring mutates
// its index on formation and pruning, while stabbing happens for every
// distinct PC of every interval — yet formation is not rare: it runs on
// 79 of spec-replay's 610 intervals (13%), adding a few regions to about
// 33 each time. So a rebuild after in-order Inserts alone, formation's
// case, merges just the new ranges' sorted bounds into the existing ones
// and remaps each live range's segments through that merge, O(n + m log
// m) for m new ranges instead of O(n log n); only a Remove or an
// out-of-order Insert (pruning, restore) makes it start over from an
// empty snapshot.
//
// Worst-case snapshot size is O(n²) ids when every range overlaps every
// other; monitored regions are loop bodies whose overlap depth is the loop
// nesting depth, so in practice the snapshot is ~2n segments of small
// constant width.
type Epoch struct {
	// ranges holds the live ranges, in id order after every rebuild.
	ranges []Range
	byID   map[int]int //lint:bounded -- id -> index in ranges: one key per live range; Remove re-points an existing key and deletes its own
	// synced counts the leading ranges the snapshot covers; the ranges
	// after them were inserted in id order since the last rebuild, which
	// merges them in. It is -1 once a Remove or an out-of-order Insert
	// has made the snapshot no base to merge into.
	synced int

	// Flat snapshot: the boundaries cut the line into len(bounds)+1
	// segments. Segment i holds the points with exactly i boundaries at
	// or below them — [bounds[i-1], bounds[i]), unbounded below for i = 0
	// and above for i = len(bounds) — and is covered by the ranges ranked
	// segRanks[segOff[i]:segOff[i+1]], ascending. The two unbounded
	// segments are always empty.
	bounds   []uint64
	segOff   []int
	segRanks []int

	// Rebuild scratch: spans[2k] and spans[2k+1] index rank k's Start
	// and End in bounds, kept between rebuilds so a merge only remaps
	// them; fresh holds the merged-in ranges' bounds.
	spans []int
	fresh []uint64
}

// NewEpoch returns an empty Epoch.
func NewEpoch() *Epoch {
	return &Epoch{byID: make(map[int]int), segOff: []int{0, 0}}
}

// Insert adds the range [start, end) under id, with List.Insert's
// contract.
func (e *Epoch) Insert(id int, start, end uint64) bool {
	if start >= end {
		return false
	}
	if _, dup := e.byID[id]; dup {
		return false
	}
	if n := len(e.ranges); n > 0 && id < e.ranges[n-1].ID {
		e.synced = -1
	}
	e.byID[id] = len(e.ranges)
	e.ranges = append(e.ranges, Range{ID: id, Start: start, End: end})
	return true
}

// Remove deletes the range registered under id, reporting whether it was
// present (swap-delete, O(1); the snapshot is rebuilt on the next query).
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
	e.synced = -1
	return true
}

// Len returns the number of live ranges.
func (e *Epoch) Len() int { return len(e.ranges) }

// Lookup returns the ranks of every range containing point, ascending,
// as a sub-slice of the epoch's flat snapshot — valid until the next
// Insert or Remove, and not to be mutated. A rank is the range's position
// in id order among the live ranges: rank 0 is the smallest live id. It
// is one binary search and one slice read, with no per-visit closure.
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
// and Ranks read the snapshot as of the last Sync (Lookup syncs itself).
func (e *Epoch) Sync() {
	if e.synced != len(e.ranges) {
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

// rebuild brings the flat snapshot up to date with the live range set,
// merging in the ranges inserted since the last rebuild or, after a
// Remove or an out-of-order Insert, every range into an empty snapshot.
// It runs only after the range set changed — region formation and
// pruning, the monitor's declared-cold events — never in steady state;
// its scratch is reused, so once grown it allocates nothing.
//
//lint:allow hotpath boundedstate -- epoch rebuild runs only on formation (13% of spec-replay's intervals) and pruning, output capped by the region set
func (e *Epoch) rebuild() {
	if e.synced < 0 {
		// Ranks are positions in id order: restore that order, and the
		// id -> index map with it, and start from no ranges.
		slices.SortFunc(e.ranges, func(a, b Range) int { return a.ID - b.ID })
		for i, r := range e.ranges {
			e.byID[r.ID] = i
		}
		e.synced, e.bounds, e.spans = 0, e.bounds[:0], e.spans[:0]
	}
	added := e.ranges[e.synced:]
	e.synced = len(e.ranges)

	// Boundaries: every Start and End, sorted and deduplicated. The added
	// ranges' are sorted on their own and merged into the rest; each live
	// range's bound indices move with the merge. Segments between
	// consecutive boundaries are covered by a fixed rank set (a gap
	// between ranges is simply a segment with an empty set). segOff is
	// rebuilt below, so until then it holds the merge's index map.
	fresh := e.fresh[:0]
	for _, r := range added {
		fresh = append(fresh, r.Start, r.End)
	}
	slices.Sort(fresh)
	e.fresh = slices.Compact(fresh)
	moved := e.segOff[:len(e.bounds)]
	e.bounds = mergeBounds(e.bounds, e.fresh, moved)
	for k, b := range e.spans {
		e.spans[k] = moved[b]
	}
	for _, r := range added {
		first, _ := slices.BinarySearch(e.bounds, r.Start)
		last, _ := slices.BinarySearch(e.bounds, r.End)
		e.spans = append(e.spans, first, last)
	}

	// CSR fill in two passes: count ranges per segment, prefix-sum into
	// offsets, then place ranks. A range [Start, End) covers segments
	// first+1 through last, where first and last index its two bounds.
	// Iterating ranges in id order makes each segment's rank list
	// ascending, giving the snapshot a deterministic shape independent of
	// insertion and removal history.
	segs := len(e.bounds) + 1
	e.segOff = slices.Grow(e.segOff[:0], segs+1)[:segs+1]
	clear(e.segOff)
	spans := e.spans
	for k := 0; k < len(spans); k += 2 {
		for s := spans[k] + 1; s <= spans[k+1]; s++ {
			e.segOff[s+1]++
		}
	}
	for i := 1; i <= segs; i++ {
		e.segOff[i] += e.segOff[i-1]
	}
	e.segRanks = slices.Grow(e.segRanks[:0], e.segOff[segs])[:e.segOff[segs]]
	// segOff[s] is segment s's fill cursor until the pass below advances
	// it to segment s+1's start; shifting the offsets back afterwards
	// restores them, so no separate cursor array is needed.
	for k := range e.ranges {
		for s := spans[2*k] + 1; s <= spans[2*k+1]; s++ {
			e.segRanks[e.segOff[s]] = k
			e.segOff[s]++
		}
	}
	copy(e.segOff[1:], e.segOff[:segs])
	e.segOff[0] = 0
}

// mergeBounds merges fresh into b, both ascending and duplicate-free, in
// place from the back, keeping a value present in both once, and returns
// the merged slice; moved[i] receives the merged index of b[i].
func mergeBounds(b, fresh []uint64, moved []int) []uint64 {
	old, n := len(b), len(b)+len(fresh)
	for i, j := 0, 0; i < old && j < len(fresh); {
		switch {
		case b[i] < fresh[j]:
			i++
		case b[i] > fresh[j]:
			j++
		default:
			i, j, n = i+1, j+1, n-1
		}
	}
	b = slices.Grow(b, n-old)[:n]
	i, j := old-1, len(fresh)-1
	for w := n - 1; j >= 0; w-- {
		if i >= 0 && b[i] >= fresh[j] {
			if b[i] == fresh[j] {
				j--
			}
			b[w], moved[i] = b[i], w
			i--
		} else {
			b[w] = fresh[j]
			j--
		}
	}
	// Everything fresh is placed, so the rest of b stays where it is.
	for ; i >= 0; i-- {
		moved[i] = i
	}
	return b
}

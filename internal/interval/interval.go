// Package interval provides the sample-to-region distribution structures
// behind region monitoring. List and Tree are the two the paper compares
// in Section 3.2.3 (Figure 16): a simple linear list (O(n) per sample)
// and an augmented red-black interval tree in the style of CLRS chapter
// 14 (O(log n + k) per sample, where k is the number of regions stabbed —
// regions may overlap, e.g. nested loops, and a sample falling in several
// regions increments all of them). Epoch goes past the paper and is the
// one the region monitor uses: an immutable flat segmentation of the
// current region set, rebuilt only when the set changes, answering a
// lookup with one binary search and a contiguous slice read (see Epoch).
// List, the simplest, is the reference the tests check the other two
// against.
//
// Region monitoring distributes every program-counter sample in the buffer
// across the monitored regions on each buffer overflow; with hundreds of
// regions (gcc, crafty, fma3d, parser, bzip) this distribution dominates
// monitoring cost, which is why the paper proposes the tree and this
// reproduction adds the count-compressed batch path over Epoch.
package interval

// Range is an exported (id, [start,end)) triple, used for bulk loads and
// for test comparison between implementations.
type Range struct {
	ID         int
	Start, End uint64
}

// List is the paper's baseline: an unordered slice scanned linearly for
// every sample. For small region counts its constant factor beats the
// tree — exactly the crossover Figure 16 shows.
type List struct {
	ranges []Range
	byID   map[int]int // id -> index in ranges
}

// NewList returns an empty List.
func NewList() *List {
	return &List{byID: make(map[int]int)}
}

// Insert adds the range [start, end) under id. It reports false when id
// is already present or the range is empty or inverted (nothing is
// inserted in either case).
func (l *List) Insert(id int, start, end uint64) bool {
	if start >= end {
		return false
	}
	if _, dup := l.byID[id]; dup {
		return false
	}
	l.byID[id] = len(l.ranges)
	l.ranges = append(l.ranges, Range{ID: id, Start: start, End: end})
	return true
}

// Remove deletes the range registered under id, reporting whether it was
// present (swap-delete, O(1)).
func (l *List) Remove(id int) bool {
	i, ok := l.byID[id]
	if !ok {
		return false
	}
	last := len(l.ranges) - 1
	if i != last {
		l.ranges[i] = l.ranges[last]
		l.byID[l.ranges[i].ID] = i
	}
	l.ranges = l.ranges[:last]
	delete(l.byID, id)
	return true
}

// Stab calls visit for every range containing point, scanning every
// range. visit must not mutate the list.
func (l *List) Stab(point uint64, visit func(id int)) {
	for i := range l.ranges {
		r := &l.ranges[i]
		if r.Start <= point && point < r.End {
			visit(r.ID)
		}
	}
}

// Len returns the number of ranges in the list.
func (l *List) Len() int { return len(l.ranges) }

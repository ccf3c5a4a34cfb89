// Package interval provides the two sample-to-region distribution
// structures the paper compares in Section 3.2.3 (Figure 16): a simple
// linear list (O(n) per sample) and an augmented red-black interval tree
// in the style of CLRS chapter 14 (O(log n + k) per sample, where k is the
// number of regions stabbed — regions may overlap, e.g. nested loops, and
// a sample falling in several regions increments all of them). List, the
// simpler, is the reference the tests check the tree against.
//
// They serve Figure 16 only (experiments.RunTreeComparison). The region
// monitor itself stabs neither: every sampled PC resolves to an
// instruction slot of the program's code map, and each region reads its
// histogram straight from the per-slot counts of the slots it covers.
package interval

// Range is one (id, [start,end)) triple of a List.
type Range struct {
	ID         int
	Start, End uint64
}

// List is the paper's baseline: an unordered slice scanned linearly for
// every sample. For small region counts its constant factor beats the
// tree — exactly the crossover Figure 16 shows.
type List struct {
	ranges []Range
	ids    map[int]struct{} // the ids present, for Insert's duplicate check
}

// NewList returns an empty List.
func NewList() *List {
	return &List{ids: make(map[int]struct{})}
}

// Insert adds the range [start, end) under id. It reports false when id
// is already present or the range is empty or inverted (nothing is
// inserted in either case).
func (l *List) Insert(id int, start, end uint64) bool {
	if start >= end {
		return false
	}
	if _, dup := l.ids[id]; dup {
		return false
	}
	l.ids[id] = struct{}{}
	l.ranges = append(l.ranges, Range{ID: id, Start: start, End: end})
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

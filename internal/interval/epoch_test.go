package interval

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func TestEpochBasics(t *testing.T) { testIndexBasics(t, func() Index { return NewEpoch() }) }

// rankIDs maps Lookup's ranks to ids, given the live ids in id order.
func rankIDs(ranks, ids []int) []int {
	out := make([]int, 0, len(ranks))
	for _, k := range ranks {
		out = append(out, ids[k])
	}
	return out
}

func TestEpochLookupMatchesStab(t *testing.T) {
	e := NewEpoch()
	e.Insert(9, 100, 400)
	e.Insert(4, 50, 80)
	e.Insert(12, 200, 300)
	e.Insert(17, 250, 600)
	e.Remove(4)
	ids := []int{9, 12, 17}
	for _, p := range []uint64{0, 60, 99, 100, 150, 200, 250, 299, 300, 399, 400, 599, 600} {
		got := rankIDs(e.Lookup(p), ids)
		if want := collect(e, p); !equalInts(got, want) {
			t.Errorf("Lookup(%d) maps to ids %v; Stab collected %v", p, got, want)
		}
	}
	// Lookup returns ranks — positions in id order among the live
	// ranges — ascending.
	if got := e.Lookup(260); !equalInts(got, []int{0, 1, 2}) {
		t.Errorf("Lookup(260) = %v; want ranks [0 1 2]", got)
	}
}

// TestIndexChurnAgreement is the three-way churn differential: one
// deterministic sequence of formation-like insert bursts and prune-like
// removal waves (including full drains) driven through List, Tree and
// Epoch simultaneously, with every mutation result and a stab grid
// compared after each wave. Heavy region turnover is exactly the shape
// that stresses the epoch's lazy rebuild: every wave invalidates the
// snapshot and the next stab batch must rebuild it correctly.
// TestEpochSegmentsMatchLookup: after Sync, the segment of a point —
// the number of boundaries at or below it — carries exactly Lookup's
// ranks, for points below, between, on and past every boundary, through
// inserts out of id order and swapping removes; the two unbounded
// segments are empty, and an empty epoch has one empty segment.
func TestEpochSegmentsMatchLookup(t *testing.T) {
	e := NewEpoch()
	e.Sync()
	if len(e.Bounds()) != 0 || len(e.Ranks(0)) != 0 {
		t.Fatalf("empty epoch: bounds %v, segment 0 ranks %v", e.Bounds(), e.Ranks(0))
	}
	rng := rand.New(rand.NewPCG(3, 5))
	for step := 0; step < 200; step++ {
		if id := rng.IntN(40); rng.IntN(3) == 0 {
			e.Remove(id)
		} else {
			start := uint64(rng.IntN(1000))
			e.Insert(id, start, start+1+uint64(rng.IntN(200)))
		}
		e.Sync()
		b := e.Bounds()
		if len(b) > 0 && (len(e.Ranks(0)) != 0 || len(e.Ranks(len(b))) != 0) {
			t.Fatalf("step %d: an unbounded segment has ranks", step)
		}
		for p := uint64(0); p < 1250; p += 7 {
			seg, _ := slices.BinarySearch(b, p+1)
			if got, want := e.Ranks(seg), e.Lookup(p); !equalInts(got, want) {
				t.Fatalf("step %d: point %d in segment %d has ranks %v; Lookup %v", step, p, seg, got, want)
			}
		}
	}
}

func TestIndexChurnAgreement(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xE9, 0xC0DE))
	list, tree, epoch := NewList(), NewTree(), NewEpoch()
	indexes := []struct {
		name string
		ix   Index
	}{{"list", list}, {"tree", tree}, {"epoch", epoch}}

	var live []int
	check := func(wave int) {
		t.Helper()
		ids := slices.Clone(live)
		slices.Sort(ids)
		for p := uint64(0); p < 4600; p += 37 {
			want := collect(list, p)
			for _, x := range indexes[1:] {
				if got := collect(x.ix, p); !equalInts(got, want) {
					t.Fatalf("wave %d: %s.Stab(%d) = %v; list says %v", wave, x.name, p, got, want)
				}
			}
			if got := rankIDs(epoch.Lookup(p), ids); !equalInts(got, want) {
				t.Fatalf("wave %d: epoch.Lookup(%d) maps to ids %v; list says %v", wave, p, got, want)
			}
		}
	}

	nextID := 0
	for wave := 0; wave < 60; wave++ {
		// Formation burst: a handful of new (possibly nested or identical)
		// ranges, as when the UCR threshold trips.
		for i, n := 0, 1+rng.IntN(24); i < n; i++ {
			start := uint64(rng.IntN(4000))
			end := start + 1 + uint64(rng.IntN(500))
			want := list.Insert(nextID, start, end)
			for _, x := range indexes[1:] {
				if got := x.ix.Insert(nextID, start, end); got != want {
					t.Fatalf("wave %d: %s.Insert(%d) = %v; list says %v", wave, x.name, nextID, got, want)
				}
			}
			live = append(live, nextID)
			nextID++
		}
		check(wave)

		// Prune wave: remove a random subset; every 7th wave drains the
		// whole set (a region cap + idle-prune worst case).
		k := rng.IntN(len(live) + 1)
		if wave%7 == 6 {
			k = len(live)
		}
		for i := 0; i < k; i++ {
			if len(live) == 0 {
				break
			}
			j := rng.IntN(len(live))
			id := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			want := list.Remove(id)
			for _, x := range indexes[1:] {
				if got := x.ix.Remove(id); got != want {
					t.Fatalf("wave %d: %s.Remove(%d) = %v; list says %v", wave, x.name, id, got, want)
				}
			}
		}
		// Absent-id removal: all three must agree it is a no-op.
		absent := nextID + 1000
		want := list.Remove(absent)
		for _, x := range indexes[1:] {
			if got := x.ix.Remove(absent); got != want {
				t.Fatalf("wave %d: %s.Remove(absent %d) = %v; list says %v", wave, x.name, absent, got, want)
			}
		}
		if list.Len() != tree.Len() || list.Len() != epoch.Len() {
			t.Fatalf("wave %d: Len diverged: list %d tree %d epoch %d", wave, list.Len(), tree.Len(), epoch.Len())
		}
		check(wave)
	}
}

// TestEpochLookupSteadyStateAllocs pins the hot-path contract: once the
// snapshot is built, Lookup allocates nothing.
func TestEpochLookupSteadyStateAllocs(t *testing.T) {
	e := NewEpoch()
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 128; i++ {
		start := rng.Uint64N(100_000)
		e.Insert(i, start, start+200)
	}
	e.Lookup(0) // build the snapshot
	sink := 0
	avg := testing.AllocsPerRun(200, func() {
		for p := uint64(0); p < 100_000; p += 997 {
			sink += len(e.Lookup(p))
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Lookup allocates %.2f allocs/run; want 0", avg)
	}
	_ = sink
}

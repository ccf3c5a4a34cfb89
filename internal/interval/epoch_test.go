package interval

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestEpochBasics(t *testing.T) {
	testIndexBasics(t, func() index { return epochIndex{NewEpoch()} })
}

// rankIDs maps Lookup's ranks to ids, given the live ids in id order.
func rankIDs(ranks, ids []int) []int {
	out := make([]int, 0, len(ranks))
	for _, k := range ranks {
		out = append(out, ids[k])
	}
	return out
}

func TestEpochLookupMatchesStab(t *testing.T) {
	e, list := NewEpoch(), NewList()
	for _, r := range []Range{{9, 100, 400}, {4, 50, 80}, {12, 200, 300}, {17, 250, 600}} {
		e.Insert(r.ID, r.Start, r.End)
		list.Insert(r.ID, r.Start, r.End)
	}
	e.Remove(4)
	list.Remove(4)
	ids := []int{9, 12, 17}
	for _, p := range []uint64{0, 60, 99, 100, 150, 200, 250, 299, 300, 399, 400, 599, 600} {
		got := rankIDs(e.Lookup(p), ids)
		if want := collect(list, p); !equalInts(got, want) {
			t.Errorf("Lookup(%d) maps to ids %v; the list stabs %v", p, got, want)
		}
	}
	// Lookup returns ranks — positions in id order among the live
	// ranges — ascending.
	if got := e.Lookup(260); !equalInts(got, []int{0, 1, 2}) {
		t.Errorf("Lookup(260) = %v; want ranks [0 1 2]", got)
	}
}

// liveRanks maps a stab's ids to ranks: positions in ascending id order
// among the live ids.
func liveRanks(stabbed, live []int) []int {
	ids := slices.Clone(live)
	slices.Sort(ids)
	out := make([]int, 0, len(stabbed))
	for _, id := range stabbed {
		k, _ := slices.BinarySearch(ids, id)
		out = append(out, k)
	}
	return out
}

// TestEpochSegmentsMatchLookup: after Sync, the segment of a point —
// the number of boundaries at or below it — carries exactly the ranks of
// the ranges a List stab finds there, and so does Lookup, for points
// below, between, on and past every boundary, through inserts in and
// out of id order and swapping removes; the two unbounded segments are
// empty, and an empty epoch has one empty segment.
func TestEpochSegmentsMatchLookup(t *testing.T) {
	e, list := NewEpoch(), NewList()
	e.Sync()
	if len(e.Bounds()) != 0 || len(e.Ranks(0)) != 0 {
		t.Fatalf("empty epoch: bounds %v, segment 0 ranks %v", e.Bounds(), e.Ranks(0))
	}
	rng := rand.New(rand.NewPCG(3, 5))
	var live []int
	for step := 0; step < 200; step++ {
		if id := rng.IntN(40); rng.IntN(3) == 0 {
			if e.Remove(id) != list.Remove(id) {
				t.Fatalf("step %d: Remove(%d) disagrees with the list", step, id)
			}
		} else {
			start := uint64(rng.IntN(1000))
			end := start + 1 + uint64(rng.IntN(200))
			if e.Insert(id, start, end) != list.Insert(id, start, end) {
				t.Fatalf("step %d: Insert(%d) disagrees with the list", step, id)
			}
		}
		live = live[:0]
		for _, r := range list.ranges {
			live = append(live, r.ID)
		}
		e.Sync()
		b := e.Bounds()
		if len(b) > 0 && (len(e.Ranks(0)) != 0 || len(e.Ranks(len(b))) != 0) {
			t.Fatalf("step %d: an unbounded segment has ranks", step)
		}
		for p := uint64(0); p < 1250; p += 7 {
			want := liveRanks(collect(list, p), live)
			seg, _ := slices.BinarySearch(b, p+1)
			if got := e.Ranks(seg); !equalInts(got, want) {
				t.Fatalf("step %d: point %d in segment %d has ranks %v; the list stabs ranks %v", step, p, seg, got, want)
			}
			if got := e.Lookup(p); !equalInts(got, want) {
				t.Fatalf("step %d: Lookup(%d) = %v; the list stabs ranks %v", step, p, got, want)
			}
		}
	}
}

// TestIndexChurnAgreement is the churn differential: one deterministic
// sequence of formation-like insert bursts and prune-like removal waves
// (including full drains) driven through List and Epoch simultaneously,
// with every mutation result and a stab grid compared after each burst
// and each wave. Heavy region turnover is
// exactly the shape that stresses the epoch's lazy rebuild: every wave
// invalidates the snapshot and the next stab batch must rebuild it. Each
// wave's formation stretch is one to four bursts with no removal between
// — the epoch's merge rebuild — and bursts repeat live spans and reuse
// live ranges' bounds, so merged bounds coincide with existing ones.
func TestIndexChurnAgreement(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xE9, 0xC0DE))
	list, epoch := NewList(), NewEpoch()

	var live []int
	check := func(wave int) {
		t.Helper()
		// Merged or rebuilt from scratch, the snapshot has one shape.
		scratch := NewEpoch()
		for _, r := range list.ranges {
			scratch.Insert(r.ID, r.Start, r.End)
		}
		epoch.Sync()
		scratch.Sync()
		if !slices.Equal(epoch.Bounds(), scratch.Bounds()) {
			t.Fatalf("wave %d: epoch bounds %v; built from scratch %v", wave, epoch.Bounds(), scratch.Bounds())
		}
		for p := uint64(0); p < 4600; p += 37 {
			want := collect(list, p)
			if got := collect(epochIndex{epoch}, p); !equalInts(got, want) {
				t.Fatalf("wave %d: epoch stab(%d) = %v; list says %v", wave, p, got, want)
			}
			if got, want := epoch.Lookup(p), liveRanks(want, live); !equalInts(got, want) {
				t.Fatalf("wave %d: epoch.Lookup(%d) = ranks %v; list says ranks %v", wave, p, got, want)
			}
		}
	}

	nextID := 0
	for wave := 0; wave < 60; wave++ {
		// Formation stretch: bursts of a handful of new (possibly nested
		// or identical) ranges, as when the UCR threshold trips.
		for bursts := 1 + rng.IntN(4); bursts > 0; bursts-- {
			for i, n := 0, 1+rng.IntN(24); i < n; i++ {
				start := uint64(rng.IntN(4000))
				end := start + 1 + uint64(rng.IntN(500))
				if len(list.ranges) > 0 {
					r := list.ranges[rng.IntN(len(list.ranges))]
					switch rng.IntN(4) {
					case 0: // the same span as a live range
						start, end = r.Start, r.End
					case 1: // starts where a live range ends
						start, end = r.End, r.End+1+uint64(rng.IntN(500))
					case 2: // ends where a live range starts
						if r.Start > 0 {
							start, end = uint64(rng.IntN(int(r.Start))), r.Start
						}
					}
				}
				want := list.Insert(nextID, start, end)
				if got := epoch.Insert(nextID, start, end); got != want {
					t.Fatalf("wave %d: epoch.Insert(%d) = %v; list says %v", wave, nextID, got, want)
				}
				live = append(live, nextID)
				nextID++
			}
			check(wave)
		}

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
			if got := epoch.Remove(id); got != want {
				t.Fatalf("wave %d: epoch.Remove(%d) = %v; list says %v", wave, id, got, want)
			}
		}
		// Absent-id removal: both must agree it is a no-op.
		absent := nextID + 1000
		if got, want := epoch.Remove(absent), list.Remove(absent); got != want {
			t.Fatalf("wave %d: epoch.Remove(absent %d) = %v; list says %v", wave, absent, got, want)
		}
		if list.Len() != epoch.Len() {
			t.Fatalf("wave %d: Len diverged: list %d epoch %d", wave, list.Len(), epoch.Len())
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

// formationRound returns two closures over e: one inserts add's spans in
// id order from id first and syncs, the other removes them and syncs.
func formationRound(e *Epoch, first int, add [][2]uint64) (insert, remove func()) {
	insert = func() {
		for k, r := range add {
			e.Insert(first+k, r[0], r[1])
		}
		e.Sync()
	}
	remove = func() {
		for k := len(add) - 1; k >= 0; k-- {
			e.Remove(first + k)
		}
		e.Sync()
	}
	return insert, remove
}

// TestEpochRebuildSteadyStateAllocs: once its scratch has grown, a
// rebuild allocates nothing, whether it merges in-order inserts or starts
// over after removes.
func TestEpochRebuildSteadyStateAllocs(t *testing.T) {
	e := NewEpoch()
	for i := 0; i < 64; i++ {
		e.Insert(i, uint64(1000*i), uint64(1000*i+300+7*i))
	}
	insert, remove := formationRound(e, 64, [][2]uint64{{500, 2500}, {64_000, 64_300}, {7000, 7100}, {0, 90_000}})
	insert()
	remove()
	if avg := testing.AllocsPerRun(100, func() { insert(); remove() }); avg != 0 {
		t.Errorf("formation rebuild allocates %.2f allocs/run; want 0", avg)
	}
}

// BenchmarkEpochFormation times formation's index update: four in-order
// Inserts and the Sync that brings a snapshot of 32 or 256 live ranges up
// to date. Between iterations, with the timer stopped, the four are
// removed and the snapshot rebuilt, so every iteration starts from the
// same synced range set.
func BenchmarkEpochFormation(b *testing.B) {
	for _, live := range []int{32, 256} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(11, uint64(live)))
			span := func() [2]uint64 {
				start := rng.Uint64N(1<<20) &^ 3
				return [2]uint64{start, start + 4 + rng.Uint64N(1024)&^3}
			}
			e := NewEpoch()
			for id := 0; id < live; id++ {
				r := span()
				e.Insert(id, r[0], r[1])
			}
			add := make([][2]uint64, 4)
			for i := range add {
				add[i] = span()
			}
			insert, remove := formationRound(e, live, add)
			insert() // grow the scratch
			remove()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				insert()
				b.StopTimer()
				remove()
				b.StartTimer()
			}
		})
	}
}

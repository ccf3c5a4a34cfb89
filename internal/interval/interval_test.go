package interval

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// index is the surface the shared tests drive: List and Tree.
type index interface {
	Insert(id int, start, end uint64) bool
	Stab(point uint64, visit func(id int))
	Len() int
}

// collect returns the ids of the ranges containing point, ascending.
func collect(ix index, point uint64) []int {
	var ids []int
	ix.Stab(point, func(id int) { ids = append(ids, id) })
	sort.Ints(ids)
	return ids
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// testIndexBasics exercises inserts and stabs on any index.
func testIndexBasics(t *testing.T, mk func() index) {
	t.Helper()
	ix := mk()
	if ix.Len() != 0 {
		t.Fatal("fresh index not empty")
	}
	if !ix.Insert(1, 100, 200) || !ix.Insert(2, 150, 300) || !ix.Insert(3, 400, 500) {
		t.Fatal("inserts failed")
	}
	if ix.Insert(1, 600, 700) {
		t.Error("duplicate id insert should fail")
	}
	if ix.Insert(4, 500, 500) || ix.Insert(5, 700, 600) {
		t.Error("empty/inverted range insert should fail")
	}
	if ix.Len() != 3 {
		t.Fatalf("Len = %d; want 3", ix.Len())
	}
	cases := []struct {
		point uint64
		want  []int
	}{
		{99, nil},
		{100, []int{1}},
		{150, []int{1, 2}}, // overlap: both visited
		{199, []int{1, 2}},
		{200, []int{2}}, // half-open: 1 excluded at its End
		{299, []int{2}},
		{300, nil},
		{450, []int{3}},
		{500, nil},
	}
	for _, c := range cases {
		if got := collect(ix, c.point); !equalInts(got, c.want) {
			t.Errorf("Stab(%d) = %v; want %v", c.point, got, c.want)
		}
	}
}

func TestListBasics(t *testing.T) { testIndexBasics(t, func() index { return NewList() }) }
func TestTreeBasics(t *testing.T) { testIndexBasics(t, func() index { return NewTree() }) }

// TestTreeMatchesListRandom is the core property test: under a random
// workload of inserts and stabs, the tree agrees with the list and
// maintains its red-black + max invariants throughout.
func TestTreeMatchesListRandom(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xBEEF))
		list := NewList()
		tree := NewTree()
		nextID := 0
		for op := 0; op < 400; op++ {
			switch r := rng.IntN(10); {
			case r < 5: // insert, now and then under a taken id or empty
				start := uint64(rng.IntN(1000))
				end := start + 1 + uint64(rng.IntN(200))
				id := nextID
				switch rng.IntN(8) {
				case 0:
					id = rng.IntN(nextID + 1)
				case 1:
					end = start
				}
				nextID++
				li := list.Insert(id, start, end)
				ti := tree.Insert(id, start, end)
				if li != ti {
					t.Logf("seed %d op %d: insert disagreement", seed, op)
					return false
				}
			default: // stab
				p := uint64(rng.IntN(1300))
				if !equalInts(collect(list, p), collect(tree, p)) {
					t.Logf("seed %d op %d: stab(%d) disagreement", seed, op, p)
					return false
				}
			}
			if list.Len() != tree.Len() {
				t.Logf("seed %d op %d: len disagreement %d vs %d", seed, op, list.Len(), tree.Len())
				return false
			}
			if _, ok := tree.checkInvariants(); !ok {
				t.Logf("seed %d op %d: tree invariants violated", seed, op)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeManyIdenticalRanges(t *testing.T) {
	tree := NewTree()
	for i := 0; i < 100; i++ {
		if !tree.Insert(i, 10, 20) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if got := collect(tree, 15); len(got) != 100 {
		t.Fatalf("Stab over 100 identical ranges returned %d ids", len(got))
	}
	if _, ok := tree.checkInvariants(); !ok {
		t.Fatal("invariants violated with identical keys")
	}
}

func TestStabVisitsEachRegionOncePerPoint(t *testing.T) {
	// Nested loops: outer contains inner; a point in the inner loop must
	// visit both exactly once (the paper increments all overlapping
	// regions for such samples).
	for _, mk := range []func() index{
		func() index { return NewList() },
		func() index { return NewTree() },
	} {
		ix := mk()
		ix.Insert(0, 100, 400) // outer
		ix.Insert(1, 200, 300) // inner
		counts := map[int]int{}
		ix.Stab(250, func(id int) { counts[id]++ })
		if counts[0] != 1 || counts[1] != 1 {
			t.Errorf("nested stab counts = %v; want both exactly 1", counts)
		}
	}
}

func BenchmarkStabList16(b *testing.B)   { benchStab(b, NewList(), 16) }
func BenchmarkStabTree16(b *testing.B)   { benchStab(b, NewTree(), 16) }
func BenchmarkStabList256(b *testing.B)  { benchStab(b, NewList(), 256) }
func BenchmarkStabTree256(b *testing.B)  { benchStab(b, NewTree(), 256) }
func BenchmarkStabList1024(b *testing.B) { benchStab(b, NewList(), 1024) }
func BenchmarkStabTree1024(b *testing.B) { benchStab(b, NewTree(), 1024) }

func benchStab(b *testing.B, ix index, n int) {
	rng := rand.New(rand.NewPCG(42, uint64(n)))
	span := uint64(n * 1000)
	for i := 0; i < n; i++ {
		start := rng.Uint64N(span)
		ix.Insert(i, start, start+200)
	}
	points := make([]uint64, 1024)
	for i := range points {
		points[i] = rng.Uint64N(span)
	}
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		ix.Stab(points[i%len(points)], func(id int) { sink += id })
	}
	_ = sink
}

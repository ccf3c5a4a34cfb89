// Package det holds the detector whose state closure spans both this
// package and bounded/decl.
package det

import "bounded/decl"

// D is a long-lived detector: it has an ObserveInterval method, so every
// growable field in its transitive state closure must be bounded.
type D struct {
	buf   *decl.Buf
	hist  []int
	idx   map[int]int
	names []string //lint:bounded -- fixed at construction
}

func (d *D) ObserveInterval(x int) {
	d.hist = append(d.hist, x) // want "append grows detector state field det.D.hist"
	d.idx[x]++                 // want "map write grows detector state field det.D.idx"
	d.names = append(d.names[:0], "a")
	d.buf.Grow(x)
	d.rebuild(x)
}

// rebuild is a declared bounded-by-design sub-path: neither checked nor
// traversed.
//
//lint:allow boundedstate -- output size capped by the region set
func (d *D) rebuild(x int) {
	d.hist = append(d.hist, x)
}

// StageSnapshot legitimately rebuilds state: cold by contract.
func (d *D) StageSnapshot(xs []int) {
	d.hist = append(d.hist[:0], xs...)
	for i, x := range xs {
		d.idx[i] = x
	}
}

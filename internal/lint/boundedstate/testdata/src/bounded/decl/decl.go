// Package decl declares state a downstream detector borrows: its fields
// are in the detector's state closure, and the growth sites here are
// flagged because they are reachable from the detector's hot path.
package decl

// Buf is a history buffer owned by a detector in bounded/det.
type Buf struct {
	data []int
	ring []int //lint:bounded -- overwritten modulo cap, never grows
}

// Grow is called from the detector's ObserveInterval.
func (b *Buf) Grow(x int) {
	b.data = append(b.data, x) // want "append grows detector state field decl.Buf.data"
}

// Rotate writes through the bounded ring: sanctioned.
func (b *Buf) Rotate(x int) {
	b.ring[x%len(b.ring)] = x
}

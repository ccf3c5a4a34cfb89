package region

import (
	"math/bits"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
)

// Count compression for sample distribution. An overflow buffer from
// loopy code is mostly repeats — a 2032-sample buffer over a few hot loop
// bodies holds a few hundred distinct PCs — so distribute works on
// (distinct PC, count) runs instead of raw samples. Every consumer of the
// runs only adds their counts (histogram bins, hit and UCR counters, loop
// and procedure tallies), so the order of the runs cannot change a
// result; pcTable hashes each sample once and emits the runs in the order
// their PCs first appear, with no sort.

// pcRun is one distinct program counter of a buffer and the number of
// samples that hit it.
type pcRun struct {
	pc isa.Addr
	n  int
}

// pcSlot is one open-addressed hash slot: it holds the run of the PC
// hashed there when gen equals the table's current generation, and is
// empty otherwise.
type pcSlot struct {
	gen uint32
	run int32
}

// pcTable is the monitor's one-pass PC counter: an open-addressed,
// linearly probed table whose slots are stamped with a generation, so
// starting a new buffer costs one increment rather than a clear. It is
// sized on first sight from the buffers it is given — at least twice as
// many slots as samples, a power of two — and grows only when a buffer
// outgrows every earlier one.
type pcTable struct {
	slots []pcSlot
	runs  []pcRun // len(slots)/2: room for a buffer of all-distinct PCs
	shift uint    // 64 - log2(len(slots)): hash to slot index
	gen   uint32
}

// count returns the distinct PCs of samples with their sample counts, in
// the order each PC first appears. The result aliases the table and is
// valid until the next call.
func (t *pcTable) count(samples []hpm.Sample) []pcRun {
	if 2*len(samples) > len(t.slots) {
		t.grow(len(samples))
	}
	t.gen++
	if t.gen == 0 {
		// The stamp wrapped: slots last written 2^32 buffers ago would
		// read as current.
		clear(t.slots)
		t.gen = 1
	}
	slots, runs, gen := t.slots, t.runs, t.gen
	mask := len(slots) - 1
	n := 0
	for i := range samples {
		pc := samples[i].PC
		// Fibonacci hashing: the top bits of pc * 2^64/φ spread the
		// evenly spaced PCs of a loop body over the whole table.
		h := int(uint64(pc) * 0x9e3779b97f4a7c15 >> t.shift)
		for {
			s := &slots[h]
			if s.gen != gen {
				*s = pcSlot{gen: gen, run: int32(n)}
				runs[n] = pcRun{pc: pc, n: 1}
				n++
				break
			}
			if r := &runs[s.run]; r.pc == pc {
				r.n++
				break
			}
			h = (h + 1) & mask
		}
	}
	return runs[:n]
}

// grow sizes the table for buffers of up to samples samples.
//
//lint:allow hotpath -- growth fires only when a buffer outgrows every earlier one, never in steady state
func (t *pcTable) grow(samples int) {
	size := 1 << bits.Len(uint(2*samples-1))
	t.slots = make([]pcSlot, size)
	t.runs = make([]pcRun, size/2)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

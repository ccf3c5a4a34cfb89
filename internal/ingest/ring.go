package ingest

import (
	"sync/atomic"

	"regionmon/internal/hpm"
)

// slot is one ring entry: either a batch (one stream's sampling interval,
// samples copied into the slot's preallocated buffer) or a control op
// (ctl != nil). Slot buffers are sized once at ring construction, so the
// steady-state enqueue path never allocates.
type slot struct {
	ctl     *control
	stream  int
	seq     int
	cycle   uint64
	n       int          // samples used this delivery
	samples []hpm.Sample // len = MaxSamples, filled [0:n)
}

// ring is a bounded single-producer single-consumer queue of slots. The
// fleet's owning goroutine is the producer for every shard ring; each
// shard's worker goroutine is the sole consumer of its own ring. With one
// writer per index and the head/tail counters published through atomics,
// the ring needs no locks: the producer only writes slots at tail (which
// the consumer cannot read until tail is advanced), the consumer only
// reads slots at head (which the producer cannot reuse until head is
// advanced).
//
// The transfer primitives move runs: reserveRun/publishRun move a
// contiguous run of slots with one tail advance and at most one consumer
// wake, and waitRun/releaseRun drain a contiguous run with one head
// advance and at most one producer wake. The control path moves one slot
// through the same calls (a run of one), so there is one synchronization
// core.
//
// Blocking is event-driven, not spinning: dataWake (capacity 1) carries
// "something was published" from producer to consumer, spaceWake carries
// "a slot was freed" back. Both are best-effort sticky tokens — a stale
// token just causes one extra empty/full recheck — so notifications are
// non-blocking sends and never allocate.
type ring struct {
	slots []slot
	mask  uint64

	head atomic.Uint64 // next slot to consume; advanced only by the consumer
	tail atomic.Uint64 // next slot to produce; advanced only by the producer

	dataWake  chan struct{}
	spaceWake chan struct{}
}

// newRing returns a ring with capacity slots (rounded up to a power of
// two) whose sample buffers hold maxSamples each.
func newRing(capacity, maxSamples int) *ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	r := &ring{
		slots:     make([]slot, n),
		mask:      uint64(n - 1),
		dataWake:  make(chan struct{}, 1),
		spaceWake: make(chan struct{}, 1),
	}
	buf := make([]hpm.Sample, n*maxSamples)
	for i := range r.slots {
		r.slots[i].samples = buf[i*maxSamples : (i+1)*maxSamples]
	}
	return r
}

// cap returns the ring capacity in slots.
func (r *ring) cap() int { return len(r.slots) }

// depth returns the current number of queued slots (producer/consumer
// safe; a racing read is at worst one off in either direction).
func (r *ring) depth() int { return int(r.tail.Load() - r.head.Load()) }

// reserveRun returns the next run of free producer slots, up to want: the
// run starts at tail and is bounded by the free count and by the backing
// array's wrap point (a batch spanning the wrap takes two reservations).
// It returns nil when the ring is full. Producer-only; the slots are not
// visible to the consumer until publishRun.
func (r *ring) reserveRun(want int) []slot {
	t := r.tail.Load()
	free := uint64(len(r.slots)) - (t - r.head.Load())
	if free == 0 || want <= 0 {
		return nil
	}
	n := uint64(want)
	if n > free {
		n = free
	}
	i := t & r.mask
	if wrap := uint64(len(r.slots)) - i; n > wrap {
		n = wrap
	}
	return r.slots[i : i+n]
}

// reserveRunWait is reserveRun, blocking until at least one slot frees
// up. Producer-only.
func (r *ring) reserveRunWait(want int) []slot {
	for {
		if run := r.reserveRun(want); run != nil {
			return run
		}
		<-r.spaceWake
	}
}

// publishRun makes the last n reserved slots visible to the consumer with
// one tail advance and wakes it (at most once) if parked. Producer-only.
func (r *ring) publishRun(n int) {
	r.tail.Store(r.tail.Load() + uint64(n))
	select {
	case r.dataWake <- struct{}{}:
	default:
	}
}

// waitRun returns the maximal contiguous run of queued slots starting at
// head, parking until at least one is published. The run is bounded by
// the backing array's wrap point; the next call picks up the wrapped
// remainder. Consumer-only; the slots stay consumer-owned until released.
func (r *ring) waitRun() []slot {
	for {
		h := r.head.Load()
		n := r.tail.Load() - h
		if n != 0 {
			i := h & r.mask
			if wrap := uint64(len(r.slots)) - i; n > wrap {
				n = wrap
			}
			return r.slots[i : i+n]
		}
		<-r.dataWake
	}
}

// releaseRun returns the first n unreleased slots of the current run to
// the producer with one head advance and wakes it (at most once) if
// parked on a full ring. Consumer-only; call only after those slots'
// contents are fully consumed (the producer may overwrite immediately).
// Releasing a prefix keeps the rest of the run valid: the producer writes
// only at tail, which cannot reach the unreleased remainder.
func (r *ring) releaseRun(n int) {
	r.head.Store(r.head.Load() + uint64(n))
	select {
	case r.spaceWake <- struct{}{}:
	default:
	}
}

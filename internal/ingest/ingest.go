// Package ingest is the multi-stream serving layer: one Fleet owns N
// independent monitored streams (one full detector stack each, built via
// pipeline), hash-sharded across a fixed pool of worker goroutines.
//
// The concurrency model extends the repo's single-owner discipline to a
// serving topology instead of abandoning it. A pipeline is still owned by
// exactly one goroutine for its whole life: each shard worker *constructs*
// the pipelines for its streams inside its own goroutine and never shares
// them. The only cross-goroutine traffic is the per-shard SPSC ring —
// batches are copied into preallocated ring slots by the fleet's owning
// goroutine and consumed by the shard worker, so the steady-state path
// never allocates and never takes a lock.
//
// The sample path is batch-first end to end. PushBatch/PushBatchWait move
// a run of sampling intervals for one stream with a single ring
// reservation and a single consumer wake, instead of paying
// reserve/publish/wake per interval; Push/PushWait are thin per-item
// wrappers over the same core. Symmetrically, the shard worker drains a
// contiguous run of queued slots per wake and hands each same-stream
// sub-run to its pipeline's ObserveBatch in one call. Batching is purely
// a transport optimization: intervals reach every stream in push order
// whatever mix of per-item and batched pushes produced them, so verdict
// streams (and their digests) are byte-identical across the two paths —
// TestFleetBatchDifferential pins that, including mixed interleavings and
// partial-batch drops.
//
// Because every stream maps to exactly one shard and a shard's ring is
// FIFO, each stream observes its intervals in exactly the order they were
// pushed — so per-stream results (verdict streams, digests, snapshots) are
// byte-identical regardless of how many shards the fleet runs. Shard count
// is purely a throughput knob, never a results knob; TestFleetDeterminism
// pins that with cross-worker-count digest equality under -race.
//
// Backpressure is explicit, not implicit: Push and PushBatch never block —
// a full shard ring counts a drop against the stream (a partial batch is
// always an accepted prefix, with the dropped suffix counted), and Stats
// exposes accepted/dropped/queue-depth per shard so operators see
// saturation rather than discover it as tail latency. PushWait and
// PushBatchWait are the lossless alternatives for offline replay.
//
// Control operations (snapshot, restore, stream info, drain barriers) ride
// the same rings in-band, so they are FIFO-ordered with the batches around
// them: a fleet Snapshot captures each stream exactly after the intervals
// pushed before the call, with no pausing, locking, or racing against
// in-flight batches.
package ingest

import (
	"fmt"
	"sync"

	"regionmon/internal/hpm"
	"regionmon/internal/pipeline"
	"regionmon/internal/vhash"
)

// BuildFunc constructs the detector stack for one stream. It is called
// once per stream, from the owning shard worker's goroutine (never the
// caller's), so the returned pipeline is worker-owned from birth. It must
// be pure configuration: deterministic, and free of shared mutable state
// across calls.
type BuildFunc func(stream int) (*pipeline.Pipeline, error)

// Config tunes a Fleet. The zero value of every field except Build
// selects a default.
type Config struct {
	// Shards is the number of worker goroutines (and rings). Default 4;
	// clamped to the stream count.
	Shards int
	// QueueCap is the per-shard ring capacity in batches, rounded up to a
	// power of two (default 64).
	QueueCap int
	// MaxSamples is the largest overflow buffer a Push may carry; ring
	// slots preallocate this many samples (default hpm.DefaultBufferSize).
	MaxSamples int
	// Build constructs each stream's detector stack. Required.
	Build BuildFunc
}

func (c Config) withDefaults(numStreams int) Config {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Shards > numStreams {
		c.Shards = numStreams
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.MaxSamples == 0 {
		c.MaxSamples = hpm.DefaultBufferSize
	}
	return c
}

// StreamInfo is one stream's worker-side progress, captured in-band (so it
// reflects exactly the intervals pushed before the StreamInfo call).
type StreamInfo struct {
	// Stream is the stream id.
	Stream int
	// Shard is the shard the stream is pinned to.
	Shard int
	// Intervals is the number of intervals the stream's pipeline has
	// observed (its Intervals count).
	Intervals int
	// Digest is the FNV-1a verdict-stream digest so far (see vhash).
	Digest uint64
}

// ShardStats is one shard's backpressure accounting.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// Streams is the number of streams pinned to this shard.
	Streams int
	// Accepted and Dropped count Push outcomes across the shard's streams.
	Accepted, Dropped uint64
	// QueueDepth is the current ring occupancy; QueueCap its capacity.
	QueueDepth, QueueCap int
}

// Stats is a point-in-time fleet backpressure summary.
type Stats struct {
	// Accepted and Dropped are fleet-wide Push outcome totals.
	Accepted, Dropped uint64
	// Shards holds per-shard detail, indexed by shard.
	Shards []ShardStats
}

// Fleet owns numStreams detector stacks sharded across worker goroutines.
// The Fleet handle itself follows the repo's single-owner rule: one
// goroutine calls Push/PushWait/Drain/Snapshot/Restore/Close. (Internally
// the fleet *is* the concurrency — the handle is the single producer for
// every shard ring.)
//
//lint:single-owner
type Fleet struct {
	shards     []*shard
	shardOf    []int // stream id -> shard index
	accepted   []uint64
	dropped    []uint64
	maxSamples int              //lint:config -- fixed at construction
	one        [1]*hpm.Overflow //lint:config -- scratch backing the per-item Push wrappers
	ctlWG      sync.WaitGroup   // reused for every control round-trip
	closed     bool
}

// shard is one worker: a ring plus the goroutine that consumes it. The
// worker-side stream states live inside run's goroutine and never escape.
type shard struct {
	id      int
	ring    *ring
	streams []int // stream ids pinned here, ascending
	barrier control
	done    chan struct{} // closed when the worker goroutine exits
}

// control op codes. All ops are executed by the shard worker between
// batches, in ring FIFO order, and acknowledged via the op's WaitGroup.
const (
	opBarrier = iota + 1
	opSnapshot
	opStage
	opCommit
	opInfo
	opStop
)

// control is one in-band control op. The producer fills op/stream/data,
// pushes it through the ring, and waits; the worker fills out/info/err and
// signals wg.
type control struct {
	op     int
	stream int
	data   []byte // opStage: encoded stream state
	out    []byte // opSnapshot: encoded stream state
	apply  bool   // opCommit: apply the staged state, or discard it
	info   StreamInfo
	err    error
	wg     *sync.WaitGroup
}

// shardHash maps a stream id to a shard. splitmix64's finalizer: cheap,
// deterministic, and well mixed so consecutive stream ids spread across
// shards instead of striping.
func shardHash(stream, shards int) int {
	z := uint64(stream) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(shards))
}

// NewFleet starts a fleet of numStreams streams. Every stream's stack is
// built (inside its shard worker) before NewFleet returns; if any build
// fails, all workers are stopped and the first error is returned.
func NewFleet(numStreams int, cfg Config) (*Fleet, error) {
	if numStreams < 1 {
		return nil, fmt.Errorf("ingest: numStreams %d must be positive", numStreams)
	}
	if cfg.Build == nil {
		return nil, fmt.Errorf("ingest: Config.Build is required")
	}
	cfg = cfg.withDefaults(numStreams)
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("ingest: Shards %d must be positive", cfg.Shards)
	}
	if cfg.QueueCap < 1 {
		return nil, fmt.Errorf("ingest: QueueCap %d must be positive", cfg.QueueCap)
	}
	if cfg.MaxSamples < 1 {
		return nil, fmt.Errorf("ingest: MaxSamples %d must be positive", cfg.MaxSamples)
	}

	f := &Fleet{
		shards:     make([]*shard, cfg.Shards),
		shardOf:    make([]int, numStreams),
		accepted:   make([]uint64, numStreams),
		dropped:    make([]uint64, numStreams),
		maxSamples: cfg.MaxSamples,
	}
	for id := range f.shardOf {
		f.shardOf[id] = shardHash(id, cfg.Shards)
	}
	ready := make(chan error)
	for i := range f.shards {
		sh := &shard{
			id:   i,
			ring: newRing(cfg.QueueCap, cfg.MaxSamples),
			done: make(chan struct{}),
		}
		sh.barrier = control{op: opBarrier, wg: &f.ctlWG}
		for id := range f.shardOf {
			if f.shardOf[id] == i {
				sh.streams = append(sh.streams, id)
			}
		}
		f.shards[i] = sh
		go sh.run(numStreams, cfg.Build, ready)
	}
	var firstErr error
	for range f.shards {
		if err := <-ready; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		// Workers that failed their builds have already exited; the rest
		// are parked on their rings and need an explicit stop.
		f.Close()
		return nil, firstErr
	}
	return f, nil
}

// NumStreams returns the fleet's stream count.
func (f *Fleet) NumStreams() int { return len(f.shardOf) }

// ShardOf returns the shard a stream is pinned to.
func (f *Fleet) ShardOf(stream int) int { return f.shardOf[stream] }

// PushBatch offers a run of sampling intervals to one stream without
// blocking, amortizing the ring cost the per-item API pays per interval:
// one multi-slot reservation, one tail advance and one consumer wake per
// batch (two when the run spans the ring's wrap point). Intervals are
// enqueued in slice order, and every interval's samples are copied into a
// preallocated ring slot, so the caller may reuse all of the batch's
// backing arrays immediately and the steady-state path performs no
// allocation.
//
// When the shard ring fills mid-batch, the remainder is dropped and
// counted against the stream: an accepted partial batch is always a
// prefix, never a subsequence, so stream order is preserved. It returns
// the number of intervals accepted.
//
// PushBatch panics on a closed fleet, an out-of-range stream, or any
// interval larger than Config.MaxSamples: all three are caller bugs, not
// load.
func (f *Fleet) PushBatch(stream int, ovs []*hpm.Overflow) int {
	f.checkPush(stream, ovs)
	sh := f.shards[f.shardOf[stream]]
	pushed := 0
	for pushed < len(ovs) {
		run := sh.ring.reserveRun(len(ovs) - pushed)
		if run == nil {
			break
		}
		for i := range run {
			fillBatch(&run[i], stream, ovs[pushed+i])
		}
		sh.ring.publishRun(len(run))
		pushed += len(run)
	}
	f.accepted[stream] += uint64(pushed)
	f.dropped[stream] += uint64(len(ovs) - pushed)
	return pushed
}

// PushBatchWait is PushBatch for lossless replay: it blocks until every
// interval is enqueued instead of dropping the suffix. Batches larger
// than the ring drain through in ring-sized runs.
func (f *Fleet) PushBatchWait(stream int, ovs []*hpm.Overflow) {
	f.checkPush(stream, ovs)
	sh := f.shards[f.shardOf[stream]]
	pushed := 0
	for pushed < len(ovs) {
		run := sh.ring.reserveRunWait(len(ovs) - pushed)
		for i := range run {
			fillBatch(&run[i], stream, ovs[pushed+i])
		}
		sh.ring.publishRun(len(run))
		pushed += len(run)
	}
	f.accepted[stream] += uint64(pushed)
}

// Push offers one sampling interval to a stream without blocking. It
// returns false — and counts a drop against the stream — when the shard's
// ring is full. Per-item wrapper over the PushBatch core; it shares that
// API's copy semantics, panics and zero-allocation contract.
func (f *Fleet) Push(stream int, ov *hpm.Overflow) bool {
	f.one[0] = ov
	return f.PushBatch(stream, f.one[:]) == 1
}

// PushWait is Push for lossless replay: it blocks until the shard ring
// has space instead of dropping. Per-item wrapper over PushBatchWait.
func (f *Fleet) PushWait(stream int, ov *hpm.Overflow) {
	f.one[0] = ov
	f.PushBatchWait(stream, f.one[:])
}

func (f *Fleet) checkPush(stream int, ovs []*hpm.Overflow) {
	if f.closed {
		panic("ingest: Push on closed Fleet")
	}
	if stream < 0 || stream >= len(f.shardOf) {
		panic(fmt.Sprintf("ingest: stream %d out of range [0,%d)", stream, len(f.shardOf)))
	}
	for i, ov := range ovs {
		if len(ov.Samples) > f.maxSamples {
			panic(fmt.Sprintf("ingest: interval %d of batch carries %d samples, exceeding MaxSamples %d", i, len(ov.Samples), f.maxSamples))
		}
	}
}

func fillBatch(s *slot, stream int, ov *hpm.Overflow) {
	s.ctl = nil
	s.stream = stream
	s.seq = ov.Seq
	s.cycle = ov.Cycle
	s.n = copy(s.samples, ov.Samples)
}

// Drain blocks until every batch pushed before the call has been fully
// processed. It rides the rings as a barrier op per shard, so it needs no
// locks and allocates nothing.
func (f *Fleet) Drain() {
	if f.closed {
		panic("ingest: Drain on closed Fleet")
	}
	f.ctlWG.Add(len(f.shards))
	for _, sh := range f.shards {
		pushControl(sh.ring, &sh.barrier)
	}
	f.ctlWG.Wait()
}

// Stats returns the fleet's backpressure accounting: per-shard and total
// accepted/dropped counts and current queue depths.
func (f *Fleet) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(f.shards))}
	for i, sh := range f.shards {
		ss := ShardStats{
			Shard:      i,
			Streams:    len(sh.streams),
			QueueDepth: sh.ring.depth(),
			QueueCap:   sh.ring.cap(),
		}
		for _, id := range sh.streams {
			ss.Accepted += f.accepted[id]
			ss.Dropped += f.dropped[id]
		}
		st.Accepted += ss.Accepted
		st.Dropped += ss.Dropped
		st.Shards[i] = ss
	}
	return st
}

// StreamInfo reports one stream's worker-side progress: intervals
// processed and the verdict-stream digest so far. In-band, so it reflects
// exactly the batches pushed before the call. It returns an error if the
// stream's verdict hashing ever failed.
func (f *Fleet) StreamInfo(stream int) (StreamInfo, error) {
	c := f.roundTrip(&control{op: opInfo, stream: stream})
	return c.info, c.err
}

// roundTrip pushes one control op to the stream's shard and waits for the
// worker to execute it.
func (f *Fleet) roundTrip(c *control) *control {
	if f.closed {
		panic("ingest: control op on closed Fleet")
	}
	if c.stream < 0 || c.stream >= len(f.shardOf) {
		panic(fmt.Sprintf("ingest: stream %d out of range [0,%d)", c.stream, len(f.shardOf)))
	}
	c.wg = &f.ctlWG
	f.ctlWG.Add(1)
	pushControl(f.shards[f.shardOf[c.stream]].ring, c)
	f.ctlWG.Wait()
	return c
}

// pushControl enqueues a control op, blocking for ring space (control ops
// are cold paths and must never be dropped).
func pushControl(r *ring, c *control) {
	r.reserveRunWait(1)[0].ctl = c
	r.publishRun(1)
}

// Close stops every worker and waits for them to exit. It returns the
// first stream verdict-hashing error encountered across the fleet, if
// any. A closed fleet accepts no further operations; Close itself is
// idempotent.
func (f *Fleet) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	stops := make([]control, len(f.shards))
	f.ctlWG.Add(len(f.shards))
	for i, sh := range f.shards {
		stops[i] = control{op: opStop, wg: &f.ctlWG}
		pushControl(sh.ring, &stops[i])
	}
	f.ctlWG.Wait()
	var firstErr error
	for i, sh := range f.shards {
		<-sh.done
		if stops[i].err != nil && firstErr == nil {
			firstErr = fmt.Errorf("ingest: shard %d: %w", i, stops[i].err)
		}
	}
	return firstErr
}

// stream is the worker-side state for one stream. It lives entirely
// inside its shard worker's goroutine.
type stream struct {
	id     int
	pipe   *pipeline.Pipeline
	dig    *vhash.Digest
	err    error  // first verdict-hashing error
	staged func() // commit of the last opStage, until its opCommit
}

func newStream(id int, build BuildFunc) (*stream, error) {
	pipe, err := build(id)
	if err != nil {
		return nil, fmt.Errorf("ingest: build stream %d: %w", id, err)
	}
	if pipe == nil {
		return nil, fmt.Errorf("ingest: build stream %d returned a nil pipeline", id)
	}
	st := &stream{id: id, pipe: pipe, dig: vhash.New()}
	pipe.AddObserver(func(rep *pipeline.IntervalReport) {
		if err := st.dig.Report(rep); err != nil && st.err == nil {
			st.err = err
		}
	})
	return st, nil
}

// run is the shard worker loop. It builds its streams' stacks in this
// goroutine (worker-owned from birth), reports readiness, then consumes
// its ring until an opStop arrives.
//
// The loop is batch-first: each wake drains the maximal contiguous run of
// queued slots, groups consecutive same-stream batch slots, and delivers
// each group to its pipeline with one ObserveBatch call. Slots are
// released per group (and per control op) rather than per slot, so a
// producer parked on a full ring pays one wake per group. Control ops are
// still executed at exactly their FIFO position within the run, and their
// slots — plus every batch slot before them — are released before the op
// is acknowledged, preserving the pre-batching invariant that an
// acknowledged Drain leaves the ring empty.
func (sh *shard) run(numStreams int, build BuildFunc, ready chan<- error) {
	defer close(sh.done)
	// Dense stream-id index (nil for streams owned by other shards):
	// avoids map iteration anywhere near verdict state and costs one
	// pointer per fleet stream.
	states := make([]*stream, numStreams)
	var buildErr error
	for _, id := range sh.streams {
		st, err := newStream(id, build)
		if err != nil {
			buildErr = err
			break
		}
		states[id] = st
	}
	ready <- buildErr
	if buildErr != nil {
		// Stay on the ring in failed mode — releasing batches unread and
		// failing control ops — so the owner's Close still gets its stop
		// acknowledged and never deadlocks against a dead consumer.
		for {
			s := &sh.ring.waitRun()[0]
			c := s.ctl
			s.ctl = nil
			sh.ring.releaseRun(1)
			if c == nil {
				continue
			}
			if c.op == opStop {
				c.wg.Done()
				return
			}
			c.err = buildErr
			c.wg.Done()
		}
	}
	// Per-delivery scratch, sized to the ring once: a run can never exceed
	// the ring capacity, so the hot loop allocates nothing. ovs carries the
	// overflow headers for one same-stream group; batch aliases them as the
	// []*hpm.Overflow view ObserveBatch consumes.
	ovs := make([]hpm.Overflow, sh.ring.cap())
	batch := make([]*hpm.Overflow, len(ovs))
	for i := range ovs {
		batch[i] = &ovs[i]
	}
	for {
		run := sh.ring.waitRun()
		released := 0
		k := 0
		for k < len(run) {
			if c := run[k].ctl; c != nil {
				run[k].ctl = nil
				k++
				sh.ring.releaseRun(k - released)
				released = k
				if c.op == opStop {
					c.err = firstStreamErr(states, sh.streams)
					c.wg.Done()
					return
				}
				sh.exec(c, states)
				c.wg.Done()
				continue
			}
			// Group the maximal same-stream run of batch slots and deliver
			// it in one pipeline call.
			id := run[k].stream
			j := k + 1
			for j < len(run) && run[j].ctl == nil && run[j].stream == id {
				j++
			}
			for i := k; i < j; i++ {
				ov := batch[i-k]
				ov.Seq = run[i].seq
				ov.Cycle = run[i].cycle
				ov.Samples = run[i].samples[:run[i].n]
			}
			st := states[id]
			st.pipe.ObserveBatch(batch[:j-k])
			k = j
			// Only now may the producer overwrite the group's slots.
			sh.ring.releaseRun(k - released)
			released = k
		}
	}
}

// exec runs one non-stop control op against its target stream.
func (sh *shard) exec(c *control, states []*stream) {
	if c.op == opBarrier {
		return
	}
	st := states[c.stream]
	if st == nil {
		c.err = fmt.Errorf("ingest: stream %d not owned by shard %d", c.stream, sh.id)
		return
	}
	switch c.op {
	case opSnapshot:
		c.out, c.err = st.snapshot()
	case opStage:
		st.staged, c.err = st.stage(c.data)
	case opCommit:
		if c.apply {
			st.staged()
		}
		st.staged = nil
	case opInfo:
		c.info = StreamInfo{Stream: st.id, Shard: sh.id, Intervals: st.pipe.Intervals(), Digest: st.dig.Sum()}
		c.err = st.err
	default:
		c.err = fmt.Errorf("ingest: unknown control op %d", c.op)
	}
}

func firstStreamErr(states []*stream, streams []int) error {
	for _, id := range streams {
		if st := states[id]; st != nil && st.err != nil {
			return fmt.Errorf("stream %d: %w", id, st.err)
		}
	}
	return nil
}

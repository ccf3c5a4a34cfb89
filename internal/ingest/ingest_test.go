package ingest

import (
	"bytes"
	"fmt"
	"testing"

	"regionmon/internal/changepoint"
	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/pipeline"
	"regionmon/internal/region"
)

// buildStack is the test fleet's per-stream detector stack: GPD, a CPI
// tracker and the E-divisive change-point detector, all on defaults.
func buildStack(stream int) (*pipeline.Pipeline, error) {
	gdet, err := gpd.New(gpd.DefaultConfig())
	if err != nil {
		return nil, err
	}
	tr, err := gpd.NewPerfTracker(gpd.DefaultPerfConfig())
	if err != nil {
		return nil, err
	}
	cpd, err := changepoint.New(changepoint.DefaultConfig())
	if err != nil {
		return nil, err
	}
	pipe := pipeline.New()
	pipe.MustRegister(pipeline.NewGPD(gdet))
	pipe.MustRegister(pipeline.NewCPI(tr))
	pipe.MustRegister(pipeline.NewChangePoint(cpd))
	return pipe, nil
}

// smix is splitmix64, used to derive a deterministic per-(stream, seq)
// workload with no generator state to checkpoint.
func smix(rng *uint64) uint64 {
	*rng += 0x9e3779b97f4a7c15
	z := *rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fillOverflow writes the deterministic interval (stream, seq) into ov,
// reusing ov.Samples' backing array. Each stream rotates through three
// PC neighborhoods so phases form and change; streams use disjoint
// address ranges so their verdict streams differ.
func fillOverflow(ov *hpm.Overflow, stream, seq int) {
	rng := uint64(stream+1)*0x9e3779b97f4a7c15 + uint64(seq)*0xbf58476d1ce4e5b9
	phase := seq / 40 % 3
	base := isa.Addr(0x10000 + stream*0x4000 + phase*0x400)
	cycle := uint64(seq) * 20000
	buf := ov.Samples[:cap(ov.Samples)]
	for i := range buf {
		cycle += 60 + smix(&rng)%40
		buf[i] = hpm.Sample{
			PC:       base + isa.Addr(smix(&rng)%64)*isa.InstrBytes,
			Cycle:    cycle,
			Instrs:   6 + smix(&rng)%10,
			DCMisses: smix(&rng) % 3,
		}
	}
	ov.Samples = buf
	ov.Seq = seq
	ov.Cycle = cycle
}

func newOverflow(samples int) *hpm.Overflow {
	return &hpm.Overflow{Samples: make([]hpm.Sample, samples)}
}

func testConfig(shards int) Config {
	return Config{Shards: shards, QueueCap: 16, MaxSamples: 32, Build: buildStack}
}

// runFleet drives a fleet of streams across shards workers for the given
// number of deterministic intervals and returns the per-stream digests.
func runFleet(t *testing.T, streams, shards, intervals int) []uint64 {
	t.Helper()
	f, err := NewFleet(streams, testConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ov := newOverflow(24)
	for seq := 0; seq < intervals; seq++ {
		for s := 0; s < streams; s++ {
			fillOverflow(ov, s, seq)
			f.PushWait(s, ov)
		}
	}
	f.Drain()
	digs := make([]uint64, streams)
	for s := range digs {
		info, err := f.StreamInfo(s)
		if err != nil {
			t.Fatalf("stream %d: %v", s, err)
		}
		if info.Intervals != intervals {
			t.Fatalf("stream %d processed %d intervals, want %d", s, info.Intervals, intervals)
		}
		digs[s] = info.Digest
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return digs
}

// TestFleetDeterminism is the tentpole guarantee: per-stream verdict
// digests are byte-identical regardless of worker count, including 16
// shards for 9 streams, where some workers own no stream at all. Run
// under -race this also proves the rings are properly synchronized.
func TestFleetDeterminism(t *testing.T) {
	const streams, intervals = 9, 200
	ref := runFleet(t, streams, 1, intervals)
	for _, shards := range []int{3, 8, 16} {
		got := runFleet(t, streams, shards, intervals)
		for s := range ref {
			if got[s] != ref[s] {
				t.Errorf("stream %d digest with %d shards = %#x, want %#x (1 shard)", s, shards, got[s], ref[s])
			}
		}
	}
	// Streams carry distinct workloads, so equal digests across streams
	// would mean batches were cross-wired somewhere.
	seen := map[uint64]int{}
	for s, d := range ref {
		if prev, ok := seen[d]; ok {
			t.Errorf("streams %d and %d share digest %#x", prev, s, d)
		}
		seen[d] = s
	}
}

// TestFleetSnapshotFork: a snapshot taken mid-run restores into a fleet
// with a different shard count, and both fleets — fed the same remaining
// intervals — end with identical per-stream digests. Also pins that the
// snapshot bytes themselves are topology-independent.
func TestFleetSnapshotFork(t *testing.T) {
	const streams, half = 6, 120
	push := func(f *Fleet, from, to int) {
		ov := newOverflow(24)
		for seq := from; seq < to; seq++ {
			for s := 0; s < streams; s++ {
				fillOverflow(ov, s, seq)
				f.PushWait(s, ov)
			}
		}
	}
	digests := func(f *Fleet) []uint64 {
		f.Drain()
		out := make([]uint64, streams)
		for s := range out {
			info, err := f.StreamInfo(s)
			if err != nil {
				t.Fatal(err)
			}
			out[s] = info.Digest
		}
		return out
	}

	a, err := NewFleet(streams, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	push(a, 0, half)
	a.Drain()
	snapA, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Topology independence of the bytes: a 1-shard fleet fed the same
	// intervals snapshots to the identical encoding.
	solo, err := NewFleet(streams, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	push(solo, 0, half)
	snapSolo, err := solo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapA, snapSolo) {
		t.Error("snapshot bytes differ between 4-shard and 1-shard fleets over the same pushes")
	}

	// Fork: restore into a 2-shard fleet and drive both forks onward.
	b, err := NewFleet(streams, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Restore(snapA); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Accepted; got != uint64(streams*half) {
		t.Errorf("restored fleet Accepted = %d, want %d", got, streams*half)
	}
	push(a, half, 2*half)
	push(b, half, 2*half)
	da, db := digests(a), digests(b)
	for s := range da {
		if da[s] != db[s] {
			t.Errorf("stream %d: forked digest %#x != original %#x", s, db[s], da[s])
		}
	}
}

// TestFleetBackpressure: a full shard ring drops (counted per stream)
// instead of blocking, and the accounting adds up. The worker is wedged
// deterministically by an observer parked on a gate channel.
func TestFleetBackpressure(t *testing.T) {
	gate := make(chan struct{})
	cfg := Config{
		Shards:     1,
		QueueCap:   4,
		MaxSamples: 32,
		Build: func(stream int) (*pipeline.Pipeline, error) {
			pipe, err := buildStack(stream)
			if err != nil {
				return nil, err
			}
			pipe.AddObserver(func(*pipeline.IntervalReport) { <-gate })
			return pipe, nil
		},
	}
	f, err := NewFleet(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const total = 12 // QueueCap + the in-flight batch + at least 7 drops
	ov := newOverflow(24)
	accepted := 0
	for seq := 0; seq < total; seq++ {
		fillOverflow(ov, 0, seq)
		if f.Push(0, ov) {
			accepted++
		}
	}
	if accepted < 4 || accepted > 5 {
		t.Errorf("accepted %d of %d pushes with QueueCap 4, want 4 or 5", accepted, total)
	}
	st := f.Stats()
	if st.Accepted != uint64(accepted) || st.Dropped != uint64(total-accepted) {
		t.Errorf("Stats accepted/dropped = %d/%d, want %d/%d", st.Accepted, st.Dropped, accepted, total-accepted)
	}
	if st.Shards[0].QueueCap != 4 {
		t.Errorf("QueueCap = %d, want 4", st.Shards[0].QueueCap)
	}
	if d := st.Shards[0].QueueDepth; d < accepted-1 || d > accepted {
		t.Errorf("QueueDepth = %d with %d accepted and a wedged worker", d, accepted)
	}

	close(gate) // unwedge; every accepted batch must still be processed
	f.Drain()
	info, err := f.StreamInfo(0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Intervals != accepted {
		t.Errorf("processed %d intervals, want %d (every accepted batch, no drops processed)", info.Intervals, accepted)
	}
	if d := f.Stats().Shards[0].QueueDepth; d != 0 {
		t.Errorf("QueueDepth = %d after Drain, want 0", d)
	}
}

// TestFleetSteadyStateAllocs pins the tentpole perf contract: once the
// fleet is warm, pushing batches through to fully processed verdicts
// allocates nothing — producer side (slot copy) and worker side
// (pipeline hot path plus digest observer) together.
func TestFleetSteadyStateAllocs(t *testing.T) {
	const streams = 4
	f, err := NewFleet(streams, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ov := newOverflow(24)
	seq := 0
	for ; seq < 200; seq++ {
		for s := 0; s < streams; s++ {
			fillOverflow(ov, s, seq)
			f.PushWait(s, ov)
		}
	}
	f.Drain()
	if avg := testing.AllocsPerRun(100, func() {
		for s := 0; s < streams; s++ {
			fillOverflow(ov, s, seq)
			f.PushWait(s, ov)
		}
		seq++
	}); avg != 0 {
		t.Errorf("steady-state push allocates %v per interval set; want 0", avg)
	}
	f.Drain()
}

// newOverflowBatch allocates n independent overflow buffers (the ingest
// package cannot use soak.NewOverflowBatch — soak imports ingest).
func newOverflowBatch(n, samples int) []*hpm.Overflow {
	ovs := make([]*hpm.Overflow, n)
	for i := range ovs {
		ovs[i] = newOverflow(samples)
	}
	return ovs
}

// runFleetBatched drives the same deterministic workload as runFleet, but
// through PushBatchWait with per-stream, per-round batch sizes chosen by
// batchOf — so interleavings mix (stream 0 may push 5 intervals while
// stream 1 pushes 1) while each stream still sees its intervals in order.
func runFleetBatched(t *testing.T, streams, shards, intervals int, batchOf func(stream, base int) int) []uint64 {
	t.Helper()
	f, err := NewFleet(streams, testConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bufs := newOverflowBatch(8, 24)
	next := make([]int, streams) // next interval seq per stream
	for done := false; !done; {
		done = true
		for s := 0; s < streams; s++ {
			if next[s] >= intervals {
				continue
			}
			done = false
			n := batchOf(s, next[s])
			if n < 1 {
				n = 1
			}
			if n > len(bufs) {
				n = len(bufs)
			}
			if next[s]+n > intervals {
				n = intervals - next[s]
			}
			for k := 0; k < n; k++ {
				fillOverflow(bufs[k], s, next[s]+k)
			}
			f.PushBatchWait(s, bufs[:n])
			next[s] += n
		}
	}
	f.Drain()
	digs := make([]uint64, streams)
	for s := range digs {
		info, err := f.StreamInfo(s)
		if err != nil {
			t.Fatalf("stream %d: %v", s, err)
		}
		if info.Intervals != intervals {
			t.Fatalf("stream %d processed %d intervals, want %d", s, info.Intervals, intervals)
		}
		digs[s] = info.Digest
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return digs
}

// TestFleetBatchDifferential is the batch path's byte-identity contract:
// the same per-stream workload driven through a per-item Push loop and
// through PushBatchWait — with mixed batch sizes across streams and
// rounds — produces identical per-stream verdict digests at every shard
// count, up to more shards than streams. Run under -race this also
// exercises multi-slot reservation publishing against concurrent worker
// drains.
func TestFleetBatchDifferential(t *testing.T) {
	const streams, intervals = 9, 200
	ref := runFleet(t, streams, 1, intervals) // per-item path, 1 shard
	shapes := map[string]func(stream, base int) int{
		"uniform8": func(stream, base int) int { return 8 },
		"mixed":    func(stream, base int) int { return 1 + (stream*7+base)%5 },
	}
	for name, batchOf := range shapes {
		for _, shards := range []int{1, 3, 8, 16} {
			got := runFleetBatched(t, streams, shards, intervals, batchOf)
			for s := range ref {
				if got[s] != ref[s] {
					t.Errorf("%s: stream %d digest with %d shards = %#x, want %#x (per-item, 1 shard)",
						name, s, shards, got[s], ref[s])
				}
			}
		}
	}
}

// TestFleetBatchPartialDrop pins the partial-batch contract: when the ring
// fills mid-batch, the accepted intervals are exactly a prefix of the
// batch, the dropped suffix is counted, and the processed verdict stream
// equals a reference run fed only that prefix.
func TestFleetBatchPartialDrop(t *testing.T) {
	gate := make(chan struct{})
	cfg := Config{
		Shards:     1,
		QueueCap:   4,
		MaxSamples: 32,
		Build: func(stream int) (*pipeline.Pipeline, error) {
			pipe, err := buildStack(stream)
			if err != nil {
				return nil, err
			}
			pipe.AddObserver(func(*pipeline.IntervalReport) { <-gate })
			return pipe, nil
		},
	}
	f, err := NewFleet(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const total = 12 // QueueCap + the in-flight interval + at least 7 drops
	batch := newOverflowBatch(total, 24)
	for k := range batch {
		fillOverflow(batch[k], 0, k)
	}
	pushed := f.PushBatch(0, batch)
	if pushed < 4 || pushed > 5 {
		t.Errorf("PushBatch accepted %d of %d with QueueCap 4, want 4 or 5", pushed, total)
	}
	st := f.Stats()
	if st.Accepted != uint64(pushed) || st.Dropped != uint64(total-pushed) {
		t.Errorf("Stats accepted/dropped = %d/%d, want %d/%d", st.Accepted, st.Dropped, pushed, total-pushed)
	}
	close(gate)
	f.Drain()
	info, err := f.StreamInfo(0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Intervals != pushed {
		t.Fatalf("processed %d intervals, want %d (the accepted prefix)", info.Intervals, pushed)
	}

	// Prefix property: a reference fleet fed exactly the first `pushed`
	// intervals per-item must land on the same digest — anything else
	// would mean the drop punched a hole mid-batch instead of truncating.
	r, err := NewFleet(1, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for k := 0; k < pushed; k++ {
		r.PushWait(0, batch[k])
	}
	r.Drain()
	rinfo, err := r.StreamInfo(0)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Digest != info.Digest {
		t.Errorf("partial-drop digest %#x != prefix reference %#x", info.Digest, rinfo.Digest)
	}
}

// TestFleetBatchAllocs pins the batched producer path's steady-state
// allocation contract: pushing preallocated interval batches through to
// fully processed verdicts allocates nothing on either side of the ring.
func TestFleetBatchAllocs(t *testing.T) {
	const streams, batch = 4, 8
	f, err := NewFleet(streams, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bufs := make([][]*hpm.Overflow, streams)
	for s := range bufs {
		bufs[s] = newOverflowBatch(batch, 24)
	}
	seq := 0
	pushAll := func() {
		for s := 0; s < streams; s++ {
			for k := range bufs[s] {
				fillOverflow(bufs[s][k], s, seq+k)
			}
			f.PushBatchWait(s, bufs[s])
		}
		seq += batch
	}
	for seq < 200 {
		pushAll()
	}
	f.Drain()
	if avg := testing.AllocsPerRun(100, pushAll); avg != 0 {
		t.Errorf("steady-state batched push allocates %v per round; want 0", avg)
	}
	f.Drain()
}

// TestFleetStreamInfo covers the in-band info op: shard assignment
// matches ShardOf and interval counts track per-stream pushes.
func TestFleetStreamInfo(t *testing.T) {
	const streams = 5
	f, err := NewFleet(streams, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ov := newOverflow(24)
	for s := 0; s < streams; s++ {
		for seq := 0; seq <= s; seq++ { // stream s gets s+1 intervals
			fillOverflow(ov, s, seq)
			f.PushWait(s, ov)
		}
	}
	f.Drain()
	for s := 0; s < streams; s++ {
		info, err := f.StreamInfo(s)
		if err != nil {
			t.Fatal(err)
		}
		if info.Stream != s || info.Shard != f.ShardOf(s) {
			t.Errorf("stream %d info reports stream %d shard %d (ShardOf says %d)", s, info.Stream, info.Shard, f.ShardOf(s))
		}
		if info.Intervals != s+1 {
			t.Errorf("stream %d processed %d intervals, want %d", s, info.Intervals, s+1)
		}
	}
}

// TestNewFleetErrors: invalid configurations and failing builds are
// reported, with started workers torn down.
func TestNewFleetErrors(t *testing.T) {
	if _, err := NewFleet(0, testConfig(1)); err == nil {
		t.Error("NewFleet(0, ...) succeeded")
	}
	if _, err := NewFleet(4, Config{Shards: 2}); err == nil {
		t.Error("NewFleet without Build succeeded")
	}
	cfg := testConfig(2)
	cfg.Build = func(stream int) (*pipeline.Pipeline, error) {
		if stream == 3 {
			return nil, fmt.Errorf("boom")
		}
		return buildStack(stream)
	}
	if _, err := NewFleet(6, cfg); err == nil {
		t.Error("NewFleet with a failing stream build succeeded")
	}
}

// TestFleetRestoreErrors: malformed snapshots and stream-count mismatches
// are rejected.
func TestFleetRestoreErrors(t *testing.T) {
	f, err := NewFleet(2, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Restore([]byte("garbage")); err == nil {
		t.Error("Restore(garbage) succeeded")
	}
	big, err := NewFleet(3, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	snap, err := big.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Restore(snap); err == nil {
		t.Error("restoring a 3-stream snapshot into a 2-stream fleet succeeded")
	}
}

// TestFleetCloseIdempotent: Close twice is fine; operations after Close
// panic (caller bug, not load).
func TestFleetCloseIdempotent(t *testing.T) {
	f, err := NewFleet(2, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Push on closed fleet did not panic")
		}
	}()
	f.Push(0, newOverflow(1))
}

// buildLoopProgram assembles a small two-loop program for fleet runs that
// exercise region formation and pruning (the distribution paths' cold
// events) rather than just GPD.
func buildLoopProgram(t *testing.T) (*isa.Program, []isa.LoopSpan) {
	t.Helper()
	b := isa.NewBuilder(0x10000)
	p := b.Proc("main")
	p.Code(16, isa.KindALU)
	l1 := p.Loop(24, []isa.Kind{isa.KindLoad, isa.KindALU}, nil)
	p.Code(8, isa.KindALU)
	l2 := p.Loop(32, []isa.Kind{isa.KindLoad, isa.KindALU, isa.KindStore}, nil)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog, []isa.LoopSpan{l1, l2}
}

// fillLoopOverflow writes the deterministic interval (stream, seq) into
// ov with PCs inside the program's loops, rotating the hot loop so phases
// change, plus idle and straight-line stragglers so UCR accounting and
// formation both fire.
func fillLoopOverflow(ov *hpm.Overflow, loops []isa.LoopSpan, stream, seq int) {
	rng := uint64(stream+1)*0x9e3779b97f4a7c15 + uint64(seq)*0x94d049bb133111eb
	hot := loops[seq/60%len(loops)]
	cycle := uint64(seq) * 30000
	buf := ov.Samples[:cap(ov.Samples)]
	for i := range buf {
		cycle += 60 + smix(&rng)%40
		var pc isa.Addr
		switch r := smix(&rng) % 100; {
		case r < 4:
			pc = 0 // idle
		case r < 88:
			pc = hot.Start + isa.Addr(smix(&rng)%uint64(hot.NumInstrs()))*isa.InstrBytes
		default:
			pc = loops[len(loops)-1].End + isa.InstrBytes // straight-line straggler
		}
		buf[i] = hpm.Sample{PC: pc, Cycle: cycle, Instrs: 6 + smix(&rng)%10, DCMisses: smix(&rng) % 3}
	}
	ov.Samples = buf
	ov.Seq = seq
	ov.Cycle = cycle
}

// TestFleetIndexPathsAgree drives identical per-stream workloads through
// region-monitor-only stacks under each distribution structure; the
// per-stream verdict digests must be byte-identical across list, tree and
// the batched epoch path, including under idle pruning (region churn).
func TestFleetIndexPathsAgree(t *testing.T) {
	const streams, intervals = 4, 240
	prog, loops := buildLoopProgram(t)
	run := func(kind region.IndexKind) []uint64 {
		t.Helper()
		cfg := Config{Shards: 2, QueueCap: 16, MaxSamples: 64, Build: func(stream int) (*pipeline.Pipeline, error) {
			rcfg := region.DefaultConfig()
			rcfg.Index = kind
			rcfg.PruneAfter = 4
			rmon, err := region.NewMonitor(prog, rcfg)
			if err != nil {
				return nil, err
			}
			pipe := pipeline.New()
			pipe.MustRegister(pipeline.NewRegionMonitor(rmon))
			return pipe, nil
		}}
		f, err := NewFleet(streams, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ov := newOverflow(64)
		for seq := 0; seq < intervals; seq++ {
			for s := 0; s < streams; s++ {
				fillLoopOverflow(ov, loops, s, seq)
				f.PushWait(s, ov)
			}
		}
		f.Drain()
		digs := make([]uint64, streams)
		for s := range digs {
			info, err := f.StreamInfo(s)
			if err != nil {
				t.Fatalf("stream %d: %v", s, err)
			}
			if info.Intervals != intervals {
				t.Fatalf("stream %d processed %d intervals, want %d", s, info.Intervals, intervals)
			}
			digs[s] = info.Digest
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return digs
	}
	ref := run(region.IndexList)
	for _, kind := range []region.IndexKind{region.IndexTree, region.IndexEpoch} {
		got := run(kind)
		for s := range ref {
			if got[s] != ref[s] {
				t.Errorf("stream %d digest under index %v = %#x, want %#x (list)", s, kind, got[s], ref[s])
			}
		}
	}
}

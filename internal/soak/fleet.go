package soak

import (
	"fmt"

	"regionmon/internal/hpm"
	"regionmon/internal/ingest"
	"regionmon/internal/pipeline"
	"regionmon/internal/vhash"
)

// FleetConfig tunes a multi-stream soak: Streams independent copies of
// the full detector stack behind an ingest.Fleet, each fed its own
// deterministic workload (seeded per stream), with optional whole-fleet
// kill/restore cycles. The zero value of every optional field selects a
// default.
type FleetConfig struct {
	// Streams is the number of independent monitored streams. Required.
	Streams int
	// Intervals is the number of sampling intervals per stream. Required.
	Intervals int
	// Shards is the fleet worker count (default 4).
	Shards int
	// QueueCap is the per-shard ring capacity (default 64).
	QueueCap int
	// SamplesPerInterval is the synthetic overflow buffer size
	// (default 96).
	SamplesPerInterval int
	// Batch is the number of intervals per stream pushed in one
	// PushBatchWait call (default 16; 1 drives the per-item PushWait
	// path). Purely a transport knob: digests are independent of it,
	// and TestFleetSoakBatchInvariance pins that.
	Batch int
	// Seed seeds stream 0's workload; stream s starts from Seed plus s
	// golden-ratio increments (default 1). That increment is splitmix64's
	// own step, so stream s replays stream 0's draws without the first s
	// and the streams soon fall into step: from sample 1,000 on, streams
	// 1 and 2 carry stream 0's PCs, instruction and miss counts. Their
	// digests still differ, since they fold the absolute cycle.
	Seed uint64
	// RestoreEvery, when positive, kills the whole fleet every that many
	// interval rounds: Snapshot it, Close it, build a fresh fleet,
	// Restore into it and continue. 0 disables (reference mode).
	RestoreEvery int
	// Warmup is the number of interval rounds before the heap baseline
	// is taken (default Intervals/10).
	Warmup int
	// MaxHeapGrowth is the allowed post-warmup growth of post-GC
	// HeapAlloc in bytes (default 8 MiB). Kill/restore cycles rebuild
	// the entire fleet, so steady growth here would mean a stack or
	// ring leak scaled by Streams.
	MaxHeapGrowth uint64
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.SamplesPerInterval == 0 {
		c.SamplesPerInterval = 96
	}
	if c.Batch == 0 {
		c.Batch = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Warmup == 0 {
		c.Warmup = c.Intervals / 10
	}
	if c.MaxHeapGrowth == 0 {
		c.MaxHeapGrowth = 8 << 20
	}
	return c
}

// FleetResult summarizes a completed multi-stream soak.
type FleetResult struct {
	// Streams and Intervals echo the run shape.
	Streams, Intervals int
	// Digests holds each stream's verdict-stream digest.
	Digests []uint64
	// Digest folds the per-stream digests into one fleet digest.
	Digest uint64
	// Restores counts whole-fleet kill/restore cycles performed.
	Restores int
	// SnapshotBytes is the size of the last fleet snapshot (0 when
	// RestoreEvery is 0).
	SnapshotBytes int
	// HeapBaseline and HeapFinal are post-GC HeapAlloc at warmup and at
	// the end of the run.
	HeapBaseline, HeapFinal uint64
}

// RunFleet drives one multi-stream soak according to cfg. Determinism
// contract: the result's Digests depend only on Streams, Intervals,
// SamplesPerInterval and Seed — not on Shards, QueueCap or RestoreEvery —
// so runs differing only in topology or checkpoint cadence must agree
// exactly. cmd/soak and the tests compare runs on that basis.
func RunFleet(cfg FleetConfig) (FleetResult, error) {
	if cfg.Streams <= 0 {
		return FleetResult{}, fmt.Errorf("soak: Streams must be positive, got %d", cfg.Streams)
	}
	if cfg.Intervals <= 0 {
		return FleetResult{}, fmt.Errorf("soak: Intervals must be positive, got %d", cfg.Intervals)
	}
	cfg = cfg.withDefaults()

	// The generators live owner-side and survive kill/restore cycles —
	// exactly like the external workload a real fleet would be fed.
	_, loops, err := BuildProgram()
	if err != nil {
		return FleetResult{}, err
	}
	gens := make([]*Workload, cfg.Streams)
	for s := range gens {
		gens[s] = NewWorkload(cfg.Seed+uint64(s)*0x9e3779b97f4a7c15, loops, cfg.SamplesPerInterval)
	}

	// Each stream's stack is built inside its shard worker; BuildProgram
	// is deterministic, so every worker reconstructs the same program
	// without sharing one across goroutines.
	icfg := ingest.Config{
		Shards:     cfg.Shards,
		QueueCap:   cfg.QueueCap,
		MaxSamples: cfg.SamplesPerInterval,
		Build: func(stream int) (*pipeline.Pipeline, error) {
			prog, _, err := BuildProgram()
			if err != nil {
				return nil, err
			}
			return NewStack(prog)
		},
	}
	f, err := ingest.NewFleet(cfg.Streams, icfg)
	if err != nil {
		return FleetResult{}, err
	}
	// Close whichever fleet is current when we leave (f is reassigned on
	// every kill/restore cycle); Close is idempotent, so the success path
	// closing explicitly is fine.
	defer func() { f.Close() }()

	// Batched driving: each stream's next cfg.Batch intervals are generated
	// into preallocated caller-owned overflows and pushed with one
	// PushBatchWait call. Blocks are cut at kill/restore boundaries and at
	// the warmup interval, so those events fire at exactly the same
	// interval indices as a per-item (Batch=1) run.
	bufs := make([][]*hpm.Overflow, cfg.Streams)
	for s := range bufs {
		bufs[s] = NewOverflowBatch(cfg.Batch, cfg.SamplesPerInterval)
	}

	var res FleetResult
	for base := 0; base < cfg.Intervals; {
		if cfg.RestoreEvery > 0 && base > 0 && base%cfg.RestoreEvery == 0 {
			snap, err := f.Snapshot()
			if err != nil {
				return res, fmt.Errorf("soak: fleet snapshot at round %d: %w", base, err)
			}
			if err := f.Close(); err != nil {
				return res, fmt.Errorf("soak: fleet close at round %d: %w", base, err)
			}
			fresh, err := ingest.NewFleet(cfg.Streams, icfg)
			if err != nil {
				return res, err
			}
			if err := fresh.Restore(snap); err != nil {
				return res, fmt.Errorf("soak: fleet restore at round %d: %w", base, err)
			}
			f = fresh // the old fleet is dead; resume on the restored one
			res.Restores++
			res.SnapshotBytes = len(snap)
		}
		n := cfg.Batch
		if base+n > cfg.Intervals {
			n = cfg.Intervals - base
		}
		if cfg.RestoreEvery > 0 {
			if next := cfg.RestoreEvery - base%cfg.RestoreEvery; n > next {
				n = next
			}
		}
		if base <= cfg.Warmup && cfg.Warmup < base+n {
			n = cfg.Warmup - base + 1
		}
		for s := range gens {
			bb := bufs[s][:n]
			for k := range bb {
				gens[s].IntervalInto(base+k, bb[k])
			}
			f.PushBatchWait(s, bb)
		}
		base += n
		if base == cfg.Warmup+1 {
			f.Drain()
			res.HeapBaseline = heapAlloc()
		}
	}
	f.Drain()

	res.Streams = cfg.Streams
	res.Intervals = cfg.Intervals
	res.Digests = make([]uint64, cfg.Streams)
	fold := vhash.New()
	for s := range res.Digests {
		info, err := f.StreamInfo(s)
		if err != nil {
			return res, fmt.Errorf("soak: stream %d: %w", s, err)
		}
		if info.Intervals != cfg.Intervals {
			return res, fmt.Errorf("soak: stream %d processed %d of %d intervals (PushWait cannot drop)",
				s, info.Intervals, cfg.Intervals)
		}
		res.Digests[s] = info.Digest
		fold.U64(info.Digest)
	}
	res.Digest = fold.Sum()
	// The final reading, like the baseline, is taken with the fleet open:
	// Close ends the shard workers, and with them goes every stream's
	// stack, so a reading after it cannot see detector state grow.
	res.HeapFinal = heapAlloc()
	if err := f.Close(); err != nil {
		return res, err
	}
	if res.HeapFinal > res.HeapBaseline+cfg.MaxHeapGrowth {
		return res, fmt.Errorf("soak: fleet heap grew %d bytes over %d rounds (baseline %d, final %d, budget %d)",
			res.HeapFinal-res.HeapBaseline, cfg.Intervals-cfg.Warmup, res.HeapBaseline, res.HeapFinal, cfg.MaxHeapGrowth)
	}
	return res, nil
}

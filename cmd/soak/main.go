// Command soak is the long-run hardening harness: it drives the full
// detector stack (pipeline, GPD, region monitoring, BBV, working set,
// CPI tracker, change-point detector) for millions of synthetic sampling
// intervals and checks two properties long-lived deployments depend on:
//
//  1. Bounded state: with every per-interval series bounded, post-GC
//     HeapAlloc must not grow from the post-warmup baseline to the end
//     of the run (within a small fixed budget).
//  2. Checkpoint fidelity: a run that is killed and restored from a
//     Snapshot several times mid-stream must emit a verdict stream
//     byte-identical (FNV-1a digest equality over every verdict field)
//     to an uninterrupted reference run.
//
// Both stages run through soak.RunFleet: the one-stream stage drives one
// stack for -intervals, the fleet stage -streams stacks behind an
// ingest.Fleet for -fleet-intervals each. In each, a reference run on one
// shard with per-item pushes must match, stream by stream, a kill/restore
// run on -shards with -batch intervals per PushBatchWait call, so every
// stage also proves the verdict streams independent of the transport and,
// with more than one stream, of the worker topology. A fleet runs no more
// shards than streams, so the one-stream stage's runs differ in batching
// and checkpoints only.
//
// Usage:
//
//	soak                       # 2M intervals, full comparison (make soak)
//	soak -intervals 60000      # short form (make soak-short, CI)
//	soak -seed 9 -restores 7   # different workload / checkpoint count
//	soak -streams 0            # skip the fleet stage
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"regionmon/internal/soak"
)

func main() {
	var (
		intervals = flag.Int("intervals", 2_000_000, "sampling intervals to drive in the one-stream stage")
		samples   = flag.Int("samples", 96, "samples per interval (overflow buffer size)")
		seed      = flag.Uint64("seed", 1, "workload generator seed")
		restores  = flag.Int("restores", 4, "kill/restore cycles in each checkpoint run")
		heapMiB   = flag.Int("max-heap-growth", 4, "allowed post-warmup heap growth in MiB (the fleet stage adds 4 MiB per stream)")
		streams   = flag.Int("streams", 8, "fleet stage stream count (0 skips the fleet stage)")
		shards    = flag.Int("shards", 4, "worker count for the kill/restore runs")
		batch     = flag.Int("batch", 16, "intervals per PushBatchWait call in the kill/restore runs")
		fleetIvs  = flag.Int("fleet-intervals", 0, "fleet stage intervals per stream (0 = intervals/20)")
	)
	flag.Parse()

	start := time.Now() //lint:allow determinism -- progress timing on stderr, not in results
	cfg := soak.FleetConfig{
		Streams:            1,
		Intervals:          *intervals,
		SamplesPerInterval: *samples,
		Seed:               *seed,
		MaxHeapGrowth:      uint64(*heapMiB) << 20,
	}
	stage("one-stream", cfg, *shards, *batch, *restores)
	if *streams > 0 {
		cfg.Streams, cfg.Intervals = *streams, *fleetIvs
		if cfg.Intervals == 0 {
			cfg.Intervals = max(*intervals/20, 500)
		}
		cfg.MaxHeapGrowth += uint64(4*(*streams)) << 20
		stage("fleet", cfg, *shards, *batch, *restores)
	}

	elapsed := time.Since(start).Round(time.Millisecond) //lint:allow determinism -- harness timing on stderr, not in results
	fmt.Fprintf(os.Stderr, "soak: PASS in %v\n", elapsed)
}

// stage runs cfg twice through soak.RunFleet — an uninterrupted reference
// on one shard with per-item pushes, then a kill/restore run on shards
// with batch-interval pushes and restores checkpoints — and exits unless
// both runs pass their heap budget and emit the same verdict stream on
// every stream.
func stage(name string, cfg soak.FleetConfig, shards, batch, restores int) {
	cfg.Shards, cfg.Batch = 1, 1
	fmt.Fprintf(os.Stderr, "soak: %s reference run — streams %d, intervals %d, samples %d, seed %d; 1 shard, per-item pushes\n",
		name, cfg.Streams, cfg.Intervals, cfg.SamplesPerInterval, cfg.Seed)
	ref, err := soak.RunFleet(cfg)
	if err != nil {
		fail(name+" reference run", err)
	}

	cfg.Shards, cfg.Batch, cfg.RestoreEvery = min(shards, cfg.Streams), batch, cfg.Intervals/(restores+1)
	topology := fmt.Sprintf("%d shards", cfg.Shards)
	if cfg.Shards == 1 {
		topology = "1 shard, as the reference, so the runs differ in batching and checkpoints only"
	}
	fmt.Fprintf(os.Stderr, "soak: %s kill/restore run — %s; %d-interval batches, checkpoint every %d intervals\n",
		name, topology, cfg.Batch, cfg.RestoreEvery)
	kr, err := soak.RunFleet(cfg)
	if err != nil {
		fail(name+" kill/restore run", err)
	}
	for s := range ref.Digests {
		if kr.Digests[s] != ref.Digests[s] {
			fail(name+" verdict comparison", fmt.Errorf("stream %d digest %#x != reference %#x",
				s, kr.Digests[s], ref.Digests[s]))
		}
	}
	fmt.Fprintf(os.Stderr, "soak: %s PASS — %d restores, digest %#x (%d snapshot bytes), heap baseline %.1f MiB final %.1f MiB\n",
		name, kr.Restores, kr.Digest, kr.SnapshotBytes, float64(kr.HeapBaseline)/(1<<20), float64(kr.HeapFinal)/(1<<20))
}

func fail(stage string, err error) {
	fmt.Fprintf(os.Stderr, "soak: FAIL (%s): %v\n", stage, err)
	os.Exit(1)
}

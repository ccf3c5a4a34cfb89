package soak

import (
	"testing"

	"regionmon/internal/hpm"
)

// TestFleetSoakKillRestoreMatchesReference is the short-form soak: a
// fleet that is killed and restored mid-run — and runs on a different
// shard count — must emit per-stream verdict streams exactly matching an
// uninterrupted reference fleet. This folds the two tentpole guarantees
// (topology independence, checkpoint fidelity) into one digest
// comparison. The one-stream input is the single-stream soak's shape: a
// fleet never runs more shards than streams, so there the kill/restore
// run differs from the reference in its checkpoints and batching only.
func TestFleetSoakKillRestoreMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name                             string
		streams, intervals, restoreEvery int
		seed, maxHeapGrowth              uint64
	}{
		{"6 streams", 6, 1000, 400, 11, 64 << 20},
		{"1 stream", 1, 6000, 2300, 7, 16 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := FleetConfig{Streams: tc.streams, Intervals: tc.intervals, Shards: 1, Seed: tc.seed, MaxHeapGrowth: tc.maxHeapGrowth}
			ref, err := RunFleet(cfg)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			if ref.Restores != 0 {
				t.Fatalf("reference run performed %d restores; want 0", ref.Restores)
			}

			cfg.Shards = 4
			cfg.RestoreEvery = tc.restoreEvery
			kr, err := RunFleet(cfg)
			if err != nil {
				t.Fatalf("kill/restore run: %v", err)
			}
			if kr.Restores != 2 {
				t.Errorf("restores = %d; want 2", kr.Restores)
			}
			if kr.SnapshotBytes == 0 {
				t.Error("no fleet snapshot taken")
			}
			for s := range ref.Digests {
				if kr.Digests[s] != ref.Digests[s] {
					t.Errorf("stream %d diverged: digest %#x, reference %#x", s, kr.Digests[s], ref.Digests[s])
				}
			}
			if kr.Digest != ref.Digest {
				t.Errorf("fleet digest %#x != reference %#x", kr.Digest, ref.Digest)
			}
		})
	}
}

// TestOneStreamFleetMatchesDirectDrive: a one-stream RunFleet emits the
// verdict stream of one NewStack pipeline driven directly —
// ProcessOverflow over Workload.IntervalInto, digested by an observer —
// both uninterrupted with per-item pushes and killed and restored with
// batched ones. The direct drive passes through no ring, shard worker or
// fleet snapshot, so it is the reference for everything RunFleet adds.
func TestOneStreamFleetMatchesDirectDrive(t *testing.T) {
	const intervals, buf = 3000, 96
	prog, loops, err := BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 42} {
		pipe, err := NewStack(prog)
		if err != nil {
			t.Fatal(err)
		}
		dig := observeDigest(t, pipe)
		g := NewWorkload(seed, loops, buf)
		ov := &hpm.Overflow{Samples: make([]hpm.Sample, buf)}
		for i := 0; i < intervals; i++ {
			pipe.ProcessOverflow(g.IntervalInto(i, ov))
		}
		want := dig.Sum()

		for _, tc := range []struct {
			cfg      FleetConfig
			restores int
		}{
			{FleetConfig{Batch: 1}, 0},
			{FleetConfig{RestoreEvery: 1100}, 2},
		} {
			cfg := tc.cfg
			cfg.Streams, cfg.Intervals, cfg.SamplesPerInterval, cfg.Seed = 1, intervals, buf, seed
			cfg.MaxHeapGrowth = 64 << 20
			res, err := RunFleet(cfg)
			if err != nil {
				t.Fatalf("seed %d, restore every %d: %v", seed, cfg.RestoreEvery, err)
			}
			if res.Restores != tc.restores {
				t.Errorf("seed %d, restore every %d: %d restores; want %d", seed, cfg.RestoreEvery, res.Restores, tc.restores)
			}
			if res.Digests[0] != want {
				t.Errorf("seed %d, restore every %d: stream digest %#x, direct drive %#x",
					seed, cfg.RestoreEvery, res.Digests[0], want)
			}
		}
	}
}

// TestFleetSoakBatchInvariance pins the transport-knob contract stated on
// FleetConfig.Batch: the per-stream digests depend only on the workload,
// never on how many intervals ride in each push — including a batch size
// that does not divide the interval count, and batched pushes combined
// with kill/restore cycles landing mid-batch-cadence.
func TestFleetSoakBatchInvariance(t *testing.T) {
	base := FleetConfig{Streams: 5, Intervals: 900, Shards: 2, Seed: 7, MaxHeapGrowth: 64 << 20}

	cfg := base
	cfg.Batch = 1
	ref, err := RunFleet(cfg)
	if err != nil {
		t.Fatalf("per-item reference run: %v", err)
	}

	for _, batch := range []int{7, 16} {
		cfg := base
		cfg.Batch = batch
		res, err := RunFleet(cfg)
		if err != nil {
			t.Fatalf("batch %d run: %v", batch, err)
		}
		for s := range ref.Digests {
			if res.Digests[s] != ref.Digests[s] {
				t.Errorf("batch %d: stream %d digest %#x != per-item reference %#x",
					batch, s, res.Digests[s], ref.Digests[s])
			}
		}
	}

	// Batched pushes with restore boundaries that are not batch multiples:
	// blocks must be cut at the checkpoint, not slid past it.
	cfg = base
	cfg.Batch = 16
	cfg.Shards = 3
	cfg.RestoreEvery = 250 // not divisible by 16
	kr, err := RunFleet(cfg)
	if err != nil {
		t.Fatalf("batched kill/restore run: %v", err)
	}
	if kr.Restores != 3 {
		t.Errorf("restores = %d; want 3", kr.Restores)
	}
	if kr.Digest != ref.Digest {
		t.Errorf("batched kill/restore fleet digest %#x != per-item reference %#x", kr.Digest, ref.Digest)
	}
}

// TestFleetSoakStreamsDiffer: per-stream seeds produce distinct verdict
// streams, so digest equality across runs is not vacuous.
func TestFleetSoakStreamsDiffer(t *testing.T) {
	res, err := RunFleet(FleetConfig{Streams: 4, Intervals: 400, Shards: 2, MaxHeapGrowth: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for s, d := range res.Digests {
		if prev, ok := seen[d]; ok {
			t.Errorf("streams %d and %d share digest %#x", prev, s, d)
		}
		seen[d] = s
	}
}

func TestFleetSoakValidation(t *testing.T) {
	if _, err := RunFleet(FleetConfig{}); err == nil {
		t.Error("zero FleetConfig accepted")
	}
	if _, err := RunFleet(FleetConfig{Streams: 2}); err == nil {
		t.Error("zero Intervals accepted")
	}
}

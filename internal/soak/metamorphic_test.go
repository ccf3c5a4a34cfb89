package soak

import (
	"testing"

	"regionmon/internal/hpm"
	"regionmon/internal/pipeline"
	"regionmon/internal/vhash"
)

// TestShufflingPCsWithinIntervalsKeepsDigest is a metamorphic relation:
// every detector folds an interval's PCs by adding per-PC counts or sums,
// so the order of the PCs within an interval cannot move a verdict.
// Shuffling them, with each sample's cycle and counters left in place and
// each interval's Seq and Cycle unchanged, must leave the six-detector
// stack's verdict digest bit-identical. This is what lets a detector fold
// an interval per instruction slot instead of per sample.
func TestShufflingPCsWithinIntervalsKeepsDigest(t *testing.T) {
	const intervals, buf = 5000, 96
	prog, loops, err := BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	digest := func(pipe *pipeline.Pipeline) *vhash.Digest {
		d := vhash.New()
		pipe.AddObserver(func(rep *pipeline.IntervalReport) {
			if err := d.Report(rep); err != nil {
				t.Fatal(err)
			}
		})
		return d
	}
	ref, err := NewStack(prog)
	if err != nil {
		t.Fatal(err)
	}
	shuf, err := NewStack(prog)
	if err != nil {
		t.Fatal(err)
	}
	refDig, shufDig := digest(ref), digest(shuf)

	g := NewWorkload(7, loops, buf)
	ov := &hpm.Overflow{Samples: make([]hpm.Sample, buf)}
	sh := &hpm.Overflow{Samples: make([]hpm.Sample, buf)}
	rng := uint64(0x5eed)
	moved := 0
	for i := 0; i < intervals; i++ {
		g.IntervalInto(i, ov)
		*sh = hpm.Overflow{Seq: ov.Seq, Cycle: ov.Cycle, Samples: append(sh.Samples[:0], ov.Samples...)}
		// Fisher-Yates over the PCs alone.
		s := sh.Samples
		for j := len(s) - 1; j > 0; j-- {
			rng = rng*6364136223846793005 + 1442695040888963407
			k := int((rng >> 33) % uint64(j+1))
			s[j].PC, s[k].PC = s[k].PC, s[j].PC
		}
		for j := range s {
			if s[j].PC != ov.Samples[j].PC {
				moved++
				break
			}
		}
		ref.ProcessOverflow(ov)
		shuf.ProcessOverflow(sh)
		if refDig.Sum() != shufDig.Sum() {
			t.Fatalf("interval %d: digest %#x with shuffled PCs, %#x in order", i, shufDig.Sum(), refDig.Sum())
		}
	}
	if moved < intervals/2 {
		t.Fatalf("only %d of %d intervals had their PCs moved", moved, intervals)
	}
}

package soak

import (
	"fmt"
	"slices"
	"testing"

	"regionmon/internal/altdetect"
	"regionmon/internal/changepoint"
	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/pipeline"
	"regionmon/internal/region"
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

// TestRelocationKeepsVerdicts is a metamorphic relation: the soak program
// rebuilt at an offset, a multiple of the code map's 256-byte page or
// not, and fed the same intervals with every non-idle PC shifted by that
// offset, gives every region, BBV, working-set, CPI and change-point
// verdict of the unshifted run, with region bounds shifted by the offset.
// Every one of them reads PCs only through the program's code map, whose
// pages start at the first instruction wherever it lies. GPD is left out:
// its centroid is the mean PC, which moves with the text.
func TestRelocationKeepsVerdicts(t *testing.T) {
	const intervals, buf = 4000, 96
	prog, loops, err := BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []isa.Addr{4, 0x100, 0x104, 0x7fff0000} {
		moved, _, err := buildProgram(prog.Start() + off)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewStack(prog)
		if err != nil {
			t.Fatal(err)
		}
		shifted, err := NewStack(moved)
		if err != nil {
			t.Fatal(err)
		}
		g := NewWorkload(11, loops, buf)
		ov := &hpm.Overflow{Samples: make([]hpm.Sample, buf)}
		sh := &hpm.Overflow{Samples: make([]hpm.Sample, buf)}
		formed := 0
		for i := 0; i < intervals; i++ {
			g.IntervalInto(i, ov)
			*sh = hpm.Overflow{Seq: ov.Seq, Cycle: ov.Cycle, Samples: append(sh.Samples[:0], ov.Samples...)}
			for j := range sh.Samples {
				if sh.Samples[j].PC != 0 {
					sh.Samples[j].PC += off
				}
			}
			want, got := ref.ProcessOverflow(ov), shifted.ProcessOverflow(sh)
			if err := sameVerdicts(want, got, off); err != nil {
				t.Fatalf("offset %#x, interval %d: %v", uint64(off), i, err)
			}
			formed += len(got.Verdict(pipeline.NameRegions).Payload.(*region.Report).NewRegions)
		}
		if formed == 0 {
			t.Fatalf("offset %#x: no region formed; the relation checked no region", uint64(off))
		}
	}
}

// sameVerdicts compares two reports detector by detector, except GPD: the
// flags, and the payloads field by field, region bounds of got shifted by
// off from want's.
func sameVerdicts(want, got *pipeline.IntervalReport, off isa.Addr) error {
	if want.Seq != got.Seq || len(want.Verdicts) != len(got.Verdicts) {
		return fmt.Errorf("seq %d with %d verdicts, want seq %d with %d", got.Seq, len(got.Verdicts), want.Seq, len(want.Verdicts))
	}
	for i := range want.Verdicts {
		w, g := &want.Verdicts[i], &got.Verdicts[i]
		if w.Detector == pipeline.NameGPD {
			continue
		}
		if w.Detector != g.Detector || w.Stable != g.Stable || w.PhaseChange != g.PhaseChange {
			return fmt.Errorf("%s: verdict %+v, want %+v", w.Detector, *g, *w)
		}
		same := false
		switch wp := w.Payload.(type) {
		case *region.Report:
			same = sameRegionReport(wp, g.Payload.(*region.Report), off)
		case *altdetect.Verdict:
			same = *wp == *g.Payload.(*altdetect.Verdict)
		case *gpd.PerfVerdict:
			same = *wp == *g.Payload.(*gpd.PerfVerdict)
		case *changepoint.Verdict:
			same = *wp == *g.Payload.(*changepoint.Verdict)
		default:
			return fmt.Errorf("%s: unexpected payload %T", w.Detector, w.Payload)
		}
		if !same {
			return fmt.Errorf("%s: payload %+v, want %+v", w.Detector, g.Payload, w.Payload)
		}
	}
	return nil
}

// sameRegionReport reports whether got equals want with every region's
// bounds shifted by off.
func sameRegionReport(want, got *region.Report, off isa.Addr) bool {
	sameRegion := func(w, g *region.Region) bool {
		return w.ID == g.ID && w.Start+off == g.Start && w.End+off == g.End
	}
	sameRegions := func(w, g []*region.Region) bool {
		return slices.EqualFunc(w, g, sameRegion)
	}
	if want.Seq != got.Seq || want.TotalSamples != got.TotalSamples ||
		want.MonitoredSamples != got.MonitoredSamples || want.UCRSamples != got.UCRSamples ||
		want.IdleSamples != got.IdleSamples || want.UCRFraction != got.UCRFraction ||
		want.FormationTriggered != got.FormationTriggered ||
		!sameRegions(want.NewRegions, got.NewRegions) || !sameRegions(want.Pruned, got.Pruned) {
		return false
	}
	return slices.EqualFunc(want.Verdicts, got.Verdicts, func(w, g region.RegionVerdict) bool {
		return sameRegion(w.Region, g.Region) && w.Verdict == g.Verdict && w.Samples == g.Samples
	})
}

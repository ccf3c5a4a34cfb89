package region

import (
	"fmt"
	"strings"
	"testing"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/snap"
)

// TestNewRegionSurvivesQuietFormationInterval is the regression test for
// the premature-pruning bug: a region formed from a triggering interval
// whose replayed samples fall below MinObserveSamples must not start the
// idle clock on its formation interval — with PruneAfter=1 it used to be
// pruned in the very interval that formed it.
func TestNewRegionSurvivesQuietFormationInterval(t *testing.T) {
	prog, l1, _ := testProgram(t)
	m := newMonitor(t, prog, func(c *Config) {
		c.MinObserveSamples = 64
		c.PruneAfter = 1
	})

	// 32 samples: enough to form (MinRegionSamples=16), below the
	// observation guard (64).
	rep := m.ProcessOverflow(overflow(0, 32, spanPCs(l1, 8)...))
	if !rep.FormationTriggered || len(rep.NewRegions) != 1 {
		t.Fatalf("expected formation: %+v", rep)
	}
	if len(rep.Pruned) != 0 {
		t.Fatalf("region pruned in its own formation interval: %+v", rep.Pruned)
	}
	if len(m.Regions()) != 1 {
		t.Fatalf("monitor has %d regions after formation; want 1", len(m.Regions()))
	}

	// A full interval keeps it alive and feeds the detector.
	rep = m.ProcessOverflow(overflow(1, 128, spanPCs(l1, 8)...))
	if len(rep.Pruned) != 0 || len(m.Regions()) != 1 {
		t.Fatalf("active region pruned: %+v", rep.Pruned)
	}
	if rep.Verdicts[0].Verdict.Empty {
		t.Error("full interval reported as empty")
	}

	// Idle intervals after formation still prune — the exemption covers
	// only the formation interval itself.
	rep = m.ProcessOverflow(overflow(2, 0))
	if len(rep.Pruned) != 1 || len(m.Regions()) != 0 {
		t.Fatalf("idle region not pruned after formation interval: pruned=%d regions=%d",
			len(rep.Pruned), len(m.Regions()))
	}
}

// TestSparseGuardInvariants pins the sparse-interval contract: a
// below-guard interval behaves exactly like an empty one (frozen state,
// re-reported r) and its trickle samples do not leak into the next
// interval's histogram.
func TestSparseGuardInvariants(t *testing.T) {
	prog, l1, _ := testProgram(t)
	m := newMonitor(t, prog, func(c *Config) { c.MinObserveSamples = 16 })
	if _, err := m.AddRegion(l1.Start, l1.End); err != nil {
		t.Fatal(err)
	}

	// Two full intervals: establish the reference and a real r value.
	m.ProcessOverflow(overflow(0, 128, spanPCs(l1, 8)...))
	rep := m.ProcessOverflow(overflow(1, 128, spanPCs(l1, 8)...))
	prevState := rep.Verdicts[0].Verdict.State
	prevR := rep.Verdicts[0].Verdict.R

	// Sparse interval: 4 samples, all on one instruction — if they were
	// fed to the detector they would crater r.
	rep = m.ProcessOverflow(overflow(2, 4, l1.Start))
	v := rep.Verdicts[0]
	if !v.Verdict.Empty {
		t.Errorf("sparse interval not treated as empty: %+v", v.Verdict)
	}
	if v.Verdict.R != prevR {
		t.Errorf("sparse interval r = %v; want re-reported %v", v.Verdict.R, prevR)
	}
	if v.Verdict.State != prevState {
		t.Errorf("sparse interval moved state %v -> %v", prevState, v.Verdict.State)
	}
	if v.Samples != 4 {
		t.Errorf("Samples = %d; want 4", v.Samples)
	}
	// The histogram was zeroed exactly once and stays zeroed.
	if h := m.Regions()[0].AppendHistogram(nil); h[0] != 0 {
		t.Errorf("sparse samples leaked into histogram: %v", h)
	}

	// The next full interval is judged on its own samples only.
	rep = m.ProcessOverflow(overflow(3, 128, spanPCs(l1, 8)...))
	if rep.Verdicts[0].Verdict.Empty {
		t.Error("full interval after sparse one reported empty")
	}
	if r := rep.Verdicts[0].Verdict.R; r < 0.99 {
		t.Errorf("r = %v after identical full interval; sparse samples leaked", r)
	}
}

// TestIdleSampleAccounting pins the idle-sample contract: PC-0 samples are
// reported in IdleSamples and counted in the UCR fraction, but cannot trip
// region formation.
func TestIdleSampleAccounting(t *testing.T) {
	prog, l1, _ := testProgram(t)
	m := newMonitor(t, prog, nil)

	// Entirely idle interval: 100% UCR but no formation.
	rep := m.ProcessOverflow(overflow(0, 64, 0))
	if rep.IdleSamples != 64 || rep.UCRSamples != 64 {
		t.Fatalf("IdleSamples=%d UCRSamples=%d; want 64/64", rep.IdleSamples, rep.UCRSamples)
	}
	if rep.UCRFraction != 1 {
		t.Errorf("UCRFraction = %v; want 1 (idle time is unmonitored time)", rep.UCRFraction)
	}
	if rep.FormationTriggered {
		t.Error("idle-only interval tripped formation with nothing to form")
	}

	// Mostly idle with a hot unmonitored loop: the code-only fraction
	// (100%) trips formation even though code samples are the minority.
	samples := make([]hpm.Sample, 64)
	pcs := spanPCs(l1, 8)
	for i := range samples {
		if i < 24 {
			samples[i] = hpm.Sample{PC: pcs[i%len(pcs)]}
		} // rest idle at PC 0
	}
	rep = m.ProcessOverflow(&hpm.Overflow{Seq: 1, Samples: samples})
	if rep.IdleSamples != 40 {
		t.Errorf("IdleSamples = %d; want 40", rep.IdleSamples)
	}
	if !rep.FormationTriggered || len(rep.NewRegions) != 1 {
		t.Errorf("hot unmonitored loop behind idle noise did not form: %+v", rep)
	}
}

// TestSnapshotSizeIndependentOfIntervals: the monitor keeps no
// per-interval history, so once its region set is formed its snapshot
// has the same size after 10 intervals as after 5,000. Before, a
// UCR-fraction ring grew the snapshot by 8 bytes an interval, up to 4,096
// intervals.
func TestSnapshotSizeIndependentOfIntervals(t *testing.T) {
	prog, l1, l2 := testProgram(t)
	m := newMonitor(t, prog, nil)
	pcs := append(spanPCs(l1, 8), spanPCs(l2, 12)...)
	sizes := map[int]int{}
	for i := 0; i < 5000; i++ {
		m.ProcessOverflow(overflow(i, 160, pcs...))
		if i == 9 || i == 4999 {
			sizes[i+1] = len(snap.Marshal(m))
		}
	}
	if len(m.Regions()) != 2 {
		t.Fatalf("monitor holds %d regions; want 2", len(m.Regions()))
	}
	if sizes[10] != sizes[5000] {
		t.Fatalf("snapshot is %d bytes after 10 intervals and %d after 5,000", sizes[10], sizes[5000])
	}
}

// TestPruneIgnoresSeq: the idle clock exempts exactly the regions formed
// in the current interval, whatever the producer's Seq does. A region
// formed in one interval and cold in the next three is pruned in the
// third. Before, the exemption compared a region's FormedAt with the
// overflow's Seq, so with Seq stuck at 0 no region was ever pruned, and
// with a Seq that went back to the formation's value one cold interval
// did not count.
func TestPruneIgnoresSeq(t *testing.T) {
	prog, l1, _ := testProgram(t)
	for _, c := range []struct {
		name string
		seqs []int // the formation interval's Seq, then three cold ones
	}{
		{"rising", []int{0, 1, 2, 3}},
		{"constant", []int{0, 0, 0, 0}},
		{"backwards", []int{5, 4, 5, 3}},
	} {
		m := newMonitor(t, prog, func(c *Config) { c.PruneAfter = 3 })
		rep := m.ProcessOverflow(overflow(c.seqs[0], 128, spanPCs(l1, 8)...))
		if len(rep.NewRegions) != 1 {
			t.Fatalf("%s: formed %d regions; want 1", c.name, len(rep.NewRegions))
		}
		for k, seq := range c.seqs[1:] {
			rep = m.ProcessOverflow(overflow(seq, 64, 0)) // idle: cold for every region
			if want := k == 2; (len(rep.Pruned) == 1) != want || (len(m.Regions()) == 0) != want {
				t.Fatalf("%s: cold interval %d (Seq %d) pruned %d, %d regions left; want the region pruned in cold interval 3",
					c.name, k+1, seq, len(rep.Pruned), len(m.Regions()))
			}
		}
	}
}

// hardeningStream drives formation, stable phases, sparse intervals,
// idle stretches and pruning in a fixed pattern.
func hardeningStream(l1, l2 isa.LoopSpan, n int) []*hpm.Overflow {
	out := make([]*hpm.Overflow, n)
	for i := range out {
		switch {
		case i%19 == 11:
			out[i] = overflow(i, 64, 0) // idle interval
		case i%7 == 3:
			out[i] = overflow(i, 4, l1.Start) // sparse trickle
		case (i/25)%2 == 0:
			out[i] = overflow(i, 192, spanPCs(l1, 8)...)
		default:
			out[i] = overflow(i, 192, spanPCs(l2, 12)...)
		}
	}
	return out
}

// reportsEqual compares the observable content of two reports (regions by
// identity fields, not pointer).
func reportsEqual(t *testing.T, a, b Report) bool {
	t.Helper()
	if a.Seq != b.Seq || a.TotalSamples != b.TotalSamples ||
		a.MonitoredSamples != b.MonitoredSamples || a.UCRSamples != b.UCRSamples ||
		a.IdleSamples != b.IdleSamples || a.UCRFraction != b.UCRFraction ||
		a.FormationTriggered != b.FormationTriggered ||
		len(a.NewRegions) != len(b.NewRegions) || len(a.Pruned) != len(b.Pruned) ||
		len(a.Verdicts) != len(b.Verdicts) {
		return false
	}
	for i := range a.Verdicts {
		av, bv := a.Verdicts[i], b.Verdicts[i]
		if av.Region.ID != bv.Region.ID || av.Region.Start != bv.Region.Start ||
			av.Region.End != bv.Region.End || av.Samples != bv.Samples ||
			av.Verdict != bv.Verdict {
			return false
		}
	}
	for i := range a.NewRegions {
		if a.NewRegions[i].ID != b.NewRegions[i].ID {
			return false
		}
	}
	for i := range a.Pruned {
		if a.Pruned[i].ID != b.Pruned[i].ID {
			return false
		}
	}
	return true
}

func TestMonitorSnapshotForkEquality(t *testing.T) {
	prog, l1, l2 := testProgram(t)
	mut := func(c *Config) { c.PruneAfter = 4 }
	const total = 140
	stream := hardeningStream(l1, l2, total)

	// Fork at every interval: per-region state such as an idle count
	// matches its restored default at some fork points, never at all.
	for at := 0; at < total; at++ {
		ref := newMonitor(t, prog, mut)
		forked := newMonitor(t, prog, mut)
		for i := 0; i < at; i++ {
			ra := ref.ProcessOverflow(stream[i])
			rb := forked.ProcessOverflow(stream[i])
			if !reportsEqual(t, ra, rb) {
				t.Fatalf("identical monitors diverged at %d before any snapshot", i)
			}
		}

		s1, s2 := snap.Marshal(forked), snap.Marshal(forked)
		if string(s1) != string(s2) {
			t.Fatalf("fork at %d: monitor snapshot is not deterministic", at)
		}

		restored := newMonitor(t, prog, mut)
		if err := snap.Unmarshal(restored, s1); err != nil {
			t.Fatalf("fork at %d: Restore: %v", at, err)
		}
		if string(snap.Marshal(restored)) != string(s1) {
			t.Fatalf("fork at %d: restored monitor snapshots to different bytes", at)
		}
		// FormedAt steers no verdict after the formation interval, so only
		// a direct comparison sees it lost.
		got, want := restored.Regions(), ref.Regions()
		if len(got) != len(want) {
			t.Fatalf("fork at %d: restored %d regions, reference has %d", at, len(got), len(want))
		}
		for i, r := range got {
			if r.ID != want[i].ID || r.FormedAt != want[i].FormedAt {
				t.Fatalf("fork at %d: restored region %d formed at %d, reference region %d at %d",
					at, r.ID, r.FormedAt, want[i].ID, want[i].FormedAt)
			}
		}

		for i := at; i < total; i++ {
			ra := ref.ProcessOverflow(stream[i])
			rb := restored.ProcessOverflow(stream[i])
			if !reportsEqual(t, ra, rb) {
				t.Fatalf("fork at %d, interval %d: restored monitor diverged:\nref      %+v\nrestored %+v", at, i, ra, rb)
			}
		}
		// Region loop linkage was re-derived, not lost.
		for _, r := range restored.Regions() {
			if r.Loop == nil {
				t.Errorf("fork at %d: restored region %s lost its loop", at, r.Name())
			}
		}
	}
}

func TestMonitorRestoreRejectsMismatch(t *testing.T) {
	prog, l1, l2 := testProgram(t)
	m := newMonitor(t, prog, nil)
	m.ProcessOverflow(overflow(0, 64, append(spanPCs(l1, 8), spanPCs(l2, 8)...)...))
	if len(m.Regions()) != 2 {
		t.Fatalf("monitor formed %d regions; want 2", len(m.Regions()))
	}
	snapBytes := snap.Marshal(m)

	// A region cap below the snapshot's region count → reject.
	other := newMonitor(t, prog, func(c *Config) { c.MaxRegions = 1 })
	if err := snap.Unmarshal(other, snapBytes); err == nil {
		t.Error("expected region-cap mismatch error")
	}
	// The failed restore left the monitor usable and empty.
	if len(other.Regions()) != 0 {
		t.Error("failed restore mutated the monitor")
	}

	if err := snap.Unmarshal(m, []byte("not a snapshot")); err == nil {
		t.Error("expected decode error on garbage")
	}
}

// checkCover recounts from the live regions alone what the monitor's
// derived state must hold, and fails the test when it does not: each
// region's slots, from its first, hold the addresses of its span in bin
// order, and each slot's cover is the number of regions containing the
// slot's address.
func checkCover(t *testing.T, m *Monitor, when string) {
	t.Helper()
	prog := m.prog
	for _, r := range m.regions {
		if r.slot < 0 || r.slot+len(r.curr) > prog.NumSlots() {
			t.Fatalf("%s: region %s has slots %d-%d of %d", when, r.Name(), r.slot, r.slot+len(r.curr), prog.NumSlots())
		}
		for i := range r.curr {
			if a := prog.SlotAddr(r.slot + i); a != r.Start+isa.Addr(i)*isa.InstrBytes {
				t.Fatalf("%s: region %s maps slot %d (%v) to bin %d", when, r.Name(), r.slot+i, a, i)
			}
		}
	}
	for s := range m.cover {
		want := 0
		for _, r := range m.regions {
			if r.Contains(prog.SlotAddr(s)) {
				want++
			}
		}
		if int(m.cover[s]) != want {
			t.Fatalf("%s: slot %d (%v) covered by %d regions; recount %d", when, s, prog.SlotAddr(s), m.cover[s], want)
		}
	}
}

// TestCoverMatchesRegionSet: cover and each region's first slot are
// derived state, not snapshot state, so no byte comparison sees them go
// stale. On a gapped program, with manual regions over two loops of two
// procedures, across the slots between those procedures and, added among
// formed regions, over both procedures whole, they are recounted after
// every AddRegion, every interval (formation and pruning, with malformed
// PCs in every buffer) and every restore commit. After restores that
// fail midway through the region list, the next interval's report equals
// that of an untouched twin.
func TestCoverMatchesRegionSet(t *testing.T) {
	prog, spans := gappedProgram(t)
	mut := func(c *Config) {
		c.MinRegionSamples = 4
		c.MinObserveSamples = 2
		c.PruneAfter = 3
	}
	m, twin := newMonitor(t, prog, mut), newMonitor(t, prog, mut)
	a, b := prog.Procs[0], prog.Procs[1]
	add := func(start, end isa.Addr) {
		t.Helper()
		for _, x := range []*Monitor{m, twin} {
			if _, err := x.AddRegion(start, end); err != nil {
				t.Fatal(err)
			}
		}
		checkCover(t, m, fmt.Sprintf("AddRegion %v-%v", start, end))
	}
	add(spans[0].Start, spans[1].End)
	add(a.End()-8, b.Start()+8)
	for _, span := range offCodeSpans(prog, spans) {
		if _, err := m.AddRegion(span[0], span[1]); err == nil || !strings.Contains(err.Error(), offCodeErr) {
			t.Fatalf("AddRegion %v-%v: %v; want the code-page check", span[0], span[1], err)
		}
		checkCover(t, m, fmt.Sprintf("refused AddRegion %v-%v", span[0], span[1]))
	}
	bad := malformedPCs(prog)
	var snaps [][]byte
	formed, pruned := 0, 0
	for seq := 0; seq < 48; seq++ {
		if seq == 24 {
			// Over formed regions: both procedures whole.
			add(a.Start(), b.End())
		}
		pcs := append(spanPCs(spans[seq/4%len(spans)], 12), bad...)
		if seq%6 == 5 {
			pcs = []isa.Addr{0}
		}
		ov := overflow(seq, 96, pcs...)
		rep, want := m.ProcessOverflow(ov), twin.ProcessOverflow(ov)
		if !reportsEqual(t, rep, want) {
			t.Fatalf("interval %d: identical monitors diverged", seq)
		}
		formed += len(rep.NewRegions)
		pruned += len(rep.Pruned)
		checkCover(t, m, fmt.Sprintf("interval %d", seq))
		if seq%8 == 3 {
			snaps = append(snaps, snap.Marshal(m))
		}
	}
	if formed == 0 || pruned == 0 {
		t.Fatalf("%d regions formed and %d pruned; the stream exercised nothing", formed, pruned)
	}
	if n := len(twin.Regions()); n < 3 {
		t.Fatalf("%d regions left; a restore cut short fails before staging a second one", n)
	}

	for i, data := range snaps {
		if err := snap.Unmarshal(m, data); err != nil {
			t.Fatal(err)
		}
		checkCover(t, m, fmt.Sprintf("restore of snapshot %d", i))
	}
	if err := snap.Unmarshal(m, snap.Marshal(twin)); err != nil {
		t.Fatal(err)
	}
	checkCover(t, m, "restore of the twin's state")
	for i, data := range snaps {
		if err := snap.Unmarshal(m, data[:len(data)-1]); err == nil {
			t.Fatalf("snapshot %d cut by one byte restored", i)
		}
	}
	for seq := 48; seq < 52; seq++ {
		ov := overflow(seq, 96, append(spanPCs(spans[2], 20), bad...)...)
		if rep, want := m.ProcessOverflow(ov), twin.ProcessOverflow(ov); !reportsEqual(t, rep, want) {
			t.Fatalf("interval %d after failed restores: report %+v, untouched twin %+v", seq, rep, want)
		}
		checkCover(t, m, fmt.Sprintf("interval %d after failed restores", seq))
	}
}

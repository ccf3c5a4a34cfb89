package region

// The distribution oracle. distribute counts the buffer per instruction
// slot and sets each region's bins from the counts of its slots; the
// oracle does the same job the slow, obvious way — every sample tested
// against every monitored region with Region.Contains — and the tests
// below compare the two on every interval of a stream. distribute runs
// on a snapshot/restore fork of the monitor, so the monitor itself
// advances only through ProcessOverflow, and each comparison starts from
// the region set and totals the stream has built up so far.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/sim"
	"regionmon/internal/snap"
	"regionmon/internal/workload"
)

// oracleOutcome is what distributing one buffer must produce.
type oracleOutcome struct {
	monitored, ucr, idle int
	hists                [][]int64 // per region, in ID order
	hits                 []int
	totals               []int64
	ucrPCs               []isa.Addr // instruction addresses, sorted
}

// oracleDistribute distributes ov over regions (in ID order) by testing
// every sample against every region, starting each region from an empty
// histogram and its current total. UCR PCs on no code page are counted
// but not listed: formation can build nothing around them. The regions
// are not modified.
func oracleDistribute(prog *isa.Program, regions []*Region, ov *hpm.Overflow) oracleOutcome {
	out := oracleOutcome{
		hists:  make([][]int64, len(regions)),
		hits:   make([]int, len(regions)),
		totals: make([]int64, len(regions)),
	}
	for i, r := range regions {
		out.hists[i] = make([]int64, r.NumInstrs())
		out.totals[i] = r.totalSamples
	}
	for _, s := range ov.Samples {
		hit := false
		for i, r := range regions {
			if r.Contains(s.PC) {
				out.hists[i][int(s.PC-r.Start)/isa.InstrBytes]++
				out.hits[i]++
				out.totals[i]++
				hit = true
			}
		}
		switch {
		case hit:
			out.monitored++
		case s.PC == 0:
			out.ucr++
			out.idle++
		case prog.Slot(s.PC) < 0:
			out.ucr++
		default:
			out.ucr++
			out.ucrPCs = append(out.ucrPCs, s.PC&^(isa.InstrBytes-1))
		}
	}
	slices.Sort(out.ucrPCs)
	return out
}

// checkDistribute runs distribute over ov on a fork of m and fails the
// test unless the fork ends up where the oracle says: the same monitored,
// UCR and idle counts, every region's histogram and counters, and the
// same multiset of UCR PCs. UCR PCs compare by instruction address:
// distribute hands formation the slot of every PC inside that
// instruction, and every span formation builds from them is
// instruction-aligned. m itself is not touched.
func checkDistribute(t *testing.T, m *Monitor, ov *hpm.Overflow) {
	t.Helper()
	fork, err := NewMonitor(m.prog, m.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Unmarshal(fork, snap.Marshal(m)); err != nil {
		t.Fatalf("interval %d: fork: %v", ov.Seq, err)
	}
	want := oracleDistribute(m.prog, m.Regions(), ov)
	var rep Report
	var got []isa.Addr
	for _, s := range fork.distribute(ov, &rep) {
		for i := uint32(0); i < fork.counts[s]; i++ {
			got = append(got, fork.prog.SlotAddr(int(s)))
		}
	}
	slices.Sort(got)
	if rep.MonitoredSamples != want.monitored || rep.UCRSamples != want.ucr || rep.IdleSamples != want.idle {
		t.Fatalf("interval %d: monitored/UCR/idle samples %d/%d/%d, oracle %d/%d/%d", ov.Seq,
			rep.MonitoredSamples, rep.UCRSamples, rep.IdleSamples, want.monitored, want.ucr, want.idle)
	}
	regions := fork.Regions()
	if len(regions) != len(want.hists) {
		t.Fatalf("interval %d: fork has %d regions, monitor %d", ov.Seq, len(regions), len(want.hists))
	}
	for i, r := range regions {
		if !slices.Equal(r.curr, want.hists[i]) || r.intervalHits != want.hits[i] || r.totalSamples != want.totals[i] {
			t.Fatalf("interval %d: region %s histogram/hits/total %v/%d/%d, oracle %v/%d/%d", ov.Seq, r.Name(),
				r.curr, r.intervalHits, r.totalSamples, want.hists[i], want.hits[i], want.totals[i])
		}
	}
	if !slices.Equal(got, want.ucrPCs) {
		t.Fatalf("interval %d: %d UCR PCs, oracle %d, or a different multiset", ov.Seq, len(got), len(want.ucrPCs))
	}
}

// TestDistributeOracle checks distribute against the oracle on synthetic
// programs. "regions=N" registers N loop regions and feeds the loopy
// 2032-sample buffer of BenchmarkProcessOverflow, whose hot set moves to
// the upper half of the regions and back, far enough for a local phase
// change; "formation" forms two loop regions from the UCR and then moves
// the samples between them.
func TestDistributeOracle(t *testing.T) {
	for _, n := range []int{4, 64, 512} {
		t.Run(fmt.Sprintf("regions=%d", n), func(t *testing.T) {
			prog, spans := benchProgram(t, n, "dense")
			m := newMonitor(t, prog, nil)
			for _, s := range spans {
				if _, err := m.AddRegion(s.Start, s.End); err != nil {
					t.Fatal(err)
				}
			}
			low := benchOverflow(spans, hpm.DefaultBufferSize)
			high := benchOverflow(spans[n/2:], hpm.DefaultBufferSize)
			changes := 0
			for seq := 0; seq < 9; seq++ {
				ov := low
				if seq/3 == 1 {
					ov = high
				}
				ov.Seq = seq
				checkDistribute(t, m, ov)
				for _, v := range m.ProcessOverflow(ov).Verdicts {
					if v.Verdict.PhaseChange {
						changes++
					}
				}
			}
			if changes == 0 {
				t.Fatal("no local phase change: the hot-set moves exercised nothing")
			}
		})
	}

	// "malformed": a gapped program with manual regions over both
	// procedures that share code pages and across the slots between them
	// (the spans off the code map are refused), fed buffers of malformed
	// PCs (idle, below the text, between procedures, past the end,
	// misaligned, in the refused spans), alone, mixed into loop samples,
	// and empty.
	t.Run("malformed", func(t *testing.T) {
		prog, spans := gappedProgram(t)
		m := newMonitor(t, prog, func(c *Config) { c.MinRegionSamples = 4 })
		a, b := prog.Procs[0], prog.Procs[1]
		for _, span := range [][2]isa.Addr{{a.Start(), b.End()}, {a.End() - 8, b.Start() + 8}} {
			if _, err := m.AddRegion(span[0], span[1]); err != nil {
				t.Fatal(err)
			}
		}
		gap := prog.Procs[2].Start() - 0x100
		for _, span := range offCodeSpans(prog, spans) {
			if _, err := m.AddRegion(span[0], span[1]); err == nil || !strings.Contains(err.Error(), offCodeErr) {
				t.Fatalf("AddRegion %v-%v: %v; want the code-page check", span[0], span[1], err)
			}
		}
		bad := malformedPCs(prog)
		bad = append(bad, 0x100, 0x1fc, gap-isa.InstrBytes, gap-1)
		mixed := append(spanPCs(spans[0], 12), bad...)
		mixed = append(mixed, spanPCs(spans[2], 20)...)
		for seq, ov := range []*hpm.Overflow{
			overflow(0, len(bad), bad...),
			overflow(1, 96, mixed...),
			{Seq: 2},
			overflow(3, 300, mixed...),
			overflow(4, 7, bad...),
		} {
			ov.Seq = seq
			checkDistribute(t, m, ov)
			m.ProcessOverflow(ov)
		}
		if n := len(m.Regions()); n != 3 {
			t.Fatalf("%d regions; want the 2 manual ones and the loop of the third procedure", n)
		}
	})

	t.Run("formation", func(t *testing.T) {
		prog, l1, l2 := testProgram(t)
		m := newMonitor(t, prog, nil)
		for seq := 0; seq < 6; seq++ {
			pcs := spanPCs(l1, 5)
			if seq >= 3 {
				pcs = spanPCs(l2, 5)
			}
			ov := overflow(seq, 128, pcs...)
			checkDistribute(t, m, ov)
			m.ProcessOverflow(ov)
		}
		if n := len(m.Regions()); n != 2 {
			t.Fatalf("formed %d regions, want 2", n)
		}
	})
}

// oracleStream samples one synthetic benchmark at scale 0.002 (period
// 200, 256-sample buffers, 10% jitter) into a monitor under mutate's
// configuration, checking distribute against the oracle on every
// interval before the monitor processes it. It returns the number of
// regions pruned over the run.
func oracleStream(t *testing.T, name string, mutate func(*Config)) (pruned int) {
	t.Helper()
	bench, err := workload.ByName(name, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	m := newMonitor(t, bench.Prog, mutate)
	intervals, formed := 0, 0
	mon, err := hpm.New(hpm.Config{Period: 200, BufferSize: 256, JitterFrac: 0.1}, func(ov *hpm.Overflow) {
		checkDistribute(t, m, ov)
		rep := m.ProcessOverflow(ov)
		formed += len(rep.NewRegions)
		pruned += len(rep.Pruned)
		intervals++
	})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := sim.NewExecutor(bench.Prog, bench.Sched, mon)
	if err != nil {
		t.Fatal(err)
	}
	exec.Run()
	if intervals == 0 || formed == 0 {
		t.Fatalf("%s: %d intervals formed %d regions; the stream exercised nothing", name, intervals, formed)
	}
	return pruned
}

// TestDistributeOracleStreams checks distribute against the oracle over
// real sampled streams of the whole synthetic suite. Short mode keeps the
// three that stress distribution hardest (many regions, persistent UCR,
// era drift).
func TestDistributeOracleStreams(t *testing.T) {
	names := workload.Names()
	if testing.Short() {
		names = []string{"176.gcc", "254.gap", "181.mcf"}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) { oracleStream(t, name, nil) })
	}
}

// TestDistributeOracleFormationStorm lowers the formation bar until
// formation fires constantly: regions and their slot cover are added most
// often.
func TestDistributeOracleFormationStorm(t *testing.T) {
	oracleStream(t, "176.gcc", func(c *Config) {
		c.UCRThreshold = 0.05
		c.MinRegionSamples = 4
	})
}

// TestDistributeOraclePruneChurn combines a tight region cap with
// aggressive idle pruning, so formation and removal both change the
// per-slot cover between most intervals.
func TestDistributeOraclePruneChurn(t *testing.T) {
	pruned := oracleStream(t, "181.mcf", func(c *Config) {
		c.PruneAfter = 2
		c.MaxRegions = 12
	})
	if pruned == 0 {
		t.Fatal("no region was pruned")
	}
}

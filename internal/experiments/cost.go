package experiments

import (
	"fmt"
	"time"

	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/interval"
	"regionmon/internal/region"
	"regionmon/internal/workload"
)

// SimClockHz converts simulated cycles to simulated seconds when relating
// real monitoring cost to program run time (Figure 15's overhead
// percentages). The paper's UltraSPARC IV+ ran near 1.5 GHz; the exact
// value only scales the overhead column, not the LPD/GPD factor.
const SimClockHz = 1.5e9

// CostRow is one benchmark's monitoring-cost measurement.
type CostRow struct {
	Bench string
	// Intervals is the number of replayed overflow deliveries.
	Intervals int
	// Regions is the region count at end of run.
	Regions int
	// GPDTime and LPDTime are total wall-clock detector times.
	GPDTime, LPDTime time.Duration
	// GPDOverhead and LPDOverhead relate detector time to simulated
	// program time (cycles / SimClockHz).
	GPDOverhead, LPDOverhead float64
	// Factor is LPDTime / GPDTime — "times slower than global PD".
	Factor float64
}

// CostResult is the Figure 15 measurement set.
type CostResult struct {
	Opts Options
	Rows []CostRow
}

// recordedStream is a benchmark's captured overflow stream.
type recordedStream struct {
	bench     *workload.Benchmark
	overflows []*hpm.Overflow
	cycles    uint64
}

// record captures every overflow of one run (deep copies).
func record(opts Options, name string, period uint64) (*recordedStream, error) {
	bench, err := opts.loadBenchmark(name)
	if err != nil {
		return nil, err
	}
	rs := &recordedStream{bench: bench}
	handler := func(ov *hpm.Overflow) {
		cp := &hpm.Overflow{
			Samples: append([]hpm.Sample(nil), ov.Samples...),
			Cycle:   ov.Cycle,
			Seq:     ov.Seq,
		}
		rs.overflows = append(rs.overflows, cp)
	}
	res, err := opts.runStream(bench, period, handler)
	if err != nil {
		return nil, err
	}
	rs.cycles = res.Cycles
	return rs, nil
}

// replayRepeats is how many times each replay is timed (minimum taken).
const replayRepeats = 3

// RunCost measures Figure 15: the wall-clock cost of centroid GPD versus
// full region monitoring (distribution + per-region LPD) on identical
// recorded sample streams.
func RunCost(opts Options, names []string) (*CostResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	res := &CostResult{Opts: opts}
	period := opts.Periods[0]
	for _, name := range names {
		rs, err := record(opts, name, period)
		if err != nil {
			return nil, fmt.Errorf("cost %s: %w", name, err)
		}
		row := CostRow{Bench: name, Intervals: len(rs.overflows)}

		// GPD replay: centroid per overflow.
		row.GPDTime = minDuration(replayRepeats, func() error {
			gdet, err := gpd.New(gpd.DefaultConfig())
			if err != nil {
				return err
			}
			for _, ov := range rs.overflows {
				gdet.ObserveOverflow(ov)
			}
			return nil
		}, &err)
		if err != nil {
			return nil, err
		}

		// LPD replay: full region monitoring.
		var regions int
		row.LPDTime = minDuration(replayRepeats, func() error {
			rmon, err := region.NewMonitor(rs.bench.Prog, region.DefaultConfig())
			if err != nil {
				return err
			}
			for _, ov := range rs.overflows {
				rmon.ProcessOverflow(ov)
			}
			regions = len(rmon.Regions())
			return nil
		}, &err)
		if err != nil {
			return nil, err
		}
		row.Regions = regions

		simSeconds := float64(rs.cycles) / SimClockHz
		if simSeconds > 0 {
			row.GPDOverhead = row.GPDTime.Seconds() / simSeconds
			row.LPDOverhead = row.LPDTime.Seconds() / simSeconds
		}
		if row.GPDTime > 0 {
			row.Factor = float64(row.LPDTime) / float64(row.GPDTime)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// minDuration times fn repeats times and returns the minimum, propagating
// the first error through errp. Figure 15 reports real monitoring cost, so
// this is an intentional wall-clock measurement; the duration feeds the
// cost column only, never the simulated results.
//
//lint:allow determinism -- Figure 15 measures real elapsed cost
func minDuration(repeats int, fn func() error, errp *error) time.Duration {
	best := time.Duration(0)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			*errp = err
			return 0
		}
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

// Table renders Figure 15.
func (c *CostResult) Table() *Table {
	t := &Table{
		Title:   "Figure 15: cost of region monitoring (LPD) vs centroid global phase detection (GPD)",
		Columns: []string{"benchmark", "regions", "GPD %ovh", "LPD %ovh", "x slower"},
		Notes: []string{
			fmt.Sprintf("overhead relates detector wall time to simulated program time at %.1f GHz", SimClockHz/1e9),
			"paper shape: LPD is tens to hundreds of times costlier than GPD but usually < 1% of run time; region-heavy programs (gcc, crafty, parser, vortex, ammp, apsi) are the expensive ones",
		},
	}
	for _, r := range c.Rows {
		t.Rows = append(t.Rows, []string{
			r.Bench, itoa(r.Regions),
			fmt.Sprintf("%.4f%%", r.GPDOverhead*100),
			fmt.Sprintf("%.4f%%", r.LPDOverhead*100),
			fmt.Sprintf("%.0f", r.Factor),
		})
	}
	return t
}

// TreeRow is one benchmark's interval-tree-vs-list measurement.
type TreeRow struct {
	Bench string
	// Regions is the stabbed region count.
	Regions int
	// Samples is the number of stab queries timed.
	Samples int
	// ListTime and TreeTime are the pure distribution costs.
	ListTime, TreeTime time.Duration
	// Factor is TreeTime / ListTime (< 1 means the tree wins), the bar
	// Figure 16 plots.
	Factor float64
}

// TreeResult is the Figure 16 measurement set.
type TreeResult struct {
	Opts Options
	Rows []TreeRow
}

// RunTreeComparison measures Figure 16: the cost of distributing the
// recorded samples over the final region set with a linear list versus an
// interval tree.
func RunTreeComparison(opts Options, names []string) (*TreeResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	res := &TreeResult{Opts: opts}
	period := opts.Periods[0]
	for _, name := range names {
		rs, err := record(opts, name, period)
		if err != nil {
			return nil, fmt.Errorf("tree %s: %w", name, err)
		}
		// Form the benchmark's region set by running the monitor once.
		rmon, err := region.NewMonitor(rs.bench.Prog, region.DefaultConfig())
		if err != nil {
			return nil, err
		}
		for _, ov := range rs.overflows {
			rmon.ProcessOverflow(ov)
		}
		regions := rmon.Regions()

		list := interval.NewList()
		tree := interval.NewTree()
		for _, r := range regions {
			list.Insert(r.ID, uint64(r.Start), uint64(r.End))
			tree.Insert(r.ID, uint64(r.Start), uint64(r.End))
		}

		pcs := make([]uint64, 0, len(rs.overflows)*opts.BufferSize)
		for _, ov := range rs.overflows {
			for i := range ov.Samples {
				pcs = append(pcs, uint64(ov.Samples[i].PC))
			}
		}

		row := TreeRow{Bench: name, Regions: len(regions), Samples: len(pcs)}
		sink := 0
		visit := func(id int) { sink += id }
		row.ListTime = minDuration(replayRepeats, func() error {
			for _, pc := range pcs {
				list.Stab(pc, visit)
			}
			return nil
		}, &err)
		row.TreeTime = minDuration(replayRepeats, func() error {
			for _, pc := range pcs {
				tree.Stab(pc, visit)
			}
			return nil
		}, &err)
		if err != nil {
			return nil, err
		}
		_ = sink
		if row.ListTime > 0 {
			row.Factor = float64(row.TreeTime) / float64(row.ListTime)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders Figure 16.
func (c *TreeResult) Table() *Table {
	t := &Table{
		Title:   "Figure 16: interval-tree sample distribution cost normalized to the list scheme",
		Columns: []string{"benchmark", "regions", "list", "tree", "factor"},
		Notes: []string{
			"factor < 1: tree wins; paper shape: big wins for region-heavy programs (gcc, crafty, fma3d, parser, bzip2), slightly worse for programs with a handful of regions",
		},
	}
	for _, r := range c.Rows {
		t.Rows = append(t.Rows, []string{
			r.Bench, itoa(r.Regions),
			r.ListTime.Round(time.Microsecond).String(),
			r.TreeTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%.3f", r.Factor),
		})
	}
	return t
}

package experiments

import (
	"fmt"
	"sort"

	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/pipeline"
	"regionmon/internal/region"
	"regionmon/internal/stats"
)

// RegionSummary is one monitored region's whole-run accounting within a
// sweep cell.
type RegionSummary struct {
	// Name is the region's span name (e.g. "146f0-14770").
	Name string
	// Samples is the total sample count attributed to the region.
	Samples int64
	// PhaseChanges is the region's local stable→unstable count
	// (Figure 13's bars).
	PhaseChanges int
	// StableFrac is the fraction of the region's observed intervals spent
	// locally stable (Figure 14's bars).
	StableFrac float64
}

// SweepCell is one (benchmark, period) measurement carrying everything
// Figures 3, 4, 6, 7, 13 and 14 need.
type SweepCell struct {
	// Bench is the benchmark name.
	Bench string
	// Period is the sampling period in cycles/interrupt.
	Period uint64
	// Intervals is the number of overflow deliveries.
	Intervals int
	// GPDChanges is the global detector's phase-change count (Figure 3).
	GPDChanges int
	// GPDStableFrac is the global detector's stable-time share (Figure 4).
	GPDStableFrac float64
	// UCRMedian is the median per-interval unmonitored-sample fraction
	// (Figure 6).
	UCRMedian float64
	// UCRSeries is every interval's unmonitored-sample fraction, in
	// order (Figure 7).
	UCRSeries []float64
	// Regions summarizes every region the monitor formed, hottest first.
	Regions []RegionSummary
}

// SweepResult is a full (benchmarks × periods) sweep.
type SweepResult struct {
	Opts  Options
	Cells []SweepCell
}

// Filter returns a view of the sweep restricted to the named benchmarks
// (preserving period order); cells are shared, not copied.
func (s *SweepResult) Filter(names ...string) *SweepResult {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := &SweepResult{Opts: s.Opts}
	for i := range s.Cells {
		if want[s.Cells[i].Bench] {
			out.Cells = append(out.Cells, s.Cells[i])
		}
	}
	return out
}

// Cell returns the sweep cell for (bench, period), or nil.
func (s *SweepResult) Cell(bench string, period uint64) *SweepCell {
	for i := range s.Cells {
		if s.Cells[i].Bench == bench && s.Cells[i].Period == period {
			return &s.Cells[i]
		}
	}
	return nil
}

// RunSweep runs every named benchmark at every Options period, feeding the
// sample stream to both a centroid GPD detector and a region monitor with
// per-region LPD. One simulation per cell serves six figures. It is
// RunSweepParallel on one worker.
func RunSweep(opts Options, names []string) (*SweepResult, error) {
	return RunSweepParallel(opts, names, 1)
}

// runSweepCell simulates one independent (benchmark, period) stack:
// fresh workload, detectors and pipeline per call, so cells can run
// concurrently (the benchmark program is built privately here; even the
// shared-program case would be safe, see isa.Program).
func runSweepCell(opts Options, name string, period uint64) (SweepCell, error) {
	bench, err := opts.loadBenchmark(name)
	if err != nil {
		return SweepCell{}, err
	}
	gdet, err := gpd.New(gpd.DefaultConfig())
	if err != nil {
		return SweepCell{}, err
	}
	rmon, err := region.NewMonitor(bench.Prog, region.DefaultConfig())
	if err != nil {
		return SweepCell{}, err
	}
	pipe := pipeline.New()
	pipe.MustRegister(pipeline.NewGPD(gdet))
	pipe.MustRegister(pipeline.NewRegionMonitor(rmon))
	// Figure 7 plots the whole per-interval UCR series, so the cell
	// collects it from each interval's region report.
	var ucr []float64
	handler := func(ov *hpm.Overflow) {
		rep := pipe.ProcessOverflow(ov)
		ucr = append(ucr, rep.Verdicts[1].Payload.(*region.Report).UCRFraction)
	}
	if _, err := opts.runStream(bench, period, handler); err != nil {
		return SweepCell{}, err
	}
	cell := SweepCell{
		Bench:         name,
		Period:        period,
		Intervals:     pipe.Intervals(),
		GPDChanges:    gdet.PhaseChanges(),
		GPDStableFrac: gdet.StableFraction(),
		UCRMedian:     stats.Median(ucr),
		UCRSeries:     ucr,
	}
	for _, r := range rmon.Regions() {
		cell.Regions = append(cell.Regions, RegionSummary{
			Name:         r.Name(),
			Samples:      r.TotalSamples(),
			PhaseChanges: r.Detector.PhaseChanges(),
			StableFrac:   r.Detector.StableFraction(),
		})
	}
	sort.Slice(cell.Regions, func(i, j int) bool {
		if cell.Regions[i].Samples != cell.Regions[j].Samples {
			return cell.Regions[i].Samples > cell.Regions[j].Samples
		}
		return cell.Regions[i].Name < cell.Regions[j].Name
	})
	return cell, nil
}

// Fig3Table renders Figure 3: number of GPD phase changes per benchmark at
// each sampling period.
func (s *SweepResult) Fig3Table() *Table {
	return s.gpdTable(
		"Figure 3: GPD phase changes per sampling period (centroid scheme)",
		func(c *SweepCell) string { return itoa(c.GPDChanges) },
		"paper shape: counts shrink as the sampling period grows; mcf/facerec/gap dominate at 45K",
	)
}

// Fig4Table renders Figure 4: percentage of time in stable phase (GPD).
func (s *SweepResult) Fig4Table() *Table {
	return s.gpdTable(
		"Figure 4: time in stable phase per sampling period (centroid scheme)",
		func(c *SweepCell) string { return pct(c.GPDStableFrac) },
		"paper shape: facerec spends most time unstable; stable share is not correlated with change counts",
	)
}

func (s *SweepResult) gpdTable(title string, cellFn func(*SweepCell) string, note string) *Table {
	t := &Table{Title: title, Notes: []string{note}}
	t.Columns = []string{"benchmark"}
	for _, p := range s.Opts.Periods {
		t.Columns = append(t.Columns, "#PC "+periodLabel(p))
	}
	for _, name := range s.benchNames() {
		row := []string{name}
		for _, p := range s.Opts.Periods {
			if c := s.Cell(name, p); c != nil {
				row = append(row, cellFn(c))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func (s *SweepResult) benchNames() []string {
	seen := map[string]bool{}
	var names []string
	for i := range s.Cells {
		if !seen[s.Cells[i].Bench] {
			seen[s.Cells[i].Bench] = true
			names = append(names, s.Cells[i].Bench)
		}
	}
	return names
}

// Fig6Table renders Figure 6: median unmonitored-sample percentage per
// benchmark against the 30% formation threshold, at the middle period.
func (s *SweepResult) Fig6Table() *Table {
	period := s.Opts.Periods[len(s.Opts.Periods)/2]
	t := &Table{
		Title:   fmt.Sprintf("Figure 6: median %%UCR per benchmark (period %s) vs 30%% threshold", periodLabel(period)),
		Columns: []string{"benchmark", "median %UCR", "> threshold"},
		Notes: []string{
			"paper shape: most programs sit below 30%; gap and crafty stay above — code their region builder cannot cover",
		},
	}
	for _, name := range s.benchNames() {
		c := s.Cell(name, period)
		if c == nil {
			continue
		}
		over := ""
		if c.UCRMedian > 0.30 {
			over = "YES"
		}
		t.Rows = append(t.Rows, []string{name, pct(c.UCRMedian), over})
	}
	return t
}

// Fig7Table renders Figure 7: per-interval %UCR timelines for 254.gap and
// 186.crafty (first period), decimated to at most 40 points.
func (s *SweepResult) Fig7Table() *Table {
	period := s.Opts.Periods[0]
	t := &Table{
		Title:   fmt.Sprintf("Figure 7: %%UCR over time for 254.gap and 186.crafty (period %s)", periodLabel(period)),
		Columns: []string{"interval", "254.gap", "186.crafty"},
		Notes: []string{
			"paper shape: both stay high over the whole run despite repeated region-formation triggers",
		},
	}
	gapC := s.Cell("254.gap", period)
	craftyC := s.Cell("186.crafty", period)
	if gapC == nil || craftyC == nil {
		t.Notes = append(t.Notes, "gap/crafty not in sweep: run with the full suite")
		return t
	}
	n := min(len(gapC.UCRSeries), len(craftyC.UCRSeries))
	step := 1
	if n > 40 {
		step = n / 40
	}
	for i := 0; i < n; i += step {
		t.Rows = append(t.Rows, []string{itoa(i), pct(gapC.UCRSeries[i]), pct(craftyC.UCRSeries[i])})
	}
	// Whole-run medians as the summary row.
	t.Rows = append(t.Rows, []string{"median", pct(gapC.UCRMedian), pct(craftyC.UCRMedian)})
	return t
}

// Fig13Names returns the paper's Figure 13/14 benchmark subset.
func Fig13Names() []string {
	return []string{
		"181.mcf", "187.facerec", "254.gap", "164.gzip",
		"178.galgel", "189.lucas", "191.fma3d", "188.ammp",
	}
}

// fig13MaxRegions caps per-benchmark region rows, as the paper plots only
// the regions contributing significantly to execution.
const fig13MaxRegions = 5

// Fig13Table renders Figure 13: per-region LPD phase changes for the
// selected benchmarks across sampling periods.
func (s *SweepResult) Fig13Table() *Table {
	return s.lpdTable(
		"Figure 13: LPD phase changes per region per sampling period",
		func(r *RegionSummary) string { return itoa(r.PhaseChanges) },
		"paper shape: most regions see 0-13 changes at every period; gap's short-lived flaky region and ammp's huge region are the outliers at 45K",
	)
}

// Fig14Table renders Figure 14: per-region time in locally stable phase.
func (s *SweepResult) Fig14Table() *Table {
	return s.lpdTable(
		"Figure 14: time in locally stable phase per region per sampling period",
		func(r *RegionSummary) string { return pct(r.StableFrac) },
		"paper shape: stable share is high for most regions at all periods — LPD is insensitive to the sampling period",
	)
}

func (s *SweepResult) lpdTable(title string, cellFn func(*RegionSummary) string, note string) *Table {
	t := &Table{Title: title, Notes: []string{note}}
	t.Columns = []string{"benchmark", "region"}
	for _, p := range s.Opts.Periods {
		t.Columns = append(t.Columns, "#PC "+periodLabel(p))
	}
	for _, name := range s.benchNames() {
		// Use the first period's hottest regions as the row set so rows
		// line up across periods (regions are identified by span name).
		base := s.Cell(name, s.Opts.Periods[0])
		if base == nil {
			continue
		}
		nRegions := len(base.Regions)
		if nRegions > fig13MaxRegions {
			nRegions = fig13MaxRegions
		}
		for ri := 0; ri < nRegions; ri++ {
			rname := base.Regions[ri].Name
			row := []string{name, fmt.Sprintf("r%d %s", ri+1, rname)}
			for _, p := range s.Opts.Periods {
				c := s.Cell(name, p)
				cellStr := "-"
				if c != nil {
					for i := range c.Regions {
						if c.Regions[i].Name == rname {
							cellStr = cellFn(&c.Regions[i])
							break
						}
					}
				}
				row = append(row, cellStr)
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

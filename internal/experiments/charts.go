package experiments

import (
	"fmt"
	"sort"

	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/region"
)

// ChartPoint is one interval of a region chart (Figures 2, 5, 9, 10, 11):
// per-region sample counts, per-region Pearson r, the GPD state and the
// UCR share.
type ChartPoint struct {
	// Interval is the overflow sequence number.
	Interval int
	// Cycle is the absolute cycle at the end of the interval.
	Cycle uint64
	// Samples maps region name to this interval's sample count.
	Samples map[string]int
	// R maps region name to this interval's Pearson r (as re-reported by
	// the detector for empty intervals).
	R map[string]float64
	// GPDStable is the global detector's post-interval stability.
	GPDStable bool
	// UCRFrac is the unmonitored share of the interval's samples.
	UCRFrac float64
}

// ChartResult is a whole region chart run.
type ChartResult struct {
	// Bench is the benchmark name.
	Bench string
	// Period is the sampling period.
	Period uint64
	// Points holds one entry per interval.
	Points []ChartPoint
	// Regions lists every region name seen, hottest first.
	Regions []string
}

// RunChart executes bench once at the chart period, recording the
// per-interval region chart with both detectors attached.
func RunChart(opts Options, name string) (*ChartResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	bench, err := opts.loadBenchmark(name)
	if err != nil {
		return nil, err
	}
	gdet, err := gpd.New(gpd.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rmon, err := region.NewMonitor(bench.Prog, region.DefaultConfig())
	if err != nil {
		return nil, err
	}
	res := &ChartResult{Bench: name, Period: opts.ChartPeriod}
	totals := map[string]int64{}
	handler := func(ov *hpm.Overflow) {
		gv := gdet.ObserveOverflow(ov)
		rep := rmon.ProcessOverflow(ov)
		pt := ChartPoint{
			Interval:  ov.Seq,
			Cycle:     ov.Cycle,
			Samples:   make(map[string]int, len(rep.Verdicts)),
			R:         make(map[string]float64, len(rep.Verdicts)),
			GPDStable: gv.State == gpd.Stable,
			UCRFrac:   rep.UCRFraction,
		}
		for _, rv := range rep.Verdicts {
			n := rv.Region.Name()
			pt.Samples[n] = rv.Samples
			pt.R[n] = rv.Verdict.R
			totals[n] += int64(rv.Samples)
		}
		res.Points = append(res.Points, pt)
	}
	if _, err := opts.runStream(bench, opts.ChartPeriod, handler); err != nil {
		return nil, err
	}
	for n := range totals {
		res.Regions = append(res.Regions, n)
	}
	sort.Slice(res.Regions, func(i, j int) bool {
		if totals[res.Regions[i]] != totals[res.Regions[j]] {
			return totals[res.Regions[i]] > totals[res.Regions[j]]
		}
		return res.Regions[i] < res.Regions[j]
	})
	return res, nil
}

// flakiestRegion returns the region (other than skip) with the most
// sub-threshold r observations over populated intervals, falling back to
// the second-hottest region.
func (c *ChartResult) flakiestRegion(skip string) string {
	dips := map[string]int{}
	for _, pt := range c.Points {
		for name, r := range pt.R {
			if name != skip && pt.Samples[name] > 0 && r < 0.8 {
				dips[name]++
			}
		}
	}
	best, bestDips := "", -1
	for _, name := range c.Regions {
		if name == skip {
			continue
		}
		if dips[name] > bestDips {
			best, bestDips = name, dips[name]
		}
	}
	if best == "" && len(c.Regions) > 1 {
		best = c.Regions[1]
	}
	return best
}

// topRegions returns the hottest k region names.
func (c *ChartResult) topRegions(k int) []string {
	if k > len(c.Regions) {
		k = len(c.Regions)
	}
	return c.Regions[:k]
}

// decimate returns row indices covering the run with at most maxRows
// points.
func decimate(n, maxRows int) []int {
	if n <= maxRows {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, 0, maxRows)
	for i := 0; i < maxRows; i++ {
		idx = append(idx, i*n/maxRows)
	}
	return idx
}

// SamplesTable renders the stacked-area data of Figures 2 and 5: per-
// interval sample counts for the top regions plus the phase line.
func (c *ChartResult) SamplesTable(figure string, note string, k int) *Table {
	regions := c.topRegions(k)
	t := &Table{
		Title:   fmt.Sprintf("%s: region chart for %s (period %s)", figure, c.Bench, periodLabel(c.Period)),
		Columns: []string{"interval"},
		Notes:   []string{note},
	}
	t.Columns = append(t.Columns, regions...)
	t.Columns = append(t.Columns, "UCR%", "GPD")
	for _, i := range decimate(len(c.Points), 48) {
		pt := &c.Points[i]
		row := []string{itoa(pt.Interval)}
		for _, rn := range regions {
			row = append(row, itoa(pt.Samples[rn]))
		}
		phase := "UNSTABLE"
		if pt.GPDStable {
			phase = "stable"
		}
		row = append(row, pct(pt.UCRFrac), phase)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// RTable renders the Pearson-r series of Figures 10 and 11 for the given
// region names (hottest k when names is nil).
func (c *ChartResult) RTable(figure string, note string, names []string, k int) *Table {
	if names == nil {
		names = c.topRegions(k)
	}
	t := &Table{
		Title:   fmt.Sprintf("%s: Pearson r per region for %s (period %s)", figure, c.Bench, periodLabel(c.Period)),
		Columns: []string{"interval"},
		Notes:   []string{note},
	}
	t.Columns = append(t.Columns, names...)
	for _, i := range decimate(len(c.Points), 48) {
		pt := &c.Points[i]
		row := []string{itoa(pt.Interval)}
		for _, rn := range names {
			if r, ok := pt.R[rn]; ok {
				row = append(row, f3(r))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig2 runs the 181.mcf region chart (Figure 2).
func Fig2(opts Options) (*Table, error) {
	c, err := RunChart(opts, "181.mcf")
	if err != nil {
		return nil, err
	}
	return c.SamplesTable("Figure 2",
		"paper shape: region mix shifts between eras and turns periodic near the end; GPD goes unstable on the shifts and stays unstable through the periodic tail", 6), nil
}

// Fig5 runs the 187.facerec region chart (Figure 5).
func Fig5(opts Options) (*Table, error) {
	c, err := RunChart(opts, "187.facerec")
	if err != nil {
		return nil, err
	}
	return c.SamplesTable("Figure 5",
		"paper shape: execution alternates between two region sets; the GPD phase line spikes on nearly every switch", 6), nil
}

// Fig9 runs the 181.mcf per-region sample series (Figure 9).
func Fig9(opts Options) (*Table, *ChartResult, error) {
	c, err := RunChart(opts, "181.mcf")
	if err != nil {
		return nil, nil, err
	}
	return c.SamplesTable("Figure 9",
		"paper shape: one region dominates early and diminishes; another grows late; behaviour turns periodic", 3), c, nil
}

// Fig10 renders the 181.mcf per-region Pearson-r series (Figure 10),
// reusing a Fig9 chart when provided.
func Fig10(opts Options, chart *ChartResult) (*Table, error) {
	if chart == nil {
		var err error
		chart, err = RunChart(opts, "181.mcf")
		if err != nil {
			return nil, err
		}
	}
	return chart.RTable("Figure 10",
		"paper shape: r stays near 1 for every region despite the global mix shifting — no local phase changes in mcf", nil, 3), nil
}

// Fig11 runs the 254.gap per-region Pearson-r series (Figure 11).
func Fig11(opts Options) (*Table, error) {
	c, err := RunChart(opts, "254.gap")
	if err != nil {
		return nil, err
	}
	// The paper contrasts a stable region with a flakier one: take the
	// hottest region and the one whose r dips below the threshold most
	// often while executing.
	names := []string{c.Regions[0], c.flakiestRegion(c.Regions[0])}
	return c.RTable("Figure 11",
		"paper shape: one region is stable (high r), the other dips repeatedly; r holds its last value while a region is not executing", names, 2), nil
}

package experiments

import (
	"fmt"

	"regionmon/internal/adore"
)

// Fig17Names returns the paper's Figure 17 benchmark subset.
func Fig17Names() []string {
	return []string{"181.mcf", "172.mgrid", "254.gap", "191.fma3d"}
}

// SpeedupCell is one (benchmark, period) RTO comparison.
type SpeedupCell struct {
	Bench  string
	Period uint64
	// Orig and LPD are the two controllers' results.
	Orig, LPD adore.RunResult
	// Speedup is RTO-LPD over RTO-ORIG (Figure 17's bars).
	Speedup float64
}

// SpeedupResult is the Figure 17 measurement set.
type SpeedupResult struct {
	Opts  Options
	Cells []SpeedupCell
}

// RunSpeedup measures Figure 17: speedup of RTO-LPD over RTO-ORIG (the
// centroid-based system that unpatches traces when the phase is unstable)
// for the selected benchmarks at each RTO sampling period. It is
// RunSpeedupParallel on one worker.
func RunSpeedup(opts Options, names []string) (*SpeedupResult, error) {
	return RunSpeedupParallel(opts, names, 1)
}

func runSpeedupCell(opts Options, name string, period uint64) (SpeedupCell, error) {
	runPolicy := func(policy adore.Policy) (adore.RunResult, error) {
		// Fresh benchmark per run: executors own their schedule state.
		bench, err := opts.loadRTOBenchmark(name)
		if err != nil {
			return adore.RunResult{}, err
		}
		cfg := adore.DefaultConfig(policy)
		cfg.Model = adore.ConstantModel(bench.PrefetchSave)
		// Patching overhead scales with the sampling-period scale so
		// reduced-scale tests keep the full-scale cost ratio.
		cfg.PatchCycles = uint64(float64(cfg.PatchCycles) * opts.timeScale())
		if cfg.PatchCycles == 0 {
			cfg.PatchCycles = 1
		}
		rto, err := adore.New(bench.Prog, bench.Sched, opts.hpmConfig(period), cfg)
		if err != nil {
			return adore.RunResult{}, err
		}
		return rto.Run(), nil
	}
	orig, err := runPolicy(adore.PolicyGPD)
	if err != nil {
		return SpeedupCell{}, err
	}
	lpd, err := runPolicy(adore.PolicyLPD)
	if err != nil {
		return SpeedupCell{}, err
	}
	return SpeedupCell{
		Bench:   name,
		Period:  period,
		Orig:    orig,
		LPD:     lpd,
		Speedup: lpd.Sim.Speedup(orig.Sim),
	}, nil
}

// Table renders Figure 17.
func (s *SpeedupResult) Table() *Table {
	t := &Table{
		Title:   "Figure 17: speedup of RTO-LPD over RTO-ORIG (unpatching centroid scheme)",
		Columns: []string{"benchmark"},
		Notes: []string{
			"paper shape: mcf's LPD advantage grows with the sampling period (23.84% at 1.5M); gap's shrinks (9.5% at 100K to 4.9% at 1.5M); mgrid is flat near zero",
		},
	}
	for _, p := range s.Opts.RTOPeriods {
		t.Columns = append(t.Columns, periodLabel(p))
	}
	byBench := map[string][]string{}
	var order []string
	for _, c := range s.Cells {
		if _, ok := byBench[c.Bench]; !ok {
			order = append(order, c.Bench)
			byBench[c.Bench] = []string{c.Bench}
		}
		byBench[c.Bench] = append(byBench[c.Bench], fmt.Sprintf("%+.1f%%", c.Speedup*100))
	}
	for _, b := range order {
		t.Rows = append(t.Rows, byBench[b])
	}
	return t
}

// DetailTable renders the controller internals behind Figure 17 (stable
// fractions, patch churn) — useful when checking the mechanism, not just
// the headline.
func (s *SpeedupResult) DetailTable() *Table {
	t := &Table{
		Title: "Figure 17 detail: controller behaviour per run",
		Columns: []string{"benchmark", "period", "orig stable", "lpd stable",
			"orig patches", "orig unpatch", "lpd patches", "lpd unpatch", "speedup"},
	}
	for _, c := range s.Cells {
		t.Rows = append(t.Rows, []string{
			c.Bench, periodLabel(c.Period),
			pct(c.Orig.StableFraction), pct(c.LPD.StableFraction),
			itoa(c.Orig.Patches), itoa(c.Orig.Unpatches),
			itoa(c.LPD.Patches), itoa(c.LPD.Unpatches),
			fmt.Sprintf("%+.1f%%", c.Speedup*100),
		})
	}
	return t
}

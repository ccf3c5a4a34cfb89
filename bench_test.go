package regionmon

// One testing.B benchmark per figure of the paper's evaluation, each
// regenerating that figure's data through the same code paths as
// cmd/experiments, plus ablation benchmarks for the design choices called
// out in DESIGN.md. Benchmarks run at reduced scale (QuickExperimentOptions:
// period/work ratios identical to full scale); run cmd/experiments for
// full-scale numbers. Key figure quantities are surfaced with
// b.ReportMetric so `go test -bench` output doubles as a results summary.

import (
	"testing"

	"regionmon/internal/experiments"
	"regionmon/internal/workload"
)

func benchOpts() ExperimentOptions { return QuickExperimentOptions() }

// BenchmarkFig02RegionChartMCF regenerates Figure 2: the 181.mcf region
// chart with the GPD phase line.
func BenchmarkFig02RegionChartMCF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chart, err := RunChart(benchOpts(), "181.mcf")
		if err != nil {
			b.Fatal(err)
		}
		unstable := 0
		for _, pt := range chart.Points {
			if !pt.GPDStable {
				unstable++
			}
		}
		b.ReportMetric(float64(len(chart.Points)), "intervals")
		b.ReportMetric(float64(unstable)/float64(len(chart.Points)), "unstable-frac")
	}
}

// BenchmarkFig03GPDPhaseChanges regenerates Figure 3: GPD phase-change
// counts across sampling periods for the 21-benchmark subset.
func BenchmarkFig03GPDPhaseChanges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep, err := RunSweep(benchOpts(), workload.Fig3Names())
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, c := range sweep.Cells {
			total += c.GPDChanges
		}
		if tab := sweep.Fig3Table(); len(tab.Rows) != 21 {
			b.Fatalf("Fig3 rows = %d", len(tab.Rows))
		}
		b.ReportMetric(float64(total), "phase-changes")
	}
}

// BenchmarkFig04GPDStableTime regenerates Figure 4: time in stable phase
// (GPD) across sampling periods.
func BenchmarkFig04GPDStableTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep, err := RunSweep(benchOpts(), workload.Fig3Names())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, c := range sweep.Cells {
			sum += c.GPDStableFrac
		}
		if tab := sweep.Fig4Table(); len(tab.Rows) != 21 {
			b.Fatalf("Fig4 rows = %d", len(tab.Rows))
		}
		b.ReportMetric(sum/float64(len(sweep.Cells)), "mean-stable-frac")
	}
}

// BenchmarkFig05RegionChartFacerec regenerates Figure 5: the 187.facerec
// region chart.
func BenchmarkFig05RegionChartFacerec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chart, err := RunChart(benchOpts(), "187.facerec")
		if err != nil {
			b.Fatal(err)
		}
		unstable := 0
		for _, pt := range chart.Points {
			if !pt.GPDStable {
				unstable++
			}
		}
		b.ReportMetric(float64(unstable)/float64(len(chart.Points)), "unstable-frac")
	}
}

// BenchmarkFig06MedianUCR regenerates Figure 6: median unmonitored-sample
// percentage per benchmark against the 30% threshold (full suite).
func BenchmarkFig06MedianUCR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep, err := RunSweep(benchOpts(), workload.Names())
		if err != nil {
			b.Fatal(err)
		}
		over := 0
		for _, name := range workload.Names() {
			if c := sweep.Cell(name, benchOpts().Periods[1]); c != nil && c.UCRMedian > 0.30 {
				over++
			}
		}
		if tab := sweep.Fig6Table(); len(tab.Rows) == 0 {
			b.Fatal("empty Fig6 table")
		}
		b.ReportMetric(float64(over), "benchmarks-over-threshold")
	}
}

// BenchmarkFig07UCRTimeline regenerates Figure 7: the per-interval UCR
// series for 254.gap and 186.crafty.
func BenchmarkFig07UCRTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep, err := RunSweep(benchOpts(), []string{"254.gap", "186.crafty"})
		if err != nil {
			b.Fatal(err)
		}
		if tab := sweep.Fig7Table(); len(tab.Rows) == 0 {
			b.Fatal("empty Fig7 table")
		}
		gap := sweep.Cell("254.gap", benchOpts().Periods[0])
		b.ReportMetric(gap.UCRMedian, "gap-ucr-median")
	}
}

// BenchmarkFig08PearsonDemo regenerates Figure 8: the Pearson metric
// properties on synthetic distributions.
func BenchmarkFig08PearsonDemo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := Fig8Table()
		if len(tab.Rows) != 2 {
			b.Fatal("Fig8 malformed")
		}
	}
}

// BenchmarkFig09MCFRegions regenerates Figure 9: the per-region sample
// series for 181.mcf's hottest regions.
func BenchmarkFig09MCFRegions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, chart, err := experiments.Fig9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 || len(chart.Regions) < 3 {
			b.Fatal("Fig9 malformed")
		}
	}
}

// BenchmarkFig10MCFCorrelation regenerates Figure 10: Pearson r over time
// for 181.mcf's regions (stays near 1 despite global drift).
func BenchmarkFig10MCFCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chart, err := RunChart(benchOpts(), "181.mcf")
		if err != nil {
			b.Fatal(err)
		}
		tab, err := experiments.Fig10(benchOpts(), chart)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("Fig10 malformed")
		}
		// Mean r across the hottest region's populated intervals.
		var sum float64
		var n int
		hot := chart.Regions[0]
		for _, pt := range chart.Points {
			if r, ok := pt.R[hot]; ok && pt.Samples[hot] > 0 {
				sum += r
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), "mean-r")
		}
	}
}

// BenchmarkFig11GapRegions regenerates Figure 11: the stable-vs-flaky
// region contrast in 254.gap.
func BenchmarkFig11GapRegions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig11(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("Fig11 malformed")
		}
	}
}

// BenchmarkFig13LPDPhaseChanges regenerates Figure 13: per-region LPD
// phase changes across sampling periods for the paper's subset.
func BenchmarkFig13LPDPhaseChanges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep, err := RunSweep(benchOpts(), Fig13BenchmarkNames())
		if err != nil {
			b.Fatal(err)
		}
		if tab := sweep.Fig13Table(); len(tab.Rows) == 0 {
			b.Fatal("empty Fig13 table")
		}
		// The flaky gap region's count at the smallest period (the
		// paper's 120-change outlier).
		gap := sweep.Cell("254.gap", benchOpts().Periods[0])
		maxChanges := 0
		for _, r := range gap.Regions {
			if r.PhaseChanges > maxChanges {
				maxChanges = r.PhaseChanges
			}
		}
		b.ReportMetric(float64(maxChanges), "gap-outlier-changes")
	}
}

// BenchmarkFig14LPDStableTime regenerates Figure 14: per-region locally
// stable time across sampling periods.
func BenchmarkFig14LPDStableTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep, err := RunSweep(benchOpts(), Fig13BenchmarkNames())
		if err != nil {
			b.Fatal(err)
		}
		if tab := sweep.Fig14Table(); len(tab.Rows) == 0 {
			b.Fatal("empty Fig14 table")
		}
		// mcf's hottest region should be stable nearly all the time at
		// every period.
		var worst float64 = 1
		for _, p := range benchOpts().Periods {
			c := sweep.Cell("181.mcf", p)
			if len(c.Regions) > 0 && c.Regions[0].StableFrac < worst {
				worst = c.Regions[0].StableFrac
			}
		}
		b.ReportMetric(worst, "mcf-hot-region-min-stable")
	}
}

// BenchmarkFig15DetectorCost regenerates Figure 15: LPD vs GPD monitoring
// cost on identical sample streams (a representative subset; the full
// suite runs via cmd/experiments -fig 15).
func BenchmarkFig15DetectorCost(b *testing.B) {
	names := []string{"176.gcc", "181.mcf", "172.mgrid", "197.parser"}
	for i := 0; i < b.N; i++ {
		cost, err := RunCost(benchOpts(), names)
		if err != nil {
			b.Fatal(err)
		}
		var maxFactor float64
		for _, r := range cost.Rows {
			if r.Factor > maxFactor {
				maxFactor = r.Factor
			}
		}
		b.ReportMetric(maxFactor, "max-lpd/gpd-factor")
	}
}

// BenchmarkFig16IntervalTree regenerates Figure 16: interval-tree vs list
// sample distribution cost.
func BenchmarkFig16IntervalTree(b *testing.B) {
	names := []string{"176.gcc", "197.parser", "181.mcf", "172.mgrid"}
	for i := 0; i < b.N; i++ {
		tree, err := RunTreeComparison(benchOpts(), names)
		if err != nil {
			b.Fatal(err)
		}
		// gcc (many regions) should show the tree's advantage.
		for _, r := range tree.Rows {
			if r.Bench == "176.gcc" {
				b.ReportMetric(r.Factor, "gcc-tree/list-factor")
			}
		}
	}
}

// BenchmarkFig17RTOSpeedup regenerates Figure 17: speedup of RTO-LPD over
// RTO-ORIG for mcf, mgrid, gap and fma3d across sampling periods.
func BenchmarkFig17RTOSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sp, err := RunSpeedup(benchOpts(), Fig17BenchmarkNames())
		if err != nil {
			b.Fatal(err)
		}
		if tab := sp.Table(); len(tab.Rows) != 4 {
			b.Fatal("Fig17 malformed")
		}
		for _, c := range sp.Cells {
			if c.Bench == "181.mcf" && c.Period == benchOpts().RTOPeriods[len(benchOpts().RTOPeriods)-1] {
				b.ReportMetric(c.Speedup*100, "mcf-speedup-%@1.5M-equiv")
			}
		}
	}
}

// BenchmarkExtDetectorPanel regenerates Extension E1: the Section 4
// related-work comparison (centroid GPD vs basic-block vectors vs
// working-set signatures vs region monitoring) on identical streams.
func BenchmarkExtDetectorPanel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panel, err := RunDetectorPanel(benchOpts(), []string{"187.facerec", "172.mgrid"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range panel.Rows {
			if r.Bench == "187.facerec" {
				b.ReportMetric(float64(r.BBVChanges), "facerec-bbv-changes")
				b.ReportMetric(r.LPDStable, "facerec-lpd-stable")
			}
		}
	}
}

// BenchmarkSystemRun measures a complete System run (executor + sampling
// monitor + GPD + region monitoring through the pipeline) and reports
// allocations per sampling interval. The monitoring hot path reuses all
// per-interval buffers (PC scratch, region histograms, verdict slices),
// so allocs/interval must stay at the amortized noise floor — the gate
// catches regressions that reintroduce per-interval garbage.
func BenchmarkSystemRun(b *testing.B) {
	b.ReportAllocs()
	var intervals int
	for i := 0; i < b.N; i++ {
		bench, err := LoadBenchmark("181.mcf", 0.01)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := NewSystem(bench.Prog, bench.Sched, SystemConfig{
			Sampling: SamplingConfig{Period: 450, BufferSize: 512, JitterFrac: 0.1},
		})
		if err != nil {
			b.Fatal(err)
		}
		stats := sys.Run()
		intervals += stats.Intervals
	}
	b.ReportMetric(float64(intervals)/float64(b.N), "intervals")
}

// TestSystemRunAllocs is the allocation gate behind BenchmarkSystemRun,
// enforced at plain `go test` time: once the detectors are warm, a
// sampling interval through the full System fan-out must not allocate.
func TestSystemRunAllocs(t *testing.T) {
	bench, err := LoadBenchmark("181.mcf", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(bench.Prog, bench.Sched, SystemConfig{
		Sampling: SamplingConfig{Period: 450, BufferSize: 512, JitterFrac: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := sys.RegionMonitor()
	sys.Run() // warm-up: form regions, size every scratch buffer
	if len(mon.Regions()) == 0 {
		t.Fatal("no regions formed during warm-up")
	}
	// Replay a synthetic steady interval through the pipeline directly.
	pipe := sys.Pipeline()
	r := mon.Regions()[0]
	ov := &Overflow{Samples: make([]Sample, 512)}
	for i := range ov.Samples {
		ov.Samples[i] = Sample{PC: r.Start + Addr(i%r.NumInstrs())*4, Instrs: 10}
	}
	avg := testing.AllocsPerRun(200, func() {
		ov.Seq++
		pipe.ProcessOverflow(ov)
	})
	if avg != 0 {
		t.Errorf("steady-state interval allocates %.2f allocs; want 0", avg)
	}
}

// --- Ablation benchmarks (DESIGN.md section 5) ---

// BenchmarkAblationGPDThresholdTH3 sweeps the stability-exit threshold:
// the centroid scheme's phase-change count swings wildly with TH3 — the
// brittleness Section 2.3 claims.
func BenchmarkAblationGPDThresholdTH3(b *testing.B) {
	for _, th3 := range []float64{0.05, 0.10, 0.20} {
		b.Run(percent(th3), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench, err := LoadBenchmark("181.mcf", 0.01)
				if err != nil {
					b.Fatal(err)
				}
				gcfg := DefaultGlobalConfig()
				gcfg.TH3 = th3
				if gcfg.TH4 < th3 {
					gcfg.TH4 = th3
				}
				sys, err := NewSystem(bench.Prog, bench.Sched, SystemConfig{
					Sampling: SamplingConfig{Period: 450, BufferSize: 512, JitterFrac: 0.1},
					Global:   &gcfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				stats := sys.Run()
				b.ReportMetric(float64(stats.GlobalPhaseChanges), "phase-changes")
			}
		})
	}
}

// BenchmarkAblationLPDSizeScaledThreshold compares the fixed r_t = 0.8
// against the paper's proposed region-size-scaled threshold on 188.ammp
// (the Section 3.2.2 granularity breakdown).
func BenchmarkAblationLPDSizeScaledThreshold(b *testing.B) {
	for _, scaled := range []bool{false, true} {
		name := "fixed-rt"
		if scaled {
			name = "size-scaled-rt"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench, err := LoadBenchmark("188.ammp", 0.01)
				if err != nil {
					b.Fatal(err)
				}
				rcfg := DefaultRegionConfig()
				rcfg.Detector.ScaleRTBySize = scaled
				sys, err := NewSystem(bench.Prog, bench.Sched, SystemConfig{
					Sampling: SamplingConfig{Period: 450, BufferSize: 512, JitterFrac: 0.1},
					Region:   &rcfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				sys.Run()
				var worst float64 = 1
				for _, r := range sys.RegionMonitor().Regions() {
					if f := r.Detector.StableFraction(); f < worst {
						worst = f
					}
				}
				b.ReportMetric(worst, "min-region-stable-frac")
			}
		})
	}
}

// BenchmarkAblationSimilarityMetric compares detection behaviour of the
// three similarity metrics on the same workload (cost is benchmarked in
// internal/lpd; this reports stability quality).
func BenchmarkAblationSimilarityMetric(b *testing.B) {
	metrics := map[string]SimilarityMetric{
		"pearson":   MetricPearson,
		"manhattan": MetricManhattan,
		"topk":      MetricTopK,
	}
	for name, m := range metrics {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench, err := LoadBenchmark("181.mcf", 0.01)
				if err != nil {
					b.Fatal(err)
				}
				rcfg := DefaultRegionConfig()
				rcfg.Detector.Metric = m
				sys, err := NewSystem(bench.Prog, bench.Sched, SystemConfig{
					Sampling: SamplingConfig{Period: 450, BufferSize: 512, JitterFrac: 0.1},
					Region:   &rcfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				sys.Run()
				changes := 0
				for _, r := range sys.RegionMonitor().Regions() {
					changes += r.Detector.PhaseChanges()
				}
				b.ReportMetric(float64(changes), "local-phase-changes")
			}
		})
	}
}

// BenchmarkAblationRegionPruning measures the paper's proposed region
// pruning (Section 3.2.3 future work): monitored-region count and
// monitoring cost with and without pruning on a many-region benchmark.
func BenchmarkAblationRegionPruning(b *testing.B) {
	for _, prune := range []int{0, 8} {
		name := "no-pruning"
		if prune > 0 {
			name = "prune-after-8"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench, err := LoadBenchmark("176.gcc", 0.01)
				if err != nil {
					b.Fatal(err)
				}
				rcfg := DefaultRegionConfig()
				rcfg.PruneAfter = prune
				sys, err := NewSystem(bench.Prog, bench.Sched, SystemConfig{
					Sampling: SamplingConfig{Period: 450, BufferSize: 512, JitterFrac: 0.1},
					Region:   &rcfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				// Pruning's benefit is the *average* monitored-region
				// count (each interval's distribution and detection cost
				// scales with it), not the final count.
				var regionIntervals, intervals int
				sys.AddObserver(func(rep *PipelineReport) {
					intervals++
					if v := rep.Verdict(DetectorRegions); v != nil {
						regionIntervals += len(v.Payload.(*RegionReport).Verdicts)
					}
				})
				sys.Run()
				if intervals > 0 {
					b.ReportMetric(float64(regionIntervals)/float64(intervals), "mean-regions")
				}
			}
		})
	}
}

// BenchmarkAblationAnnotations measures the Section 3.1 future-work
// extension: compiler annotations covering 254.gap's interpreter code (the
// straight-line spans the loop finder cannot cover) versus the baseline.
// The metric is the median unmonitored-sample fraction — the paper's
// Figure 6/7 quantity, which the annotations should pull under the 30%
// threshold.
func BenchmarkAblationAnnotations(b *testing.B) {
	for _, annotated := range []bool{false, true} {
		name := "baseline"
		if annotated {
			name = "compiler-annotations"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench, err := LoadBenchmark("254.gap", 0.01)
				if err != nil {
					b.Fatal(err)
				}
				rcfg := DefaultRegionConfig()
				if annotated {
					for j, s := range bench.Straight {
						rcfg.Annotations = append(rcfg.Annotations, Annotation{
							Start: s.Start, End: s.End,
							Name: "interp-" + itoa(j),
						})
					}
				}
				sys, err := NewSystem(bench.Prog, bench.Sched, SystemConfig{
					Sampling: SamplingConfig{Period: 450, BufferSize: 512, JitterFrac: 0.1},
					Region:   &rcfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				stats := sys.Run()
				b.ReportMetric(stats.UCRMedian, "median-ucr")
			}
		})
	}
}

// BenchmarkAblationInterProcedural measures the other Section 3.1
// extension on the same workload: whole-procedure regions around hot
// non-loop code.
func BenchmarkAblationInterProcedural(b *testing.B) {
	for _, inter := range []bool{false, true} {
		name := "baseline"
		if inter {
			name = "inter-procedural"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench, err := LoadBenchmark("186.crafty", 0.01)
				if err != nil {
					b.Fatal(err)
				}
				rcfg := DefaultRegionConfig()
				rcfg.InterProcedural = inter
				sys, err := NewSystem(bench.Prog, bench.Sched, SystemConfig{
					Sampling: SamplingConfig{Period: 450, BufferSize: 512, JitterFrac: 0.1},
					Region:   &rcfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				stats := sys.Run()
				b.ReportMetric(stats.UCRMedian, "median-ucr")
			}
		})
	}
}

func percent(v float64) string {
	return "TH3=" + itoa(int(v*100)) + "%"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

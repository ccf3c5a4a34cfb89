// Command rto runs one synthetic SPEC CPU2000 benchmark under the runtime
// optimization system and prints the controller's behaviour: phase
// changes, trace patches/unpatches, region formation, and the resulting
// cycle counts. Run it twice (-policy gpd, -policy lpd) to see the
// paper's comparison on a single workload, or use -compare to do both in
// one invocation.
//
// Usage:
//
//	rto -bench 181.mcf -period 100000 -policy lpd -events 20
//	rto -bench 254.gap -period 1500000 -compare
//	rto -list
package main

import (
	"flag"
	"fmt"
	"os"

	"regionmon/internal/adore"
	"regionmon/internal/hpm"
	"regionmon/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "181.mcf", "benchmark name (see -list)")
		list    = flag.Bool("list", false, "list benchmarks and exit")
		period  = flag.Uint64("period", 100_000, "sampling period in cycles/interrupt")
		buffer  = flag.Int("buffer", 512, "sample buffer size")
		policy  = flag.String("policy", "lpd", "controller: gpd, lpd or none")
		scale   = flag.Float64("scale", 1, "work scale (1 = ~10G cycles)")
		events  = flag.Int("events", 12, "most recent controller events to print (<0 = all)")
		compare = flag.Bool("compare", false, "run gpd and lpd and report the speedup")
		selfmon = flag.Bool("selfmonitor", false, "enable optimization self-monitoring (lpd)")
	)
	flag.Parse()

	if *list {
		for _, n := range workload.Names() {
			b, err := workload.ByName(n, 0.0001)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rto:", err)
				os.Exit(1)
			}
			fmt.Printf("%-14s %s\n", n, b.Description)
		}
		return
	}

	if *compare {
		if err := runCompare(*bench, *period, *buffer, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "rto:", err)
			os.Exit(1)
		}
		return
	}

	pol, err := parsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rto:", err)
		os.Exit(1)
	}

	res, err := runOne(*bench, *period, *buffer, *scale, pol, *selfmon, *events)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rto:", err)
		os.Exit(1)
	}
	printResult(res)
}

// parsePolicy maps the -policy flag value to a controller policy.
func parsePolicy(s string) (adore.Policy, error) {
	switch s {
	case "gpd":
		return adore.PolicyGPD, nil
	case "lpd":
		return adore.PolicyLPD, nil
	case "none":
		return adore.PolicyNone, nil
	default:
		return adore.PolicyNone, fmt.Errorf("unknown policy %q (want gpd, lpd or none)", s)
	}
}

// runOne runs bench under pol and keeps the last events controller
// events of the result (all of them when events is negative).
func runOne(bench string, period uint64, buffer int, scale float64, pol adore.Policy, selfmon bool, events int) (adore.RunResult, error) {
	b, err := workload.ByName(bench, scale)
	if err != nil {
		return adore.RunResult{}, err
	}
	cfg := adore.DefaultConfig(pol)
	cfg.Model = adore.ConstantModel(b.PrefetchSave)
	cfg.SelfMonitor = selfmon && pol == adore.PolicyLPD
	rto, err := adore.New(b.Prog, b.Sched, hpm.Config{Period: period, BufferSize: buffer, JitterFrac: 0.1}, cfg)
	if err != nil {
		return adore.RunResult{}, err
	}
	res := rto.Run()
	if events >= 0 && len(res.Events) > events {
		res.Events = res.Events[len(res.Events)-events:]
	}
	return res, nil
}

func printResult(res adore.RunResult) {
	fmt.Printf("policy          %v\n", res.Policy)
	fmt.Printf("base cycles     %d\n", res.Sim.BaseCycles)
	fmt.Printf("actual cycles   %d\n", res.Sim.Cycles)
	fmt.Printf("instructions    %d\n", res.Sim.Instrs)
	fmt.Printf("intervals       %d\n", res.Sim.Overflows)
	fmt.Printf("phase changes   %d\n", res.PhaseChanges)
	fmt.Printf("stable fraction %.1f%%\n", res.StableFraction*100)
	fmt.Printf("patches         %d\n", res.Patches)
	fmt.Printf("unpatches       %d\n", res.Unpatches)
	if res.HarmUndos > 0 {
		fmt.Printf("harm undos      %d\n", res.HarmUndos)
	}
	if res.Regions > 0 {
		fmt.Printf("regions         %d\n", res.Regions)
	}
	if len(res.Events) > 0 {
		fmt.Println("events:")
		for _, ev := range res.Events {
			region := ev.Region
			if region == "" {
				region = "(global)"
			}
			fmt.Printf("  cycle %12d  seq %4d  %-12v %-14s %s\n", ev.Cycle, ev.Seq, ev.Kind, region, ev.Detail)
		}
	}
}

func runCompare(bench string, period uint64, buffer int, scale float64) error {
	orig, err := runOne(bench, period, buffer, scale, adore.PolicyGPD, false, 0)
	if err != nil {
		return err
	}
	lpd, err := runOne(bench, period, buffer, scale, adore.PolicyLPD, false, 0)
	if err != nil {
		return err
	}
	none, err := runOne(bench, period, buffer, scale, adore.PolicyNone, false, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %15s %15s %15s\n", "", "no-RTO", "RTO-ORIG(gpd)", "RTO-LPD")
	fmt.Printf("%-22s %15d %15d %15d\n", "cycles", none.Sim.Cycles, orig.Sim.Cycles, lpd.Sim.Cycles)
	fmt.Printf("%-22s %15s %15.1f%% %14.1f%%\n", "stable fraction", "-", orig.StableFraction*100, lpd.StableFraction*100)
	fmt.Printf("%-22s %15s %15d %15d\n", "patches", "-", orig.Patches, lpd.Patches)
	fmt.Printf("%-22s %15s %15d %15d\n", "phase changes", "-", orig.PhaseChanges, lpd.PhaseChanges)
	fmt.Printf("\nspeedup RTO-ORIG over no-RTO: %+.2f%%\n", orig.Sim.Speedup(none.Sim)*100)
	fmt.Printf("speedup RTO-LPD  over no-RTO: %+.2f%%\n", lpd.Sim.Speedup(none.Sim)*100)
	fmt.Printf("speedup RTO-LPD  over RTO-ORIG: %+.2f%%  (the Figure 17 quantity)\n", lpd.Sim.Speedup(orig.Sim)*100)
	return nil
}

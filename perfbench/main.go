// Command perfbench is the repository's benchmark: one program that
// measures the monitoring system end to end and layer by layer, on two
// workloads chosen to load different layers, and reports a number only
// after every verdict digest checks out.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload spec-replay|fleet-full \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it are
// the human-readable report, the machine block and every replicate.
//
// # Workloads
//
// Both are closed loops with one producer, the goroutine that runs the
// benchmark. Each repetition replays the same generated inputs through
// freshly built stacks, so every repetition's digests must be identical
// and the per-repetition figures are replicates of one measurement.
//
//   - spec-replay: one model per internal/workload archetype (164.gzip
//     steady, 181.mcf drift, 176.gcc many regions, 186.crafty high UCR,
//     187.facerec alternating, 188.ammp one huge region), run through sim
//     and hpm with the paper's 2032-sample buffer at 1/100 of its 45K
//     sampling period and time scale. The recorded overflows are replayed
//     in-process through the paper's stack (centroid GPD with its CPI
//     tracker, and the region monitor), one ProcessOverflow call per
//     interval. Chosen because it is Figure 15's measurement and the
//     paper's deployment: region monitoring does most of the work, with
//     up to a few hundred regions and several samples per distinct PC.
//     It loads region, gpd, pipeline and vhash; ingest does nothing.
//     The seed is hpm's jitter seed (0 selects hpm's fixed default).
//   - fleet-full: 64 soak.Workload streams of 640 96-sample intervals
//     (one pass through soak's four 160-interval phases) through
//     soak.NewStack (all six detectors) on an ingest fleet with one shard
//     per CPU, pushed with PushBatchWait in batches of 16. Chosen because
//     it is detector-bound: changepoint dominates, then altdetect and
//     region; rings stay full and same-stream runs are long, and the
//     region monitor sees small buffers and formation churn, the opposite
//     of spec-replay (the default configuration never prunes, so
//     region.regions_pruned reads 0 on both). It loads changepoint,
//     altdetect, region, gpd, pipeline and ingest. Its seed is the base
//     of the per-stream soak.Workload seeds: stream s uses
//     seed + s*0x9e3779b97f4a7c15.
//
// A transport-bound fleet (many streams of tiny intervals through the GPD
// stack alone, pushed one interval at a time) was left out: on a shared
// 2-CPU virtual machine its throughput drifted by up to a fifth between
// identical runs a minute apart, too much for a regression bound.
//
// # Latency
//
// Spec-replay times each ProcessOverflow call. Fleet-full times each
// interval's service time on its shard, from the shard's previous verdict
// to this one's (end-marker stamps), which covers the ring hand-off, any
// wait for the producer and every detector; in this closed loop the time
// from push to verdict would be mostly ring residence, which follows from
// throughput.
//
// Every repetition replays the same inputs, so each interval's latency is
// measured once per repetition. An interval's latency is its median over
// the repetitions (up to 64, spread over the run), and the p50 and p99
// are taken across intervals. The median filters out stalls that hit an
// interval in a minority of repetitions: on a shared virtual machine the
// host's CPU steal comes in bursts that left the pooled p50 of
// spec-replay's calls flat but multiplied their pooled p99 by up to five
// for minutes at a time, more than any regression bound can hold. Stalls
// the program causes on the same intervals in every repetition survive
// the median; the report also gives the pooled quantiles.
//
// # Figure 15
//
// fig15_overhead_pct relates monitoring time to the program time it
// monitors, at experiments.SimClockHz. For spec-replay it is the median
// replay time over the models' cycles scaled back to the paper's 45K
// period; for fleet-full it is the median repetition's wall time times
// the shard count over the samples' program time, one paper sampling
// period per sample.
//
// # Verdict gate
//
// Every repetition's per-stream vhash digests are checked before any
// number is reported. With the default seed they must equal the digests
// stored in expected_digests.json. With any other seed, fleet-full's
// digests must equal an untimed pipeline.ObserveBatch replay of the same
// inputs, and spec-replay's the live sim→hpm→pipeline pass made while
// recording. A dropped interval counts as failed, and so does every
// interval of a stream whose digest mismatches; with any failure the
// metrics are withheld and the exit code is 1.
//
// # Tracing
//
// --trace 1 runs the workload untraced, then traced, and for fleet-full
// untraced again on one shard for ingest.shard_speedup; it reports the
// per-layer metrics. The benchmark's own build function re-registers each
// detector inside a timing pipeline.PhaseDetector that forwards Name and
// the verdict; the first wrapper stamps the interval's start and an
// end-marker observer its end, and the producer stamps its push calls.
// Spans are keyed by stream and sequence number and kept in preallocated
// per-stream buffers, written out as CSV at exit (--trace-out). The
// traced digests must equal the untraced ones. A layer the workload does
// not run reports 0.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the stored expected digests were made with.
const defaultSeed = 1

//go:embed expected_digests.json
var expectedJSON []byte

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool // test-sized inputs
	// Set-up runs at least setupReps times and for at least setupTime;
	// its median is reported.
	setupReps int
	setupTime time.Duration
	minReps   int
	// expected holds, per workload, the digests every stream must
	// reproduce; with none, the gate computes the reference itself.
	expected map[string][]uint64
}

// budgets splits the measuring time: all of it untraced for --trace 0;
// for --trace 1, untraced and traced halves, less a fifth for the
// one-shard fleet run that the shard speedup needs.
type budgets struct{ untraced, traced, solo time.Duration }

func (c config) budgets() budgets {
	total := time.Duration(c.seconds * float64(time.Second))
	if !c.trace {
		return budgets{untraced: total}
	}
	if c.workload == "spec-replay" {
		return budgets{untraced: total / 2, traced: total / 2}
	}
	return budgets{untraced: total * 2 / 5, traced: total * 2 / 5, solo: total / 5}
}

// outcome is one workload run's result and report.
type outcome struct {
	attempted, failed int64
	metrics           metricSet
	report            []string
	// replicates keeps every repetition's value, not just the median.
	replicates map[string][]float64
	spans      []span // the last traced repetition
	// untraced and traced hold the last repetition's per-stream digests.
	untraced, traced []uint64
}

func newOutcome() *outcome {
	return &outcome{metrics: metricSet{}, replicates: map[string][]float64{}}
}

func (o *outcome) addf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// run dispatches one workload.
func run(cfg config) (*outcome, error) {
	switch cfg.workload {
	case "spec-replay":
		return runSpecReplay(cfg)
	case "fleet-full":
		return runFleet(cfg, fleetFull(cfg.tiny))
	}
	return nil, fmt.Errorf("unknown workload %q (want spec-replay or fleet-full)", cfg.workload)
}

// repeat runs fn at least minReps times and until budget has elapsed.
func repeat(budget time.Duration, minReps int, fn func() error) error {
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// quantile returns the q-quantile of vs (nearest rank) after sorting vs
// in place.
func quantile(vs []int64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	return float64(vs[min(max(i, 0), len(vs)-1)])
}

// maxLatencyReps bounds the repetitions whose per-interval latencies are
// kept.
const maxLatencyReps = 64

// latencyReps keeps every interval's latency from up to maxLatencyReps
// repetitions, spread evenly over the run: when full it drops every other
// kept repetition and keeps every second one from then on. Every
// repetition replays the same inputs, so an interval's median over them
// is its cost with the machine's interference filtered out, and the
// quantiles across those medians are the workload's latency
// distribution.
type latencyReps struct {
	reps   [][]int32 // [kept repetition][interval], nanoseconds
	stride int
	seen   int
}

func (l *latencyReps) add(lat []int64) {
	r := l.seen
	l.seen++
	if l.stride == 0 {
		l.stride = 1
	}
	if r%l.stride != 0 {
		return
	}
	if len(l.reps) == maxLatencyReps {
		kept := l.reps[:0]
		for i := 0; i < len(l.reps); i += 2 {
			kept = append(kept, l.reps[i])
		}
		l.reps = kept
		l.stride *= 2
		if r%l.stride != 0 {
			return
		}
	}
	row := make([]int32, len(lat))
	for i, v := range lat {
		row[i] = int32(min(v, math.MaxInt32))
	}
	l.reps = append(l.reps, row)
}

// result returns the p50 and p99, in nanoseconds, of the intervals'
// median latencies.
func (l *latencyReps) result() (p50, p99 float64) {
	if len(l.reps) == 0 {
		return 0, 0
	}
	meds := make([]int64, len(l.reps[0]))
	col := make([]int64, len(l.reps))
	for i := range meds {
		for r, row := range l.reps {
			col[r] = int64(row[i])
		}
		meds[i] = int64(quantile(col, 0.5))
	}
	return quantile(meds, 0.50), quantile(meds, 0.99)
}

// pooled returns the p50 and p99, in nanoseconds, of every kept latency
// pooled, with interference left in; it is reported, not gated.
func (l *latencyReps) pooled() (p50, p99 float64) {
	var all []int64
	for _, row := range l.reps {
		for _, v := range row {
			all = append(all, int64(v))
		}
	}
	return quantile(all, 0.50), quantile(all, 0.99)
}

func (l *latencyReps) String() string {
	n := 0
	if len(l.reps) > 0 {
		n = len(l.reps[0])
	}
	p50, p99 := l.result()
	q50, q99 := l.pooled()
	return fmt.Sprintf("p50 %.1f us, p99 %.1f us over %d intervals, each the median of %d of %d repetitions; pooled over those %d samples p50 %.1f us, p99 %.1f us",
		p50/1e3, p99/1e3, n, len(l.reps), l.seen, n*len(l.reps), q50/1e3, q99/1e3)
}

// median returns the median of vs without reordering it.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapAlloc returns the live heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// machine identifies where a result was measured, so results from
// different machines never share a series.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Shards     int    `json:"shards"`
}

func machineBlock(workload string) machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if workload != "spec-replay" {
		m.Shards = runtime.NumCPU()
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// result is the final output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// emit prints the report, the machine block and replicates, and the
// result line last. Metrics are withheld unless every interval passed; it
// reports whether they did.
func emit(w io.Writer, cfg config, o *outcome) (bool, error) {
	for _, line := range o.report {
		fmt.Fprintln(w, "#", line)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"machine": machineBlock(cfg.workload), "replicates": o.replicates,
	}); err != nil {
		return false, err
	}
	res := result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: metricSet{}}
	if res.Correct {
		res.Metrics = o.metrics
	}
	return res.Correct, enc.Encode(res)
}

// writeSpans writes the last traced repetition's spans as CSV, one row
// per interval: its id (stream<<32 | seq), then in nanoseconds the
// pipeline span, the ProcessOverflow call or the push call, the digest
// observer and each detector's span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "id,stream,seq,start_ns,end_ns,call_ns,push_start_ns,push_end_ns,observer_ns")
	for i := 0; i < maxDetectors; i++ {
		fmt.Fprintf(w, ",det%d_ns", i)
	}
	fmt.Fprintln(w)
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d", uint64(s.stream)<<32|uint64(uint32(s.seq)), s.stream, s.seq, s.start, s.end, s.call, s.pushStart, s.pushEnd, s.obs)
		for _, d := range s.det {
			fmt.Fprintf(w, ",%d", d)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// storedDigests parses expected_digests.json: per workload, one digest
// per stream (per model for spec-replay), as hex strings.
func storedDigests() (map[string][]uint64, error) {
	var raw struct {
		Seed    uint64              `json:"seed"`
		Digests map[string][]string `json:"digests"`
	}
	if err := json.Unmarshal(expectedJSON, &raw); err != nil {
		return nil, fmt.Errorf("expected_digests.json: %w", err)
	}
	if raw.Seed != defaultSeed {
		return nil, fmt.Errorf("expected_digests.json was made with seed %d, not the default %d", raw.Seed, defaultSeed)
	}
	out := map[string][]uint64{}
	for w, hex := range raw.Digests {
		for _, h := range hex {
			d, err := strconv.ParseUint(h, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("expected_digests.json: %s: %w", w, err)
			}
			out[w] = append(out[w], d)
		}
	}
	return out, nil
}

// writeExpected computes every workload's reference digests at the
// default seed and writes them in expected_digests.json's format.
func writeExpected(path string) error {
	digests := map[string][]string{}
	hexes := func(ds []uint64) []string {
		out := make([]string, len(ds))
		for i, d := range ds {
			out[i] = fmt.Sprintf("%#016x", d)
		}
		return out
	}
	recs, err := recordSpec(defaultSeed, specTimeScale)
	if err != nil {
		return err
	}
	live := make([]uint64, len(recs))
	for m, r := range recs {
		live[m] = r.live
	}
	digests["spec-replay"] = hexes(live)
	shape := fleetFull(false)
	inputs, err := generate(shape, defaultSeed)
	if err != nil {
		return err
	}
	ds, err := replayReference(shape, inputs)
	if err != nil {
		return err
	}
	digests[shape.name] = hexes(ds)
	b, err := json.MarshalIndent(map[string]any{"seed": defaultSeed, "digests": digests}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var (
		workload = flag.String("workload", "", "spec-replay or fleet-full")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds  = flag.Float64("seconds", 10, "measuring time")
		trace    = flag.Int("trace", 0, "1 runs the traced layer breakdown")
		traceOut = flag.String("trace-out", "", "directory for the traced spans CSV (none when empty)")
		expected = flag.String("write-expected", "", "write the default seed's reference digests to this file and exit")
	)
	flag.Parse()
	if *expected != "" {
		if err := writeExpected(*expected); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	// Set-up is timed over and over for a few seconds (several times
	// over for spec-replay's, which takes most of a second) and the
	// median reported.
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		setupReps: 5, setupTime: 6 * time.Second, minReps: 3}
	if cfg.seed == defaultSeed {
		stored, err := storedDigests()
		if err != nil {
			fatal(err)
		}
		if stored[cfg.workload] == nil {
			fatal(fmt.Errorf("expected_digests.json holds no digests for %q", cfg.workload))
		}
		cfg.expected = stored
	}
	o, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" && cfg.trace {
		if err := os.MkdirAll(*traceOut, 0o755); err != nil {
			fatal(err)
		}
		if err := writeSpans(fmt.Sprintf("%s/%s.spans.csv", *traceOut, cfg.workload), o.spans); err != nil {
			fatal(err)
		}
	}
	correct, err := emit(os.Stdout, cfg, o)
	if err != nil {
		fatal(err)
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

var workloads = []string{"spec-replay", "fleet-full"}

// tinyConfig runs a workload on test-sized inputs for about as long as
// two repetitions take.
func tinyConfig(workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0, trace: trace, tiny: true, setupReps: 1, minReps: 2}
}

// declared is one BENCHMARK.json metric entry.
type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) (names []string, e2e, layers []declared) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	return names, doc.EndToEnd, doc.PerLayer
}

// TestMetricTableMatchesBenchmarkJSON keeps the emitted names, units and
// directions in step with the declarations the benchmark is judged by,
// and every declared workload runnable.
func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	names, e2e, layers := loadBenchmarkJSON(t)
	if len(names) < 2 {
		t.Errorf("BENCHMARK.json declares %d workloads, want at least 2", len(names))
	}
	for _, n := range names {
		if !slices.Contains(workloads, n) {
			t.Errorf("BENCHMARK.json declares workload %q, which perfbench does not run", n)
		}
	}
	for _, c := range []struct {
		kind string
		got  []declared
		want []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layers, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the table %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			g := c.got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, table %s/%s/%s", c.kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if (c.kind == "end_to_end") != (g.Bound != nil) {
				t.Errorf("%s %s: bound present %v", c.kind, g.Name, g.Bound != nil)
			}
		}
	}
	for _, name := range soakDetectors {
		if layerOf[name] == "" {
			t.Errorf("detector %q has no layer", name)
		}
	}
}

// TestTinyWorkloads runs every workload untraced and traced on tiny
// inputs: every declared metric must be emitted with its unit, the
// verdict gate must pass, and traced digests must equal untraced ones.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := tinyConfig(w, trace)
				o, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res := emitted(t, cfg, o)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace %v: correct %v, attempted %d, failed %d\n%s", trace, res.Correct, res.Attempted, res.Failed, strings.Join(o.report, "\n"))
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics emitted, %d declared", trace, len(res.Metrics), len(want))
				}
				for _, d := range want {
					got, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("trace %v: %s not emitted", trace, d.Name)
						continue
					}
					if got.Unit != d.Unit {
						t.Errorf("trace %v: %s unit %q, want %q", trace, d.Name, got.Unit, d.Unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("%s = %v, want a positive end-to-end value", d.Name, got.Value)
					}
				}
				if trace {
					if len(o.traced) == 0 || len(o.traced) != len(o.untraced) {
						t.Fatalf("traced digests %d, untraced %d", len(o.traced), len(o.untraced))
					}
					for i := range o.traced {
						if o.traced[i] != o.untraced[i] {
							t.Errorf("stream %d: traced digest %#x, untraced %#x", i, o.traced[i], o.untraced[i])
						}
					}
					if len(o.spans) == 0 {
						t.Error("traced run kept no spans")
					}
					for _, s := range o.spans {
						inPush := s.pushStart <= s.start && s.pushStart < s.pushEnd
						if s.start > s.end || (w != "spec-replay" && !inPush) || (w == "spec-replay" && s.call < s.end-s.start) {
							t.Fatalf("span %d/%d out of order: %+v", s.stream, s.seq, s)
						}
					}
				}
			}
		})
	}
}

// emitted runs emit and parses its last line, as a caller of the
// benchmark would.
func emitted(t *testing.T, cfg config, o *outcome) result {
	t.Helper()
	var buf bytes.Buffer
	correct, err := emit(&buf, cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if correct != res.Correct {
		t.Errorf("emit reported %v, printed %v", correct, res.Correct)
	}
	return res
}

// references computes a tiny workload's reference digests the way the
// gate does for a non-default seed.
func references(t *testing.T, cfg config) []uint64 {
	t.Helper()
	if cfg.workload == "spec-replay" {
		recs, err := recordSpec(cfg.seed, specTimeScale/10)
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]uint64, len(recs))
		for m, r := range recs {
			ds[m] = r.live
		}
		return ds
	}
	shape := fleetFull(true)
	inputs, err := generate(shape, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := replayReference(shape, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestCorruptedDigestFailsIntervals corrupts one expected digest: every
// interval of that stream, in every repetition, must count as failed,
// and the metrics must be withheld.
func TestCorruptedDigestFailsIntervals(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(w, false)
			want := references(t, cfg)
			want[1] ^= 1
			cfg.expected = map[string][]uint64{w: want}
			o, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := emitted(t, cfg, o)
			if res.Correct || len(res.Metrics) != 0 {
				t.Fatalf("correct %v with %d metrics, want the gate to withhold them", res.Correct, len(res.Metrics))
			}
			perStream := int64(fleetFull(true).intervals)
			if w == "spec-replay" {
				recs, err := recordSpec(cfg.seed, specTimeScale/10)
				if err != nil {
					t.Fatal(err)
				}
				perStream = int64(len(recs[1].overflows))
			}
			reps := int64(len(o.replicates["intervals_per_s"]))
			if res.Failed != perStream*reps {
				t.Errorf("failed %d, want %d intervals x %d repetitions", res.Failed, perStream, reps)
			}
		})
	}
}

// TestStoredDigestsMatchReference checks expected_digests.json against a
// fresh reference computation at the default seed and full size.
func TestStoredDigestsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size reference replay")
	}
	stored, err := storedDigests()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeExpected(dir + "/expected.json"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dir + "/expected.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, expectedJSON) {
		t.Errorf("expected_digests.json is stale; regenerate with --write-expected")
	}
	for _, w := range workloads {
		if len(stored[w]) == 0 {
			t.Errorf("no stored digests for %s", w)
		}
	}
}

// TestLatencyRepsSpreadsKeptRepetitions feeds more repetitions than are
// kept: the kept ones must stay evenly spread over the whole run.
func TestLatencyRepsSpreadsKeptRepetitions(t *testing.T) {
	var l latencyReps
	for r := 0; r < 200; r++ {
		l.add([]int64{int64(r), 7})
	}
	if len(l.reps) > maxLatencyReps || l.stride != 4 {
		t.Fatalf("kept %d repetitions at stride %d, want at most %d at stride 4", len(l.reps), l.stride, maxLatencyReps)
	}
	for i, row := range l.reps {
		if int(row[0]) != i*l.stride {
			t.Fatalf("kept repetition %d is run repetition %d, want %d", i, row[0], i*l.stride)
		}
	}
	if p50, p99 := l.result(); p50 != 7 || p99 != 96 {
		t.Errorf("p50 %v p99 %v, want 7 and 96 (the nearest-rank median of 0, 4, ..., 196)", p50, p99)
	}
	// Pooled: fifty 7s and 0, 4, ..., 196.
	if p50, p99 := l.pooled(); p50 != 7 || p99 != 192 {
		t.Errorf("pooled p50 %v p99 %v, want 7 and 192", p50, p99)
	}
}

// TestLatencyRepsKeepsRecurringStalls stalls two intervals in every
// repetition and two others in each: the recurring stalls reach the p99,
// the scattered ones only the pooled p99.
func TestLatencyRepsKeepsRecurringStalls(t *testing.T) {
	var l latencyReps
	for r := 0; r < 5; r++ {
		lat := make([]int64, 100)
		for i := range lat {
			lat[i] = 10
		}
		lat[0], lat[1] = 1000, 1000
		lat[2+2*r], lat[3+2*r] = 2000, 2000
		l.add(lat)
	}
	if p50, p99 := l.result(); p50 != 10 || p99 != 1000 {
		t.Errorf("p50 %v p99 %v, want 10 and the recurring stalls' 1000", p50, p99)
	}
	if _, p99 := l.pooled(); p99 != 2000 {
		t.Errorf("pooled p99 %v, want the scattered stalls' 2000", p99)
	}
}

// TestFleetLatenciesFollowVerdictOrder sets verdict stamps by hand: each
// interval's service time is the gap to the previous verdict on its
// shard, across streams, and a shard's first is measured from the first
// push.
func TestFleetLatenciesFollowVerdictOrder(t *testing.T) {
	b := &fleetBench{shape: fleetShape{streams: 3, intervals: 2}, lat: make([]int64, 6), order: make([]int32, 0, 6)}
	// Shard 0 runs streams 0 and 2 interleaved, shard 1 stream 1.
	ends := [][]int64{{110, 140}, {105, 125}, {120, 150}}
	recs := make([]*recorder, len(ends))
	for s := range recs {
		recs[s] = newRecorder(s, 2, false)
		recs[s].n = copy(recs[s].ends, ends[s])
	}
	got := b.latencies(recs, &fleetRep{t0: 100, shardOf: []int{0, 1, 0}}, 2)
	if want := []int64{10, 20, 5, 20, 10, 10}; !slices.Equal(got, want) {
		t.Errorf("service times %v, want %v", got, want)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	vs := []int64{5, 1, 4, 2, 3}
	if got := quantile(vs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := quantile(vs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

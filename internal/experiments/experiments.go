// Package experiments regenerates every figure of the paper's evaluation
// (Figures 2–17). Each figure has a Run function returning a typed result
// with a Table rendering; cmd/experiments exposes them on the command
// line and bench_test.go wraps them in testing.B benchmarks.
//
// Scale note: the paper samples into a 2032-entry buffer on UltraSPARC
// runs lasting trillions of cycles. The reproduction defaults to a
// 512-entry buffer and ~10G-cycle runs so a full sweep finishes in
// minutes; the sampling periods are the paper's real values. Options.Scale
// shrinks runs further for tests. Shapes, not absolute counts, are the
// reproduction target (see EXPERIMENTS.md).
package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"regionmon/internal/hpm"
	"regionmon/internal/sim"
	"regionmon/internal/workload"
)

// Options parameterize all experiments.
type Options struct {
	// Scale multiplies workload length (1 = full experiment scale).
	Scale float64
	// Periods are the Figure 3/4/13/14 sampling periods
	// (paper: 45K, 450K, 900K cycles/interrupt).
	Periods []uint64
	// RTOPeriods are the Figure 17 sampling periods
	// (paper: 100K, 800K, 1.5M cycles/interrupt).
	RTOPeriods []uint64
	// RTOScale is the run-length multiplier for the RTO comparisons
	// (Figure 17). Controller warm-up costs a fixed ~10 intervals per
	// stable phase; RTO runs must be long enough at the largest sampling
	// period that the warm-up difference between controllers washes out
	// of the speedup.
	RTOScale float64
	// BufferSize is the sample-buffer size (paper: 2032; default here 512
	// to keep interval counts practical at full period values).
	BufferSize int
	// JitterFrac is the sampling-period jitter (see hpm.Config).
	JitterFrac float64
	// ChartPeriod is the sampling period for the region charts
	// (Figures 2, 5, 9, 10, 11).
	ChartPeriod uint64
}

// DefaultOptions returns full-scale experiment options. Scale 4 (~40G
// base cycles per run) keeps even the largest sampling period at 80+
// intervals per run, so detector warm-up does not distort the
// stable-time fractions of Figures 4 and 14.
func DefaultOptions() Options {
	return Options{
		Scale:       4,
		Periods:     []uint64{45_000, 450_000, 900_000},
		RTOPeriods:  []uint64{100_000, 800_000, 1_500_000},
		RTOScale:    12,
		BufferSize:  512,
		JitterFrac:  0.1,
		ChartPeriod: 45_000,
	}
}

// TestOptions returns options small enough for unit tests: the sampling
// periods are 1/100 of the paper's, the workloads' phase-structure time
// constants shrink by the same ratio (see timeScale), and Scale 1 keeps
// per-run interval counts identical to a Scale-1 full-period run — so the
// dynamics match full scale at 1/100 of the simulation cost.
func TestOptions() Options {
	return Options{
		Scale:       1,
		Periods:     []uint64{450, 4_500, 9_000},
		RTOPeriods:  []uint64{1_000, 8_000, 15_000},
		RTOScale:    3,
		BufferSize:  512,
		JitterFrac:  0.1,
		ChartPeriod: 450,
	}
}

// Validate reports option errors.
func (o *Options) Validate() error {
	if o.Scale <= 0 {
		return fmt.Errorf("experiments: scale %v must be positive", o.Scale)
	}
	if len(o.Periods) == 0 || len(o.RTOPeriods) == 0 {
		return fmt.Errorf("experiments: periods must be non-empty")
	}
	for _, p := range append(append([]uint64{}, o.Periods...), o.RTOPeriods...) {
		if p == 0 {
			return fmt.Errorf("experiments: zero sampling period")
		}
	}
	if o.RTOScale <= 0 {
		return fmt.Errorf("experiments: RTO scale %v must be positive", o.RTOScale)
	}
	if o.BufferSize < 8 {
		return fmt.Errorf("experiments: buffer size %d too small", o.BufferSize)
	}
	if o.ChartPeriod == 0 {
		return fmt.Errorf("experiments: zero chart period")
	}
	return nil
}

// timeScale is the ratio between the sweep's smallest sampling period and
// the paper's 45K-cycle reference; workload phase-structure constants are
// stretched by it so reduced-period test runs keep full-scale dynamics.
func (o *Options) timeScale() float64 {
	return float64(o.Periods[0]) / 45_000
}

// loadBenchmark builds a workload with the options' work and time scales.
func (o *Options) loadBenchmark(name string) (*workload.Benchmark, error) {
	return workload.ByNameScales(name, o.Scale*o.timeScale(), o.timeScale())
}

// loadRTOBenchmark is loadBenchmark at the longer Figure 17 run length.
func (o *Options) loadRTOBenchmark(name string) (*workload.Benchmark, error) {
	return workload.ByNameScales(name, o.RTOScale*o.timeScale(), o.timeScale())
}

// hpmConfig builds the monitor config for a period.
func (o *Options) hpmConfig(period uint64) hpm.Config {
	return hpm.Config{Period: period, BufferSize: o.BufferSize, JitterFrac: o.JitterFrac}
}

// runStream executes bench with sampling at period, delivering every
// overflow (including the final partial one) to handler.
func (o *Options) runStream(bench *workload.Benchmark, period uint64, handler func(*hpm.Overflow)) (sim.Result, error) {
	mon, err := hpm.New(o.hpmConfig(period), handler)
	if err != nil {
		return sim.Result{}, err
	}
	ex, err := sim.NewExecutor(bench.Prog, bench.Sched, mon)
	if err != nil {
		return sim.Result{}, err
	}
	return ex.Run(), nil
}

// Table is a rendered experiment result.
type Table struct {
	// Title names the figure, e.g. "Figure 3: ...".
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold pre-formatted cells.
	Rows [][]string
	// Notes are free-form footnotes (paper-vs-measured commentary).
	Notes []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quotes-free cells are
// assumed; commas in cells are replaced by semicolons).
func (t *Table) CSV() string {
	var b strings.Builder
	clean := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(clean(c))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, c := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(clean(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }
func periodLabel(p uint64) string {
	switch {
	case p >= 1_000_000 && p%100_000 == 0:
		return fmt.Sprintf("%.1fM", float64(p)/1e6)
	case p >= 1_000:
		return fmt.Sprintf("%dK", p/1_000)
	default:
		return fmt.Sprintf("%d", p)
	}
}

// JSON renders the table as a JSON object with title, columns, rows and
// notes — the machine-readable form for external plotting tools.
func (t *Table) JSON() (string, error) {
	payload := struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes,omitempty"`
	}{t.Title, t.Columns, t.Rows, t.Notes}
	b, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

package changepoint

import (
	"math"
	"testing"
)

// metricStream produces a deterministic per-interval metric with a level
// shift at the given index.
func metricStream(n, shiftAt int, before, after float64) []float64 {
	g := noise{rng: 0xfeed}
	out := make([]float64, n)
	for i := range out {
		base := before
		if i >= shiftAt {
			base = after
		}
		out[i] = g.value(base, base*0.02)
	}
	return out
}

func TestDetectorFlagsShift(t *testing.T) {
	d := MustNew(DefaultConfig())
	stream := metricStream(400, 200, 1.2, 1.8)
	changedAt := -1
	changes := 0
	for i, x := range stream {
		v := d.Observe(x)
		if v.Changed {
			changes++
			if changedAt < 0 {
				changedAt = i
			}
			if v.ChangeAt < 190 || v.ChangeAt > 210 {
				t.Errorf("interval %d: change located at %d; want near 200", i, v.ChangeAt)
			}
			if v.PValue > d.cfg.Engine.Alpha {
				t.Errorf("confirmed change with p = %v above alpha", v.PValue)
			}
		}
	}
	if changes == 0 {
		t.Fatal("50% metric shift never flagged")
	}
	if changes > 2 {
		t.Errorf("one shift confirmed %d times; want 1 (2 tolerated for boundary jitter)", changes)
	}
	if changedAt < 200 {
		t.Errorf("change flagged at interval %d, before it happened", changedAt)
	}
	if d.Changes() != changes || d.LastChange() < 0 {
		t.Errorf("counters: Changes = %d (saw %d), LastChange = %d", d.Changes(), changes, d.LastChange())
	}
}

func TestDetectorQuietOnSteadyStream(t *testing.T) {
	d := MustNew(DefaultConfig())
	stream := metricStream(600, 600, 1.5, 1.5)
	for i, x := range stream {
		if v := d.Observe(x); v.Changed {
			t.Fatalf("steady stream flagged a change at interval %d: %+v", i, v)
		}
	}
	if d.Changes() != 0 || d.LastChange() != -1 {
		t.Errorf("counters after steady stream: %d changes, last %d", d.Changes(), d.LastChange())
	}
}

func TestDetectorEvaluationCadence(t *testing.T) {
	cfg := DefaultConfig()
	d := MustNew(cfg)
	stream := metricStream(3*cfg.Window, 3*cfg.Window, 2, 2)
	evals := 0
	for i, x := range stream {
		v := d.Observe(x)
		if v.Evaluated {
			evals++
			if i+1 < cfg.Window {
				t.Fatalf("evaluated at interval %d, before the window filled", i)
			}
			if (i+1)%cfg.EvalEvery != 0 {
				t.Fatalf("evaluated at interval %d, off the %d-stride", i, cfg.EvalEvery)
			}
		}
	}
	want := 0
	for k := cfg.EvalEvery; k <= 3*cfg.Window; k += cfg.EvalEvery {
		if k >= cfg.Window {
			want++
		}
	}
	if evals != want {
		t.Errorf("evaluations = %d; want %d", evals, want)
	}
}

// TestDetectorObserveAllocs gates the detector's own hot path: after the
// window has filled, observations — including the ones that run the
// engine — must not allocate.
func TestDetectorObserveAllocs(t *testing.T) {
	d := MustNew(DefaultConfig())
	stream := metricStream(1000, 500, 1.0, 1.6)
	for _, x := range stream[:200] {
		d.Observe(x)
	}
	i := 200
	avg := testing.AllocsPerRun(400, func() {
		d.Observe(stream[i%len(stream)])
		i++
	})
	if avg != 0 {
		t.Errorf("Observe allocates %.2f allocs/op steady-state; want 0", avg)
	}
}

// TestDetectorSkipsNonFiniteWindow: the detector does not run the engine
// while a NaN or ±Inf sits in its window, so a steady stream with one
// bad value confirms no change, and evaluation resumes once the value
// has slid out.
func TestDetectorSkipsNonFiniteWindow(t *testing.T) {
	cfg := DefaultConfig()
	const at = 100
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := MustNew(cfg)
		stream := metricStream(400, 400, 1.5, 1.5)
		stream[at] = bad
		for i, x := range stream {
			v := d.Observe(x)
			if v.Changed {
				t.Fatalf("%v at %d: change confirmed at interval %d: %+v", bad, at, i, v)
			}
			onStride := i+1 >= cfg.Window && (i+1)%cfg.EvalEvery == 0
			inWindow := i >= at && i < at+cfg.Window
			if v.Evaluated != (onStride && !inWindow) {
				t.Fatalf("%v at %d: interval %d Evaluated = %v; want %v", bad, at, i, v.Evaluated, onStride && !inWindow)
			}
		}
	}
}

// steppedStream alternates the metric between two levels every period
// observations, like soak's phase rotation.
func steppedStream(n, period int, lo, hi float64) []float64 {
	g := noise{rng: 0xbeef}
	out := make([]float64, n)
	for i := range out {
		base := lo
		if (i/period)%2 == 1 {
			base = hi
		}
		out[i] = g.value(base, base*0.02)
	}
	return out
}

var verdictSink Verdict

// BenchmarkDetectorObserve times one Observe with the default
// configuration, including the engine run every EvalEvery observations:
// over a steady stream, where almost every test stops at its first
// exceedance, and over one stepping between two levels every 160
// observations, where the tests that find the steps run all rounds.
func BenchmarkDetectorObserve(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stream []float64
	}{
		{"steady", metricStream(4096, 4096, 1.5, 1.5)},
		{"stepped", steppedStream(4096, 160, 1.0, 1.6)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d := MustNew(DefaultConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verdictSink = d.Observe(bc.stream[i%len(bc.stream)])
			}
		})
	}
}

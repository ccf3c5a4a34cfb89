package changepoint

import "testing"

// shiftingStream returns n noisy observations whose level moves at
// seeded random points: segments of 30 to 149 observations, each with a
// mean in [0.5, 3) and a relative noise amplitude of 1% to 12%.
func shiftingStream(seed uint64, n int) []float64 {
	g := noise{rng: seed}
	out := make([]float64, 0, n)
	for len(out) < n {
		length := 30 + int(g.next()%120)
		mean := 0.5 + float64(g.next()%2500)/1000
		amp := mean * float64(1+g.next()%12) / 100
		for i := 0; i < length && len(out) < n; i++ {
			out = append(out, g.value(mean, amp))
		}
	}
	return out
}

// scaled returns xs multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = k * x
	}
	return out
}

// TestScalingByFourIsExact is a metamorphic relation: multiplying a
// series by 4, a power of two, scales every value, difference and sum
// the statistic is built from exactly and keeps every comparison. So the
// offline engine and the online detector must return the same change
// points, evaluations and p-values for 4x as for x, with every Stat and
// Value exactly 4 times as large. A mis-scaled term (a constant added to
// the statistic, a noise floor in absolute units) breaks it, which a
// verdict digest cannot tell from intent.
func TestScalingByFourIsExact(t *testing.T) {
	const streams, n = 16, 600
	cfg := DefaultConfig()
	points, evaluated, changed := 0, 0, 0
	for seed := uint64(1); seed <= streams; seed++ {
		xs := shiftingStream(seed, n)
		ys := scaled(xs, 4)

		// The offline engine, over consecutive 100-point chunks.
		for lo := 0; lo < n; lo += 100 {
			want, err := Detect(xs[lo:lo+100], seed, cfg.Engine)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Detect(ys[lo:lo+100], seed, cfg.Engine)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d, chunk at %d: %d change points at 4x, %d at 1x", seed, lo, len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if g.Index != w.Index || g.PValue != w.PValue || g.Stat != 4*w.Stat {
					t.Fatalf("seed %d, chunk at %d, change point %d: 4x gives %+v, 1x gives %+v", seed, lo, i, g, w)
				}
			}
			points += len(want)
		}

		// The online detector, verdict by verdict.
		dx, dy := MustNew(cfg), MustNew(cfg)
		for i := range xs {
			want, got := dx.Observe(xs[i]), dy.Observe(ys[i])
			w4 := want
			w4.Value, w4.Stat = 4*want.Value, 4*want.Stat
			if got != w4 {
				t.Fatalf("seed %d, observation %d: 4x verdict %+v, 1x verdict %+v", seed, i, got, want)
			}
			if want.Evaluated {
				evaluated++
			}
			if want.Changed {
				changed++
			}
		}
	}
	if points == 0 || changed == 0 {
		t.Fatalf("%d offline and %d online change points: the streams test nothing", points, changed)
	}
	t.Logf("%d streams: %d offline change points; %d online evaluations, %d changes", streams, points, evaluated, changed)
}

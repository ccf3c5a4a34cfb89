package vhash

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"regionmon/internal/altdetect"
	"regionmon/internal/changepoint"
	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/lpd"
	"regionmon/internal/pipeline"
	"regionmon/internal/region"
)

func testPipeline(t *testing.T) *pipeline.Pipeline {
	t.Helper()
	gdet, err := gpd.New(gpd.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gpd.NewPerfTracker(gpd.DefaultPerfConfig())
	if err != nil {
		t.Fatal(err)
	}
	pipe := pipeline.New()
	pipe.MustRegister(pipeline.NewGPD(gdet))
	pipe.MustRegister(pipeline.NewCPI(tr))
	return pipe
}

func overflow(seq int) *hpm.Overflow {
	samples := make([]hpm.Sample, 16)
	for i := range samples {
		samples[i] = hpm.Sample{
			PC:     isa.Addr(0x10000 + 4*(seq%3*16+i)),
			Cycle:  uint64(seq*1600 + i*100),
			Instrs: 10,
		}
	}
	return &hpm.Overflow{Seq: seq, Cycle: uint64(seq*1600 + 1500), Samples: samples}
}

func runDigest(t *testing.T, intervals int, d *Digest) {
	t.Helper()
	pipe := testPipeline(t)
	pipe.AddObserver(func(rep *pipeline.IntervalReport) {
		if err := d.Report(rep); err != nil {
			t.Fatal(err)
		}
	})
	for i := 0; i < intervals; i++ {
		pipe.ProcessOverflow(overflow(i))
	}
}

// testReport builds interval seq's report from the named detectors, in
// that order, each with its built-in payload; the region monitor's
// carries regions verdicts, two new regions and one pruned. The fields
// take distinct values that move with seq, negative ints, a negative
// zero, an infinity and a NaN among them.
func testReport(seq, regions int, detectors ...string) *pipeline.IntervalReport {
	x := float64(seq) + 0.25
	rep := &pipeline.IntervalReport{Seq: seq, Cycle: uint64(seq)*45_000 + 0xdeadbeef00}
	for i, name := range detectors {
		v := pipeline.Verdict{Detector: name, Stable: i%2 == 0, PhaseChange: (seq+i)%3 == 0}
		switch name {
		case pipeline.NameGPD:
			v.Payload = &gpd.Verdict{State: gpd.Stable, Prev: gpd.LessStable, PhaseChange: true,
				Centroid: 0x12345 + x, Delta: -x, BandLow: math.Copysign(0, -1), BandHigh: math.Inf(1)}
		case pipeline.NameRegions:
			rr := &region.Report{Seq: seq, TotalSamples: 2032, MonitoredSamples: 1500 + seq, UCRSamples: 532 - seq,
				IdleSamples: 7, UCRFraction: float64(532-seq) / 2032, FormationTriggered: seq%2 == 1}
			all := make([]*region.Region, regions+3)
			for k := range all {
				all[k] = &region.Region{ID: k, Start: isa.Addr(0x10000 + 0x40*k), End: isa.Addr(0x10100 + 0x40*k)}
			}
			rr.NewRegions = all[regions : regions+2]
			rr.Pruned = all[regions+2:]
			for k, reg := range all[:regions] {
				rr.Verdicts = append(rr.Verdicts, region.RegionVerdict{Region: reg,
					Verdict: lpd.Verdict{State: lpd.State(k % 3), Prev: lpd.State((k + seq) % 3), R: 1 - x/float64(k+1),
						PhaseChange: k%5 == 0, Empty: k%7 == 3, RefUpdated: k%4 == 1},
					Samples: 40*k - seq})
			}
			v.Payload = rr
		case pipeline.NameBBV, pipeline.NameWorkingSet:
			v.Payload = &altdetect.Verdict{Similarity: 0.5 + x/1000, Changed: true, Blocks: 33 + i}
		case pipeline.NameCPI:
			v.Payload = &gpd.PerfVerdict{Value: 1.5 * x, Mean: x, SD: math.NaN(), Delta: -0.125, Changed: seq%2 == 0}
		case pipeline.NameChangePoint:
			v.Payload = &changepoint.Verdict{Value: x, Evaluated: true, Changed: seq%2 == 1, ChangeAt: -1 - int64(seq),
				Stat: 3.75, PValue: 0.01}
		default:
			panic("testReport: no payload for detector " + name)
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}
	return rep
}

// sixDetectors is fleet-full's stack, in soak.NewStack's order.
var sixDetectors = []string{pipeline.NameGPD, pipeline.NameRegions, pipeline.NameBBV,
	pipeline.NameWorkingSet, pipeline.NameCPI, pipeline.NameChangePoint}

// le appends the little-endian encoding the digest is defined over.
type le []byte

func (b le) u64(v uint64) le  { return binary.LittleEndian.AppendUint64(b, v) }
func (b le) int(v int) le     { return b.u64(uint64(int64(v))) }
func (b le) f64(v float64) le { return b.u64(math.Float64bits(v)) }
func (b le) str(s string) le  { return append(b.int(len(s)), s...) }
func (b le) bool(v bool) le {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// encode appends rep's bytes in the order Report folds them: written out
// field by field, independently of the fold helpers.
func encode(b le, rep *pipeline.IntervalReport) le {
	b = b.int(rep.Seq).u64(rep.Cycle).int(len(rep.Verdicts))
	for _, v := range rep.Verdicts {
		b = b.str(v.Detector).bool(v.Stable).bool(v.PhaseChange)
		switch p := v.Payload.(type) {
		case *gpd.Verdict:
			b = b.int(int(p.State)).int(int(p.Prev)).bool(p.PhaseChange).bool(p.Drastic).
				f64(p.Centroid).f64(p.Delta).f64(p.BandLow).f64(p.BandHigh)
		case *region.Report:
			b = b.int(p.Seq).int(p.TotalSamples).int(p.MonitoredSamples).int(p.UCRSamples).int(p.IdleSamples).
				f64(p.UCRFraction).bool(p.FormationTriggered).int(len(p.NewRegions))
			for _, r := range p.NewRegions {
				b = b.int(r.ID).u64(uint64(r.Start)).u64(uint64(r.End))
			}
			b = b.int(len(p.Pruned))
			for _, r := range p.Pruned {
				b = b.int(r.ID)
			}
			b = b.int(len(p.Verdicts))
			for _, rv := range p.Verdicts {
				b = b.int(rv.Region.ID).int(int(rv.Verdict.State)).int(int(rv.Verdict.Prev)).f64(rv.Verdict.R).
					bool(rv.Verdict.PhaseChange).bool(rv.Verdict.Empty).bool(rv.Verdict.RefUpdated).int(rv.Samples)
			}
		case *altdetect.Verdict:
			b = b.f64(p.Similarity).bool(p.Changed).int(p.Blocks)
		case *gpd.PerfVerdict:
			b = b.f64(p.Value).f64(p.Mean).f64(p.SD).f64(p.Delta).bool(p.Changed)
		case *changepoint.Verdict:
			b = b.f64(p.Value).bool(p.Evaluated).bool(p.Changed).u64(uint64(p.ChangeAt)).f64(p.Stat).f64(p.PValue)
		default:
			panic(fmt.Sprintf("encode: unknown payload %T", v.Payload))
		}
	}
	return b
}

// TestDigestMatchesFNV1a pins digest values to the standard library:
// every fold, and Report over reports carrying all five payload types,
// equal hash/fnv's FNV-1a over the same little-endian bytes, step by
// step from the offset basis.
func TestDigestMatchesFNV1a(t *testing.T) {
	ref := fnv.New64a()
	h := state(offset64)
	check := func(what string, b []byte) {
		t.Helper()
		ref.Write(b)
		if uint64(h) != ref.Sum64() {
			t.Fatalf("after %s: fold %#x, hash/fnv %#x", what, uint64(h), ref.Sum64())
		}
	}
	for _, v := range []uint64{0, 1, 0xff, 0x100, 0x0123456789abcdef, math.MaxUint64} {
		h = h.u64(v)
		check(fmt.Sprintf("u64(%#x)", v), le(nil).u64(v))
	}
	for _, v := range []int{0, -1, 42, math.MinInt, math.MaxInt} {
		h = h.int(v)
		check(fmt.Sprintf("int(%d)", v), le(nil).int(v))
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 2.25, math.Inf(-1), math.NaN()} {
		h = h.f64(v)
		check(fmt.Sprintf("f64(%v)", v), le(nil).f64(v))
	}
	for _, v := range []bool{true, false} {
		h = h.bool(v)
		check(fmt.Sprintf("bool(%v)", v), le(nil).bool(v))
	}
	for _, s := range []string{"", "gpd", "working-set"} {
		h = h.str(s)
		check(fmt.Sprintf("str(%q)", s), le(nil).str(s))
	}

	ref.Reset()
	d := New()
	for seq, shape := range [][]string{sixDetectors, {pipeline.NameGPD, pipeline.NameCPI, pipeline.NameRegions}} {
		rep := testReport(seq, 5, shape...)
		if err := d.Report(rep); err != nil {
			t.Fatal(err)
		}
		ref.Write(encode(nil, rep))
		if d.Sum() != ref.Sum64() {
			t.Fatalf("report %d: digest %#x, hash/fnv %#x", seq, d.Sum(), ref.Sum64())
		}
	}
}

// TestDigestDeterministic: the same verdict stream hashes to the same sum,
// and a different stream to a different one.
func TestDigestDeterministic(t *testing.T) {
	a, b := New(), New()
	runDigest(t, 40, a)
	runDigest(t, 40, b)
	if a.Sum() != b.Sum() {
		t.Fatalf("equal streams digest to %#x vs %#x", a.Sum(), b.Sum())
	}
	if a.Sum() == New().Sum() {
		t.Fatal("digest never advanced")
	}
	c := New()
	runDigest(t, 41, c)
	if c.Sum() == a.Sum() {
		t.Fatal("different streams digest equal")
	}
}

// TestZeroValueEquivalentToNew pins the lazy-basis fix: a zero-value
// Digest must hash identically to a New() one, whether its first fold is
// a U64 or a Report. Before the fix the zero value folded from basis 0,
// silently producing digests that could never match a constructed
// consumer's.
func TestZeroValueEquivalentToNew(t *testing.T) {
	var zero Digest
	if zero.Sum() != New().Sum() {
		t.Fatalf("empty zero-value sum %#x != New() sum %#x", zero.Sum(), New().Sum())
	}
	rep := testReport(3, 4, sixDetectors...)
	var zeroU64, zeroReport Digest
	freshU64, freshReport := New(), New()
	for _, d := range []*Digest{&zeroU64, freshU64} {
		d.U64(7)
		if err := d.Report(rep); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []*Digest{&zeroReport, freshReport} {
		if err := d.Report(rep); err != nil {
			t.Fatal(err)
		}
		d.U64(7)
	}
	if zeroU64.Sum() != freshU64.Sum() || zeroReport.Sum() != freshReport.Sum() {
		t.Fatalf("zero-value digests %#x, %#x != New() digests %#x, %#x over the same streams",
			zeroU64.Sum(), zeroReport.Sum(), freshU64.Sum(), freshReport.Sum())
	}
	// And a resumed continuation of a zero-value digest carries on
	// identically.
	cont := Resume(zeroU64.Sum())
	freshU64.U64(42)
	cont.U64(42)
	if cont.Sum() != freshU64.Sum() {
		t.Fatalf("resumed zero-value digest diverged: %#x vs %#x", cont.Sum(), freshU64.Sum())
	}
}

// TestResumeContinuity: splitting a stream across Sum/Resume produces the
// same digest as hashing it in one piece — the property fleet checkpoint
// fidelity rests on.
func TestResumeContinuity(t *testing.T) {
	reps := []*pipeline.IntervalReport{testReport(0, 3, sixDetectors...), testReport(1, 4, sixDetectors...)}
	whole := New()
	whole.U64(99)
	for _, rep := range reps {
		if err := whole.Report(rep); err != nil {
			t.Fatal(err)
		}
	}

	first := New()
	first.U64(99)
	if err := first.Report(reps[0]); err != nil {
		t.Fatal(err)
	}
	second := Resume(first.Sum())
	if err := second.Report(reps[1]); err != nil {
		t.Fatal(err)
	}
	if whole.Sum() != second.Sum() {
		t.Fatalf("resumed digest %#x != one-piece digest %#x", second.Sum(), whole.Sum())
	}
}

// TestUnknownPayload: a report carrying an unregistered payload type must
// be an error, never silently skipped, and must leave the digest as it
// was — even after the known verdicts before it.
func TestUnknownPayload(t *testing.T) {
	d := New()
	if err := d.Report(testReport(0, 2, sixDetectors...)); err != nil {
		t.Fatal(err)
	}
	rep := testReport(1, 2, pipeline.NameGPD, pipeline.NameRegions)
	rep.Verdicts = append(rep.Verdicts, pipeline.Verdict{Detector: "mystery", Payload: struct{ X int }{1}})
	before := d.Sum()
	if err := d.Report(rep); err == nil {
		t.Fatal("unknown payload hashed without error")
	}
	if d.Sum() != before {
		t.Fatalf("failed Report moved the digest from %#x to %#x", before, d.Sum())
	}
}

// TestReportNoAllocs pins the hot-path contract: hashing a report must not
// allocate (the digest runs inside per-interval observers).
func TestReportNoAllocs(t *testing.T) {
	pipe := testPipeline(t)
	d := New()
	var rep *pipeline.IntervalReport
	for i := 0; i < 8; i++ {
		rep = pipe.ProcessOverflow(overflow(i))
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := d.Report(rep); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Report allocates %v per run; want 0", avg)
	}
}

// BenchmarkDigestReport times Report on the two benchmark workloads'
// report shapes: spec-replay's GPD, CPI and region monitor with about 33
// region verdicts, and fleet-full's six detectors with 3.
func BenchmarkDigestReport(b *testing.B) {
	for _, bc := range []struct {
		name    string
		regions int
		dets    []string
	}{
		{"spec-replay", 33, []string{pipeline.NameGPD, pipeline.NameCPI, pipeline.NameRegions}},
		{"fleet-full", 3, sixDetectors},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rep := testReport(1, bc.regions, bc.dets...)
			d := New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Report(rep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

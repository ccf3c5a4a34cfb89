// Package vhash digests detector verdict streams: an incremental FNV-1a
// over every field of every verdict a pipeline emits, floats bit-exact.
// Two runs with equal digests emitted identical verdict streams, so a
// digest comparison is an exact equality proof — the property the soak
// harness's kill/restore check and the ingest fleet's shard-determinism
// tests both rest on.
//
// Hashing in an observer (rather than retaining verdicts) keeps the
// consumer O(1) in memory, so a digest cannot mask a detector leak; and
// the digest state is a single uint64, so it checkpoints alongside the
// detector stack (Sum/Resume) and a restored stream's digest continues
// exactly where the killed one stopped.
//
// Report folds a whole interval in a register: it reads the state once,
// passes it by value through one unrolled eight-byte fold per integer or
// float, and stores it back once at the end. Byte for byte it hashes what
// a byte-at-a-time FNV-1a over the fields' little-endian encoding would,
// and a report it rejects leaves the digest untouched.
package vhash

import (
	"fmt"
	"math"

	"regionmon/internal/altdetect"
	"regionmon/internal/changepoint"
	"regionmon/internal/gpd"
	"regionmon/internal/pipeline"
	"regionmon/internal/region"
)

const (
	offset64 = 0xcbf29ce484222325
	prime64  = 0x100000001b3
)

// Digest is an incremental FNV-1a over a verdict stream. The zero value
// is an empty digest, equivalent to New(): the FNV offset basis is
// applied lazily on the first fold, so a zero-value Digest hashes
// identically to a constructed one rather than silently folding from
// basis 0.
type Digest struct {
	h      uint64
	seeded bool
}

// New returns an empty digest (FNV-1a offset basis).
func New() *Digest { return &Digest{h: offset64, seeded: true} }

// Resume returns a digest continuing from a previously captured Sum, for
// restoring a checkpointed stream consumer.
func Resume(sum uint64) *Digest { return &Digest{h: sum, seeded: true} }

// Sum returns the current digest value.
func (d *Digest) Sum() uint64 {
	if !d.seeded {
		return offset64
	}
	return d.h
}

// U64 folds a uint64 into the digest, little-endian byte order.
func (d *Digest) U64(v uint64) { d.h, d.seeded = uint64(state(d.Sum()).u64(v)), true }

// state is an FNV-1a state held by value, so a fold chain stays in a
// register instead of storing and reloading the digest for every byte.
type state uint64

func (h state) byte(b byte) state { return (h ^ state(b)) * prime64 }

// u64 folds v's eight bytes, least significant first.
func (h state) u64(v uint64) state {
	h = (h ^ state(byte(v))) * prime64
	h = (h ^ state(byte(v>>8))) * prime64
	h = (h ^ state(byte(v>>16))) * prime64
	h = (h ^ state(byte(v>>24))) * prime64
	h = (h ^ state(byte(v>>32))) * prime64
	h = (h ^ state(byte(v>>40))) * prime64
	h = (h ^ state(byte(v>>48))) * prime64
	return (h ^ state(v>>56)) * prime64
}

// int folds an int as its int64 bits.
func (h state) int(v int) state { return h.u64(uint64(int64(v))) }

// f64 folds a float64 bit-exact.
func (h state) f64(v float64) state { return h.u64(math.Float64bits(v)) }

// bool folds a bool as one byte, 1 or 0.
func (h state) bool(v bool) state {
	if v {
		return h.byte(1)
	}
	return h.byte(0)
}

// str folds a length-prefixed string.
func (h state) str(s string) state {
	h = h.int(len(s))
	for i := 0; i < len(s); i++ {
		h = h.byte(s[i])
	}
	return h
}

// Report folds every field of every verdict in one merged interval
// report — including the typed payloads, floats bit-exact — into the
// digest. An unknown payload type is an error and leaves the digest as
// it was: a consumer that silently skipped a detector's output would
// prove nothing about it.
func (d *Digest) Report(rep *pipeline.IntervalReport) error {
	h := state(d.Sum()).int(rep.Seq).u64(rep.Cycle).int(len(rep.Verdicts))
	for i := range rep.Verdicts {
		v := &rep.Verdicts[i]
		h = h.str(v.Detector).bool(v.Stable).bool(v.PhaseChange)
		switch p := v.Payload.(type) {
		case *gpd.Verdict:
			h = h.int(int(p.State)).int(int(p.Prev)).bool(p.PhaseChange).bool(p.Drastic)
			h = h.f64(p.Centroid).f64(p.Delta).f64(p.BandLow).f64(p.BandHigh)
		case *region.Report:
			h = h.regionReport(p)
		case *altdetect.Verdict:
			h = h.f64(p.Similarity).bool(p.Changed).int(p.Blocks)
		case *gpd.PerfVerdict:
			h = h.f64(p.Value).f64(p.Mean).f64(p.SD).f64(p.Delta).bool(p.Changed)
		case *changepoint.Verdict:
			h = h.f64(p.Value).bool(p.Evaluated).bool(p.Changed).u64(uint64(p.ChangeAt))
			h = h.f64(p.Stat).f64(p.PValue)
		default:
			return fmt.Errorf("vhash: unknown verdict payload %T from detector %q", v.Payload, v.Detector)
		}
	}
	d.h, d.seeded = uint64(h), true
	return nil
}

func (h state) regionReport(r *region.Report) state {
	h = h.int(r.Seq).int(r.TotalSamples).int(r.MonitoredSamples).int(r.UCRSamples).int(r.IdleSamples)
	h = h.f64(r.UCRFraction).bool(r.FormationTriggered)
	h = h.int(len(r.NewRegions))
	for _, reg := range r.NewRegions {
		h = h.int(reg.ID).u64(uint64(reg.Start)).u64(uint64(reg.End))
	}
	h = h.int(len(r.Pruned))
	for _, reg := range r.Pruned {
		h = h.int(reg.ID)
	}
	h = h.int(len(r.Verdicts))
	for i := range r.Verdicts {
		rv := &r.Verdicts[i]
		h = h.int(rv.Region.ID).int(int(rv.Verdict.State)).int(int(rv.Verdict.Prev)).f64(rv.Verdict.R)
		h = h.bool(rv.Verdict.PhaseChange).bool(rv.Verdict.Empty).bool(rv.Verdict.RefUpdated).int(rv.Samples)
	}
	return h
}

package main

import (
	"fmt"
	"time"

	"regionmon/internal/changepoint"
	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/pipeline"
	"regionmon/internal/region"
)

// epoch anchors every timestamp of a run; now() reads the monotonic clock
// as nanoseconds since it, so stamps taken on different goroutines are
// comparable.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// maxDetectors bounds the detectors one stack registers (soak's full
// stack has six).
const maxDetectors = 6

// span is one interval's trace record, identified by (stream, seq). The
// interval's root span is the ProcessOverflow call for spec-replay, and
// for fleet-full it runs from the start of the push call that carried the
// interval to the end marker. Its children are that push call and the
// pipeline span, which runs from the first detector's entry to the
// end-marker observer; det holds each detector's span inside it, in
// registration order. The remaining fields are read from the verdicts
// after the end stamp, so counting them costs no traced layer any time.
type span struct {
	stream, seq        int32
	start, end         int64
	det                [maxDetectors]int64
	obs                int64 // the digest observer (spec-replay only)
	call               int64 // the ProcessOverflow call (spec-replay only)
	pushStart, pushEnd int64 // the push call (fleet-full only)

	regions, formed, pruned int32
	ucr                     float64
	regionSeen              bool
	gpdChange               bool
	cpEval, cpChange        bool
}

// recorder holds one stream's preallocated trace buffer and its
// end-of-interval stamps. It is written only by the goroutine that owns
// the stream's pipeline and read after that goroutine's work is
// acknowledged (fleet Drain, or the replay loop returning).
type recorder struct {
	stream int32
	ends   []int64 // end-marker stamp per interval (latency)
	spans  []span  // nil when untraced
	n      int
}

func newRecorder(stream, intervals int, traced bool) *recorder {
	r := &recorder{stream: int32(stream), ends: make([]int64, intervals)}
	if traced {
		r.spans = make([]span, intervals)
	}
	return r
}

// reset rewinds the recorder for another repetition over the same inputs.
func (r *recorder) reset() {
	r.n = 0
	for i := range r.spans {
		r.spans[i] = span{}
	}
}

// markEnd is the end-marker observer: it stamps the interval's end and,
// when tracing, reads the counts this benchmark reports from the
// verdict payloads.
func (r *recorder) markEnd(rep *pipeline.IntervalReport) {
	t := now()
	if r.n >= len(r.ends) {
		panic("perfbench: recorder overflow: more intervals than inputs")
	}
	r.ends[r.n] = t
	if r.spans != nil {
		s := &r.spans[r.n]
		s.stream, s.seq, s.end = r.stream, int32(rep.Seq), t
		for i := range rep.Verdicts {
			switch p := rep.Verdicts[i].Payload.(type) {
			case *region.Report:
				s.regionSeen = true
				s.regions = int32(len(p.Verdicts))
				s.pruned = int32(len(p.Pruned))
				s.formed = int32(len(p.NewRegions))
				s.ucr = p.UCRFraction
			case *gpd.Verdict:
				s.gpdChange = p.PhaseChange
			case *changepoint.Verdict:
				s.cpEval, s.cpChange = p.Evaluated, p.Changed
			default:
				// Other payloads carry nothing this benchmark counts.
			}
		}
	}
	r.n++
}

// timedDetector re-registers a detector under its own name and times each
// ObserveInterval call. The verdict is returned untouched, so verdict
// streams and their digests are the same traced and untraced. The
// detector in slot 0 also stamps the interval's start.
type timedDetector struct {
	pipeline.PhaseDetector
	rec  *recorder
	slot int
}

func (t *timedDetector) ObserveInterval(ov *hpm.Overflow) pipeline.Verdict {
	t0 := now()
	v := t.PhaseDetector.ObserveInterval(ov)
	t1 := now()
	s := &t.rec.spans[t.rec.n]
	if t.slot == 0 {
		s.start = t0
	}
	s.det[t.slot] = t1 - t0
	return v
}

// instrument returns base itself when rec does not trace, and otherwise a
// pipeline carrying base's detectors in registration order, each wrapped
// in a timedDetector. Only detectors carry over, so base must have no
// observers yet; the caller attaches them, ending with rec.markEnd.
func instrument(base *pipeline.Pipeline, rec *recorder) (*pipeline.Pipeline, error) {
	if rec.spans == nil {
		return base, nil
	}
	dets := base.Detectors()
	if len(dets) > maxDetectors {
		return nil, fmt.Errorf("perfbench: stack has %d detectors, trace records hold %d", len(dets), maxDetectors)
	}
	p := pipeline.New()
	for i, d := range dets {
		if err := p.Register(&timedDetector{PhaseDetector: d, rec: rec, slot: i}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

package region

import (
	"fmt"
	"sort"

	"regionmon/internal/isa"
)

// Region-formation extensions. The paper's prototype builds regions only
// from intra-procedural natural loops, which is why 254.gap and 186.crafty
// keep >30% of their samples unmonitored: their hot code is straight-line
// or crosses procedure boundaries. Section 3.1 names two remedies as
// future work — "There is no fundamental limitation to building
// inter-procedural regions", and "We also plan to use compiler annotations
// to improve region formation" — both implemented here behind Config
// fields that default to the paper's baseline (off).

// Annotation is a compiler-provided candidate region: a code span the
// static compiler knows is a coherent unit (an outlined hot path, an
// inlined loop body, a function the profile says is monolithic) even
// though the runtime loop finder cannot discover it.
type Annotation struct {
	// Start, End delimit the half-open candidate span.
	Start, End isa.Addr
	// Name optionally labels the annotation (diagnostics only).
	Name string
}

// Validate reports structural errors against prog: the span must be one
// AddRegion accepts.
func (a *Annotation) Validate(prog *isa.Program) error {
	if err := checkSpan(prog, a.Start, a.End); err != nil {
		return fmt.Errorf("region: annotation %q: %w", a.Name, err)
	}
	return nil
}

// candidate is one annotation or procedure formation candidate.
type candidate struct {
	start, end isa.Addr
	samples    int
}

// extendedCandidates collects annotation- and procedure-based candidates
// from the interval's UCR slots, which still hold their counts. Loop
// candidates are gathered by the caller; this adds the two extension
// classes when enabled.
func (m *Monitor) extendedCandidates(ucr []int32) []candidate {
	var out []candidate

	for i := range m.cfg.Annotations {
		// A validated annotation is one run of slots, [first, end).
		a := &m.cfg.Annotations[i]
		first := m.prog.Slot(a.Start)
		end := first + int(a.End-a.Start)/isa.InstrBytes
		samples := 0
		for _, s := range ucr {
			if int(s) >= first && int(s) < end {
				samples += int(m.counts[s])
			}
		}
		if samples >= m.cfg.MinRegionSamples {
			out = append(out, candidate{start: a.Start, end: a.End, samples: samples})
		}
	}

	if m.cfg.InterProcedural {
		tally := make([]int, len(m.prog.Procs))
		for _, s := range ucr {
			// Only samples the loop finder cannot place feed procedure
			// regions; loop-covered samples stay with their loops.
			if p := m.prog.SlotProc(int(s)); p >= 0 && m.prog.SlotLoop(int(s)) < 0 {
				tally[p] += int(m.counts[s])
			}
		}
		maxInstrs := m.cfg.MaxProcRegionInstrs
		if maxInstrs == 0 {
			maxInstrs = DefaultMaxProcRegionInstrs
		}
		for i, n := range tally {
			p := m.prog.Procs[i]
			if n < m.cfg.MinRegionSamples || p.NumInstrs() > maxInstrs {
				continue
			}
			out = append(out, candidate{start: p.Start(), end: p.End(), samples: n})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].samples != out[j].samples {
			return out[i].samples > out[j].samples
		}
		return out[i].start < out[j].start
	})
	return out
}

// DefaultMaxProcRegionInstrs bounds inter-procedural regions: procedures
// larger than this are not monitored wholesale (their histograms would hit
// the same granularity breakdown as ammp's huge loop).
const DefaultMaxProcRegionInstrs = 1024

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
// AddRegion accepts, on the program's code pages, and its first and last
// instructions must lie in basic blocks.
func (a *Annotation) Validate(prog *isa.Program) error {
	if err := checkSpan(prog, a.Start, a.End); err != nil {
		return fmt.Errorf("region: annotation %q: %w", a.Name, err)
	}
	if prog.BlockAt(a.Start) == nil || prog.BlockAt(a.End-isa.InstrBytes) == nil {
		return fmt.Errorf("region: annotation %q span %v-%v outside program text", a.Name, a.Start, a.End)
	}
	return nil
}

// Contains reports whether addr falls inside the annotation.
func (a *Annotation) Contains(addr isa.Addr) bool { return addr >= a.Start && addr < a.End }

// candidate is one annotation or procedure formation candidate.
type candidate struct {
	start, end isa.Addr
	samples    int
}

// extendedCandidates collects annotation- and procedure-based candidates
// from the interval's unmonitored runs. Loop candidates are gathered by
// the caller; this adds the two extension classes when enabled.
func (m *Monitor) extendedCandidates(ucr []int32) []candidate {
	var out []candidate

	if len(m.cfg.Annotations) > 0 {
		counts := make([]int, len(m.cfg.Annotations))
		m.eachUCR(ucr, func(pc isa.Addr, n int) {
			for i := range m.cfg.Annotations {
				if m.cfg.Annotations[i].Contains(pc) {
					counts[i] += n
				}
			}
		})
		for i := range m.cfg.Annotations {
			if counts[i] >= m.cfg.MinRegionSamples {
				a := &m.cfg.Annotations[i]
				out = append(out, candidate{
					start: a.Start, end: a.End, samples: counts[i],
				})
			}
		}
	}

	if m.cfg.InterProcedural {
		procCounts := make(map[*isa.Procedure]int)
		m.eachUCR(ucr, func(pc isa.Addr, n int) {
			// Only samples the loop finder cannot place feed procedure
			// regions; loop-covered samples stay with their loops.
			if p := m.prog.ProcAt(pc); p != nil && m.prog.LoopAt(pc) == nil {
				procCounts[p] += n
			}
		})
		maxInstrs := m.cfg.MaxProcRegionInstrs
		if maxInstrs == 0 {
			maxInstrs = DefaultMaxProcRegionInstrs
		}
		for p, n := range procCounts {
			if n < m.cfg.MinRegionSamples || p.NumInstrs() > maxInstrs {
				continue
			}
			out = append(out, candidate{
				start: p.Start(), end: p.End(), samples: n,
			})
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

// Package altdetect implements the two global phase-detection schemes the
// paper's related-work section compares against (Section 4), adapted to
// the same PC-sample streams the centroid detector consumes:
//
//   - BBV: Sherwood et al.'s basic-block vector approach [4][5] — each
//     interval is summarized by a vector of per-basic-block execution
//     weight (approximated here by sample counts, since sampling is the
//     only profile source in this system); consecutive intervals are
//     compared by normalized Manhattan distance.
//
//   - Working set: Dhodapkar and Smith's approach [1][8] — each interval
//     is summarized by the *set* of basic blocks touched (no frequency
//     information); consecutive intervals are compared by relative
//     working-set distance (1 − |A∩B| / |A∪B|).
//
// The paper's point in contrasting them: these are still *global* schemes
// — one verdict per interval for the whole program — so, like the
// centroid, they conflate "the mix of regions changed" with "a region's
// behaviour changed". Having them implemented lets the experiments
// quantify that argument on identical sample streams (the DetectorPanel
// experiment and BenchmarkAblationDetectorPanel).
package altdetect

import (
	"fmt"
	"math"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
)

// Verdict is one interval's outcome for either detector. It is the
// pipeline payload the Alt adapter publishes.
//
//lint:payload
type Verdict struct {
	// Similarity is in [0, 1]: 1 = identical to the previous interval.
	Similarity float64
	// Changed reports similarity below the detector's threshold — a
	// phase change.
	Changed bool
	// Blocks is the number of distinct basic blocks sampled this
	// interval.
	Blocks int
}

// blockIndexer maps sampled PCs to dense basic-block indices for one
// program. It holds every block's [start, end) in address order, so a
// block's dense index is its position and one binary search resolves a
// PC.
type blockIndexer []blockSpan

type blockSpan struct{ start, end isa.Addr }

func newBlockIndexer(prog *isa.Program) blockIndexer {
	var bi blockIndexer
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			bi = append(bi, blockSpan{b.Start, b.End()})
		}
	}
	return bi
}

// lookup returns the dense index for pc, or -1 when pc is outside the
// program text (e.g. idle samples at PC 0). Procedures are ascending and
// disjoint and blocks within one are contiguous, so block ends ascend
// strictly: the first block ending past pc is the only candidate, as in
// isa.Program.BlockAt.
func (bi blockIndexer) lookup(pc isa.Addr) int {
	lo, hi := 0, len(bi)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bi[m].end > pc {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo < len(bi) && bi[lo].start <= pc {
		return lo
	}
	return -1
}

// BBV is the basic-block-vector phase detector.
type BBV struct {
	bi        blockIndexer //lint:config -- fixed block index over the program
	threshold float64      //lint:config -- fixed at construction
	prev      []float64
	curr      []int64 //lint:config -- per-interval scratch, zeroed after each Observe
	hasPrev   bool

	changes int
	total   int
}

// NewBBV returns a BBV detector over prog. threshold is the minimum
// interval-to-interval similarity counted as "same phase"; Sherwood-style
// studies typically use a Manhattan-distance threshold around 0.3–0.5 on
// normalized vectors, i.e. similarity ~0.75–0.85.
func NewBBV(prog *isa.Program, threshold float64) (*BBV, error) {
	if prog == nil {
		return nil, fmt.Errorf("altdetect: nil program")
	}
	if threshold <= 0 || threshold >= 1 {
		return nil, fmt.Errorf("altdetect: BBV threshold %v outside (0, 1)", threshold)
	}
	bi := newBlockIndexer(prog)
	return &BBV{
		bi:        bi,
		threshold: threshold,
		prev:      make([]float64, len(bi)),
		curr:      make([]int64, len(bi)),
	}, nil
}

// Observe processes one overflow delivery.
func (d *BBV) Observe(ov *hpm.Overflow) Verdict {
	for i := range d.curr {
		d.curr[i] = 0
	}
	var total int64
	blocks := 0
	for i := range ov.Samples {
		bi := d.bi.lookup(ov.Samples[i].PC)
		if bi < 0 {
			continue
		}
		if d.curr[bi] == 0 {
			blocks++
		}
		d.curr[bi]++
		total++
	}
	d.total++
	v := Verdict{Blocks: blocks}
	if total == 0 {
		// Nothing sampled inside the program: repeat previous state
		// without comparing.
		v.Similarity = 1
		return v
	}
	// Normalize and compare by Manhattan distance.
	if d.hasPrev {
		var dist float64
		for i, c := range d.curr {
			dist += math.Abs(float64(c)/float64(total) - d.prev[i])
		}
		v.Similarity = 1 - dist/2
		if v.Similarity < d.threshold {
			v.Changed = true
			d.changes++
		}
	} else {
		v.Similarity = 1
	}
	for i, c := range d.curr {
		d.prev[i] = float64(c) / float64(total)
	}
	d.hasPrev = true
	return v
}

// Changes returns the number of flagged phase changes.
func (d *BBV) Changes() int { return d.changes }

// Intervals returns the number of observed intervals.
func (d *BBV) Intervals() int { return d.total }

// StableFraction returns the fraction of intervals not flagged.
func (d *BBV) StableFraction() float64 {
	if d.total == 0 {
		return 0
	}
	return 1 - float64(d.changes)/float64(d.total)
}

// WorkingSet is the Dhodapkar-style working-set signature detector: only
// *which* blocks executed matters, not how often — the difference from
// BBV the paper's Section 4 highlights. Each set is a membership array
// over the program's blocks plus the list of its members, so adding,
// testing and clearing a member cost O(1) and clearing a set costs
// O(members).
type WorkingSet struct {
	bi        blockIndexer //lint:config -- fixed block index over the program
	threshold float64      //lint:config -- fixed at construction
	// prevIn and prev are the previous interval's working set: prevIn[b]
	// reports membership, prev lists the members in first-sampled order.
	prevIn []bool
	//lint:bounded -- at most one entry per block; capacity fixed at construction
	prev []int
	// currIn and curr are the same for the current interval.
	currIn []bool //lint:config -- per-interval scratch, cleared at the start of each Observe
	//lint:bounded -- at most one entry per block; capacity fixed at construction
	curr []int //lint:config -- per-interval scratch, cleared at the start of each Observe

	changes int
	total   int
}

// NewWorkingSet returns a working-set detector. threshold is the maximum
// relative working-set distance (1 − Jaccard similarity) counted as "same
// phase"; Dhodapkar and Smith use values around 0.5.
func NewWorkingSet(prog *isa.Program, threshold float64) (*WorkingSet, error) {
	if prog == nil {
		return nil, fmt.Errorf("altdetect: nil program")
	}
	if threshold <= 0 || threshold >= 1 {
		return nil, fmt.Errorf("altdetect: working-set threshold %v outside (0, 1)", threshold)
	}
	bi := newBlockIndexer(prog)
	n := len(bi)
	return &WorkingSet{
		bi:        bi,
		threshold: threshold,
		prevIn:    make([]bool, n),
		prev:      make([]int, 0, n),
		currIn:    make([]bool, n),
		curr:      make([]int, 0, n),
	}, nil
}

// Observe processes one overflow delivery.
func (d *WorkingSet) Observe(ov *hpm.Overflow) Verdict {
	for _, b := range d.curr {
		d.currIn[b] = false
	}
	d.curr = d.curr[:0]
	for i := range ov.Samples {
		if b := d.bi.lookup(ov.Samples[i].PC); b >= 0 && !d.currIn[b] {
			d.currIn[b] = true
			d.curr = append(d.curr, b)
		}
	}
	d.total++
	v := Verdict{Blocks: len(d.curr)}
	if len(d.curr) == 0 {
		v.Similarity = 1
		return v
	}
	if d.total > 1 {
		inter := 0
		for _, b := range d.curr {
			if d.prevIn[b] {
				inter++
			}
		}
		union := len(d.prev) + len(d.curr) - inter
		if union > 0 {
			v.Similarity = float64(inter) / float64(union)
		} else {
			v.Similarity = 1
		}
		if 1-v.Similarity > d.threshold {
			v.Changed = true
			d.changes++
		}
	} else {
		v.Similarity = 1
	}
	d.prevIn, d.currIn = d.currIn, d.prevIn
	d.prev, d.curr = d.curr, d.prev
	return v
}

// Changes returns the number of flagged phase changes.
func (d *WorkingSet) Changes() int { return d.changes }

// Intervals returns the number of observed intervals.
func (d *WorkingSet) Intervals() int { return d.total }

// StableFraction returns the fraction of intervals not flagged.
func (d *WorkingSet) StableFraction() float64 {
	if d.total == 0 {
		return 0
	}
	return 1 - float64(d.changes)/float64(d.total)
}

// Package region implements the paper's region monitoring framework
// (Section 3): it decouples working-set change detection from phase
// detection. On every sample-buffer overflow it
//
//  1. distributes the buffered PC samples across the monitored regions
//     (using a linear region list, an interval tree — the paper's
//     Section 3.2.3 cost comparison — or, by default, a count-compressed
//     batch over a flat epoch index), incrementing per-instruction
//     histograms; a sample falling in several overlapping regions (nested
//     loops) increments all of them;
//  2. attributes samples outside every monitored region to the
//     UnMonitored Code Region (UCR) and, when the UCR fraction exceeds a
//     threshold (30% in the paper's study), triggers region formation —
//     building loop regions around the unmonitored hot samples;
//  3. runs each region's local phase detector on its interval histogram.
//
// Some hot code cannot be covered: samples in straight-line code or in
// loops spanning procedure boundaries form no region (the paper's
// 186.crafty / 254.gap discussion), so their UCR contribution persists
// across formation triggers.
package region

import (
	"fmt"
	"sort"

	"regionmon/internal/hpm"
	"regionmon/internal/interval"
	"regionmon/internal/isa"
	"regionmon/internal/lpd"
	"regionmon/internal/stats"
)

// Config parameterizes the monitor.
type Config struct {
	// UCRThreshold is the UCR sample fraction above which region
	// formation is triggered (paper: 30%).
	UCRThreshold float64
	// MinRegionSamples is the minimum number of interval samples that
	// must land in a loop for it to become a monitored region ("loops
	// that have significant samples within an interval").
	MinRegionSamples int
	// MinObserveSamples is the minimum interval sample count for a
	// region's histogram to be fed to its phase detector; sparser
	// intervals are treated like empty ones (state frozen, last r
	// re-reported). The paper only specifies the zero-sample rule; this
	// guard extends it so that sliver intervals at execution boundaries —
	// a couple of Poisson-noise samples spread over the region — cannot
	// fake phase changes. Set to 1 to disable.
	MinObserveSamples int
	// Detector configures each region's local phase detector.
	Detector lpd.Config
	// Index selects the sample-to-region distribution structure. The
	// zero value is IndexEpoch: the count-compressed batch path.
	Index IndexKind
	// PruneAfter removes a region after this many consecutive intervals
	// without samples (the paper's proposed region pruning); 0 disables.
	PruneAfter int
	// MaxRegions caps the monitored-region count (0 = unlimited).
	MaxRegions int
	// Annotations supplies compiler-provided candidate regions the loop
	// finder cannot discover (a Section 3.1 future-work extension; empty
	// = the paper's baseline).
	Annotations []Annotation
	// InterProcedural enables building whole-procedure regions around hot
	// non-loop samples (the paper's other Section 3.1 extension; false =
	// baseline).
	InterProcedural bool
	// MaxProcRegionInstrs caps inter-procedural region size
	// (0 = DefaultMaxProcRegionInstrs).
	MaxProcRegionInstrs int
	// UCRHistoryCap bounds the retained per-interval UCR-fraction history.
	// 0 selects DefaultUCRHistoryCap; RetainAllHistory (-1) keeps every
	// interval (experiments and figure generators that plot the full
	// series). The monitor is otherwise O(1)-state per interval, matching
	// the related-work hardware schemes; an unbounded default would be a
	// slow leak on the ROADMAP's billions-of-intervals runs.
	UCRHistoryCap int
}

// IndexKind selects the structure that distributes buffered samples
// across the monitored regions (the paper's Section 3.2.3 cost knob).
type IndexKind int

const (
	// IndexEpoch (the default) distributes through a flat epoch index: an
	// immutable sorted-segment snapshot of the region set, rebuilt only
	// when the set changes, stabbed once per distinct PC over the
	// count-compressed buffer.
	IndexEpoch IndexKind = iota
	// IndexList is the paper's baseline linear region list, stabbed once
	// per sample.
	IndexList
	// IndexTree is the paper's augmented red-black interval tree, stabbed
	// once per sample.
	IndexTree
)

// DefaultUCRHistoryCap is the UCR history window used when
// Config.UCRHistoryCap is 0 — deep enough for any online consumer
// (UCRMedian, reporting) while keeping the monitor's footprint fixed.
const DefaultUCRHistoryCap = 4096

// RetainAllHistory, as Config.UCRHistoryCap, disables the UCR history
// bound (opt-in retain-everything mode).
const RetainAllHistory = -1

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		UCRThreshold:      0.30,
		MinRegionSamples:  16,
		MinObserveSamples: 16,
		Detector:          lpd.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.UCRThreshold <= 0 || c.UCRThreshold > 1 {
		return fmt.Errorf("region: UCR threshold %v outside (0, 1]", c.UCRThreshold)
	}
	if c.MinRegionSamples < 1 {
		return fmt.Errorf("region: min region samples %d < 1", c.MinRegionSamples)
	}
	if c.MinObserveSamples < 1 {
		return fmt.Errorf("region: min observe samples %d < 1", c.MinObserveSamples)
	}
	if c.PruneAfter < 0 {
		return fmt.Errorf("region: prune-after %d < 0", c.PruneAfter)
	}
	if c.MaxRegions < 0 {
		return fmt.Errorf("region: max regions %d < 0", c.MaxRegions)
	}
	if c.MaxProcRegionInstrs < 0 {
		return fmt.Errorf("region: max procedure-region size %d < 0", c.MaxProcRegionInstrs)
	}
	if c.UCRHistoryCap < RetainAllHistory {
		return fmt.Errorf("region: UCR history cap %d < %d", c.UCRHistoryCap, RetainAllHistory)
	}
	if c.Index < IndexEpoch || c.Index > IndexTree {
		return fmt.Errorf("region: unknown index kind %d", c.Index)
	}
	return c.Detector.Validate()
}

// validateAnnotations checks the configured annotations against prog
// (deferred to NewMonitor, which has the program).
func (c *Config) validateAnnotations(prog *isa.Program) error {
	for i := range c.Annotations {
		if err := c.Annotations[i].Validate(prog); err != nil {
			return err
		}
	}
	return nil
}

// Region is one monitored code region: a loop's address span, its
// interval histogram and its local phase detector.
type Region struct {
	// ID is the region's stable identifier within its monitor.
	ID int
	// Start, End delimit the region's half-open address span.
	Start, End isa.Addr
	// Loop is the natural loop the region was built from (nil for
	// regions added manually via AddRegion on a non-loop span).
	Loop *isa.Loop
	// Detector is the region's local phase detector.
	Detector *lpd.Detector
	// FormedAt is the overflow sequence number at which the region was
	// formed.
	FormedAt int

	curr         []int64
	intervalHits int
	totalSamples int64
	idleFor      int
}

// Name renders the paper's region-name convention, e.g. "146f0-14770".
func (r *Region) Name() string { return fmt.Sprintf("%v-%v", r.Start, r.End) }

// NumInstrs returns the region's instruction count.
func (r *Region) NumInstrs() int { return int(r.End-r.Start) / isa.InstrBytes }

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr isa.Addr) bool { return addr >= r.Start && addr < r.End }

// TotalSamples returns the samples attributed to the region so far.
func (r *Region) TotalSamples() int64 { return r.totalSamples }

// GranularityCycles estimates the region's granularity in the paper's
// Section 3.2 sense — "the smallest number of cycles required to execute a
// single iteration of the code region" — by summing the per-instruction
// base costs supplied by cost (stall-free lower bound). Local phase
// detection assumes the sampling period exceeds this value; callers can
// warn when it does not.
func (r *Region) GranularityCycles(prog *isa.Program, cost func(isa.Kind) uint64) uint64 {
	var total uint64
	for a := r.Start; a < r.End; a += isa.InstrBytes {
		k, ok := prog.KindAt(a)
		if !ok {
			k = isa.KindNop
		}
		total += cost(k)
	}
	return total
}

// AppendHistogram appends the region's current-interval histogram to dst
// and returns the extended slice. It is the allocation-free form of
// Histogram for callers that reuse a buffer across intervals.
func (r *Region) AppendHistogram(dst []int64) []int64 {
	return append(dst, r.curr...)
}

// Histogram returns a copy of the region's current-interval histogram
// (inspection helper; see AppendHistogram for the reusable-buffer form).
func (r *Region) Histogram() []int64 {
	return r.AppendHistogram(make([]int64, 0, len(r.curr)))
}

// RegionVerdict pairs a region with its verdict for one interval.
type RegionVerdict struct {
	// Region is the monitored region.
	Region *Region
	// Verdict is the local phase detector's output.
	Verdict lpd.Verdict
	// Samples is the number of samples the region received this interval.
	Samples int
}

// Report summarizes one overflow's worth of monitoring. The Verdicts
// slice is reused across intervals: like hpm.Overflow.Samples, it is
// valid only until the next ProcessOverflow call, so consumers that
// retain verdicts must copy them. It is the pipeline payload the
// RegionMonitor adapter publishes.
//
//lint:payload
type Report struct {
	// Seq is the overflow sequence number.
	Seq int
	// TotalSamples is the number of samples in the buffer.
	TotalSamples int
	// MonitoredSamples landed in at least one region.
	MonitoredSamples int
	// UCRSamples landed in no region. Idle samples (PC 0) are included:
	// time spent outside the program text is still unmonitored time, and
	// Figure 6/7's UCR fractions count it. Subtract IdleSamples for the
	// code-only count.
	UCRSamples int
	// IdleSamples is the number of UCR samples at PC 0 — cycles sampled
	// while no program instruction was executing. They can never seed a
	// region, so formation decisions exclude them (see
	// FormationTriggered).
	IdleSamples int
	// UCRFraction is UCRSamples / TotalSamples (0 for an empty buffer).
	UCRFraction float64
	// FormationTriggered reports that the unmonitored fraction of *code*
	// samples — (UCRSamples-IdleSamples) / (TotalSamples-IdleSamples) —
	// exceeded the threshold this interval. Idle samples are excluded from
	// both sides so an idle-heavy interval cannot trip formation with
	// nothing to form.
	FormationTriggered bool
	// NewRegions lists regions formed this interval.
	NewRegions []*Region
	// Pruned lists regions removed this interval.
	Pruned []*Region //lint:bounded -- reset per interval; at most one entry per region
	// Verdicts holds one entry per monitored region, in region-ID order.
	Verdicts []RegionVerdict //lint:bounded -- reset per interval onto verdictScratch; one entry per region
}

// Monitor is the region monitoring framework. Single-owner: the
// monitoring goroutine alone calls ProcessOverflow, and reports alias
// monitor-owned scratch.
//
//lint:single-owner
type Monitor struct {
	prog *isa.Program //lint:config -- fixed at construction
	cfg  Config       //lint:config -- fixed at construction

	regions map[int]*Region
	// index is rebuilt from regions on restore, never serialized.
	index interval.Index //lint:config
	// epoch is non-nil exactly when index is the epoch snapshot; its
	// closure-free Lookup enables the count-compressed batch path.
	epoch *interval.Epoch //lint:config -- derived view of index
	// sortedIDs holds the monitored region IDs ascending, maintained
	// incrementally (AddRegion assigns monotonically increasing IDs, so
	// insertion is an append; removal copies down in place). It replaces
	// the per-interval collect-and-sort over the regions map.
	sortedIDs []int //lint:config -- derived from regions; rebuilt on restore
	nextID    int
	seq       int

	ucr       *stats.Series
	loopCount map[*isa.Loop]int //lint:config -- scratch for formation

	// Per-interval scratch, reused across ProcessOverflow calls so the
	// monitoring hot path stays allocation-free in steady state.
	runs       *stats.RunScratch //lint:config -- count-compression scratch (epoch path)
	keyScratch []uint64          //lint:config -- sample PCs as radix keys (epoch path)
	ucrScratch []isa.Addr        //lint:config -- UCR PCs of the current interval
	// idScratch holds the sorted region IDs the verdict loop iterates.
	//lint:bounded -- reused via [:0]; one entry per region
	idScratch      []int           //lint:config
	verdictScratch []RegionVerdict //lint:config -- backing array for Report.Verdicts
	stabPC         isa.Addr        //lint:config -- current sample PC for stabVisit
	stabHit        bool            //lint:config -- current sample landed in a region
	stabVisit      func(id int)    //lint:config -- distribution callback (built once)
	medScratch     []float64       //lint:config -- UCRMedian sort scratch
}

// NewMonitor returns a monitor for prog.
func NewMonitor(prog *isa.Program, cfg Config) (*Monitor, error) {
	if prog == nil {
		return nil, fmt.Errorf("region: nil program")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validateAnnotations(prog); err != nil {
		return nil, err
	}
	var ix interval.Index
	var epoch *interval.Epoch
	switch cfg.Index {
	case IndexTree:
		ix = interval.NewTree()
	case IndexList:
		ix = interval.NewList()
	default:
		epoch = interval.NewEpoch()
		ix = epoch
	}
	m := &Monitor{
		prog:      prog,
		cfg:       cfg,
		regions:   make(map[int]*Region),
		index:     ix,
		epoch:     epoch,
		loopCount: make(map[*isa.Loop]int),
	}
	if epoch != nil {
		m.runs = stats.NewRunScratch(hpm.DefaultBufferSize)
		m.keyScratch = make([]uint64, 0, hpm.DefaultBufferSize)
	}
	m.ucr = m.newUCRSeries()
	// Built once so sample distribution creates no per-sample closures.
	m.stabVisit = func(id int) {
		r := m.regions[id]
		r.curr[int(m.stabPC-r.Start)/isa.InstrBytes]++
		r.intervalHits++
		r.totalSamples++
		m.stabHit = true
	}
	return m, nil
}

// newUCRSeries builds the UCR-fraction history configured by
// Config.UCRHistoryCap (also used to stage a fresh series during Restore).
func (m *Monitor) newUCRSeries() *stats.Series {
	switch m.cfg.UCRHistoryCap {
	case RetainAllHistory:
		return stats.NewUnboundedSeries()
	case 0:
		return stats.NewSeries(DefaultUCRHistoryCap)
	default:
		return stats.NewSeries(m.cfg.UCRHistoryCap)
	}
}

// Regions returns the monitored regions in ID order.
func (m *Monitor) Regions() []*Region {
	out := make([]*Region, 0, len(m.sortedIDs))
	for _, id := range m.sortedIDs {
		out = append(out, m.regions[id])
	}
	return out
}

// RegionAt returns the first monitored region containing addr, preferring
// the innermost (smallest) one, or nil.
func (m *Monitor) RegionAt(addr isa.Addr) *Region {
	var best *Region
	m.index.Stab(uint64(addr), func(id int) {
		r := m.regions[id]
		if best == nil || r.End-r.Start < best.End-best.Start {
			best = r
		}
	})
	return best
}

// UCRHistory returns the retained per-interval UCR fractions, oldest
// first. Under the default bounded configuration this is the most recent
// UCRHistoryCap intervals (UCRDropped reports how many older ones were
// evicted); with UCRHistoryCap = RetainAllHistory it is the complete
// series.
func (m *Monitor) UCRHistory() []float64 { return m.ucr.Values(nil) }

// UCRDropped returns the number of per-interval UCR fractions evicted
// from the bounded history (0 in retain-everything mode).
func (m *Monitor) UCRDropped() int64 { return m.ucr.Dropped() }

// UCRMedian returns the median per-interval UCR fraction over the
// retained history — the Figure 6 per-benchmark quantity. The sort
// scratch is reused across calls, so periodic reporting does not
// allocate once the history has filled.
func (m *Monitor) UCRMedian() float64 {
	if n := m.ucr.Len(); cap(m.medScratch) < n {
		m.medScratch = make([]float64, 0, n)
	}
	return m.ucr.MedianInto(m.medScratch)
}

// AddRegion manually registers a region over [start, end) (used for
// non-loop spans in tests and by controllers with prior knowledge).
func (m *Monitor) AddRegion(start, end isa.Addr) (*Region, error) {
	if start >= end {
		return nil, fmt.Errorf("region: empty span %v-%v", start, end)
	}
	for _, r := range m.regions {
		if r.Start == start && r.End == end {
			return nil, fmt.Errorf("region: span %v-%v already monitored", start, end)
		}
	}
	if m.cfg.MaxRegions > 0 && len(m.regions) >= m.cfg.MaxRegions {
		return nil, fmt.Errorf("region: region cap %d reached", m.cfg.MaxRegions)
	}
	n := int(end-start) / isa.InstrBytes
	det, err := lpd.New(n, m.cfg.Detector)
	if err != nil {
		return nil, err
	}
	var loop *isa.Loop
	if p := m.prog.ProcAt(start); p != nil {
		if l := p.InnermostLoopAt(start); l != nil && l.Start() == start && l.End() == end {
			loop = l
		}
	}
	r := &Region{
		ID:       m.nextID,
		Start:    start,
		End:      end,
		Loop:     loop,
		Detector: det,
		FormedAt: m.seq,
		curr:     make([]int64, n),
	}
	m.nextID++
	m.regions[r.ID] = r
	m.index.Insert(r.ID, uint64(start), uint64(end))
	// IDs are assigned monotonically, so the append keeps sortedIDs sorted.
	m.sortedIDs = append(m.sortedIDs, r.ID)
	return r, nil
}

// removeRegion drops r from the monitor.
func (m *Monitor) removeRegion(r *Region) {
	delete(m.regions, r.ID)
	m.index.Remove(r.ID)
	ids := m.sortedIDs
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < r.ID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	m.sortedIDs = append(ids[:lo], ids[lo+1:]...)
}

// ProcessOverflow runs one interval of region monitoring over the
// delivered sample buffer and returns the report. It is the monitoring
// thread's whole job: distribute, form, detect, prune. The report's
// Verdicts slice is backed by monitor-owned scratch (see Report).
func (m *Monitor) ProcessOverflow(ov *hpm.Overflow) Report {
	rep := Report{Seq: ov.Seq, TotalSamples: len(ov.Samples)}
	m.seq = ov.Seq

	// Phase 1: distribute samples. UCR PCs are collected for formation.
	// The epoch path count-compresses the buffer first so each distinct PC
	// is stabbed once; it produces the same counters and histograms as the
	// per-sample path (formation is insensitive to ucrPCs order, the only
	// thing that differs).
	var ucrPCs []isa.Addr
	if m.epoch != nil {
		ucrPCs = m.distributeBatched(ov, &rep)
	} else {
		ucrPCs = m.distributePerSample(ov, &rep)
	}
	m.ucrScratch = ucrPCs
	if rep.TotalSamples > 0 {
		rep.UCRFraction = float64(rep.UCRSamples) / float64(rep.TotalSamples)
	}
	m.ucr.Append(rep.UCRFraction)

	// Phase 2: region formation when the UCR is too hot. Idle samples are
	// excluded from the trigger: they are unmonitored time but map to no
	// instruction, so an idle-heavy interval has nothing to form regions
	// around.
	codeSamples := rep.TotalSamples - rep.IdleSamples
	codeUCR := rep.UCRSamples - rep.IdleSamples
	if codeSamples > 0 && float64(codeUCR)/float64(codeSamples) > m.cfg.UCRThreshold {
		rep.FormationTriggered = true
		rep.NewRegions = m.formRegions(ucrPCs)
	}

	// Phase 3: local phase detection per region, then reset interval
	// state and prune cold regions. Pruning mutates sortedIDs mid-loop,
	// so iterate over a scratch copy.
	ids := append(m.idScratch[:0], m.sortedIDs...)
	m.idScratch = ids
	rep.Verdicts = m.verdictScratch[:0]
	for _, id := range ids {
		r := m.regions[id]
		sparse := r.intervalHits > 0 && r.intervalHits < m.cfg.MinObserveSamples
		if sparse {
			// Too sparse to judge: treat as an empty interval.
			for i := range r.curr {
				r.curr[i] = 0
			}
		}
		v := r.Detector.Observe(r.curr)
		rep.Verdicts = append(rep.Verdicts, RegionVerdict{Region: r, Verdict: v, Samples: r.intervalHits})
		// A region counts as idle when it had no *observable* activity —
		// sparse trickle samples below the observation guard do not keep
		// a cold region alive ("remove infrequently executing and
		// relatively cold regions"). The formation interval is exempt: a
		// region formed this interval saw only the tail of the triggering
		// buffer replayed into it, and that partial interval must not
		// start the idle clock (it could otherwise be pruned PruneAfter
		// intervals after formation without ever seeing a full interval).
		if r.intervalHits >= m.cfg.MinObserveSamples {
			r.idleFor = 0
		} else if r.FormedAt != m.seq {
			r.idleFor++
		}
		// r.curr was already zeroed in the sparse path above, and an
		// empty interval left nothing to clear; zero exactly once.
		if !sparse && r.intervalHits > 0 {
			for i := range r.curr {
				r.curr[i] = 0
			}
		}
		r.intervalHits = 0
		if m.cfg.PruneAfter > 0 && r.idleFor >= m.cfg.PruneAfter {
			m.removeRegion(r)
			rep.Pruned = append(rep.Pruned, r)
		}
	}
	m.verdictScratch = rep.Verdicts
	return rep
}

// distributePerSample stabs the index once per buffered sample (the list
// and tree paths). It returns the interval's non-idle UCR PCs, backed by
// monitor scratch.
func (m *Monitor) distributePerSample(ov *hpm.Overflow, rep *Report) []isa.Addr {
	ucrPCs := m.ucrScratch[:0]
	for i := range ov.Samples {
		m.stabPC = ov.Samples[i].PC
		m.stabHit = false
		m.index.Stab(uint64(m.stabPC), m.stabVisit)
		if m.stabHit {
			rep.MonitoredSamples++
		} else {
			rep.UCRSamples++
			if m.stabPC != 0 {
				ucrPCs = append(ucrPCs, m.stabPC)
			} else {
				rep.IdleSamples++
			}
		}
	}
	return ucrPCs
}

// distributeBatched is the epoch path: the buffer is count-compressed
// into (distinct PC, count) runs, each run stabs the epoch snapshot once,
// and histograms advance by the run count. Loopy buffers hold far fewer
// distinct PCs than samples, so this removes most of the stabbing work.
// UCR PCs are re-expanded run-by-run so formation sees the same multiset
// as the per-sample path (sorted rather than in buffer order, which
// formation is insensitive to).
func (m *Monitor) distributeBatched(ov *hpm.Overflow, rep *Report) []isa.Addr {
	keys := m.keyScratch[:0]
	for i := range ov.Samples {
		keys = append(keys, uint64(ov.Samples[i].PC))
	}
	m.keyScratch = keys
	pcs, counts := m.runs.Compress(keys)

	ucrPCs := m.ucrScratch[:0]
	for i, pc := range pcs {
		c := int(counts[i])
		ids := m.epoch.Lookup(pc)
		if len(ids) > 0 {
			rep.MonitoredSamples += c
			for _, id := range ids {
				r := m.regions[id]
				r.curr[int(isa.Addr(pc)-r.Start)/isa.InstrBytes] += int64(c)
				r.intervalHits += c
				r.totalSamples += int64(c)
			}
			continue
		}
		rep.UCRSamples += c
		if pc == 0 {
			rep.IdleSamples += c
			continue
		}
		for ; c > 0; c-- {
			ucrPCs = append(ucrPCs, isa.Addr(pc))
		}
	}
	return ucrPCs
}

// formRegions builds loop regions around unmonitored hot samples: each UCR
// PC is mapped to its innermost enclosing natural loop; loops gathering at
// least MinRegionSamples become regions. Samples with no enclosing loop
// (straight-line code, loops crossing procedure boundaries) form nothing —
// the paper's persistent-UCR limitation. The triggering interval's samples
// are replayed into the new regions so detection starts immediately.
//
// Formation only runs when the UCR fraction trips the threshold — a rare
// event, not per-interval work — so it is free to allocate (new regions,
// their detectors, histogram storage).
//
//lint:allow hotpath boundedstate -- region formation is a declared cold sub-path, capped by cfg.MaxRegions
func (m *Monitor) formRegions(ucrPCs []isa.Addr) []*Region {
	clear(m.loopCount)
	for _, pc := range ucrPCs {
		p := m.prog.ProcAt(pc)
		if p == nil {
			continue
		}
		if l := p.InnermostLoopAt(pc); l != nil {
			m.loopCount[l]++
		}
	}
	// Deterministic formation order: hottest loop first, address as tie
	// break.
	type cand struct {
		loop *isa.Loop
		n    int
	}
	cands := make([]cand, 0, len(m.loopCount))
	for l, n := range m.loopCount {
		if n >= m.cfg.MinRegionSamples {
			cands = append(cands, cand{l, n})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].n != cands[j].n {
			return cands[i].n > cands[j].n
		}
		return cands[i].loop.Start() < cands[j].loop.Start()
	})
	var formed []*Region
	for _, c := range cands {
		r, err := m.AddRegion(c.loop.Start(), c.loop.End())
		if err != nil {
			continue // already monitored under an identical span, or cap hit
		}
		r.Loop = c.loop
		formed = append(formed, r)
	}
	// Extension candidates (compiler annotations, inter-procedural
	// regions) — no-ops under the paper's baseline configuration.
	for _, c := range m.extendedCandidates(ucrPCs) {
		r, err := m.AddRegion(c.start, c.end)
		if err != nil {
			continue
		}
		formed = append(formed, r)
	}
	if len(formed) == 0 {
		return nil
	}
	// Replay the triggering interval's UCR samples into the new regions.
	for _, pc := range ucrPCs {
		for _, r := range formed {
			if r.Contains(pc) {
				r.curr[int(pc-r.Start)/isa.InstrBytes]++
				r.intervalHits++
				r.totalSamples++
			}
		}
	}
	return formed
}

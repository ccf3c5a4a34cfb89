// Package region implements the paper's region monitoring framework
// (Section 3): it decouples working-set change detection from phase
// detection. On every sample-buffer overflow it
//
//  1. distributes the buffered PC samples across the monitored regions
//     (counting the buffer's samples per instruction slot of the
//     program's code map in one pass, then letting each region read its
//     per-instruction histogram straight from the counts of the slots
//     its span covers); a sample falling in several overlapping regions
//     (nested loops) increments all of them;
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
//
// Formation reads only the current interval's UCR fraction, so the
// monitor keeps no per-interval history: its state is the region set.
// Each Report carries the interval's UCRFraction, and a caller that wants
// the series over time (Figures 6 and 7, SystemStats.UCRMedian) collects
// it from the reports.
package region

import (
	"fmt"
	"sort"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/lpd"
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
}

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
// interval histogram and its local phase detector. Monitor's snapshot
// methods serialize it field by field.
//
//lint:snapshot
type Region struct {
	// ID is the region's stable identifier within its monitor.
	ID int
	// Start, End delimit the region's half-open address span.
	Start, End isa.Addr
	// Loop is the natural loop the region was built from (nil for
	// regions added manually via AddRegion on a non-loop span).
	Loop *isa.Loop //lint:config -- re-derived from the program on restore
	// Detector is the region's local phase detector.
	Detector *lpd.Detector
	// FormedAt is the sequence number of the overflow that formed the
	// region (for AddRegion between intervals, of the last overflow
	// processed). It is informational: no monitoring decision reads it.
	FormedAt int

	// curr and intervalHits accumulate one interval; ProcessOverflow
	// zeroes both before it returns, so a snapshot has nothing to store.
	curr         []int64 //lint:config -- zero between intervals; restore allocates it zeroed
	intervalHits int     //lint:config -- zero between intervals
	totalSamples int64
	idleFor      int

	// runs are the runs of slots the span covers on code pages, and
	// offMap reports that it also reaches addresses on no code page;
	// newRegion derives both from the span.
	runs   []slotRun //lint:config -- derived from the span and the program
	offMap bool      //lint:config -- derived from the span and the program
}

// slotRun is a run of consecutive instruction slots inside a region's
// span: slots slot..slot+n-1 hold the instructions of histogram bins
// bin..bin+n-1. Slots on consecutive code pages are consecutive, so a
// loop or procedure region is one run.
type slotRun struct{ slot, bin, n int }

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

	// regions holds the monitored regions in ID order. AddRegion assigns
	// IDs in increasing order, so insertion is an append.
	regions []*Region
	nextID  int
	seq     int

	// cover holds, per instruction slot (see isa.Program.Slot), the
	// number of regions whose span covers it, and offMapRegions the
	// number of regions whose span reaches addresses on no code page.
	// Both derive from the region set: AddRegion, pruning and the restore
	// commit adjust them.
	cover         []int32 //lint:config -- derived from the region set
	offMapRegions int     //lint:config -- derived from the region set

	// Per-interval scratch, reused across ProcessOverflow calls so the
	// monitoring hot path stays allocation-free in steady state. counts
	// is indexed by slot and zero between intervals.
	counts         []uint32        //lint:config -- per-slot sample counts, zero between intervals
	seen           []int32         //lint:config -- count scratch: first-seen slots, then off-map sample indices
	loopTally      []int           //lint:config -- formation scratch, per program loop ordinal
	verdictScratch []RegionVerdict //lint:config -- backing array for Report.Verdicts
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
	return &Monitor{
		prog:   prog,
		cfg:    cfg,
		cover:  make([]int32, prog.NumSlots()),
		counts: make([]uint32, prog.NumSlots()),
	}, nil
}

// Regions returns the monitored regions in ID order.
func (m *Monitor) Regions() []*Region {
	return append(make([]*Region, 0, len(m.regions)), m.regions...)
}

// AddRegion manually registers a region over [start, end) (used for
// non-loop spans in tests and by controllers with prior knowledge).
func (m *Monitor) AddRegion(start, end isa.Addr) (*Region, error) {
	if start >= end {
		return nil, fmt.Errorf("region: empty span %v-%v", start, end)
	}
	// A misaligned start would split an instruction: a PC and its slot
	// address could then land in different regions or bins. A partial
	// trailing instruction would let a sample at the last address index
	// one past the histogram.
	if start%isa.InstrBytes != 0 {
		return nil, fmt.Errorf("region: span %v-%v starts inside an instruction", start, end)
	}
	if (end-start)%isa.InstrBytes != 0 {
		return nil, fmt.Errorf("region: span %v-%v is not a whole number of instructions", start, end)
	}
	for _, r := range m.regions {
		if r.Start == start && r.End == end {
			return nil, fmt.Errorf("region: span %v-%v already monitored", start, end)
		}
	}
	if m.cfg.MaxRegions > 0 && len(m.regions) >= m.cfg.MaxRegions {
		return nil, fmt.Errorf("region: region cap %d reached", m.cfg.MaxRegions)
	}
	det, err := lpd.New(int(end-start)/isa.InstrBytes, m.cfg.Detector)
	if err != nil {
		return nil, err
	}
	r := m.newRegion(m.nextID, start, end, det)
	r.FormedAt = m.seq
	m.nextID++
	m.regions = append(m.regions, r)
	m.addCover(r, 1)
	return r, nil
}

// newRegion returns the region over the instruction-aligned span [start,
// end) with its detector, a zeroed histogram, and the loop and slot runs
// derived from the span: each run of slots the span covers on code pages,
// and whether it also reaches addresses on no code page. The runs follow
// the code map's slots, whose pages start at the program's first
// instruction, not at a multiple of the page size.
func (m *Monitor) newRegion(id int, start, end isa.Addr, det *lpd.Detector) *Region {
	r := &Region{
		ID:       id,
		Start:    start,
		End:      end,
		Loop:     m.loopSpanning(start, end),
		Detector: det,
		curr:     make([]int64, int(end-start)/isa.InstrBytes),
	}
	for a := start; a < end; a += isa.InstrBytes {
		s := m.prog.Slot(a)
		if s < 0 {
			r.offMap = true
			continue
		}
		// A run goes on while both slot and bin go up by one: slot
		// ordinals skip pages without code, so consecutive slots can lie
		// on either side of an off-map gap, whose bins are skipped.
		bin := int(a-start) / isa.InstrBytes
		if k := len(r.runs) - 1; k >= 0 && r.runs[k].slot+r.runs[k].n == s && r.runs[k].bin+r.runs[k].n == bin {
			r.runs[k].n++
			continue
		}
		r.runs = append(r.runs, slotRun{slot: s, bin: bin, n: 1})
	}
	return r
}

// addCover adds d to the cover of every slot r covers, and to the
// off-map region count when r reaches off the code map.
func (m *Monitor) addCover(r *Region, d int32) {
	for _, run := range r.runs {
		c := m.cover[run.slot : run.slot+run.n]
		for i := range c {
			c[i] += d
		}
	}
	if r.offMap {
		m.offMapRegions += int(d)
	}
}

// loopSpanning returns the innermost loop at start when its span is
// exactly [start, end), or nil.
func (m *Monitor) loopSpanning(start, end isa.Addr) *isa.Loop {
	if l := m.prog.LoopAt(start); l != nil && l.Start() == start && l.End() == end {
		return l
	}
	return nil
}

// ProcessOverflow runs one interval of region monitoring over the
// delivered sample buffer and returns the report. It is the monitoring
// thread's whole job: distribute, form, detect, prune. The report's
// Verdicts slice is backed by monitor-owned scratch (see Report).
func (m *Monitor) ProcessOverflow(ov *hpm.Overflow) Report {
	rep := Report{Seq: ov.Seq, TotalSamples: len(ov.Samples)}
	m.seq = ov.Seq

	// Phase 1: distribute samples. The UCR samples are kept for formation.
	ucr := m.distribute(ov, &rep)
	if rep.TotalSamples > 0 {
		rep.UCRFraction = float64(rep.UCRSamples) / float64(rep.TotalSamples)
	}

	// Phase 2: region formation when the UCR is too hot. Idle samples are
	// excluded from the trigger: they are unmonitored time but map to no
	// instruction, so an idle-heavy interval has nothing to form regions
	// around.
	codeSamples := rep.TotalSamples - rep.IdleSamples
	codeUCR := rep.UCRSamples - rep.IdleSamples
	formedFrom := len(m.regions) // regions from here on are formed this interval
	if codeSamples > 0 && float64(codeUCR)/float64(codeSamples) > m.cfg.UCRThreshold {
		rep.FormationTriggered = true
		rep.NewRegions = m.formRegions(ucr)
	}
	for _, s := range ucr.counted {
		m.counts[s] = 0
	}

	// Phase 3: local phase detection per region, then reset interval
	// state and prune cold regions, compacting the region slice in place.
	rep.Verdicts = m.verdictScratch[:0]
	live := m.regions[:0]
	for i, r := range m.regions {
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
		// The exemption goes by position, not by the producer's Seq,
		// which need not rise.
		if r.intervalHits >= m.cfg.MinObserveSamples {
			r.idleFor = 0
		} else if i < formedFrom {
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
			m.addCover(r, -1)
			rep.Pruned = append(rep.Pruned, r)
			continue
		}
		live = append(live, r)
	}
	clear(m.regions[len(live):])
	m.regions = live
	m.verdictScratch = rep.Verdicts
	return rep
}

// ucrSet is one buffer's non-idle unmonitored samples as distribute
// leaves them for formation: the distinct slots in slots, whose counts
// stay in the monitor's per-slot counts until ProcessOverflow clears
// them, and in off the indices into samples of the samples on no code
// page, one sample each. counted holds every distinct slot the buffer
// touched, slots first, for ProcessOverflow to clear.
type ucrSet struct {
	slots, off, counted []int32
	samples             []hpm.Sample
}

// eachUCR calls f with every run of u: each slot's address and count,
// then each off-map sample's PC with count 1.
func (m *Monitor) eachUCR(u ucrSet, f func(pc isa.Addr, n int)) {
	for _, s := range u.slots {
		f(m.prog.SlotAddr(int(s)), int(m.counts[s]))
	}
	for _, i := range u.off {
		f(u.samples[i].PC, 1)
	}
}

// distribute spreads the buffer over the monitored regions and returns
// its non-idle UCR samples. It counts the samples per instruction slot of
// the program's code map; a distinct slot no region covers is UCR, and
// every region then reads its histogram bins, hits and totals straight
// from the counts of the slots its runs cover. Every consumer only adds
// counts (histogram bins, hit and UCR counters, loop and procedure
// tallies), so slot order cannot change a result; region bounds are
// instruction-aligned, so a PC and its slot's address share their
// regions and histogram bins. Samples on no code page — idle PC 0, or
// anything outside the text — are checked one at a time against the
// regions that reach off the code map, when there are any.
func (m *Monitor) distribute(ov *hpm.Overflow, rep *Report) ucrSet {
	samples := ov.Samples
	counts, cover := m.counts, m.cover
	seen, n, back := m.countSlots(samples)

	// Distinct slots: the UCR ones, which no region covers, move to the
	// front of seen[:n] for formation.
	u := 0
	for i, s := range seen[:n] {
		c := int(counts[s])
		if cover[s] == 0 {
			rep.UCRSamples += c
			seen[i], seen[u] = seen[u], s
			u++
			continue
		}
		rep.MonitoredSamples += c
	}
	// Every region reads its bins straight from the counts over its runs;
	// when no distinct slot is covered, every read would be zero.
	if u < n {
		for _, r := range m.regions {
			hits := 0
			for _, run := range r.runs {
				cs := counts[run.slot : run.slot+run.n]
				bins := r.curr[run.bin : run.bin+len(cs)]
				for i, c := range cs {
					bins[i] += int64(c)
					hits += int(c)
				}
			}
			r.intervalHits += hits
			r.totalSamples += int64(hits)
		}
	}

	// Off-map samples: the non-idle UCR ones compact into the back of
	// seen, walked from the end so no entry is overwritten unread.
	o := len(seen)
	for j := len(seen) - 1; j >= back; j-- {
		i := seen[j]
		pc := samples[i].PC
		if m.offMapRegions > 0 && m.distributeOffMap(pc) {
			rep.MonitoredSamples++
			continue
		}
		rep.UCRSamples++
		if pc == 0 {
			rep.IdleSamples++
			continue
		}
		o--
		seen[o] = i
	}
	return ucrSet{slots: seen[:u], off: seen[o:], counted: seen[:n], samples: samples}
}

// distributeOffMap adds the off-map sample pc to every region that
// contains it and reports whether any does.
func (m *Monitor) distributeOffMap(pc isa.Addr) bool {
	hit := false
	for _, r := range m.regions {
		if r.offMap && r.Contains(pc) {
			r.curr[int(pc-r.Start)/isa.InstrBytes]++
			r.intervalHits++
			r.totalSamples++
			hit = true
		}
	}
	return hit
}

// countSlots counts samples per instruction slot into counts. The
// distinct slots fill seen[:n] in first-seen order, and the indices of
// the samples on no code page fill seen[back:], last sample first. Each
// step writes the next front entry unconditionally and moves past it
// only on a slot's first touch, which it detects without a branch:
// (c-1)>>31 is 1 exactly when the old count c is 0. seen is sized to the
// buffer and valid until the next call.
func (m *Monitor) countSlots(samples []hpm.Sample) (seen []int32, n, back int) {
	if len(samples) > len(m.seen) {
		m.growSeen(len(samples))
	}
	prog, counts := m.prog, m.counts
	seen = m.seen[:len(samples)]
	back = len(seen)
	for i := range samples {
		s := prog.Slot(samples[i].PC)
		if s < 0 {
			back--
			seen[back] = int32(i)
			continue
		}
		c := counts[s]
		seen[n] = int32(s)
		n += int((c - 1) >> 31)
		counts[s] = c + 1
	}
	return seen, n, back
}

// growSeen sizes the count scratch for buffers of up to samples samples.
//
//lint:allow hotpath -- growth fires only when a buffer outgrows every earlier one, never in steady state
func (m *Monitor) growSeen(samples int) {
	m.seen = make([]int32, samples)
}

// formRegions builds loop regions around unmonitored hot samples: each
// distinct UCR slot's innermost enclosing natural loop, read from the
// code map, gathers the slot's sample count in a tally by loop ordinal;
// loops gathering at least MinRegionSamples become regions. Samples with
// no enclosing loop (straight-line code, loops crossing procedure
// boundaries) form nothing — the paper's persistent-UCR limitation. The triggering interval's samples
// are replayed into the new regions so detection starts immediately.
//
// Formation only runs when the UCR fraction trips the threshold — a rare
// event, not per-interval work — so it is free to allocate (new regions,
// their detectors, histogram storage).
//
//lint:allow hotpath boundedstate -- region formation is a declared cold sub-path, capped by cfg.MaxRegions
func (m *Monitor) formRegions(ucr ucrSet) []*Region {
	if m.loopTally == nil {
		m.loopTally = make([]int, m.prog.NumLoops())
	}
	for _, s := range ucr.slots {
		if l := m.prog.SlotLoop(int(s)); l >= 0 {
			m.loopTally[l] += int(m.counts[s])
		}
	}
	// Deterministic formation order: hottest loop first, address as tie
	// break.
	type cand struct {
		loop *isa.Loop
		n    int
	}
	var cands []cand
	for l, n := range m.loopTally {
		if n >= m.cfg.MinRegionSamples {
			cands = append(cands, cand{m.prog.Loop(l), n})
		}
	}
	clear(m.loopTally)
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
	for _, c := range m.extendedCandidates(ucr) {
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
	m.eachUCR(ucr, func(pc isa.Addr, n int) {
		for _, r := range formed {
			if r.Contains(pc) {
				r.curr[int(pc-r.Start)/isa.InstrBytes] += int64(n)
				r.intervalHits += n
				r.totalSamples += int64(n)
			}
		}
	})
	return formed
}

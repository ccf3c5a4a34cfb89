// Package region implements the paper's region monitoring framework
// (Section 3): it decouples working-set change detection from phase
// detection. On every sample-buffer overflow it
//
//  1. distributes the buffered PC samples across the monitored regions
//     (counting the buffer's samples per instruction slot of the
//     program's code map in one pass, then setting each region's
//     per-instruction histogram from the counts of its slots); a sample
//     falling in several overlapping regions (nested loops) counts in
//     all of them;
//  2. attributes samples outside every monitored region to the
//     UnMonitored Code Region (UCR) and, when the UCR fraction exceeds a
//     threshold (30% in the paper's study), triggers region formation —
//     building loop regions around the unmonitored hot samples;
//  3. runs each region's local phase detector on its interval histogram.
//
// Every region lies on the code map: its span is one run of consecutive
// instruction slots (isa.Program.SpanOnCode), which AddRegion, restore
// and Annotation.Validate require. A sample on no code page — idle PC 0,
// or an address outside the text — is UCR and can form nothing.
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

	// curr and intervalHits are the histogram the detector last observed
	// and its samples: each interval sets both from the slot counts
	// before anything reads them, so a snapshot has nothing to store.
	curr         []int64 //lint:config -- set every interval; restore allocates it zeroed
	intervalHits int     //lint:config -- set every interval
	totalSamples int64
	idleFor      int

	// slot is the slot of the span's first instruction: the span lies on
	// code pages, so histogram bin i counts slot+i.
	slot int //lint:config -- derived from the span and the program
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

// AppendHistogram appends the histogram the region's detector last
// observed to dst and returns the extended slice. It is the
// allocation-free form of Histogram for callers that reuse a buffer
// across intervals.
func (r *Region) AppendHistogram(dst []int64) []int64 {
	return append(dst, r.curr...)
}

// Histogram returns a copy of the histogram the region's detector last
// observed: the interval's per-instruction sample counts, all zero after
// an interval too sparse to judge, before the region's first interval
// and after a restore (inspection helper; see AppendHistogram for the
// reusable-buffer form).
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
	// number of regions whose span covers it. It derives from the region
	// set: AddRegion, pruning and the restore commit adjust it.
	cover []int32 //lint:config -- derived from the region set

	// Per-interval scratch, reused across ProcessOverflow calls so the
	// monitoring hot path stays allocation-free in steady state. counts
	// is indexed by slot and zero between intervals.
	counts         []uint32        //lint:config -- per-slot sample counts, zero between intervals
	seen           []int32         //lint:config -- count scratch: the buffer's distinct slots
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
// non-loop spans in tests and by controllers with prior knowledge). The
// span must be non-empty, start and end on instruction boundaries, and
// lie wholly on the program's code pages (isa.Program.SpanOnCode), so
// that it is one run of instruction slots; any other span is refused.
func (m *Monitor) AddRegion(start, end isa.Addr) (*Region, error) {
	if err := checkSpan(m.prog, start, end); err != nil {
		return nil, fmt.Errorf("region: %w", err)
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

// checkSpan reports why [start, end) cannot be a region of prog: it is
// empty, it starts or ends inside an instruction, or it reaches an
// address on no code page. A misaligned start would split an
// instruction, so a PC and its slot's address could land in different
// regions or bins; a partial trailing instruction would let a sample at
// the last address index one past the histogram; and off the code pages
// no sample has a slot for the region to read.
func checkSpan(prog *isa.Program, start, end isa.Addr) error {
	switch {
	case start >= end:
		return fmt.Errorf("empty span %v-%v", start, end)
	case start%isa.InstrBytes != 0:
		return fmt.Errorf("span %v-%v starts inside an instruction", start, end)
	case (end-start)%isa.InstrBytes != 0:
		return fmt.Errorf("span %v-%v is not a whole number of instructions", start, end)
	case !prog.SpanOnCode(start, end):
		return fmt.Errorf("span %v-%v reaches addresses on no code page", start, end)
	}
	return nil
}

// newRegion returns the region over the span [start, end), which
// checkSpan accepts, with its detector, a zeroed histogram, and the loop
// and first slot derived from the span.
func (m *Monitor) newRegion(id int, start, end isa.Addr, det *lpd.Detector) *Region {
	return &Region{
		ID:       id,
		Start:    start,
		End:      end,
		Loop:     m.loopSpanning(start, end),
		Detector: det,
		curr:     make([]int64, int(end-start)/isa.InstrBytes),
		slot:     m.prog.Slot(start),
	}
}

// addCover adds d to the cover of every slot r covers.
func (m *Monitor) addCover(r *Region, d int32) {
	c := m.cover[r.slot : r.slot+len(r.curr)]
	for i := range c {
		c[i] += d
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

	// Phase 1: distribute samples. The UCR slots keep their counts for
	// formation.
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
	for _, s := range ucr {
		m.counts[s] = 0
	}

	// Phase 3: local phase detection per region, then prune cold regions,
	// compacting the region slice in place.
	rep.Verdicts = m.verdictScratch[:0]
	live := m.regions[:0]
	for i, r := range m.regions {
		if r.intervalHits > 0 && r.intervalHits < m.cfg.MinObserveSamples {
			// Too sparse to judge: treat as an empty interval.
			clear(r.curr)
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

// eachUCR calls f with the address and count of each UCR slot that
// distribute returned, while the slots keep their counts.
func (m *Monitor) eachUCR(ucr []int32, f func(pc isa.Addr, n int)) {
	for _, s := range ucr {
		f(m.prog.SlotAddr(int(s)), int(m.counts[s]))
	}
}

// distribute spreads the buffer over the monitored regions and returns
// its UCR slots. It counts the samples per instruction slot of the
// program's code map; a distinct slot no region covers is UCR, and every
// region then sets its histogram bins and hits from the counts of its
// slots. Histogram bins take a slot's count, and hit and UCR counters and
// loop and procedure tallies add counts, so slot order cannot change a
// result; region bounds are instruction-aligned, so a PC and its slot's
// address share their regions and histogram bins. Samples on no code page
// — idle PC 0, or anything outside the text — lie in no region and are
// UCR. Only the UCR slots keep their counts, for formation, until
// ProcessOverflow clears them.
func (m *Monitor) distribute(ov *hpm.Overflow, rep *Report) []int32 {
	counts, cover := m.counts, m.cover
	seen, off, idle := m.countSlots(ov.Samples)
	rep.UCRSamples, rep.IdleSamples = off, idle

	// Distinct slots: the UCR ones, which no region covers, move to the
	// front of seen for formation.
	u := 0
	for i, s := range seen {
		c := int(counts[s])
		if cover[s] == 0 {
			rep.UCRSamples += c
			seen[i], seen[u] = seen[u], s
			u++
			continue
		}
		rep.MonitoredSamples += c
	}
	for _, r := range m.regions {
		r.read(counts)
	}
	// Formation, and each region it forms, reads only the UCR slots.
	for _, s := range seen[u:] {
		counts[s] = 0
	}
	return seen[:u]
}

// read sets r's histogram and interval hits from the per-slot counts over
// its slots and adds the hits to its total. It stays a call of its own:
// written inline in distribute, the loop's index and hit sum spilled to
// the stack, and BenchmarkProcessOverflow ran 5-42% slower at 64 and 512
// regions.
//
//go:noinline
func (r *Region) read(counts []uint32) {
	bins := r.curr
	cs := counts[r.slot:][:len(bins)]
	hits := 0
	for i := range bins {
		c := cs[i]
		bins[i] = int64(c)
		hits += int(c)
	}
	r.intervalHits = hits
	r.totalSamples += int64(hits)
}

// countSlots counts samples per instruction slot into counts and returns
// the distinct slots in first-seen order, the number of samples on no
// code page and how many of those are idle (PC 0). Each step writes the
// next entry of seen unconditionally and moves past it only on a slot's
// first touch, which it detects without a branch: (c-1)>>31 is 1 exactly
// when the old count c is 0. seen is valid until the next call.
func (m *Monitor) countSlots(samples []hpm.Sample) (seen []int32, off, idle int) {
	if len(samples) > len(m.seen) {
		m.growSeen(len(samples))
	}
	prog, counts := m.prog, m.counts
	seen = m.seen[:len(samples)]
	n := 0
	for i := range samples {
		pc := samples[i].PC
		s := prog.Slot(pc)
		if s < 0 {
			off++
			if pc == 0 {
				idle++
			}
			continue
		}
		c := counts[s]
		seen[n] = int32(s)
		n += int((c - 1) >> 31)
		counts[s] = c + 1
	}
	return seen[:n], off, idle
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
func (m *Monitor) formRegions(ucr []int32) []*Region {
	if m.loopTally == nil {
		m.loopTally = make([]int, m.prog.NumLoops())
	}
	for _, s := range ucr {
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
	// Replay the triggering interval's UCR samples into the new regions:
	// distribute left counts only on the UCR slots.
	for _, r := range formed {
		r.read(m.counts)
	}
	return formed
}

package main

import (
	"fmt"
	"slices"
	"sort"

	"regionmon/internal/hpm"
)

// unattributedTolerance is the share of wall time the traced layers may
// leave unexplained before the report flags the attribution.
const unattributedTolerance = 5.0 // percent

// shardAcc accumulates one shard's timeline over the traced repetitions
// (spec-replay has one: the replay loop).
type shardAcc struct {
	wall, self, unattributed int64
	intervals, runs          int64
}

// layerAcc accumulates layer self times and counts over the traced
// repetitions. A layer's self time is its span minus its children's: a
// detector's span has no children, the pipeline's self time (fan-out) is
// its span minus the detectors and the digest observer, and the ingest
// worker gap is the shard time between consecutive pipeline spans.
type layerAcc struct {
	names     []string
	intervals int64
	det       [maxDetectors]int64
	pipe      int64 // pipeline spans
	obs       int64 // digest observer (spec-replay)
	gap       int64 // ingest worker gaps (fleet-full)
	shards    []shardAcc
	reps      int64

	regionNS, cpNS []int64

	regionIntervals                 int64
	regions, formed, pruned         int64
	formations, gpdChanges          int64
	cpEvals, cpChanges, cpIntervals int64
	ucr                             float64
	sorted                          [][]*span // per-shard scratch
}

// count folds one interval's span into the totals.
func (a *layerAcc) count(s *span) {
	a.intervals++
	for i, name := range a.names {
		a.det[i] += s.det[i]
		switch name {
		case "regions":
			a.regionNS = append(a.regionNS, s.det[i])
		case "changepoint":
			a.cpNS = append(a.cpNS, s.det[i])
			a.cpIntervals++
		}
	}
	a.obs += s.obs
	if s.regionSeen {
		a.regionIntervals++
		a.regions += int64(s.regions)
		a.formed += int64(s.formed)
		a.pruned += int64(s.pruned)
		if s.formed > 0 {
			a.formations++
		}
		a.ucr += s.ucr
	}
	if s.gpdChange {
		a.gpdChanges++
	}
	if s.cpEval {
		a.cpEvals++
	}
	if s.cpChange {
		a.cpChanges++
	}
}

// addSpec folds one model's traced replay. Its pipeline span is the
// ProcessOverflow call.
func (a *layerAcc) addSpec(spans []span, names []string) {
	a.names = names
	if len(a.shards) == 0 {
		a.shards = make([]shardAcc, 1)
	}
	sh := &a.shards[0]
	for i := range spans {
		s := &spans[i]
		a.count(s)
		a.pipe += s.call
		sh.self += s.call
		sh.intervals++
	}
}

// endSpecRep closes one spec-replay repetition: the replay loop's wall
// time against the ProcessOverflow calls inside it.
func (a *layerAcc) endSpecRep(wall, calls int64) {
	a.shards[0].wall += wall
	a.shards[0].unattributed += wall - calls
	a.reps++
}

// addFleetRep folds one traced fleet repetition. Each shard's timeline
// runs from the first push to Drain's return; its spans, ordered by
// start, are pipeline calls, the gaps between them are ingest's worker
// time (ring hand-off, wake and park, slot copy-out, the fleet's digest),
// and the lead-in before the first span and the tail after the last are
// left unattributed.
func (a *layerAcc) addFleetRep(recs []*recorder, r *fleetRep, shards int, names []string) {
	a.names = names
	if len(a.shards) == 0 {
		a.shards = make([]shardAcc, shards)
		a.sorted = make([][]*span, shards)
	}
	for i := range a.sorted {
		a.sorted[i] = a.sorted[i][:0]
	}
	for s, rec := range recs {
		sh := r.shardOf[s]
		for i := range rec.spans[:rec.n] {
			a.sorted[sh] = append(a.sorted[sh], &rec.spans[i])
		}
	}
	for sh, spans := range a.sorted {
		acc := &a.shards[sh]
		wall := r.t1 - r.t0
		acc.wall += wall
		if len(spans) == 0 {
			acc.unattributed += wall
			continue
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		var self int64
		for k, s := range spans {
			a.count(s)
			d := s.end - s.start
			a.pipe += d
			self += d
			if k > 0 {
				g := s.start - spans[k-1].end
				a.gap += g
				self += g
				if s.stream != spans[k-1].stream {
					acc.runs++
				}
			} else {
				acc.runs++
			}
		}
		acc.self += self
		acc.intervals += int64(len(spans))
		acc.unattributed += wall - self
	}
	a.reps++
}

// finish emits the per-layer metrics and the attribution report.
func (a *layerAcc) finish(out *outcome, workload string) {
	m := out.metrics
	n := float64(a.intervals)
	reps := float64(a.reps)
	var detSum int64
	for i, name := range a.names {
		detSum += a.det[i]
		m.set(layerOf[name]+".ns_per_interval", float64(a.det[i])/n)
	}
	fanout := a.pipe - detSum - a.obs
	m.set("pipeline.ns_per_interval", float64(a.pipe)/n)
	m.set("pipeline.fanout_ns_per_interval", float64(fanout)/n)
	m.set("vhash.ns_per_interval", float64(a.obs)/n)
	m.set("ingest.worker_gap_ns_per_interval", float64(a.gap)/n)
	if a.regionNS != nil {
		m.set("region.p99_us", quantile(a.regionNS, 0.99)/1e3)
	}
	if a.cpNS != nil {
		m.set("changepoint.p99_us", quantile(a.cpNS, 0.99)/1e3)
	}
	if a.regionIntervals > 0 {
		ri := float64(a.regionIntervals)
		m.set("region.regions_mean", float64(a.regions)/ri)
		m.set("region.formations", float64(a.formations)/reps)
		m.set("region.regions_pruned", float64(a.pruned)/reps)
		m.set("region.ucr_frac_mean", a.ucr/ri)
		out.addf("region: %.1f monitored regions per interval and UCR fraction %.3f (base %d intervals per repetition); %d formations forming %d regions, %d pruned per repetition",
			float64(a.regions)/ri, a.ucr/ri, a.regionIntervals/a.reps, a.formations/a.reps, a.formed/a.reps, a.pruned/a.reps)
	}
	m.set("gpd.phase_changes", float64(a.gpdChanges)/reps)
	if a.cpIntervals > 0 {
		m.set("changepoint.evals", float64(a.cpEvals)/reps)
		m.set("changepoint.changes", float64(a.cpChanges)/reps)
		m.set("changepoint.evals_per_interval", float64(a.cpEvals)/float64(a.cpIntervals))
		out.addf("changepoint: %.4f evaluations per interval (%d evaluations over base %d intervals per repetition), %d changes",
			float64(a.cpEvals)/float64(a.cpIntervals), a.cpEvals/a.reps, a.cpIntervals/a.reps, a.cpChanges/a.reps)
	}
	m.set("trace.intervals", n/reps)

	// Attribution: layer self times against wall time, per shard.
	var wall, unattributed, runs, ints int64
	for sh, s := range a.shards {
		wall += s.wall
		unattributed += s.unattributed
		runs += s.runs
		ints += s.intervals
		out.addf("attribution %s shard %d: layers %.4f s of wall %.4f s, unattributed %.2f%%",
			workload, sh, float64(s.self)/1e9, float64(s.wall)/1e9, pct(s.unattributed, s.wall))
	}
	u := pct(unattributed, wall)
	m.set("trace.unattributed_pct", u)
	shares := fmt.Sprintf("pipeline fan-out %.1f%%", pct(fanout, wall))
	for i, name := range a.names {
		shares += fmt.Sprintf(", %s %.1f%%", layerOf[name], pct(a.det[i], wall))
	}
	if a.obs > 0 {
		shares += fmt.Sprintf(", vhash %.1f%%", pct(a.obs, wall))
	}
	if a.gap > 0 {
		shares += fmt.Sprintf(", ingest worker gap %.1f%%", pct(a.gap, wall))
	}
	out.addf("attribution %s: %d traced repetitions, %d intervals; share of wall: %s; unattributed %.2f%%",
		workload, a.reps, a.intervals, shares, u)
	if u > unattributedTolerance || u < -unattributedTolerance {
		out.addf("FLAG attribution %s: unattributed %.2f%% exceeds the %.0f%% tolerance", workload, u, unattributedTolerance)
	}
	if a.sorted != nil && runs > 0 {
		m.set("ingest.same_stream_run_mean", float64(ints)/float64(runs))
		out.addf("ingest: same-stream runs per shard %.2f intervals (base %d runs over %d intervals)", float64(ints)/float64(runs), runs, ints)
	}
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// samplesPerDistinctPC measures how much count compression has to work
// with: samples per distinct PC within an interval, over every input
// interval.
func samplesPerDistinctPC(out *outcome, inputs [][]*hpm.Overflow) float64 {
	var samples, distinct int64
	var pcs []uint64
	for _, stream := range inputs {
		for _, ov := range stream {
			pcs = hpm.PCs(ov, pcs[:0])
			slices.Sort(pcs)
			samples += int64(len(pcs))
			distinct += int64(len(slices.Compact(pcs)))
		}
	}
	if distinct == 0 {
		return 0
	}
	r := float64(samples) / float64(distinct)
	out.addf("inputs: %.2f samples per distinct PC (%d samples over base %d distinct (interval, PC) pairs)", r, samples, distinct)
	return r
}

// zeroAbsent reports 0 for every per-layer metric the workload's layers
// did not produce.
func zeroAbsent(m metricSet) {
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m.set(d.Name, 0)
		}
	}
}

package region

import (
	"fmt"

	"regionmon/internal/isa"
	"regionmon/internal/lpd"
	"regionmon/internal/snap"
)

// Monitor checkpointing. A snapshot captures the monitor's complete
// mutable state — the region set with each region's span, counters and
// local phase detector, plus the sequence and ID counters — and none of
// the construction inputs: a restore
// targets a monitor built over the same Program with the same Config. With that
// precondition the restored monitor's subsequent ProcessOverflow reports
// are identical to the uninterrupted monitor's for the same overflow
// stream (the soak harness asserts this byte-for-byte over the encoded
// verdicts).
//
// Regions are encoded in ID order, the order the monitor keeps them in,
// so identical state always produces identical bytes. Loop pointers,
// first slots and the per-slot cover are not serialized; they are
// re-derived from the program on restore, exactly as AddRegion derives
// them. Nor is a region's histogram or hit count: each interval sets both
// from its slot counts before anything reads them. Version 3 is the
// current layout; older versions are refused.

const monitorTag = "regmon"

// AppendSnapshot encodes the monitor's mutable state onto e.
func (m *Monitor) AppendSnapshot(e *snap.Encoder) {
	e.Header(monitorTag, 3)
	e.Int(m.seq)
	e.Int(m.nextID)

	e.Int(len(m.regions))
	for _, r := range m.regions {
		e.Int(r.ID)
		e.U64(uint64(r.Start))
		e.U64(uint64(r.End))
		e.Int(r.FormedAt)
		e.I64(r.totalSamples)
		e.Int(r.idleFor)
		r.Detector.AppendSnapshot(e)
	}
}

// StageSnapshot decodes and checks state written by AppendSnapshot and
// returns a commit that replaces the monitor's state with it; m is
// untouched until then. The monitor must have been built over the same
// Program with the same Config as the snapshotted one; spans or region
// counts that do not fit the current program/configuration are rejected.
func (m *Monitor) StageSnapshot(dec *snap.Decoder) (func(), error) {
	dec.Header(monitorTag, 3)
	seq := dec.Int()
	nextID := dec.Int()
	count := dec.Len()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if m.cfg.MaxRegions > 0 && count > m.cfg.MaxRegions {
		return nil, fmt.Errorf("region: snapshot has %d regions, exceeds cap %d", count, m.cfg.MaxRegions)
	}
	regions := make([]*Region, 0, count)
	for i := 0; i < count; i++ {
		id := dec.Int()
		start := isa.Addr(dec.U64())
		end := isa.Addr(dec.U64())
		formedAt := dec.Int()
		totalSamples := dec.I64()
		idleFor := dec.Int()
		if err := dec.Err(); err != nil {
			return nil, err
		}
		if id < 0 || id >= nextID {
			return nil, fmt.Errorf("region: snapshot region ID %d outside [0, %d)", id, nextID)
		}
		// AppendSnapshot encodes regions ascending by ID; the restored
		// monitor's region slice relies on that order.
		if len(regions) > 0 && id <= regions[len(regions)-1].ID {
			return nil, fmt.Errorf("region: snapshot region IDs not ascending (%d after %d)", id, regions[len(regions)-1].ID)
		}
		// The region's detector snapshot holds 8 bytes per instruction, so
		// a longer span is forged; rejecting it here bounds the detector's
		// allocation by the input. An inverted span reads as longer still.
		if (end-start)/isa.InstrBytes > isa.Addr(dec.Remaining()/8) {
			return nil, fmt.Errorf("region: snapshot region %d span %v-%v is longer than the remaining input", id, start, end)
		}
		if err := checkSpan(m.prog, start, end); err != nil {
			return nil, fmt.Errorf("region: snapshot region %d: %w", id, err)
		}
		det, err := lpd.New(int(end-start)/isa.InstrBytes, m.cfg.Detector)
		if err != nil {
			return nil, err
		}
		commitDet, err := det.StageSnapshot(dec)
		if err != nil {
			return nil, err
		}
		commitDet() // det is new and not yet reachable from m
		r := m.newRegion(id, start, end, det)
		r.FormedAt = formedAt
		r.totalSamples = totalSamples
		r.idleFor = idleFor
		regions = append(regions, r)
	}

	return func() {
		m.seq = seq
		m.nextID = nextID
		m.regions = regions
		clear(m.cover)
		for _, r := range regions {
			m.addCover(r, 1)
		}
	}, nil
}

package region

import (
	"fmt"

	"regionmon/internal/isa"
	"regionmon/internal/lpd"
	"regionmon/internal/snap"
)

// Monitor checkpointing. A snapshot captures the monitor's complete
// mutable state — the region set with each region's span, histogram,
// counters and local phase detector, plus the sequence/ID counters and the
// UCR history ring — and none of the construction inputs: Restore targets
// a monitor built over the same Program with the same Config. With that
// precondition the restored monitor's subsequent ProcessOverflow reports
// are identical to the uninterrupted monitor's for the same overflow
// stream (the soak harness asserts this byte-for-byte over the encoded
// verdicts).
//
// Regions are encoded in ID order, the order the monitor keeps them in,
// so identical state always produces identical bytes. Loop pointers are
// not serialized; they are re-derived from the program on restore,
// exactly as AddRegion derives them.

const monitorTag = "regmon"

// AppendSnapshot encodes the monitor's mutable state onto e.
func (m *Monitor) AppendSnapshot(e *snap.Encoder) {
	e.Header(monitorTag, 1)
	e.Int(m.seq)
	e.Int(m.nextID)
	m.ucr.AppendSnapshot(e)

	e.Int(len(m.regions))
	for _, r := range m.regions {
		e.Int(r.ID)
		e.U64(uint64(r.Start))
		e.U64(uint64(r.End))
		e.Int(r.FormedAt)
		e.I64(r.totalSamples)
		e.Int(r.intervalHits)
		e.Int(r.idleFor)
		e.I64s(r.curr)
		r.Detector.AppendSnapshot(e)
	}
}

// RestoreSnapshot decodes state written by AppendSnapshot into m,
// replacing the current region set. The monitor must have been built over
// the same Program with the same Config as the snapshotted one; spans or
// history shapes that do not fit the current program/configuration are
// rejected. On error the monitor is left unchanged.
func (m *Monitor) RestoreSnapshot(dec *snap.Decoder) error {
	return m.restore(dec, dec.Err)
}

// restore decodes and checks the whole snapshot into staged state and
// commits it only once done (the decoder's Err, or Finish for a
// standalone snapshot) reports success.
func (m *Monitor) restore(dec *snap.Decoder, done func() error) error {
	dec.Header(monitorTag, 1)
	seq := dec.Int()
	nextID := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}

	// Decode into a staging series/regions first so a mid-stream decode
	// error cannot leave the monitor half-restored.
	staged := m.newUCRSeries()
	if err := staged.RestoreSnapshot(dec); err != nil {
		return err
	}

	count := dec.Len()
	if err := dec.Err(); err != nil {
		return err
	}
	if m.cfg.MaxRegions > 0 && count > m.cfg.MaxRegions {
		return fmt.Errorf("region: snapshot has %d regions, exceeds cap %d", count, m.cfg.MaxRegions)
	}
	regions := make([]*Region, 0, count)
	for i := 0; i < count; i++ {
		id := dec.Int()
		start := isa.Addr(dec.U64())
		end := isa.Addr(dec.U64())
		formedAt := dec.Int()
		totalSamples := dec.I64()
		intervalHits := dec.Int()
		idleFor := dec.Int()
		curr := dec.I64s()
		if err := dec.Err(); err != nil {
			return err
		}
		if start >= end {
			return fmt.Errorf("region: snapshot region %d has empty span %v-%v", id, start, end)
		}
		// A partial trailing instruction would let a sample at the last
		// address index one past the histogram.
		if (end-start)%isa.InstrBytes != 0 {
			return fmt.Errorf("region: snapshot region %d span %v-%v is not a whole number of instructions", id, start, end)
		}
		if id < 0 || id >= nextID {
			return fmt.Errorf("region: snapshot region ID %d outside [0, %d)", id, nextID)
		}
		// AppendSnapshot encodes regions ascending by ID; the restored
		// monitor's region slice relies on that order.
		if len(regions) > 0 && id <= regions[len(regions)-1].ID {
			return fmt.Errorf("region: snapshot region IDs not ascending (%d after %d)", id, regions[len(regions)-1].ID)
		}
		n := int(end-start) / isa.InstrBytes
		if len(curr) != n {
			return fmt.Errorf("region: snapshot region %d histogram has %d entries for a %d-instruction span", id, len(curr), n)
		}
		det, err := lpd.New(n, m.cfg.Detector)
		if err != nil {
			return err
		}
		if err := det.RestoreSnapshot(dec); err != nil {
			return err
		}
		var loop *isa.Loop
		if p := m.prog.ProcAt(start); p != nil {
			if l := p.InnermostLoopAt(start); l != nil && l.Start() == start && l.End() == end {
				loop = l
			}
		}
		regions = append(regions, &Region{
			ID:           id,
			Start:        start,
			End:          end,
			Loop:         loop,
			Detector:     det,
			FormedAt:     formedAt,
			curr:         curr,
			intervalHits: intervalHits,
			totalSamples: totalSamples,
			idleFor:      idleFor,
		})
	}
	if err := done(); err != nil {
		return err
	}

	// Commit: swap in the staged state and rebuild the stab index.
	m.seq = seq
	m.nextID = nextID
	m.ucr = staged
	for _, r := range m.regions {
		m.index.Remove(r.ID)
	}
	m.regions = regions
	for _, r := range regions {
		m.index.Insert(r.ID, uint64(r.Start), uint64(r.End))
	}
	return nil
}

// Snapshot returns the monitor's state as a standalone versioned byte
// snapshot.
func (m *Monitor) Snapshot() []byte {
	e := snap.NewEncoder()
	m.AppendSnapshot(e)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// Restore replaces the monitor's state from a Snapshot produced by a
// monitor over the same program with the same configuration. Trailing
// bytes are an error, and on any error m is left as it was.
func (m *Monitor) Restore(data []byte) error {
	dec := snap.NewDecoder(data)
	return m.restore(dec, dec.Finish)
}

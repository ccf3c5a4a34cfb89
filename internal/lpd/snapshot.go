package lpd

import (
	"fmt"

	"regionmon/internal/snap"
)

// Detector checkpointing. A snapshot captures exactly the mutable
// observation state — the reference histogram, the Figure 12 state machine
// position, the last similarity value and the interval counters — and none
// of the configuration: a restore targets a detector constructed with the
// same Config and region size, and a resumed detector then produces a
// byte-identical verdict stream for the same subsequent inputs. The lastR
// float is stored as exact IEEE bits because empty intervals re-report it
// verbatim.

const snapshotTag = "lpd"

// AppendSnapshot encodes the detector's mutable state onto e.
func (d *Detector) AppendSnapshot(e *snap.Encoder) {
	e.Header(snapshotTag, 1)
	e.Int(d.n)
	e.Bool(d.hasRef)
	e.I64s(d.ref)
	e.Int(int(d.state))
	e.F64(d.lastR)
	e.Int(d.changes)
	e.Int(d.stable)
	e.Int(d.total)
}

// StageSnapshot decodes and checks state written by AppendSnapshot and
// returns a commit that applies it; d is untouched until then. The
// snapshot must come from a detector of the same region size; a mismatch
// means the caller is restoring into a differently built region and is
// rejected.
func (d *Detector) StageSnapshot(dec *snap.Decoder) (func(), error) {
	dec.Header(snapshotTag, 1)
	n := dec.Int()
	hasRef := dec.Bool()
	ref := dec.I64s()
	state := State(dec.Int())
	lastR := dec.F64()
	changes := dec.Int()
	stable := dec.Int()
	total := dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if n != d.n {
		return nil, fmt.Errorf("lpd: snapshot is for a %d-instruction region, detector has %d", n, d.n)
	}
	if len(ref) != d.n {
		return nil, fmt.Errorf("lpd: snapshot reference has %d entries, want %d", len(ref), d.n)
	}
	switch state {
	case Unstable, LessUnstable, Stable:
	default:
		return nil, fmt.Errorf("lpd: snapshot has invalid state %d", int(state))
	}
	return func() {
		copy(d.ref, ref)
		d.hasRef = hasRef
		if d.pref != nil && hasRef {
			// Rebuild the Pearson moment cache from the restored
			// reference; the conversion is deterministic, so the resumed
			// detector's r values stay bit-identical to the uninterrupted
			// run's.
			d.pref.Set(d.ref)
		}
		d.state = state
		d.lastR = lastR
		d.changes = changes
		d.stable = stable
		d.total = total
	}, nil
}

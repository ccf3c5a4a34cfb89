package region

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/snap"
)

// snapConfig is the configuration of the monitors the restore tests
// snapshot: idle pruning on, so a mid-stream snapshot holds pruned IDs.
func snapConfig(c *Config) { c.PruneAfter = 4 }

// fedMonitor returns a monitor that has processed the first n intervals
// of a 140-interval hardeningStream (formation, sparse and idle
// intervals, pruning), together with the whole stream.
func fedMonitor(t testing.TB, n int) (*Monitor, []*hpm.Overflow) {
	t.Helper()
	prog, l1, l2 := testProgram(t)
	m := newMonitor(t, prog, snapConfig)
	stream := hardeningStream(l1, l2, 140)
	for _, ov := range stream[:n] {
		m.ProcessOverflow(ov)
	}
	return m, stream
}

// badSnapshot is a forged snapshot and a fragment of the error restoring
// it must give.
type badSnapshot struct {
	name, err string
	data      []byte
}

// badMonitorSnapshots returns snapshots a restore must reject: a real
// mid-stream snapshot followed by a stray byte, one whose header and
// counters are valid but whose region count is 1<<62, one whose first
// region ends one byte into an instruction, one whose first region spans
// 1<<40 instructions, which would otherwise size that region's detector,
// and one whose first region starts two bytes into an instruction. Each
// carries the current header, so only its own defect can reject it. The
// last is the real snapshot relabelled version 2, the layout that still
// carried a UCR-fraction history.
func badMonitorSnapshots(t testing.TB) []badSnapshot {
	t.Helper()
	m, _ := fedMonitor(t, 57)
	src := snap.Marshal(m)
	v2 := append([]byte(nil), src...)
	v2[8+len(monitorTag)] = 2 // the version byte after the length-prefixed tag
	e := snap.NewEncoder()
	e.Header(monitorTag, 3)
	e.Int(m.seq)
	e.Int(m.nextID)
	e.Int(1 << 62)
	r := m.Regions()[0]
	start, end := r.Start, r.End
	r.End++
	partial := snap.Marshal(m)
	r.End = r.Start + 1<<42
	long := snap.Marshal(m)
	r.Start, r.End = start+2, end+2
	misaligned := snap.Marshal(m)
	r.Start, r.End = start, end
	return []badSnapshot{
		{"trailing byte", "trailing bytes", append(append([]byte(nil), src...), 0)},
		{"region count 1<<62", "length 4611686018427387904 exceeds remaining input", e.Bytes()},
		{"partial instruction", "not a whole number of instructions", partial},
		{"span of 1<<40 instructions", "longer than the remaining input", long},
		{"start inside an instruction", "starts inside an instruction", misaligned},
		{"version 2", "version 2, want 3", v2},
	}
}

// TestMonitorRestoreFailureLeavesMonitorUntouched: a restore that fails,
// at any truncation of a real snapshot or on any of badMonitorSnapshots,
// leaves the target's state byte-identical. Before, a trailing byte was
// reported only after the target had taken the snapshot's regions, the
// forged region count panicked in makeslice, and the partial instruction
// was accepted, so that a sample at the region's last byte indexed past
// its histogram.
func TestMonitorRestoreFailureLeavesMonitorUntouched(t *testing.T) {
	src, _ := fedMonitor(t, 57)
	data := snap.Marshal(src)
	m, _ := fedMonitor(t, 30)
	before := snap.Marshal(m)
	check := func(name, wantErr string, data []byte) {
		t.Helper()
		err := snap.Unmarshal(m, data)
		if err == nil {
			t.Fatalf("%s: restore accepted", name)
		}
		if !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s: restore error %q, want it to mention %q", name, err, wantErr)
		}
		if !bytes.Equal(snap.Marshal(m), before) {
			t.Fatalf("%s: failed restore changed the monitor", name)
		}
	}
	for _, bad := range badMonitorSnapshots(t) {
		check(bad.name, bad.err, bad.data)
	}
	for cut := 0; cut < len(data); cut++ {
		check(fmt.Sprintf("cut at %d of %d", cut, len(data)), "", data[:cut])
	}
}

// FuzzMonitorRestore: Restore never panics, a failed restore leaves the
// monitor's state byte-identical, and a restored monitor keeps
// processing intervals without panicking, including one that samples
// every instruction of the program.
func FuzzMonitorRestore(f *testing.F) {
	for _, n := range []int{0, 12, 57, 140} {
		m, _ := fedMonitor(f, n)
		f.Add(snap.Marshal(m))
	}
	m, _ := fedMonitor(f, 57)
	src := snap.Marshal(m)
	for _, cut := range []int{len(src) / 3, len(src) / 2, len(src) - 8} {
		f.Add(src[:cut])
	}
	for _, bad := range badMonitorSnapshots(f) {
		f.Add(bad.data)
	}
	// Each input is restored into a copy of one mid-stream monitor, built
	// once here so that an execution costs a few restores, not a replay.
	base, stream := fedMonitor(f, 30)
	target := snap.Marshal(base)
	var every []isa.Addr
	for pc := base.prog.Start(); pc < base.prog.End(); pc += isa.InstrBytes {
		every = append(every, pc)
	}
	sweep := overflow(30, len(every), every...)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newMonitor(t, base.prog, snapConfig)
		if err := snap.Unmarshal(m, target); err != nil {
			t.Fatal(err)
		}
		if err := snap.Unmarshal(m, data); err != nil {
			if !bytes.Equal(snap.Marshal(m), target) {
				t.Fatalf("failed restore (%v) changed the monitor", err)
			}
			return
		}
		m.ProcessOverflow(sweep)
		for _, ov := range stream[30:60] {
			m.ProcessOverflow(ov)
		}
	})
}

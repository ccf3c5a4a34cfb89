package region

import (
	"bytes"
	"fmt"
	"testing"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/snap"
)

// snapConfig is the configuration of the monitors the restore tests
// snapshot: idle pruning on and a small UCR history, so a mid-stream
// snapshot holds pruned IDs and a wrapped ring.
func snapConfig(c *Config) {
	c.PruneAfter = 4
	c.UCRHistoryCap = 32
}

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

// badMonitorSnapshots returns snapshots Restore must reject: a real
// mid-stream snapshot followed by a stray byte, one whose header,
// counters and UCR history are valid but whose region count is 1<<62,
// and one whose first region ends one byte into an instruction.
func badMonitorSnapshots(t testing.TB) map[string][]byte {
	t.Helper()
	m, _ := fedMonitor(t, 57)
	src := m.Snapshot()
	e := snap.NewEncoder()
	e.Header(monitorTag, 1)
	e.Int(m.seq)
	e.Int(m.nextID)
	m.ucr.AppendSnapshot(e)
	e.Int(1 << 62)
	r := m.Regions()[0]
	r.End++
	partial := m.Snapshot()
	r.End--
	return map[string][]byte{
		"trailing byte":       append(append([]byte(nil), src...), 0),
		"region count 1<<62":  e.Bytes(),
		"partial instruction": partial,
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
	data := src.Snapshot()
	m, _ := fedMonitor(t, 30)
	before := m.Snapshot()
	check := func(name string, data []byte) {
		t.Helper()
		if err := m.Restore(data); err == nil {
			t.Fatalf("%s: restore accepted", name)
		}
		if !bytes.Equal(m.Snapshot(), before) {
			t.Fatalf("%s: failed restore changed the monitor", name)
		}
	}
	for name, data := range badMonitorSnapshots(t) {
		check(name, data)
	}
	for cut := 0; cut < len(data); cut++ {
		check(fmt.Sprintf("cut at %d of %d", cut, len(data)), data[:cut])
	}
}

// FuzzMonitorRestore: Restore never panics, a failed restore leaves the
// monitor's state byte-identical, and a restored monitor keeps
// processing intervals without panicking, including one that samples
// every instruction of the program.
func FuzzMonitorRestore(f *testing.F) {
	for _, n := range []int{0, 12, 57, 140} {
		m, _ := fedMonitor(f, n)
		f.Add(m.Snapshot())
	}
	m, _ := fedMonitor(f, 57)
	src := m.Snapshot()
	for _, cut := range []int{len(src) / 3, len(src) / 2, len(src) - 8} {
		f.Add(src[:cut])
	}
	for _, data := range badMonitorSnapshots(f) {
		f.Add(data)
	}
	// Each input is restored into a copy of one mid-stream monitor, built
	// once here so that an execution costs a few restores, not a replay.
	base, stream := fedMonitor(f, 30)
	target := base.Snapshot()
	var every []isa.Addr
	for pc := base.prog.Start(); pc < base.prog.End(); pc += isa.InstrBytes {
		every = append(every, pc)
	}
	sweep := overflow(30, len(every), every...)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newMonitor(t, base.prog, snapConfig)
		if err := m.Restore(target); err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(data); err != nil {
			if !bytes.Equal(m.Snapshot(), target) {
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

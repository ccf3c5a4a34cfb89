// Package isatest holds test helpers for programs built with package isa.
package isatest

import (
	"testing"

	"regionmon/internal/isa"
)

// CheckCodeMap checks prog's code map against a linear scan of its
// procedures and blocks at every address from Start()-8 to End()+8:
// Slot's ordinal (pageSlots slots per page holding an instruction, pages
// numbered from Start()) and SlotAddr, BlockOrdinal, ProcAt, BlockAt,
// KindAt, LoopAt (against the procedure's InnermostLoopAt) and SlotLoop;
// and SpanOnCode for spans of up to 129 instructions from every aligned
// address.
func CheckCodeMap(t testing.TB, prog *isa.Program) {
	t.Helper()
	const pageSlots, pageBytes = 64, 64 * isa.InstrBytes
	start, end := prog.Start(), prog.End()

	// The scan's own numbering: code pages in address order, blocks in
	// procedure then block order, loops in AllLoops order.
	codePage := map[isa.Addr]int{}
	var pages []isa.Addr
	for _, p := range prog.Procs {
		for a := p.Start(); a < p.End(); a += isa.InstrBytes {
			if pg := (a - start) / pageBytes; len(pages) == 0 || pages[len(pages)-1] != pg {
				codePage[pg] = len(pages)
				pages = append(pages, pg)
			}
		}
	}
	if got, want := prog.NumSlots(), len(pages)*pageSlots; got != want {
		t.Fatalf("%d slots; want %d over %d code pages", got, want, len(pages))
	}
	loopOrd := map[*isa.Loop]int{}
	for i, l := range prog.AllLoops() {
		loopOrd[l] = i
		if prog.Loop(i) != l {
			t.Fatalf("Loop(%d) is not AllLoops()[%d]", i, i)
		}
	}
	if prog.NumLoops() != len(loopOrd) {
		t.Fatalf("%d loops; want %d", prog.NumLoops(), len(loopOrd))
	}

	pi, bi, ord := 0, 0, 0 // procedure, block within it, block ordinal
	for a := start - min(start, 8); a != end+8; a++ {
		var proc *isa.Procedure
		var blk *isa.Block
		for pi < len(prog.Procs) && a >= prog.Procs[pi].End() {
			ord += len(prog.Procs[pi].Blocks) - bi
			pi, bi = pi+1, 0
		}
		if pi < len(prog.Procs) && prog.Procs[pi].Contains(a) {
			proc = prog.Procs[pi]
			for a >= proc.Blocks[bi].End() {
				bi, ord = bi+1, ord+1
			}
			blk = proc.Blocks[bi]
		}
		var loop *isa.Loop
		wantOrd, wantLoop := -1, -1
		wantKind, kindOK := isa.Kind(0), false
		if blk != nil {
			wantOrd = ord
			if loop = proc.InnermostLoopAt(a); loop != nil {
				wantLoop = loopOrd[loop]
			}
			if a%isa.InstrBytes == 0 {
				wantKind, kindOK = blk.Kinds[(a-blk.Start)/isa.InstrBytes], true
			}
		}

		slot := prog.Slot(a)
		if k, ok := codePage[(a-start)/pageBytes]; ok && a >= start {
			want := k*pageSlots + int((a-start)%pageBytes)/isa.InstrBytes
			if slot != want {
				t.Fatalf("%v: slot %d; want %d", a, slot, want)
			}
			if got := prog.SlotAddr(slot); got != a&^(isa.InstrBytes-1) {
				t.Fatalf("%v: slot %d at %v; want %v", a, slot, got, a&^(isa.InstrBytes-1))
			}
			if got := prog.SlotLoop(slot); got != wantLoop {
				t.Fatalf("%v: slot loop %d; want %d", a, got, wantLoop)
			}
		} else if slot >= 0 {
			t.Fatalf("%v: slot %d off every code page", a, slot)
		}
		if got := prog.BlockOrdinal(a); got != wantOrd {
			t.Fatalf("%v: block ordinal %d; want %d", a, got, wantOrd)
		}
		if got := prog.ProcAt(a); got != proc {
			t.Fatalf("%v: ProcAt %v; want %v", a, got, proc)
		}
		if got := prog.BlockAt(a); got != blk {
			t.Fatalf("%v: BlockAt %v; want %v", a, got, blk)
		}
		if got := prog.LoopAt(a); got != loop {
			t.Fatalf("%v: LoopAt %v; want %v", a, got, loop)
		}
		if k, ok := prog.KindAt(a); k != wantKind || ok != kindOK {
			t.Fatalf("%v: KindAt %v, %v; want %v, %v", a, k, ok, wantKind, kindOK)
		}
	}

	// SpanOnCode: a span is on code when none of its instructions is off
	// the scan's code pages. offBefore[i] counts the aligned addresses
	// from lo below lo+i*InstrBytes that are.
	const maxSpan = 129
	lo := (start - min(start, 8)) &^ (isa.InstrBytes - 1)
	n := int(end+8-lo)/isa.InstrBytes + maxSpan
	offBefore := make([]int, n+1)
	for i := 0; i < n; i++ {
		a := lo + isa.Addr(i)*isa.InstrBytes
		_, ok := codePage[(a-start)/pageBytes]
		offBefore[i+1] = offBefore[i]
		if !ok || a < start {
			offBefore[i+1]++
		}
	}
	for i := 0; i < n-maxSpan; i++ {
		a := lo + isa.Addr(i)*isa.InstrBytes
		for _, k := range []int{1, 2, 63, 64, 65, maxSpan} {
			e := a + isa.Addr(k)*isa.InstrBytes
			if got, want := prog.SpanOnCode(a, e), offBefore[i+k] == offBefore[i]; got != want {
				t.Fatalf("SpanOnCode(%v, %v) = %v; want %v", a, e, got, want)
			}
		}
	}
}

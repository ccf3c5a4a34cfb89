package isa

import "fmt"

// The code map. Every consumer of PC samples — the region monitor's
// distribution and formation, the BBV and working-set detectors, the RTO
// controller — asks the same questions of a sampled PC: which
// instruction, which basic block, which innermost loop. A Program is
// fixed once built, so NewProgram answers them all in advance, densely:
// the text is cut into pages of pageSlots instruction slots, a page
// directory numbers the pages that hold code, and every slot of those
// pages gets an ordinal. Resolving a PC is one directory read plus
// arithmetic; everything else is a flat-array read by slot or block
// ordinal.

const (
	// slotBits is log2 of the code map's page size in instruction slots.
	slotBits  = 6
	pageSlots = 1 << slotBits
	// pageShift is log2 of the page size in bytes (InstrBytes is 4).
	pageShift = slotBits + 2
	// maxCodePages bounds the directory's uint16 code-page ordinals.
	maxCodePages = 1<<16 - 1
	// maxTextSpan bounds the directory itself: two bytes per page of
	// text span, 32 MiB at this span.
	maxTextSpan = 1 << 32
	// noBlock marks a slot between procedures in codeMap.block.
	noBlock = 0xff
)

// codeMap resolves addresses to instruction slots, blocks and loops. Slot
// ordinals follow address order: code page k (the k'th page holding any
// instruction) owns slots [k*pageSlots, (k+1)*pageSlots), whose addresses
// are that page's base plus InstrBytes times the offset.
type codeMap struct {
	start Addr // base address of page 0: the program's first instruction
	// dir maps a page number to its code-page ordinal plus one, or 0 for
	// a page without code. Its last entry, page number last, is a 0 that
	// stands for every page past the text, so one clamp covers every
	// address below or past the text.
	dir   []uint16
	last  Addr
	pages []codePage // code-page ordinal -> page
	// block holds each slot's block ordinal less its page's firstBlock,
	// or noBlock: a page meets at most pageSlots blocks, so a byte holds
	// the offset.
	block []uint8

	blocks []blockInfo // block ordinal -> block, procedure and loop
	loops  []*Loop     // loop ordinal -> loop, in AllLoops order
}

// codePage is one page holding code.
type codePage struct {
	num        uint32 // page number: the page's base is start + num<<pageShift
	firstBlock int32  // ordinal of the first block on the page
}

// blockInfo is one basic block's entry in the code map. Loop spans start
// and end on block boundaries, so every address of a block has the same
// innermost loop, and the map stores it once per block.
type blockInfo struct {
	blk  *Block
	proc int32 // index in Program.Procs
	loop int32 // loop ordinal of the innermost loop spanning the block, or -1
}

// buildCodeMap lays out the code map of procs, which NewProgram has
// validated: ascending, disjoint, aligned, with contiguous blocks and
// their loops analysed.
func buildCodeMap(procs []*Procedure) (codeMap, error) {
	start, end := procs[0].Start(), procs[len(procs)-1].End()
	if end-start > maxTextSpan {
		return codeMap{}, fmt.Errorf("isa: program text spans %#x bytes, more than the code map's %#x", uint64(end-start), uint64(maxTextSpan))
	}
	m := codeMap{start: start, last: (end-start-1)>>pageShift + 1}
	m.dir = make([]uint16, m.last+1)
	for _, p := range procs {
		for _, b := range p.Blocks {
			for pg := (b.Start - start) >> pageShift; pg <= (b.End()-InstrBytes-start)>>pageShift; pg++ {
				m.dir[pg] = 1
			}
		}
	}
	for pg, d := range m.dir {
		if d == 0 {
			continue
		}
		if len(m.pages) == maxCodePages {
			return codeMap{}, fmt.Errorf("isa: program text fills more than %d code pages", maxCodePages)
		}
		m.pages = append(m.pages, codePage{num: uint32(pg), firstBlock: -1})
		m.dir[pg] = uint16(len(m.pages))
	}
	m.block = make([]uint8, len(m.pages)*pageSlots)
	for i := range m.block {
		m.block[i] = noBlock
	}

	loopOrd := make(map[*Loop]int32)
	for _, p := range procs {
		for _, l := range p.Loops() {
			loopOrd[l] = int32(len(m.loops))
			m.loops = append(m.loops, l)
		}
	}
	for pi, p := range procs {
		for _, b := range p.Blocks {
			info := blockInfo{blk: b, proc: int32(pi), loop: -1}
			if l := p.InnermostLoopAt(b.Start); l != nil {
				info.loop = loopOrd[l]
			}
			ord := int32(len(m.blocks))
			m.blocks = append(m.blocks, info)
			for a := b.Start; a < b.End(); a += InstrBytes {
				s := m.slot(a)
				page := &m.pages[s/pageSlots]
				if page.firstBlock < 0 {
					page.firstBlock = ord
				}
				m.block[s] = uint8(ord - page.firstBlock)
			}
		}
	}
	return m, nil
}

// slot returns pc's slot ordinal, negative when pc is on no code page.
// An address below the text wraps past the directory and clamps onto its
// trailing 0 entry, like one past the text; a page without code reads 0
// too, and 0-1 shifted left puts every offset below zero.
func (m *codeMap) slot(pc Addr) int {
	d := pc - m.start
	pg := min(d>>pageShift, m.last)
	return (int(m.dir[pg])-1)<<slotBits | int(d/InstrBytes%pageSlots)
}

// slotBlock returns slot s's block ordinal, or -1.
func (m *codeMap) slotBlock(s int) int {
	d := m.block[s]
	if d == noBlock {
		return -1
	}
	return int(m.pages[s>>slotBits].firstBlock) + int(d)
}

// Slot returns pc's instruction-slot ordinal, or a negative number when
// pc lies on no code page: idle PC 0, an address below or past the text,
// or one in a wide gap between procedures. Slots number every
// instruction position of every page holding code, in address order; a
// misaligned pc resolves to the slot of the instruction it falls inside,
// and a slot between two procedures on a shared page has no block.
func (pr *Program) Slot(pc Addr) int { return pr.code.slot(pc) }

// SpanOnCode reports whether every instruction of the span [start, end)
// lies on a code page, for start < end, both multiples of InstrBytes.
// Slot ordinals skip only pages without code, so it does exactly when
// the slots of the span's first and last instructions differ by its
// length less one; the span's slots then run from Slot(start).
func (pr *Program) SpanOnCode(start, end Addr) bool {
	first, last := pr.code.slot(start), pr.code.slot(end-InstrBytes)
	return first >= 0 && last >= first && Addr(last-first) == (end-start)/InstrBytes-1
}

// NumSlots returns the number of instruction slots, pageSlots per code
// page.
func (pr *Program) NumSlots() int { return len(pr.code.block) }

// SlotAddr returns the address of slot s, 0 <= s < NumSlots().
func (pr *Program) SlotAddr(s int) Addr {
	return pr.code.start + Addr(pr.code.pages[s/pageSlots].num)<<pageShift + Addr(s%pageSlots)*InstrBytes
}

// SlotLoop returns the ordinal of the innermost loop whose span covers
// slot s (see Loop), or -1 when none does.
func (pr *Program) SlotLoop(s int) int {
	if b := pr.code.slotBlock(s); b >= 0 {
		return int(pr.code.blocks[b].loop)
	}
	return -1
}

// BlockOrdinal returns the program-wide ordinal of the basic block
// containing pc, or -1 when pc is in no block. Ordinals number every
// block of every procedure in address order, 0 to NumBlocks()-1.
//
// It spells slotBlock out: calling it would put BlockOrdinal, which the
// BBV and working-set detectors call per sample, over the compiler's
// inlining budget.
func (pr *Program) BlockOrdinal(pc Addr) int {
	m := &pr.code
	if s := m.slot(pc); s >= 0 {
		if d := m.block[s]; d != noBlock {
			return int(m.pages[s>>slotBits].firstBlock) + int(d)
		}
	}
	return -1
}

// NumBlocks returns the number of basic blocks in the program.
func (pr *Program) NumBlocks() int { return len(pr.code.blocks) }

// NumLoops returns the number of natural loops in the program.
func (pr *Program) NumLoops() int { return len(pr.code.loops) }

// Loop returns the loop of ordinal i: the i'th loop of AllLoops.
func (pr *Program) Loop(i int) *Loop { return pr.code.loops[i] }

// blockInfoAt returns the code-map entry of the block containing addr,
// or nil.
func (pr *Program) blockInfoAt(addr Addr) *blockInfo {
	if b := pr.BlockOrdinal(addr); b >= 0 {
		return &pr.code.blocks[b]
	}
	return nil
}

// ProcAt returns the procedure containing addr, or nil.
func (pr *Program) ProcAt(addr Addr) *Procedure {
	if info := pr.blockInfoAt(addr); info != nil {
		return pr.Procs[info.proc]
	}
	return nil
}

// BlockAt returns the block containing addr, or nil.
func (pr *Program) BlockAt(addr Addr) *Block {
	if info := pr.blockInfoAt(addr); info != nil {
		return info.blk
	}
	return nil
}

// LoopAt returns the innermost loop whose address span contains addr, or
// nil — the procedure's InnermostLoopAt, answered from the code map. This
// is how region formation maps a hot sample to a candidate loop region.
func (pr *Program) LoopAt(addr Addr) *Loop {
	if info := pr.blockInfoAt(addr); info != nil && info.loop >= 0 {
		return pr.code.loops[info.loop]
	}
	return nil
}

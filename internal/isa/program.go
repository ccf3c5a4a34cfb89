package isa

import (
	"fmt"
	"sort"
)

// Procedure is a named, contiguous set of basic blocks with a single entry
// block (index 0). Synthetic procedures are laid out contiguously in the
// address space, mirroring compiled SPARC text sections.
type Procedure struct {
	// Name is the procedure's symbol name (unique within the program).
	Name string
	// Blocks holds the procedure's basic blocks; Blocks[0] is the entry.
	// Blocks are in ascending, gap-free address order.
	Blocks []*Block

	loops []*Loop // populated lazily by Loops
}

// Start returns the procedure's first instruction address.
func (p *Procedure) Start() Addr { return p.Blocks[0].Start }

// End returns one past the procedure's last instruction address.
func (p *Procedure) End() Addr { return p.Blocks[len(p.Blocks)-1].End() }

// Contains reports whether addr falls inside the procedure.
func (p *Procedure) Contains(addr Addr) bool { return addr >= p.Start() && addr < p.End() }

// NumInstrs returns the procedure's total instruction count.
func (p *Procedure) NumInstrs() int {
	n := 0
	for _, b := range p.Blocks {
		n += b.Len()
	}
	return n
}

// BlockAt returns the block containing addr, or nil.
func (p *Procedure) BlockAt(addr Addr) *Block {
	i := sort.Search(len(p.Blocks), func(i int) bool { return p.Blocks[i].End() > addr })
	if i < len(p.Blocks) && p.Blocks[i].Contains(addr) {
		return p.Blocks[i]
	}
	return nil
}

// Program is a complete synthetic binary: procedures in ascending address
// order over a flat text segment.
//
// A validated Program is immutable and safe to share: NewProgram runs the
// loop analysis eagerly for every procedure and builds the code map (see
// codemap.go), so all reads (Slot, ProcAt, KindAt, LoopAt, Loops, ...)
// are side-effect free afterwards.
// Many concurrent runs — e.g. the experiments package's parallel sweep
// workers — may therefore monitor the same *Program without copying it.
type Program struct {
	// Procs lists the program's procedures in ascending address order.
	Procs []*Procedure

	byName map[string]*Procedure
	code   codeMap
}

// NewProgram assembles a validated Program from procedures. It checks
// address ordering, block contiguity within procedures, successor validity
// and call-target resolution, returning a descriptive error on the first
// violation — synthetic workload definitions are code, and bad ones should
// fail loudly at construction, not misbehave during a 10-billion-cycle run.
func NewProgram(procs []*Procedure) (*Program, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("isa: program has no procedures")
	}
	byName := make(map[string]*Procedure, len(procs))
	var prevEnd Addr
	for pi, p := range procs {
		if len(p.Blocks) == 0 {
			return nil, fmt.Errorf("isa: procedure %q has no blocks", p.Name)
		}
		if _, dup := byName[p.Name]; dup {
			return nil, fmt.Errorf("isa: duplicate procedure name %q", p.Name)
		}
		byName[p.Name] = p
		if p.Start()%InstrBytes != 0 {
			return nil, fmt.Errorf("isa: procedure %q starts at misaligned address %v", p.Name, p.Start())
		}
		if p.Start() == 0 {
			// Samples taken while no instruction executes read PC 0.
			return nil, fmt.Errorf("isa: procedure %q starts at address 0, which samples reserve for idle time", p.Name)
		}
		if pi > 0 && p.Start() < prevEnd {
			return nil, fmt.Errorf("isa: procedure %q overlaps its predecessor (start %v < %v)", p.Name, p.Start(), prevEnd)
		}
		prevEnd = p.End()
		for bi, b := range p.Blocks {
			if b.ID != BlockID(bi) {
				return nil, fmt.Errorf("isa: %s block %d has ID %d", p.Name, bi, b.ID)
			}
			if b.Len() == 0 {
				return nil, fmt.Errorf("isa: %s block %d is empty", p.Name, bi)
			}
			if bi > 0 && b.Start != p.Blocks[bi-1].End() {
				return nil, fmt.Errorf("isa: %s block %d not contiguous (start %v, want %v)",
					p.Name, bi, b.Start, p.Blocks[bi-1].End())
			}
			for _, s := range b.Succs {
				if s < 0 || int(s) >= len(p.Blocks) {
					return nil, fmt.Errorf("isa: %s block %d has invalid successor %d", p.Name, bi, s)
				}
			}
			for _, k := range b.Kinds {
				if !k.Valid() {
					return nil, fmt.Errorf("isa: %s block %d contains invalid instruction kind %d", p.Name, bi, k)
				}
			}
		}
	}
	// Resolve call targets after all names are known.
	for _, p := range procs {
		for bi, b := range p.Blocks {
			if b.CallTarget == "" {
				continue
			}
			if _, ok := byName[b.CallTarget]; !ok {
				return nil, fmt.Errorf("isa: %s block %d calls unknown procedure %q", p.Name, bi, b.CallTarget)
			}
		}
	}
	// Run the loop analysis now: Loops() memoizes into the procedure on
	// first call, and doing that here — instead of lazily under the first
	// monitoring thread that asks — is what makes the finished Program
	// read-only and thus shareable across concurrent runs.
	for _, p := range procs {
		p.Loops()
	}
	code, err := buildCodeMap(procs)
	if err != nil {
		return nil, err
	}
	return &Program{Procs: procs, byName: byName, code: code}, nil
}

// Proc returns the procedure named name, or nil.
func (pr *Program) Proc(name string) *Procedure { return pr.byName[name] }

// KindAt returns the instruction kind at addr. ok is false when addr is
// outside the program text or misaligned.
func (pr *Program) KindAt(addr Addr) (k Kind, ok bool) {
	b := pr.BlockAt(addr)
	if b == nil {
		return 0, false
	}
	i := b.IndexOf(addr)
	if i < 0 {
		return 0, false
	}
	return b.Kinds[i], true
}

// Start returns the program's lowest text address.
func (pr *Program) Start() Addr { return pr.Procs[0].Start() }

// End returns one past the program's highest text address.
func (pr *Program) End() Addr { return pr.Procs[len(pr.Procs)-1].End() }

// NumInstrs returns the program's total instruction count.
func (pr *Program) NumInstrs() int {
	n := 0
	for _, p := range pr.Procs {
		n += p.NumInstrs()
	}
	return n
}

// AllLoops returns every natural loop in the program, per procedure, in
// address order. The slice is freshly allocated; loops themselves are
// cached per procedure.
func (pr *Program) AllLoops() []*Loop {
	var out []*Loop
	for _, p := range pr.Procs {
		out = append(out, p.Loops()...)
	}
	return out
}

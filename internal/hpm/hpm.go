// Package hpm simulates the hardware performance monitoring unit the
// original system programs on UltraSPARC: a cycle counter that raises a
// sampling interrupt every Period cycles, capturing the interrupted
// program counter plus performance-counter deltas (instructions retired,
// data-cache misses) into a user buffer; when the buffer fills, the
// monitoring thread is notified (the "buffer overflow" every phase-
// detection action in the paper is keyed to).
//
// The simulated CPU (internal/sim) drives the monitor by reporting each
// retired instruction's address and cycle cost. Everything downstream —
// centroid GPD, region monitoring, LPD — consumes only the overflow
// deliveries, so the substitution boundary is exactly the hardware
// interface of the original system.
package hpm

import (
	"fmt"
	"math/rand/v2"

	"regionmon/internal/isa"
)

// DefaultBufferSize matches the paper's configuration: "We set the buffer
// size to 2032 samples".
const DefaultBufferSize = 2032

// Sample is one sampling-interrupt record.
type Sample struct {
	// PC is the program counter captured by the interrupt.
	PC isa.Addr
	// Cycle is the absolute cycle at which the interrupt fired.
	Cycle uint64
	// Instrs is the number of instructions retired since the previous
	// sample.
	Instrs uint64
	// DCMisses is the number of data-cache misses since the previous
	// sample.
	DCMisses uint64
}

// Overflow is delivered to the monitoring callback when the sample buffer
// fills. Samples is valid only for the duration of the callback: the
// monitor reuses the backing array (the real system hands the optimizer a
// kernel-filled user buffer with the same lifetime rules).
type Overflow struct {
	// Samples holds exactly BufferSize samples in capture order.
	Samples []Sample
	// Cycle is the absolute cycle of the final sample in the buffer.
	Cycle uint64
	// Seq numbers overflow deliveries from 0.
	Seq int
}

// Config parameterizes the monitor.
type Config struct {
	// Period is the sampling period in cycles per interrupt (the paper
	// sweeps 45K, 100K, 450K, 800K, 900K and 1.5M).
	Period uint64
	// BufferSize is the number of samples per overflow delivery;
	// 0 selects DefaultBufferSize.
	BufferSize int
	// JitterFrac perturbs each inter-sample gap by a deterministic
	// pseudo-random factor in [1-JitterFrac, 1+JitterFrac]. Real
	// interrupt-based sampling has skid and timer jitter; without it an
	// idealized simulator aliases against constant-cost loop bodies and
	// concentrates samples on a few drifting instructions. 0 disables
	// (exact cadence, used by unit tests).
	JitterFrac float64
	// JitterSeed seeds the jitter PRNG (0 picks a fixed default, keeping
	// runs reproducible).
	JitterSeed uint64
}

// Monitor is the simulated performance monitoring unit. All of a
// Monitor's state (sample buffer, seeded jitter PRNG, counters) is
// per-instance: a Monitor is single-owner like the executor driving it,
// and concurrent runs each construct their own.
//
//lint:single-owner
type Monitor struct {
	period   uint64
	jitter   float64
	rng      *rand.Rand
	buf      []Sample
	n        int
	seq      int
	onFlush  func(*Overflow)
	nextFire uint64 // absolute cycle of the next sampling interrupt

	cycle  uint64 // absolute retired-cycle counter
	instrs uint64 // instructions since last sample
	misses uint64 // data-cache misses since last sample

	totalSamples uint64
}

// New returns a Monitor with the given configuration; onOverflow is invoked
// synchronously on every buffer fill.
func New(cfg Config, onOverflow func(*Overflow)) (*Monitor, error) {
	if cfg.Period == 0 {
		return nil, fmt.Errorf("hpm: sampling period must be positive")
	}
	size := cfg.BufferSize
	if size == 0 {
		size = DefaultBufferSize
	}
	if size < 1 {
		return nil, fmt.Errorf("hpm: buffer size %d must be positive", cfg.BufferSize)
	}
	if onOverflow == nil {
		return nil, fmt.Errorf("hpm: overflow callback must not be nil")
	}
	if cfg.JitterFrac < 0 || cfg.JitterFrac >= 1 {
		return nil, fmt.Errorf("hpm: jitter fraction %v outside [0, 1)", cfg.JitterFrac)
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = 0x4A17 // fixed default keeps runs reproducible
	}
	return &Monitor{
		period:   cfg.Period,
		jitter:   cfg.JitterFrac,
		rng:      rand.New(rand.NewPCG(seed, cfg.Period)),
		buf:      make([]Sample, size),
		onFlush:  onOverflow,
		nextFire: cfg.Period,
	}, nil
}

// advanceFire schedules the next sampling interrupt.
func (m *Monitor) advanceFire() {
	step := m.period
	if m.jitter > 0 {
		f := 1 + m.jitter*(2*m.rng.Float64()-1)
		step = uint64(float64(m.period) * f)
		if step == 0 {
			step = 1
		}
	}
	m.nextFire += step
}

// Period returns the current sampling period.
func (m *Monitor) Period() uint64 { return m.period }

// SetPeriod reprograms the sampling period; it takes effect for the next
// interrupt scheduling after the currently pending one fires.
func (m *Monitor) SetPeriod(p uint64) error {
	if p == 0 {
		return fmt.Errorf("hpm: sampling period must be positive")
	}
	m.period = p
	return nil
}

// Cycle returns the absolute retired-cycle count observed so far.
func (m *Monitor) Cycle() uint64 { return m.cycle }

// TotalSamples returns the number of samples captured so far (including
// samples sitting in the not-yet-overflowed buffer).
func (m *Monitor) TotalSamples() uint64 { return m.totalSamples }

// BufferFill returns the number of samples currently in the buffer.
func (m *Monitor) BufferFill() int { return m.n }

// Deliveries returns the number of overflow deliveries made so far
// (including any partial delivery from Flush).
func (m *Monitor) Deliveries() int { return m.seq }

// Retire reports one retired instruction at pc costing cycles (>= 1), with
// dcMisses data-cache misses attributed to it. If one or more sampling
// boundaries elapse during the instruction, an interrupt fires per
// boundary and each captured sample is attributed to pc — exactly the
// skid-free idealization of interrupt-based PC sampling, where a long
// stall makes its instruction proportionally more likely to be sampled.
func (m *Monitor) Retire(pc isa.Addr, cycles uint64, dcMisses uint64) {
	if cycles == 0 {
		cycles = 1
	}
	m.cycle += cycles
	m.instrs++
	m.misses += dcMisses
	for m.cycle >= m.nextFire {
		m.capture(pc)
		m.advanceFire()
	}
}

// TryRetireBatch advances the monitor by a whole batch of retired
// instructions (cycles total cycles, instrs instructions, dcMisses misses)
// only when no sampling boundary falls inside the batch, reporting whether
// it did so. When it returns false the monitor is unchanged and the caller
// must retire the batch instruction-by-instruction so the interrupt can be
// attributed to the correct PC. This is the fast path that lets the
// simulator skip instruction-level bookkeeping between samples without
// changing any observable sampling behaviour.
func (m *Monitor) TryRetireBatch(cycles, instrs, dcMisses uint64) bool {
	if m.cycle+cycles >= m.nextFire {
		return false
	}
	m.cycle += cycles
	m.instrs += instrs
	m.misses += dcMisses
	return true
}

// Idle advances the cycle counter without retiring an instruction (the
// program is off-CPU, e.g. during a simulated system stall). Interrupts
// during idle capture PC 0, which downstream distribution treats as
// unmonitored.
func (m *Monitor) Idle(cycles uint64) {
	m.cycle += cycles
	for m.cycle >= m.nextFire {
		m.capture(0)
		m.advanceFire()
	}
}

func (m *Monitor) capture(pc isa.Addr) {
	m.buf[m.n] = Sample{PC: pc, Cycle: m.cycle, Instrs: m.instrs, DCMisses: m.misses}
	m.instrs = 0
	m.misses = 0
	m.n++
	m.totalSamples++
	if m.n == len(m.buf) {
		ov := Overflow{Samples: m.buf, Cycle: m.cycle, Seq: m.seq}
		m.seq++
		m.n = 0
		m.onFlush(&ov)
	}
}

// Flush delivers a partial buffer (if any samples are pending) as a final
// overflow; used at end of run so the tail of execution is not lost.
// Returns true if a delivery was made.
func (m *Monitor) Flush() bool {
	if m.n == 0 {
		return false
	}
	ov := Overflow{Samples: m.buf[:m.n], Cycle: m.cycle, Seq: m.seq}
	m.seq++
	m.n = 0
	m.onFlush(&ov)
	return true
}

// CPI computes cycles-per-instruction over an overflow delivery (a global
// metric GPD-style systems consult alongside the centroid).
func CPI(ov *Overflow) float64 {
	var instrs uint64
	for i := range ov.Samples {
		instrs += ov.Samples[i].Instrs
	}
	if instrs == 0 {
		return 0
	}
	var span uint64
	if len(ov.Samples) > 0 {
		span = ov.Samples[len(ov.Samples)-1].Cycle - ov.Samples[0].Cycle + 1
	}
	return float64(span) / float64(instrs)
}

// DPI computes data-cache misses per instruction over an overflow delivery.
func DPI(ov *Overflow) float64 {
	var instrs, misses uint64
	for i := range ov.Samples {
		instrs += ov.Samples[i].Instrs
		misses += ov.Samples[i].DCMisses
	}
	if instrs == 0 {
		return 0
	}
	return float64(misses) / float64(instrs)
}

// PCs appends the program-counter values of the overflow's samples to dst
// and returns it. The benchmark's analysis (perfbench) calls it; the
// centroid detector sums the samples' PCs in place.
func PCs(ov *Overflow, dst []uint64) []uint64 {
	for i := range ov.Samples {
		dst = append(dst, uint64(ov.Samples[i].PC))
	}
	return dst
}

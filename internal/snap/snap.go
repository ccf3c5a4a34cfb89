// Package snap is the byte-level substrate of the repo's detector
// checkpointing: a small, dependency-free binary encoder/decoder pair with
// versioned component headers, and the one restore protocol every
// checkpointing component follows (Snapshotter).
//
// The format is deliberately boring: fixed-width little-endian scalars,
// length-prefixed sequences, and a (tag, version) header per component.
// Boring buys the two properties checkpointing needs:
//
//   - determinism — the same detector state always encodes to the same
//     bytes (no maps, no pointers, no floating-point formatting; float64s
//     are stored as raw IEEE-754 bits, so a restored value is the *exact*
//     value, and a resumed detector's threshold comparisons replay
//     bit-for-bit);
//   - versioned evolvability — each component writes its own tag and
//     version byte, so a later revision can change one component's layout
//     without invalidating snapshots of the others. A decoder accepts only
//     the exact version it was written for: a layout change bumps the
//     version, and an older snapshot is refused rather than misparsed.
//
// Restore is stage then commit. StageSnapshot decodes and checks a
// component's whole snapshot without changing the component and returns
// a commit that applies it and cannot fail; a composite stages every
// child before it returns its own commit. So a restore either applies
// the whole snapshot, trailing-byte check included, or returns an error
// with the target untouched.
//
// Decoding uses a sticky-error style: after any failed read every further
// read returns the zero value, and the first error is reported by Err or
// Finish. Callers can therefore decode a whole component linearly and
// check once at the end.
package snap

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Snapshotter is a component that checkpoints. AppendSnapshot encodes
// its mutable state. StageSnapshot decodes and checks state written by
// AppendSnapshot of an identically configured component without changing
// anything, and returns a commit that applies it; on error the component
// is untouched and commit is nil.
type Snapshotter interface {
	AppendSnapshot(e *Encoder)
	StageSnapshot(d *Decoder) (commit func(), err error)
}

// Marshal returns s's state as a standalone snapshot.
func Marshal(s Snapshotter) []byte {
	e := NewEncoder()
	s.AppendSnapshot(e)
	return e.Bytes()
}

// Unmarshal replaces s's state from a Marshal snapshot: it stages, checks
// that no bytes trail, and only then commits. On error s is untouched.
func Unmarshal(s Snapshotter, data []byte) error {
	d := NewDecoder(data)
	commit, err := s.StageSnapshot(d)
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		return err
	}
	commit()
	return nil
}

// Encoder appends a deterministic binary encoding to an internal buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer (owned by the encoder; copy to retain
// past the next Reset).
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset empties the encoder, retaining the buffer's capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Header writes a component header: the tag bytes followed by a version
// byte. Tags are short fixed strings ("lpd", "regmon", ...) chosen by each
// component.
func (e *Encoder) Header(tag string, version uint8) {
	e.String(tag)
	e.U8(version)
}

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool writes a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U64 writes a fixed-width little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 writes an int64 (two's-complement bits, little-endian).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int writes an int as an int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 writes a float64 as its raw IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Int(len(s))
	e.buf = append(e.buf, s...)
}

// Bytes64 writes a length-prefixed byte slice (nested component
// snapshots).
func (e *Encoder) Bytes64(b []byte) {
	e.Int(len(b))
	e.buf = append(e.buf, b...)
}

// F64s writes a length-prefixed []float64.
func (e *Encoder) F64s(v []float64) {
	e.Int(len(v))
	for _, x := range v {
		e.F64(x)
	}
}

// I64s writes a length-prefixed []int64.
func (e *Encoder) I64s(v []int64) {
	e.Int(len(v))
	for _, x := range v {
		e.I64(x)
	}
}

// Ints writes a length-prefixed []int.
func (e *Encoder) Ints(v []int) {
	e.Int(len(v))
	for _, x := range v {
		e.Int(x)
	}
}

// Decoder reads the Encoder's format back with a sticky first error.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over data (not copied).
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns the sticky error, or an error if undecoded bytes remain —
// the decoded-cleanly-to-the-end check a standalone snapshot must pass
// before it commits.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("snap: %d trailing bytes after decode", len(d.buf)-d.off)
	}
	return nil
}

// fail records the first error.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snap: "+format, args...)
	}
}

// take consumes n bytes, or fails.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("truncated input (want %d bytes at offset %d of %d)", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Header reads a component header written by Encoder.Header, failing on a
// tag or version mismatch.
func (d *Decoder) Header(tag string, version uint8) {
	got := d.String()
	if d.err != nil {
		return
	}
	if got != tag {
		d.fail("component tag %q, want %q", got, tag)
		return
	}
	if v := d.U8(); d.err == nil && v != version {
		d.fail("component %q version %d, want %d", tag, v, version)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool, failing on a byte other than 0 or 1.
func (d *Decoder) Bool() bool {
	switch v := d.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid bool byte %d", v)
		return false
	}
}

// U64 reads a fixed-width little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int64-encoded int, failing if it does not fit.
func (d *Decoder) Int() int {
	v := d.I64()
	if int64(int(v)) != v {
		d.fail("int64 %d overflows int", v)
		return 0
	}
	return int(v)
}

// Len reads a non-negative length prefix, additionally bounded by the
// remaining input so corrupt lengths cannot drive huge allocations.
func (d *Decoder) Len() int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 {
		d.fail("negative length %d", n)
		return 0
	}
	if n > len(d.buf)-d.off {
		d.fail("length %d exceeds remaining input %d", n, len(d.buf)-d.off)
		return 0
	}
	return n
}

// F64 reads a float64 from raw IEEE-754 bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Len()
	return string(d.take(n))
}

// Bytes64 reads a length-prefixed byte slice (a copy of the input bytes is
// not made; the result aliases the decoder's buffer).
func (d *Decoder) Bytes64() []byte {
	n := d.Len()
	return d.take(n)
}

// F64s reads a length-prefixed []float64. Length is bounded by the
// remaining input (8 bytes per element).
func (d *Decoder) F64s() []float64 {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > (len(d.buf)-d.off)/8 {
		d.fail("float64 count %d exceeds remaining input", n)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// I64s reads a length-prefixed []int64.
func (d *Decoder) I64s() []int64 {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > (len(d.buf)-d.off)/8 {
		d.fail("int64 count %d exceeds remaining input", n)
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.I64()
	}
	return out
}

// Ints reads a length-prefixed []int.
func (d *Decoder) Ints() []int {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > (len(d.buf)-d.off)/8 {
		d.fail("int count %d exceeds remaining input", n)
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	return out
}

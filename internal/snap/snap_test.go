package snap

import (
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Header("demo", 3)
	e.U8(200)
	e.Bool(true)
	e.Bool(false)
	e.Int(-42)
	e.I64(math.MinInt64)
	e.U64(math.MaxUint64)
	e.F64(math.Pi)
	e.F64(math.Inf(-1))
	e.String("hello, ring")
	e.Bytes64([]byte{1, 2, 3})
	e.F64s([]float64{0.5, -0.25, 0})
	e.I64s([]int64{7, -7})
	e.Ints([]int{1, 2, 3, 4})

	d := NewDecoder(e.Bytes())
	d.Header("demo", 3)
	if got := d.U8(); got != 200 {
		t.Errorf("U8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Errorf("Bool round trip failed")
	}
	if got := d.Int(); got != -42 {
		t.Errorf("Int = %d", got)
	}
	if got := d.I64(); got != math.MinInt64 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.U64(); got != math.MaxUint64 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 inf = %v", got)
	}
	if got := d.String(); got != "hello, ring" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes64(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Bytes64 = %v", got)
	}
	if got := d.F64s(); len(got) != 3 || got[0] != 0.5 || got[1] != -0.25 {
		t.Errorf("F64s = %v", got)
	}
	if got := d.I64s(); len(got) != 2 || got[0] != 7 || got[1] != -7 {
		t.Errorf("I64s = %v", got)
	}
	if got := d.Ints(); len(got) != 4 || got[3] != 4 {
		t.Errorf("Ints = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	enc := func() []byte {
		e := NewEncoder()
		e.Header("x", 1)
		e.F64(1.0 / 3.0)
		e.I64s([]int64{1, 2, 3})
		out := make([]byte, e.Len())
		copy(out, e.Bytes())
		return out
	}
	a, b := enc(), enc()
	if string(a) != string(b) {
		t.Fatalf("same state encoded to different bytes:\n%v\n%v", a, b)
	}
}

func TestStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64() // truncated
	first := d.Err()
	if first == nil {
		t.Fatal("expected error on truncated U64")
	}
	_ = d.F64()
	_ = d.String()
	if d.Err() != first {
		t.Fatalf("error not sticky: %v vs %v", d.Err(), first)
	}
}

func TestHeaderMismatch(t *testing.T) {
	e := NewEncoder()
	e.Header("lpd", 2)
	d := NewDecoder(e.Bytes())
	d.Header("gpd", 2)
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "tag") {
		t.Fatalf("expected tag mismatch error, got %v", d.Err())
	}

	d2 := NewDecoder(e.Bytes())
	d2.Header("lpd", 1)
	if d2.Err() == nil || !strings.Contains(d2.Err().Error(), "version") {
		t.Fatalf("expected version error, got %v", d2.Err())
	}
}

// TestHeaderRejectsOlderVersion: a decoder reads exactly the layout it
// was written for, so a snapshot of an older layout is refused rather
// than misparsed.
func TestHeaderRejectsOlderVersion(t *testing.T) {
	e := NewEncoder()
	e.Header("regmon", 1)
	d := NewDecoder(e.Bytes())
	d.Header("regmon", 2)
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "version") {
		t.Fatalf("expected version error for an older snapshot, got %v", d.Err())
	}
}

// counter is a one-field Snapshotter for the Unmarshal tests.
type counter struct{ n int }

func (c *counter) AppendSnapshot(e *Encoder) { e.Int(c.n) }

func (c *counter) StageSnapshot(d *Decoder) (func(), error) {
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return func() { c.n = n }, nil
}

// TestUnmarshalCommitsOnlyWholeSnapshots: Unmarshal applies a snapshot
// only when it decodes cleanly to its last byte.
func TestUnmarshalCommitsOnlyWholeSnapshots(t *testing.T) {
	data := Marshal(&counter{n: 7})
	c := &counter{n: 1}
	if err := Unmarshal(c, append(append([]byte(nil), data...), 0)); err == nil || c.n != 1 {
		t.Fatalf("trailing byte: err=%v n=%d, want an error and n=1", err, c.n)
	}
	if err := Unmarshal(c, data[:len(data)-1]); err == nil || c.n != 1 {
		t.Fatalf("truncated: err=%v n=%d, want an error and n=1", err, c.n)
	}
	if err := Unmarshal(c, data); err != nil || c.n != 7 {
		t.Fatalf("whole snapshot: err=%v n=%d, want nil and n=7", err, c.n)
	}
}

func TestFinishTrailing(t *testing.T) {
	e := NewEncoder()
	e.Int(1)
	e.Int(2)
	d := NewDecoder(e.Bytes())
	_ = d.Int()
	if err := d.Finish(); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

func TestCorruptLengths(t *testing.T) {
	// Negative length.
	e := NewEncoder()
	e.I64(-5)
	if got := NewDecoder(e.Bytes()).String(); got != "" || len(got) != 0 {
		t.Errorf("String on negative length = %q", got)
	}
	d := NewDecoder(e.Bytes())
	_ = d.String()
	if d.Err() == nil {
		t.Error("expected error for negative length")
	}

	// Length far beyond remaining input must not allocate/panic.
	e2 := NewEncoder()
	e2.I64(1 << 40)
	d2 := NewDecoder(e2.Bytes())
	if got := d2.F64s(); got != nil {
		t.Errorf("F64s on oversized length = %v", got)
	}
	if d2.Err() == nil {
		t.Error("expected error for oversized length")
	}
}

// Package snapsafe exercises the snapshotsafe analyzer: complete pairs,
// dropped fields on each path, //lint:config exemptions, asymmetric
// pairs, and //lint:snapshot types serialized by an owner.
package snapsafe

// Det has a complete AppendSnapshot/StageSnapshot pair with one field
// deliberately dropped from each path.
type Det struct {
	n       int
	total   int
	cfg     int //lint:config -- fixed at construction
	lost    int // want "field Det.lost is on neither snapshot path"
	encOnly int // want "field Det.encOnly is encoded but never restored"
	decOnly int // want "field Det.decOnly is restored but never encoded"
}

func (d *Det) AppendSnapshot(buf []byte) []byte {
	buf = append(buf, byte(d.n), byte(d.encOnly))
	return d.appendTotal(buf)
}

// appendTotal is a helper on the encode path: fields it references count
// as encoded.
func (d *Det) appendTotal(buf []byte) []byte {
	return append(buf, byte(d.total))
}

// StageSnapshot assigns the fields inside the commit it returns: fields
// referenced in a function literal count as restored.
func (d *Det) StageSnapshot(buf []byte) func() {
	n, total := int(buf[0]), int(buf[1])
	return func() {
		d.n = n
		d.total = total
		d.decOnly = int(buf[2])
	}
}

// Half has only one side of the contract.
type Half struct {
	x int
}

func (h *Half) AppendSnapshot(buf []byte) []byte { // want "snapsafe.Half has AppendSnapshot but no StageSnapshot"
	return append(buf, byte(h.x))
}

// Rec has no methods of its own; Owner serializes it field-by-field, so
// the //lint:snapshot mark checks its fields against Owner's closures.
//
//lint:snapshot
type Rec struct {
	a int
	b int // want "field Rec.b is on neither snapshot path"
}

// Owner snapshots its Rec slice.
type Owner struct {
	recs []Rec
}

func (o *Owner) AppendSnapshot(buf []byte) []byte {
	for _, r := range o.recs {
		buf = append(buf, byte(r.a))
	}
	return buf
}

func (o *Owner) StageSnapshot(buf []byte) {
	o.recs = append(o.recs[:0], Rec{a: int(buf[0])})
}

// Allowed shows line-level suppression on a field.
type Allowed struct {
	skipme int //lint:allow snapshotsafe -- migrated separately
}

func (a *Allowed) Snapshot() []byte   { return nil }
func (a *Allowed) Restore(buf []byte) {}

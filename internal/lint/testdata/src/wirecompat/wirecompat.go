// Package wirecompat exercises the wire-compat analyzer: every type
// implementing both AppendBinary and ParseBinary (matched structurally, no
// fabric import needed) must encode and decode the same fields in the same
// order, threading dst through.
package wirecompat

// putU64, Reader and getU64 stand in for the fabric append helpers and
// Reader, which a ParseBinary takes by value. They return no error, so
// discarding a result is purely a wire-compat bug, not an err-drop one.
func putU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v))
}

func getU64(r *Reader) uint64 { v := uint64(r.data[0]); r.data = r.data[1:]; return v }

type Reader struct{ data []byte }

func skipPad(r *Reader) []byte { r.data = r.data[1:]; return r.data }

// Good is the clean pair: same fields, same order, bytes threaded through.
type Good struct{ A, B uint64 }

func (g Good) AppendBinary(dst []byte) ([]byte, error) {
	dst = putU64(dst, g.A)
	dst = putU64(dst, g.B)
	return dst, nil
}

func (g *Good) ParseBinary(r Reader) error {
	g.A = getU64(&r)
	g.B = getU64(&r)
	return nil
}

// Dropped encodes B but never decodes it: the field vanishes on the wire.
type Dropped struct{ A, B uint64 }

func (d Dropped) AppendBinary(dst []byte) ([]byte, error) {
	dst = putU64(dst, d.A)
	dst = putU64(dst, d.B)
	return dst, nil
}

func (d *Dropped) ParseBinary(r Reader) error { // want "Dropped.ParseBinary never reads field B"
	d.A = getU64(&r)
	return nil
}

// Phantom decodes B without ever encoding it: decode reads bytes that were
// never written.
type Phantom struct{ A, B uint64 }

func (ph Phantom) AppendBinary(dst []byte) ([]byte, error) { // want "Phantom.AppendBinary never encodes field B"
	return putU64(dst, ph.A), nil
}

func (ph *Phantom) ParseBinary(r Reader) error {
	ph.A = getU64(&r)
	ph.B = getU64(&r)
	return nil
}

// Swapped touches the same fields on both sides but in different orders.
type Swapped struct{ A, B uint64 }

func (s Swapped) AppendBinary(dst []byte) ([]byte, error) { // want "Swapped field order differs"
	dst = putU64(dst, s.A)
	dst = putU64(dst, s.B)
	return dst, nil
}

func (s *Swapped) ParseBinary(r Reader) error {
	s.B = getU64(&r)
	s.A = getU64(&r)
	return nil
}

// Bare has an exported field neither side touches: silently absent from
// the format.
type Bare struct {
	A     uint64
	Extra string
}

func (b Bare) AppendBinary(dst []byte) ([]byte, error) { // want "exported field Bare.Extra is touched by neither"
	return putU64(dst, b.A), nil
}

func (b *Bare) ParseBinary(r Reader) error {
	b.A = getU64(&r)
	return nil
}

// Leaky discards helper results on both sides: the appender drops encoded
// bytes; the parse half is not checked (the Reader owns the cursor).
type Leaky struct{ A uint64 }

func (l Leaky) AppendBinary(dst []byte) ([]byte, error) {
	putU64(dst, l.A) // want "discards the .*result of putU64"
	return dst, nil
}

func (l *Leaky) ParseBinary(r Reader) error {
	l.A = getU64(&r)
	skipPad(&r) // not flagged
	return nil
}

// Detached builds its frame in a fresh buffer and returns that instead of
// extending dst: everything the caller appended before is dropped.
type Detached struct{ A uint64 }

func (dt Detached) AppendBinary(dst []byte) ([]byte, error) {
	buf := make([]byte, 0, 8)
	buf = putU64(buf, dt.A)
	return buf, nil // want "returns a slice not derived from dst"
}

func (dt *Detached) ParseBinary(r Reader) error {
	dt.A = getU64(&r)
	return nil
}

// Shared hands its receiver to helpers (a walk nested values would share):
// the helpers' field accesses are the pair's, in call order.
type Shared struct{ A, B uint64 }

func (sh Shared) AppendBinary(dst []byte) ([]byte, error) {
	return putShared(dst, &sh), nil
}

func (sh *Shared) ParseBinary(r Reader) error {
	sh.getA(&r)
	getB(&r, sh)
	return nil
}

func putShared(dst []byte, sh *Shared) []byte {
	dst = putU64(dst, sh.A)
	return putU64(dst, sh.B)
}

func (sh *Shared) getA(r *Reader) { sh.A = getU64(r) }

func getB(r *Reader, sh *Shared) { sh.B = getU64(r) }

// SharedDropped's helper reads one field of the two its appender writes.
type SharedDropped struct{ A, B uint64 }

func (sd SharedDropped) AppendBinary(dst []byte) ([]byte, error) {
	dst = putU64(dst, sd.A)
	return putU64(dst, sd.B), nil
}

func (sd *SharedDropped) ParseBinary(r Reader) error { // want "SharedDropped.ParseBinary never reads field B"
	getDroppedA(&r, sd)
	return nil
}

func getDroppedA(r *Reader, sd *SharedDropped) { sd.A = getU64(r) }

// Pinned shows a justified suppression: Legacy is deliberately write-only
// compatibility padding, and an ignore with a reason silences the finding.
type Pinned struct{ A, Legacy uint64 }

func (pn Pinned) AppendBinary(dst []byte) ([]byte, error) {
	dst = putU64(dst, pn.A)
	dst = putU64(dst, pn.Legacy)
	return dst, nil
}

// ParseBinary skips Legacy on purpose: old readers still need the bytes on
// the wire, new state ignores them.
//
//lint:ignore wire-compat fixture: Legacy is write-only compatibility padding
func (pn *Pinned) ParseBinary(r Reader) error {
	pn.A = getU64(&r)
	skipPad(&r)
	return nil
}

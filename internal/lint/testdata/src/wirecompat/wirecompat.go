// Package wirecompat exercises the wire-compat analyzer: every type
// implementing both AppendBinary and ParseBinary (matched structurally, no
// fabric import needed) must encode and decode the same fields in the same
// order, threading dst through.
package wirecompat

// putU64 and getU64 stand in for the fabric append helpers and Reader. They
// return only []byte so discarding a result is purely a wire-compat bug,
// not an err-drop one.
func putU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v))
}

func getU64(data []byte) (uint64, []byte) {
	return uint64(data[0]), data[1:]
}

func skipPad(data []byte) []byte { return data[1:] }

// Good is the clean pair: same fields, same order, bytes threaded through.
type Good struct{ A, B uint64 }

func (g Good) AppendBinary(dst []byte) ([]byte, error) {
	dst = putU64(dst, g.A)
	dst = putU64(dst, g.B)
	return dst, nil
}

func (g *Good) ParseBinary(data []byte) error {
	g.A, data = getU64(data)
	g.B, data = getU64(data)
	return nil
}

// Dropped encodes B but never decodes it: the field vanishes on the wire.
type Dropped struct{ A, B uint64 }

func (d Dropped) AppendBinary(dst []byte) ([]byte, error) {
	dst = putU64(dst, d.A)
	dst = putU64(dst, d.B)
	return dst, nil
}

func (d *Dropped) ParseBinary(data []byte) error { // want "Dropped.ParseBinary never reads field B"
	d.A, data = getU64(data)
	return nil
}

// Phantom decodes B without ever encoding it: decode reads bytes that were
// never written.
type Phantom struct{ A, B uint64 }

func (ph Phantom) AppendBinary(dst []byte) ([]byte, error) { // want "Phantom.AppendBinary never encodes field B"
	return putU64(dst, ph.A), nil
}

func (ph *Phantom) ParseBinary(data []byte) error {
	ph.A, data = getU64(data)
	ph.B, data = getU64(data)
	return nil
}

// Swapped touches the same fields on both sides but in different orders.
type Swapped struct{ A, B uint64 }

func (s Swapped) AppendBinary(dst []byte) ([]byte, error) { // want "Swapped field order differs"
	dst = putU64(dst, s.A)
	dst = putU64(dst, s.B)
	return dst, nil
}

func (s *Swapped) ParseBinary(data []byte) error {
	s.B, data = getU64(data)
	s.A, data = getU64(data)
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

func (b *Bare) ParseBinary(data []byte) error {
	b.A, data = getU64(data)
	return nil
}

// Leaky discards helper results on both sides: the appender drops encoded
// bytes; the parse half is not checked (fabric.Reader owns the real cursor).
type Leaky struct{ A uint64 }

func (l Leaky) AppendBinary(dst []byte) ([]byte, error) {
	putU64(dst, l.A) // want "discards the .*result of putU64"
	return dst, nil
}

func (l *Leaky) ParseBinary(data []byte) error {
	l.A, data = getU64(data)
	skipPad(data) // not flagged
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

func (dt *Detached) ParseBinary(data []byte) error {
	dt.A, data = getU64(data)
	return nil
}

// Shared hands its receiver to helpers (a walk nested values would share):
// the helpers' field accesses are the pair's, in call order.
type Shared struct{ A, B uint64 }

func (sh Shared) AppendBinary(dst []byte) ([]byte, error) {
	return putShared(dst, &sh), nil
}

func (sh *Shared) ParseBinary(data []byte) error {
	sh.getA(data[:1])
	getB(data[1:], sh)
	return nil
}

func putShared(dst []byte, sh *Shared) []byte {
	dst = putU64(dst, sh.A)
	return putU64(dst, sh.B)
}

func (sh *Shared) getA(data []byte) { sh.A, _ = getU64(data) }

func getB(data []byte, sh *Shared) { sh.B, _ = getU64(data) }

// SharedDropped's helper reads one field of the two its appender writes.
type SharedDropped struct{ A, B uint64 }

func (sd SharedDropped) AppendBinary(dst []byte) ([]byte, error) {
	dst = putU64(dst, sd.A)
	return putU64(dst, sd.B), nil
}

func (sd *SharedDropped) ParseBinary(data []byte) error { // want "SharedDropped.ParseBinary never reads field B"
	getDroppedA(data, sd)
	return nil
}

func getDroppedA(data []byte, sd *SharedDropped) { sd.A, _ = getU64(data) }

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
func (pn *Pinned) ParseBinary(data []byte) error {
	pn.A, data = getU64(data)
	data = skipPad(data)
	return nil
}

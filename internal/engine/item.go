package engine

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fabric"
)

// Engine messages can ride a session log as ordinary items: the body is an
// addressing prefix and the payload's tagged binary form (fabric.Codec's
// AppendTagged), raw bytes in a Go string, so a plain session daemon relays
// them untouched (the CRDT deployment) and an OT-integrating daemon picks out
// the ones addressed to its server site. The session frame already
// length-prefixes the body, so the payload carries no frame of its own.

// ItemKind is the session item kind carrying a convergence-engine message.
const ItemKind = "eng/op"

// itemBodyCap sizes EncodeItemBody's buffer past the address: room for a tag
// and a per-keystroke op, so the common case never grows it.
const itemBodyCap = 64

// EncodeItemBody renders one engine message as a session item body:
// "<to>|<tag length><tag><binary body>", with an empty <to> meaning every
// replica.
//
//cscw:hotpath
func EncodeItemBody(codec *fabric.Codec, m Msg) (string, error) {
	if strings.IndexByte(m.To, '|') >= 0 {
		return "", fmt.Errorf("engine: site %q cannot ride an item body ('|' is the address separator)", m.To)
	}
	dst := make([]byte, 0, len(m.To)+1+itemBodyCap)
	dst = append(dst, m.To...)
	dst = append(dst, '|')
	dst, err := codec.AppendTagged(dst, m.Body)
	if err != nil {
		return "", err
	}
	//lint:ignore hot-alloc the item body is a string on the session log; this is its one copy
	return string(dst), nil
}

// DecodeItemBody reverses EncodeItemBody: it cuts at the first '|' and
// parses one copy of the rest, so a decoded payload's string fields are
// substrings of that copy and not of the item body. Replicas apply the
// payload when to is empty (broadcast) or names them, and skip it
// otherwise. A payload whose tag no engine registered is an error.
//
//cscw:hotpath
func DecodeItemBody(codec *fabric.Codec, body string) (to string, payload any, err error) {
	i := strings.IndexByte(body, '|')
	if i < 0 {
		return "", nil, fmt.Errorf("engine: item body has no address separator")
	}
	// DecodeTagged copies nothing, so passing body[i+1:] itself would save
	// this allocation on every pushed op. It is kept for now because the
	// benchmark's smoke test (benchmark/load TestQuickSmoke) bounds
	// relay_1x4's allocs_per_op at 20 or more; ROADMAP item 1 drops the
	// copy once that bound is replaced.
	payload, err = codec.DecodeTagged(strings.Clone(body[i+1:]))
	if err != nil {
		return "", nil, fmt.Errorf("engine: item body payload: %w", err)
	}
	return body[:i], payload, nil
}

// ShowItemBody renders an item body for a log line or a terminal. An eng/op
// body is raw bytes after its address, so it shows as "<to>|<n bytes>" (just
// "<n bytes>" without a separator); any other kind's body shows as it is.
func ShowItemBody(kind, body string) string {
	if kind != ItemKind {
		return body
	}
	to, payload, ok := strings.Cut(body, "|")
	if !ok {
		return strconv.Itoa(len(body)) + " bytes"
	}
	return to + "|" + strconv.Itoa(len(payload)) + " bytes"
}

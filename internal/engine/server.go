package engine

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/fabric"
	"repro/internal/ot"
)

// Server is the OT integration site as the projection of its role alone: an
// item body in, the item body it answers with out. It is what a daemon runs
// per document, and the core of an otDoc's server role, so the integration
// logic (dedup, filing under the sender, pulls) exists once. Integrate reads
// a body with each message's own ParseBinary into a value on the stack and
// appends its answer to a caller's buffer, so no message is boxed on either
// side and no body is copied; it allocates only what the ot.Server keeps.
type Server struct {
	site    string
	core    *ot.Server
	lastSeq map[string]uint64 // committed seq per site, dedups resent submissions
}

// NewServer builds the integration site named site over an empty document.
func NewServer(site string) *Server {
	return &Server{site: site, core: ot.NewServer(""), lastSeq: make(map[string]uint64)}
}

// Text is the authoritative document.
func (s *Server) Text() string { return s.core.Text() }

// kindCommit and kindCommits are the item kinds Integrate answers with.
var (
	kindCommit  = byte(slices.Index(itemKinds[:], tagCommit))
	kindCommits = byte(slices.Index(itemKinds[:], tagCommits))
)

// Integrate takes one eng/op item body that from posted and appends to dst
// the body it answers with: the commit of a new submission, addressed to
// every replica, or the commits a pull asks for, addressed to from. It
// appends nothing for a resent submission, a pull with nothing to send, a
// commit (the server already has every commit) and a body addressed to
// another site, which it does not decode. A body that does not parse, a
// CRDT message and a submission the server refuses are errors, and dst is
// returned as it came. The answer's bytes are those AppendItemBody writes
// for the message otDoc.Apply returns.
//
//cscw:hotpath
func (s *Server) Integrate(from, body string, dst []byte) ([]byte, error) {
	to, tag, raw, err := cutItemBody(body)
	if to != "" && to != s.site {
		return dst, nil
	}
	if err != nil {
		return dst, err
	}
	r := fabric.NewReader(raw)
	switch tag {
	case tagSubmit:
		var m MsgSubmit
		if err := payloadErr(m.ParseBinary(r)); err != nil {
			return dst, err
		}
		cm, ok, err := s.submit(from, m.Sub)
		if !ok {
			return dst, err
		}
		return MsgCommit{C: cm}.AppendBinary(append(dst, '|', kindCommit))
	case tagPull:
		var m MsgPull
		if err := payloadErr(m.ParseBinary(r)); err != nil {
			return dst, err
		}
		cs := s.core.CommittedSince(m.Base)
		if len(cs) == 0 {
			return dst, nil
		}
		if strings.IndexByte(from, '|') >= 0 {
			return dst, fmt.Errorf("engine: site %q cannot ride an item body ('|' is the address separator)", from)
		}
		dst = append(append(dst, from...), '|', kindCommits)
		return MsgCommits{Cs: cs}.AppendBinary(dst)
	case tagCommit:
		var m MsgCommit
		return dst, payloadErr(m.ParseBinary(r))
	case tagCommits:
		var m MsgCommits
		return dst, payloadErr(m.ParseBinary(r))
	default:
		return dst, fmt.Errorf("engine: ot server cannot apply %s", tag)
	}
}

func payloadErr(err error) error {
	if err != nil {
		return fmt.Errorf("engine: item body payload: %w", err)
	}
	return nil
}

// submit integrates sub under from, the site that delivered it: the body
// names no site, so no participant can submit in another's name. ok is
// false for a resend of a committed submission (a pull recovers its commit)
// and for a submission the server refuses.
func (s *Server) submit(from string, sub ot.Submission) (cm ot.Committed, ok bool, err error) {
	if sub.Seq <= s.lastSeq[from] {
		return cm, false, nil
	}
	if cm, err = s.core.Submit(sub.Op, sub.Base, from, sub.Seq); err != nil {
		return cm, false, err
	}
	s.lastSeq[from] = sub.Seq
	return cm, true, nil
}

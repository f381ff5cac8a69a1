package ot

import (
	"errors"
	"fmt"

	"repro/internal/chunklog"
)

// The Server/Client pair integrates operations through a central commit
// order: every operation is transformed against the committed operations it
// was concurrent with, committed at the next revision, and rebroadcast.
// Clients keep full responsiveness — local operations apply immediately —
// and transform incoming committed operations against their pending
// (not-yet-acknowledged) local operations. Convergence follows from TP1
// alone, so random multi-site workloads property-test clean.

// Committed is an operation fixed in the server's global order.
type Committed struct {
	Op   Op
	Rev  int    // revision after applying this op (1-based)
	Site string // originating site
	Seq  uint64 // originating site's operation counter, for ack matching
}

// ErrBadRevision reports a submission against a revision the server does
// not know.
var ErrBadRevision = errors.New("ot: bad base revision")

// Server is the central integration point. It holds the authoritative
// document, edited in place by each submission, and one commit log: entry i
// is the commit that made revision i+1, the transform context of later
// submissions and the source of resync pulls. The log is kept in fixed
// chunks, so a commit never copies the ones before it.
type Server struct {
	doc []rune
	log chunklog.Log[Committed]
}

// NewServer creates a server with the initial document.
func NewServer(initial string) *Server {
	return &Server{doc: []rune(initial)}
}

// Text returns the authoritative document.
func (s *Server) Text() string { return string(s.doc) }

// Rev returns the current revision (number of committed operations).
func (s *Server) Rev() int { return s.log.Len() }

// Submit integrates an operation generated against revision base by site:
// it is transformed against everything committed since, applied, and
// returned in committed form for broadcast to all clients (including the
// sender, as its acknowledgement). The op is site's whatever its Site says,
// so a commit's Op.Site is always its Site and the wire carries it once.
func (s *Server) Submit(op Op, base int, site string, seq uint64) (Committed, error) {
	op.Site = site
	rev := s.log.Len()
	if base < 0 || base > rev {
		return Committed{}, fmt.Errorf("%w: %d (rev %d)", ErrBadRevision, base, rev)
	}
	for i := base; i < rev; i++ {
		op = Transform(op, s.log.At(i).Op)
	}
	doc, err := Apply(s.doc, op)
	if err != nil {
		return Committed{}, fmt.Errorf("server apply: %w", err)
	}
	s.doc = doc
	cm := Committed{Op: op, Rev: rev + 1, Site: site, Seq: seq}
	s.log.Append(cm)
	return cm, nil
}

// CommittedSince returns the commits after revision base, in revision
// order — the pull-based resync path for clients that missed broadcasts
// (loss, partition, late join). A base at or beyond the current revision
// yields nil.
func (s *Server) CommittedSince(base int) []Committed {
	base = max(base, 0)
	if base >= s.log.Len() {
		return nil
	}
	return s.log.Copy(base, s.log.Len())
}

// Client is an editing site in the centrally-ordered model. It keeps at
// most one submission in flight: further local operations buffer in the
// pending list (continually transformed against integrated remote
// operations) and are submitted one by one as acknowledgements arrive. This
// is the standard discipline that keeps the server's transform context
// (history since the submission's base revision) free of the client's own
// operations.
type Client struct {
	id      string
	doc     []rune
	base    int // last server revision integrated
	seq     uint64
	pending []pendingOp // pending[0] is in flight; the rest are buffered
}

type pendingOp struct {
	op  Op
	seq uint64
}

// NewClient creates a client whose document starts at the server's current
// state and revision.
func NewClient(id string, srv *Server) *Client {
	return &Client{id: id, doc: []rune(srv.Text()), base: srv.Rev()}
}

// ID returns the client identifier.
func (c *Client) ID() string { return c.id }

// Text returns the client's current (optimistic) document.
func (c *Client) Text() string { return string(c.doc) }

// Base returns the last integrated server revision.
func (c *Client) Base() int { return c.base }

// PendingCount returns the number of unacknowledged local operations.
func (c *Client) PendingCount() int { return len(c.pending) }

// Submission is what a client sends to the server for one local op.
type Submission struct {
	Op   Op
	Base int
	Site string
	Seq  uint64
}

// Generate applies a local operation immediately (zero response time) and
// returns the submission to forward to the server, if one should be sent
// now. When an earlier operation is still unacknowledged the new operation
// buffers and send is false; Integrate will release it later.
func (c *Client) Generate(op Op) (sub Submission, send bool, err error) {
	op.Site = c.id
	doc, err := Apply(c.doc, op)
	if err != nil {
		return Submission{}, false, fmt.Errorf("local apply: %w", err)
	}
	c.doc = doc
	c.seq++
	c.pending = append(c.pending, pendingOp{op: op, seq: c.seq})
	if len(c.pending) > 1 {
		return Submission{}, false, nil
	}
	return Submission{Op: op, Base: c.base, Site: c.id, Seq: c.seq}, true, nil
}

// Integrate consumes the next committed operation from the server (clients
// must see commits in revision order). When the commit acknowledges this
// client's in-flight operation and more are buffered, the next submission
// is returned with send=true. A commit that returns an error leaves the
// client unchanged.
func (c *Client) Integrate(cm Committed) (next Submission, send bool, err error) {
	if cm.Rev != c.base+1 {
		return Submission{}, false, fmt.Errorf("ot: out-of-order commit rev %d at base %d", cm.Rev, c.base)
	}
	if cm.Site == c.id {
		// Acknowledgement of our in-flight op.
		if len(c.pending) == 0 || c.pending[0].seq != cm.Seq {
			return Submission{}, false, fmt.Errorf("ot: unexpected ack seq %d", cm.Seq)
		}
		c.base = cm.Rev
		c.pending = append(c.pending[:0], c.pending[1:]...) // keeps the backing array for Generate
		if len(c.pending) > 0 {
			p := c.pending[0]
			return Submission{Op: p.op, Base: c.base, Site: c.id, Seq: p.seq}, true, nil
		}
		return Submission{}, false, nil
	}
	// Transform the incoming op over our pending ops and apply it; only
	// then transform our pending ops over the incoming op (the Jupiter
	// bridge), so a commit that does not apply changes nothing.
	op := cm.Op
	for _, p := range c.pending {
		op = Transform(op, p.op)
	}
	doc, err := Apply(c.doc, op)
	if err != nil {
		return Submission{}, false, fmt.Errorf("integrate %v: %w", op, err)
	}
	c.doc = doc
	c.base = cm.Rev
	op = cm.Op
	for i := range c.pending {
		op, c.pending[i].op = Transform(op, c.pending[i].op), Transform(c.pending[i].op, op)
	}
	return Submission{}, false, nil
}

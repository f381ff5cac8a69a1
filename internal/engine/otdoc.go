package engine

import (
	"errors"
	"fmt"

	"repro/internal/ot"
)

var errServerEdit = errors.New("engine: the ot integration site takes no local edits")

// OT engine wire messages. Submissions flow client → server, commits flow
// server → everyone; pull/commits is the loss-recovery path (a client that
// detects a gap asks for everything since its base revision). They reach a
// daemon only inside eng/op item bodies of the document's session, so no
// body names its document (the session does) or the site that sent it (the
// item's author does); a commit names the site that submitted its op.

// MsgSubmit carries one client submission to the integration server. The
// submitter is whoever delivers it: Sub.Site and Sub.Op.Site do not travel,
// and the server files the submission under the sender Apply is given.
type MsgSubmit struct {
	Sub ot.Submission
}

// MsgCommit broadcasts one committed operation.
type MsgCommit struct {
	C ot.Committed
}

// MsgPull asks the server for the commits after Base.
type MsgPull struct {
	Base int
}

// MsgCommits answers a pull with commits in revision order.
type MsgCommits struct {
	Cs []ot.Committed
}

// otDoc adapts the ot Server/Client pair to the Doc interface. The replica
// whose site equals the configured server is a typed adapter over Server,
// the integration site a daemon runs on item bodies, and refuses local
// edits (errServerEdit); every other replica runs a client with one
// submission in flight, a hold-back map for commits that arrive out of
// revision order, and pull-based resync on Tick.
type otDoc struct {
	site   string
	server string

	srv *Server // server site only

	cl       *ot.Client // client sites only
	hold     map[int]ot.Committed
	inflight ot.Submission // unacknowledged submission, resent on Tick
	unacked  bool          // inflight holds a submission
}

func newOTDoc(site, server string) *otDoc {
	d := &otDoc{site: site, server: server}
	if site == server {
		d.srv = NewServer(site)
	} else {
		d.cl = ot.NewClient(site, ot.NewServer(""))
		d.hold = make(map[int]ot.Committed)
	}
	return d
}

func (d *otDoc) Text() string {
	if d.srv != nil {
		return d.srv.Text()
	}
	return d.cl.Text()
}

func (d *otDoc) Pending() int {
	if d.srv != nil {
		return 0
	}
	return d.cl.PendingCount() + len(d.hold)
}

func (d *otDoc) Insert(pos int, ch rune) ([]Msg, error) {
	return d.edit(ot.Op{Kind: ot.Insert, Pos: pos, Ch: ch})
}

func (d *otDoc) Delete(pos int) ([]Msg, error) {
	return d.edit(ot.Op{Kind: ot.Delete, Pos: pos})
}

// edit is a client's: the integration site only integrates what its
// clients submit, and no program edits at it.
func (d *otDoc) edit(op ot.Op) ([]Msg, error) {
	if d.srv != nil {
		return nil, errServerEdit
	}
	sub, send, err := d.cl.Generate(op)
	if err != nil {
		return nil, err
	}
	if !send {
		return nil, nil // buffered behind the in-flight submission
	}
	d.inflight, d.unacked = sub, true
	return []Msg{{To: d.server, Body: &MsgSubmit{Sub: sub}}}, nil
}

// Apply takes commits from the server site alone: a commit from anyone else
// is dropped, for the server, which never saw it, would refuse every
// submission based on it.
func (d *otDoc) Apply(from string, payload any) ([]Msg, error) {
	switch m := payload.(type) {
	case *MsgSubmit:
		return d.applySubmit(from, m.Sub)
	case *MsgCommit:
		if from != d.server {
			return nil, nil
		}
		return d.applyCommits(m.C)
	case *MsgPull:
		return d.applyPull(from, m.Base)
	case *MsgCommits:
		if from != d.server {
			return nil, nil
		}
		return d.applyCommits(m.Cs...)
	default:
		return nil, fmt.Errorf("engine: ot doc cannot apply %T", payload)
	}
}

func (d *otDoc) applySubmit(from string, sub ot.Submission) ([]Msg, error) {
	if d.srv == nil {
		return nil, fmt.Errorf("engine: submission sent to non-server site %s", d.site)
	}
	cm, ok, err := d.srv.submit(from, sub)
	if !ok {
		return nil, err
	}
	return []Msg{{Body: &MsgCommit{C: cm}}}, nil
}

func (d *otDoc) applyPull(from string, base int) ([]Msg, error) {
	if d.srv == nil {
		return nil, fmt.Errorf("engine: pull sent to non-server site %s", d.site)
	}
	cs := d.srv.core.CommittedSince(base)
	if len(cs) == 0 {
		return nil, nil
	}
	return []Msg{{To: from, Body: &MsgCommits{Cs: cs}}}, nil
}

// applyCommits ingests commits at a client: in-order commits integrate,
// future ones park in the hold map until the gap fills, stale ones drop.
// Acks may release the next buffered submission.
func (d *otDoc) applyCommits(cs ...ot.Committed) ([]Msg, error) {
	if d.srv != nil {
		return nil, nil // the server already has every commit
	}
	var out []Msg
	for _, cm := range cs {
		if cm.Rev <= d.cl.Base() {
			continue
		}
		d.hold[cm.Rev] = cm
	}
	for {
		cm, ok := d.hold[d.cl.Base()+1]
		if !ok {
			return out, nil
		}
		delete(d.hold, cm.Rev)
		next, send, err := d.cl.Integrate(cm)
		if err != nil {
			return out, err
		}
		if cm.Site == d.site {
			d.unacked = false
		}
		if send {
			d.inflight, d.unacked = next, true
			out = append(out, Msg{To: d.server, Body: &MsgSubmit{Sub: next}})
		}
	}
}

// Tick is the loss-recovery round: resend the unacknowledged submission
// (the server dedups) and pull any commits this client has missed. The
// server is passive — it answers pulls.
func (d *otDoc) Tick() []Msg {
	if d.srv != nil {
		return nil
	}
	var out []Msg
	if d.unacked {
		out = append(out, Msg{To: d.server, Body: &MsgSubmit{Sub: d.inflight}})
	}
	return append(out, Msg{To: d.server, Body: &MsgPull{Base: d.cl.Base()}})
}

package engine

import (
	"fmt"

	"repro/internal/ot"
)

// OT engine wire messages. Submissions flow client → server, commits flow
// server → everyone; pull/commits is the loss-recovery path (a client that
// detects a gap asks for everything since its base revision). They reach a
// daemon only inside eng/op item bodies of the document's session, so each
// names its document for the engine alone.

// MsgSubmit carries one client submission to the integration server.
type MsgSubmit struct {
	Doc string
	Sub ot.Submission
}

// MsgCommit broadcasts one committed operation.
type MsgCommit struct {
	Doc string
	C   ot.Committed
}

// MsgPull asks the server for the commits after Base.
type MsgPull struct {
	Doc  string
	Base int
}

// MsgCommits answers a pull with commits in revision order.
type MsgCommits struct {
	Doc string
	Cs  []ot.Committed
}

// otDoc adapts the ot Server/Client pair to the Doc interface. The replica
// whose site equals the configured server runs the authoritative server
// and edits at authoritative revisions; every other replica runs a client
// with one submission in flight, a hold-back map for commits that arrive
// out of revision order, and pull-based resync on Tick.
type otDoc struct {
	doc    string
	site   string
	server string

	srv     *ot.Server        // server site only
	srvSeq  uint64            // server site's own op counter
	lastSeq map[string]uint64 // server: committed seq per site, dedups resent submissions

	cl       *ot.Client // client sites only
	hold     map[int]ot.Committed
	inflight ot.Submission // unacknowledged submission, resent on Tick
	unacked  bool          // inflight holds a submission
}

func newOTDoc(doc, site, server string) *otDoc {
	d := &otDoc{doc: doc, site: site, server: server}
	if site == server {
		d.srv = ot.NewServer("")
		d.lastSeq = make(map[string]uint64)
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

func (d *otDoc) edit(op ot.Op) ([]Msg, error) {
	if d.srv != nil {
		// The server site edits at the authoritative revision: no pending
		// list, the commit broadcasts immediately.
		op.Site = d.site
		d.srvSeq++
		cm, err := d.srv.Submit(op, d.srv.Rev(), d.site, d.srvSeq)
		if err != nil {
			return nil, err
		}
		d.lastSeq[d.site] = d.srvSeq
		return []Msg{{Body: &MsgCommit{Doc: d.doc, C: cm}, Size: commitSize(cm)}}, nil
	}
	sub, send, err := d.cl.Generate(op)
	if err != nil {
		return nil, err
	}
	if !send {
		return nil, nil // buffered behind the in-flight submission
	}
	d.inflight, d.unacked = sub, true
	return []Msg{{To: d.server, Body: &MsgSubmit{Doc: d.doc, Sub: sub}, Size: subSize(sub)}}, nil
}

func (d *otDoc) Apply(from string, payload any) ([]Msg, error) {
	switch m := payload.(type) {
	case *MsgSubmit:
		return d.applySubmit(m.Sub)
	case *MsgCommit:
		return d.applyCommits(m.C)
	case *MsgPull:
		return d.applyPull(from, m.Base)
	case *MsgCommits:
		return d.applyCommits(m.Cs...)
	default:
		return nil, fmt.Errorf("engine: ot doc cannot apply %T", payload)
	}
}

func (d *otDoc) applySubmit(sub ot.Submission) ([]Msg, error) {
	if d.srv == nil {
		return nil, fmt.Errorf("engine: submission sent to non-server site %s", d.site)
	}
	if sub.Seq <= d.lastSeq[sub.Site] {
		return nil, nil // duplicate of a committed submission; pull recovers the commit
	}
	cm, err := d.srv.Submit(sub.Op, sub.Base, sub.Site, sub.Seq)
	if err != nil {
		return nil, err
	}
	d.lastSeq[sub.Site] = sub.Seq
	return []Msg{{Body: &MsgCommit{Doc: d.doc, C: cm}, Size: commitSize(cm)}}, nil
}

func (d *otDoc) applyPull(from string, base int) ([]Msg, error) {
	if d.srv == nil {
		return nil, fmt.Errorf("engine: pull sent to non-server site %s", d.site)
	}
	cs := d.srv.CommittedSince(base)
	if len(cs) == 0 {
		return nil, nil
	}
	return []Msg{{To: from, Body: &MsgCommits{Doc: d.doc, Cs: cs}, Size: 16 + len(cs)*24}}, nil
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
			out = append(out, Msg{To: d.server, Body: &MsgSubmit{Doc: d.doc, Sub: next}, Size: subSize(next)})
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
		out = append(out, Msg{To: d.server, Body: &MsgSubmit{Doc: d.doc, Sub: d.inflight}, Size: subSize(d.inflight)})
	}
	out = append(out, Msg{To: d.server, Body: &MsgPull{Doc: d.doc, Base: d.cl.Base()}, Size: 24})
	return out
}

func subSize(sub ot.Submission) int  { return 24 + len(sub.Site) }
func commitSize(cm ot.Committed) int { return 24 + len(cm.Site) }

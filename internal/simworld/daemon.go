package simworld

import (
	"errors"
	"fmt"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/session"
)

// Daemon is the deployment sessiond and cscwctl ship, on the simulator:
// daemon.NewHost on the node daemon.HostID and one daemon.Attach'ed
// participant per user, each engine message an item of the session log.
// The first failure (an edit the engine rejects, an item that does not
// decode or apply) stops the participants' pumps and is kept for Err. A post
// the network refuses is loss, for the engines' recovery rounds to repair.
type Daemon struct {
	Host  *session.Host
	Users []string
	Parts map[string]*daemon.Participant
	// Applied, when set, runs after a participant has applied one item and
	// posted what that produced.
	Applied func(user string, it session.Item)

	err error
}

// Daemon builds the deployment from cfg's Mode, Shards, Shard, Engine and
// Doc, then runs the world until every participant's join is acknowledged.
// Build it before laying loss or a partition on the host's links: a join the
// network loses is not retried.
func (w *World) Daemon(cfg daemon.Config, users ...string) (*Daemon, error) {
	host, err := daemon.NewHost(w.Endpoint(daemon.HostID), w.Sim.Now, cfg)
	if err != nil {
		return nil, fmt.Errorf("simworld: daemon: %w", err)
	}
	d := &Daemon{Host: host, Users: users, Parts: make(map[string]*daemon.Participant, len(users))}
	for _, user := range users {
		cfg.User = user
		p, err := daemon.Attach(w.Endpoint(user), cfg)
		if err != nil {
			return nil, fmt.Errorf("simworld: participant %s: %w", user, err)
		}
		p.Client.OnItem = func(it session.Item) { d.deliver(user, p, it) }
		d.Parts[user] = p
		if err := p.Client.Join(w.Sim.Now()); err != nil {
			return nil, fmt.Errorf("simworld: participant %s: %w", user, err)
		}
	}
	w.Sim.Run()
	for _, user := range users {
		if !d.Parts[user].Client.Joined() {
			return nil, fmt.Errorf("simworld: participant %s: join not acknowledged", user)
		}
	}
	return d, nil
}

// Err returns the failure that stopped the pumps, or nil.
func (d *Daemon) Err() error { return d.err }

// Edit runs fn (Insert, Delete, Tick — any number of them) on user's replica
// and posts the messages it returns.
func (d *Daemon) Edit(user string, fn func(engine.Doc) ([]engine.Msg, error)) {
	if d.err != nil {
		return
	}
	d.keep(user, d.Parts[user].Edit(fn))
}

// Tick runs one recovery round: every participant posts what its replica's
// Tick returns (OT clients resend and pull, CRDT replicas gossip their state).
func (d *Daemon) Tick() {
	for _, user := range d.Users {
		d.Edit(user, func(doc engine.Doc) ([]engine.Msg, error) { return doc.Tick(), nil })
	}
}

// Converged reports whether every participant holds the same text with
// nothing in flight or held back.
func (d *Daemon) Converged() bool {
	ref, _ := d.Parts[d.Users[0]].Text()
	for _, user := range d.Users {
		if text, pending := d.Parts[user].Text(); text != ref || pending != 0 {
			return false
		}
	}
	return true
}

func (d *Daemon) deliver(user string, p *daemon.Participant, it session.Item) {
	if d.err != nil {
		return
	}
	applied, err := p.Deliver(it)
	applied = applied || refused(err) // applied; what it answered with was lost
	d.keep(user, err)
	if applied && d.Applied != nil {
		d.Applied(user, it)
	}
}

// keep records the first failure; a post the network refused is loss.
func (d *Daemon) keep(user string, err error) {
	if err != nil && d.err == nil && !refused(err) {
		d.err = fmt.Errorf("%s: %w", user, err)
	}
}

func refused(err error) bool { return errors.Is(err, netsim.ErrNoRoute) }

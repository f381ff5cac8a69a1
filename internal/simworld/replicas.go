package simworld

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fabric"
)

// Replicas is one engine.Doc per site on the world's endpoints, with the
// message pump the engine binding leaves to its caller: every message a Doc
// returns is encoded with the binary engine codec and offered to the wire —
// to Msg.To, or to every other site when To is empty — and every frame that
// arrives is decoded, applied, and whatever Apply returns is sent on (an OT
// server fanning a commit out, a client releasing its next submission).
//
// The first failure (an edit the engine rejects, a frame that does not
// decode, a payload Apply refuses) stops the pump and is kept for Err; the
// caller's script may keep running, it just no longer moves anything.
type Replicas struct {
	IDs  []string
	Docs map[string]engine.Doc
	// Applied, when set, runs after a site has applied one delivery and
	// forwarded what that produced.
	Applied func(site string)

	w     *World
	codec *fabric.BinaryCodec
	err   error
}

// Replicas builds a replica of one document at each id, all running the
// named engine. ids[0] is the OT integration site (the authoritative
// server); CRDT replicas are symmetric and ignore that.
func (w *World) Replicas(kind string, ids ...string) (*Replicas, error) {
	r := &Replicas{
		IDs:   ids,
		Docs:  make(map[string]engine.Doc, len(ids)),
		w:     w,
		codec: fabric.NewBinaryCodec(engine.NewWireCodec()),
	}
	for _, id := range ids {
		d, err := engine.New(kind, "doc", id, ids[0])
		if err != nil {
			return nil, fmt.Errorf("simworld: replica %s: %w", id, err)
		}
		r.Docs[id] = d
	}
	for _, id := range ids {
		id := id
		w.Endpoint(id).SetHandler(func(from string, payload any, _ int) { r.receive(id, from, payload) })
	}
	return r, nil
}

// Err returns the failure that stopped the pump, or nil.
func (r *Replicas) Err() error { return r.err }

// Insert edits site's replica and sends what the engine returns.
func (r *Replicas) Insert(site string, pos int, ch rune) {
	if r.err != nil {
		return
	}
	msgs, err := r.Docs[site].Insert(pos, ch)
	if err != nil {
		r.err = fmt.Errorf("%s insert at %d: %w", site, pos, err)
		return
	}
	r.send(site, msgs)
}

// Delete edits site's replica and sends what the engine returns.
func (r *Replicas) Delete(site string, pos int) {
	if r.err != nil {
		return
	}
	msgs, err := r.Docs[site].Delete(pos)
	if err != nil {
		r.err = fmt.Errorf("%s delete at %d: %w", site, pos, err)
		return
	}
	r.send(site, msgs)
}

// Tick runs one recovery round: every site sends what its Doc's Tick
// returns (OT clients resend and pull, CRDT replicas gossip their state).
func (r *Replicas) Tick() {
	for _, id := range r.IDs {
		r.send(id, r.Docs[id].Tick())
	}
}

// Converged reports whether every replica holds the same text with nothing
// in flight or held back.
func (r *Replicas) Converged() bool {
	ref := r.Docs[r.IDs[0]].Text()
	for _, id := range r.IDs {
		if d := r.Docs[id]; d.Text() != ref || d.Pending() != 0 {
			return false
		}
	}
	return true
}

func (r *Replicas) send(from string, msgs []engine.Msg) {
	if r.err != nil {
		return
	}
	ep := r.w.Endpoint(from)
	for _, m := range msgs {
		data, err := r.codec.Encode(m.Body)
		if err != nil {
			r.err = fmt.Errorf("%s encoding %T: %w", from, m.Body, err)
			return
		}
		// A Send error is a down link refusing the frame: loss, which is the
		// network's job here and the engines' recovery rounds' to repair.
		if m.To != "" {
			_ = ep.Send(m.To, data, len(data))
			continue
		}
		for _, to := range r.IDs {
			if to != from {
				_ = ep.Send(to, data, len(data))
			}
		}
	}
}

func (r *Replicas) receive(site, from string, payload any) {
	if r.err != nil {
		return
	}
	data, ok := payload.([]byte)
	if !ok {
		r.err = fmt.Errorf("%s got a %T from %s, want an encoded frame", site, payload, from)
		return
	}
	body, err := r.codec.Decode(data)
	if err != nil {
		r.err = fmt.Errorf("%s decoding from %s: %w", site, from, err)
		return
	}
	out, err := r.Docs[site].Apply(from, body)
	if err != nil {
		r.err = fmt.Errorf("%s applying %T from %s: %w", site, body, from, err)
		return
	}
	r.send(site, out)
	if r.Applied != nil {
		r.Applied(site)
	}
}

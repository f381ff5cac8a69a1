package fabric

import "repro/internal/transport"

// TransportEndpoint adapts a byte-oriented transport endpoint (TCP) to the
// fabric Endpoint interface, using a Codec to frame typed payloads onto the
// wire and back.
type TransportEndpoint struct {
	ep    transport.Endpoint
	codec PayloadCodec
	in    inbox
}

// FromTransport wraps a transport endpoint with the given codec (a *Codec,
// or a wrapper around one). The raw byte handler is claimed immediately, so
// every frame is decoded here; one that arrives before SetHandler, fails to
// decode, or carries a tag the codec has not registered is counted as
// dropped, and so is a payload Send cannot encode. A decoded payload of a
// Scoped type is lent to the handler chain: once the chain has returned it
// goes back to its type's free list for a later Decode, whatever codec
// decoded it.
func FromTransport(ep transport.Endpoint, codec PayloadCodec) *TransportEndpoint {
	t := &TransportEndpoint{ep: ep, codec: codec}
	ep.SetHandler(func(from string, data []byte) {
		payload, err := codec.Decode(data)
		if err != nil || payload == nil {
			t.in.countDrop()
			return
		}
		t.in.deliver(from, payload, len(data))
		release(payload)
	})
	return t
}

// ID returns the underlying transport endpoint id.
func (t *TransportEndpoint) ID() string { return t.ep.ID() }

// Send frames payload via the codec and transmits it, a send to the
// endpoint's own id included: that one travels through the transport like
// any other, so a handler never runs inside Send. The declared size is
// advisory on byte transports — the encoded frame length is what travels.
// The transport keeps nothing of the frame once its Send returns, so the
// frame's storage goes back to the codec's free list for the next Encode.
// A payload the codec cannot encode is counted as dropped as well as
// returned, so a send whose error an Outbox discards still leaves a trace.
//
//cscw:hotpath
func (t *TransportEndpoint) Send(to string, payload any, size int) error {
	data, err := t.codec.Encode(payload)
	if err != nil {
		t.in.countDrop()
		return err
	}
	err = t.ep.Send(to, data)
	recycleFrame(data)
	return err
}

// SetHandler installs the delivery callback.
func (t *TransportEndpoint) SetHandler(h Handler) { t.in.set(h) }

// Close closes the underlying transport endpoint.
func (t *TransportEndpoint) Close() error {
	err := t.ep.Close()
	t.in.set(nil)
	return err
}

// Dropped counts frames that arrived with no handler installed, failed to
// decode, or carried an unregistered tag, and payloads Send could not
// encode.
func (t *TransportEndpoint) Dropped() uint64 { return t.in.droppedCount() }

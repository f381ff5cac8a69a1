package fabric

import (
	"sync/atomic"

	"repro/internal/transport"
)

// TransportEndpoint adapts a byte-oriented transport endpoint (TCP) to the
// fabric Endpoint interface, using a Codec to frame typed payloads onto the
// wire and back. A message to its own id never reaches the transport: it
// goes straight to its own inbox (see Send).
type TransportEndpoint struct {
	ep     transport.Endpoint
	id     string
	codec  PayloadCodec
	in     inbox
	closed atomic.Bool
}

// FromTransport wraps a transport endpoint with the given codec (a *Codec,
// or a wrapper around one). The raw byte handler is claimed immediately:
// frames arriving before SetHandler are decoded and buffered rather than
// dropped by the transport's reader. Frames that fail to decode, or
// whose tag is not registered with the codec, are counted as dropped.
func FromTransport(ep transport.Endpoint, codec PayloadCodec) *TransportEndpoint {
	t := &TransportEndpoint{ep: ep, id: ep.ID(), codec: codec}
	ep.SetHandler(func(from string, data []byte) {
		payload, err := codec.Decode(data)
		if err != nil || payload == nil {
			t.in.countDrop()
			return
		}
		t.in.deliver(from, payload, len(data))
	})
	return t
}

// ID returns the underlying transport endpoint id.
func (t *TransportEndpoint) ID() string { return t.id }

// Send frames payload via the codec and transmits it. The declared size
// is advisory on byte transports — the encoded frame length is what travels.
// The transport keeps nothing of the frame once its Send returns, so the
// frame's storage goes back to the codec's free list for the next Encode.
//
// A send to the endpoint's own id is still encoded, so a payload the codec
// refuses fails exactly as it would to a peer, but it makes no transport
// Send: the sender's own pointer goes to this endpoint's inbox, on the
// caller's goroutine, with the frame length as its size (what a peer would
// be handed). Before SetHandler, or while a flush runs, it queues in order
// like any arrival; after Close it is refused with the transport's closed
// error and delivers nothing.
//
//cscw:hotpath
func (t *TransportEndpoint) Send(to string, payload any, size int) error {
	data, err := t.codec.Encode(payload)
	if err != nil {
		return err
	}
	if to == t.id {
		n := len(data)
		recycleFrame(data) // before delivery, so sends the handler makes reuse it
		if t.closed.Load() {
			return transport.ErrClosed
		}
		t.in.deliver(t.id, payload, n)
		return nil
	}
	err = t.ep.Send(to, data)
	recycleFrame(data)
	return err
}

// SetHandler installs the delivery callback, flushing buffered deliveries.
func (t *TransportEndpoint) SetHandler(h Handler) { t.in.set(h) }

// Close closes the underlying transport endpoint.
func (t *TransportEndpoint) Close() error {
	t.closed.Store(true)
	err := t.ep.Close()
	t.in.set(nil)
	return err
}

// Dropped counts frames lost to inbox overflow, decode failures, and
// unregistered tags.
func (t *TransportEndpoint) Dropped() uint64 { return t.in.droppedCount() }

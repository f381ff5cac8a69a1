package load

import (
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/session"
)

// Exact allocation counts of the two hottest per-frame steps, taken with
// testing.AllocsPerRun on the layers' public calls. They repeat exactly from
// run to run, so a change that claims to save allocations can be held to them.

// sampleBody is shaped like a CRDT eng/op item body: "|" plus ~80 base64
// characters.
var sampleBody = "|" + strings.Repeat("QUJD", 20)

func sampleItems(n int) *session.MsgItems {
	items := make([]session.Item, n)
	for i := range items {
		items[i] = session.Item{Seq: uint64(i + 1), From: "p1", Kind: engine.ItemKind, Body: sampleBody, At: time.Duration(i)}
	}
	return &session.MsgItems{Doc: "doc0", Items: items}
}

type codecAllocCounts struct{ post, items1, items400 float64 }

// codecAllocs counts allocations of one BinaryCodec Encode+Decode round trip
// of a MsgPost, a 1-item MsgItems (a push) and a 400-item MsgItems (a
// catch-up backlog). A failed round trip reports -1.
func codecAllocs() codecAllocCounts {
	reg := session.NewWireCodec()
	fabric.RegisterBase(reg)
	bin := fabric.NewBinaryCodec(reg)
	roundTrip := func(payload any) float64 {
		ok := true
		n := testing.AllocsPerRun(50, func() {
			data, err := bin.Encode(payload)
			if err != nil {
				ok = false
				return
			}
			if _, err := bin.Decode(data); err != nil {
				ok = false
			}
		})
		if !ok {
			return -1
		}
		return n
	}
	return codecAllocCounts{
		post:     roundTrip(&session.MsgPost{Doc: "doc0", From: "p0", Kind: engine.ItemKind, Body: sampleBody}),
		items1:   roundTrip(sampleItems(1)),
		items400: roundTrip(sampleItems(400)),
	}
}

// nullEndpoint swallows sends: what is left is the session layer's own work.
type nullEndpoint struct{}

func (nullEndpoint) ID() string                  { return hostID }
func (nullEndpoint) Send(string, any, int) error { return nil }
func (nullEndpoint) SetHandler(fabric.Handler)   {}
func (nullEndpoint) Close() error                { return nil }

// postAllocs counts allocations of Host.Receive(MsgPost) with four members
// joined (relay_1x4's fan-out: three pushes) over an endpoint that does
// nothing.
func postAllocs() float64 {
	h := session.NewHost(nullEndpoint{}, session.Synchronous, func() time.Duration { return 0 })
	for _, name := range []string{"p0", "p1", "p2", "p3"} {
		h.Receive(name, &session.MsgJoin{From: name, State: session.Active})
	}
	post := &session.MsgPost{From: "p0", Kind: engine.ItemKind, Body: sampleBody}
	return testing.AllocsPerRun(200, func() { h.Receive("p0", post) })
}

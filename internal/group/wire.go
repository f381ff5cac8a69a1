package group

import "repro/internal/fabric"

// RegisterWire registers the group wire packet (binwire.go) with a fabric
// codec so members can run over byte-oriented substrates (in-memory hub,
// TCP) as well as netsim. Over those, a multicast or RPC body must be nil or
// a string.
func RegisterWire(c *fabric.Codec) {
	c.Register(tagPacket, packet{})
}

package group

import "repro/internal/fabric"

// RegisterWire registers the group wire packet (binwire.go) with a fabric
// codec so members can run over the byte-oriented substrate (TCP) as well as
// netsim. Over it, a multicast or RPC body must be nil or a string.
func RegisterWire(c *fabric.Codec) {
	c.Register(tagPacket, packet{})
}

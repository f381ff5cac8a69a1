package mobile

import (
	"encoding/binary"

	"repro/internal/fabric"
)

// Traffic is the cost record a mobile client emits for each remote
// interaction once an uplink is attached. It makes the package's cost
// transparency observable on the wire: experiment E9 prices interactions
// from the client's counters, while a server (or a metrics middleware on
// the uplink) can account for them remotely.
type Traffic struct {
	Op    string // fetch | read | write | replay | bulk
	Key   string
	Bytes int
}

const tagTraffic = "mobile/traffic"

// RegisterWire registers the mobile wire records with a fabric codec, so
// Traffic can cross byte-oriented transports as well as netsim.
func RegisterWire(c *fabric.Codec) {
	c.Register(tagTraffic, Traffic{})
}

// AppendBinary implements fabric.BinaryAppender.
func (t Traffic) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, t.Op)
	dst = fabric.AppendString(dst, t.Key)
	return binary.AppendVarint(dst, int64(t.Bytes)), nil
}

// ParseBinary implements fabric.BinaryParser.
func (t *Traffic) ParseBinary(data []byte) error {
	r := fabric.NewReader(data)
	t.Op = r.String()
	t.Key = r.String()
	t.Bytes = int(r.Varint())
	return r.Done(tagTraffic)
}

// AttachUplink makes the client report every remote interaction as a
// Traffic record sent to server over ep. The uplink is observational: cache
// reads and writes still go through the shared store, and losing the uplink
// loses only accounting, never data. Pass nil to detach.
func (c *Client) AttachUplink(ep fabric.Endpoint, server string) {
	c.up = ep
	c.upServer = server
}

// report emits one Traffic record if an uplink is attached. Send errors are
// dropped: accounting must never fail an operation that already succeeded
// against the store.
func (c *Client) report(op, key string, bytes int) {
	if c.up == nil {
		return
	}
	_ = c.up.Send(c.upServer, &Traffic{Op: op, Key: key, Bytes: bytes}, bytes+32)
}

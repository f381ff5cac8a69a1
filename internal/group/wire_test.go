package group

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/vclock"
	"repro/internal/wiretest"
)

// wireCodec is a codec carrying the group packet, as a TCP member has.
func wireCodec() *fabric.Codec {
	c := fabric.NewCodec()
	RegisterWire(c)
	return c
}

// samplePackets is one packet of every kind, shaped the way members build
// them, plus the sequencer's order announcements in all four forms (to the
// origin and forwarding the message, for one message and for a run), an
// RPC reply both ways and the zero packet.
func samplePackets() map[string]*packet {
	inner := []*packet{
		{Kind: kData, From: "a", ViewID: 3, Body: "one", Size: 8, MsgID: msgID{Origin: "a", N: 1}, GlobalSeq: 4},
		{Kind: kData, From: "a", ViewID: 3, Body: "two", Size: 8, MsgID: msgID{Origin: "a", N: 2}, GlobalSeq: 5},
	}
	forwarded := []*packet{
		{Kind: kData, From: "a", ViewID: 3, Body: "one", Size: 8, MsgID: msgID{Origin: "a", N: 1}},
		{Kind: kData, From: "a", ViewID: 3, Body: "two", Size: 8, MsgID: msgID{Origin: "a", N: 2}},
	}
	return map[string]*packet{
		"data": {Kind: kData, From: "a", ViewID: 3, Body: "hi", Size: 16, SenderSeq: 7,
			VC: vclock.VC{"a": 4, "b": 2}, MsgID: msgID{Origin: "a", N: 7}},
		"order":                   {Kind: kOrder, From: "s", ViewID: 3, GlobalSeq: 11, MsgID: msgID{Origin: "a", N: 1}},
		"order batched":           {Kind: kOrder, From: "s", ViewID: 3, GlobalSeq: 11, MsgIDs: []msgID{{Origin: "a", N: 1}, {Origin: "b", N: 2}}},
		"order forwarded":         {Kind: kOrder, From: "s", ViewID: 3, Body: "hi", Size: 16, MsgID: msgID{Origin: "a", N: 7}, GlobalSeq: 11},
		"order forwarded batched": {Kind: kOrder, From: "s", ViewID: 3, Size: 16, GlobalSeq: 11, Msgs: forwarded},
		"rpc request":             {Kind: kRPCReq, From: "a", ViewID: 3, CallID: 9, Op: "sum", Body: "1,2", Size: 8},
		"rpc reply":               {Kind: kRPCRep, From: "b", ViewID: 3, CallID: 9, Body: "3"},
		"rpc error":               {Kind: kRPCRep, From: "b", ViewID: 3, CallID: 9, IsError: true, ErrText: "group: unknown rpc call: sum"},
		"token":                   {Kind: kToken, From: "a", ViewID: 3, Body: "b", GlobalSeq: 12},
		"token request":           {Kind: kTokenReq, From: "c", ViewID: 3},
		"nack":                    {Kind: kNack, From: "b", ViewID: 3, NackFrom: 2, NackTo: 5},
		"sync":                    {Kind: kSync, From: "b", ViewID: 3, SenderSeq: 9},
		"batch":                   {Kind: kBatch, From: "a", ViewID: 3, Size: 16, Msgs: inner},
		"zero":                    {},
	}
}

// retiredViewBody is a view change as a tree that still sent one encoded
// it: kind 3, the retired view bit and From "x9", then view 2 of m00, m01
// and m02. The parser refuses the bit.
func retiredViewBody() []byte {
	b := fabric.AppendUvarint(fabric.AppendUvarint(nil, 3), hasFrom|retiredView)
	b = fabric.AppendUvarint(fabric.AppendUvarint(fabric.AppendString(b, "x9"), 2), 3)
	for _, id := range []string{"m00", "m01", "m02"} {
		b = fabric.AppendString(b, id)
	}
	return b
}

// TestPacketBinaryCodecParity: every kind of packet comes back from the
// codec equal to what was encoded, the samples between them set every
// field a packet has, and equal packets encode to equal bytes (VC entries
// are sorted on the wire).
func TestPacketBinaryCodecParity(t *testing.T) {
	codec := wireCodec()
	samples := make(map[string]any)
	for name, p := range samplePackets() {
		samples[name] = p
	}
	wiretest.Check(t, samples, func(p any) (any, error) {
		frame, err := codec.Encode(p)
		if err != nil {
			return nil, err
		}
		got, err := codec.Decode(frame)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 10; i++ { // map order varies between encodes
			if again, _ := codec.Encode(got); !bytes.Equal(again, frame) {
				return nil, fmt.Errorf("re-encoded to %x, first encoding %x", again, frame)
			}
		}
		return got, nil
	})
}

// TestPacketWireRejects: what the wire cannot carry fails at encode, and
// malformed bodies fail at decode, each with the reason.
func TestPacketWireRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		p    *packet
		want string
	}{
		{"number body", &packet{Kind: kData, Body: 42}, "nil or a string, not int"},
		{"nested batch", &packet{Kind: kBatch, Msgs: []*packet{{Kind: kBatch, Msgs: []*packet{{Kind: kData}}}}}, errNestedBatch.Error()},
	} {
		if _, err := c.p.AppendBinary(nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: encode error %v, want %q", c.name, err, c.want)
		}
	}

	body, err := samplePackets()["data"].AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var p packet
	for n := 0; n < len(body); n++ {
		if err := p.ParseBinary(fabric.NewReader(string(body[:n]))); !errors.Is(err, fabric.ErrTruncatedFrame) {
			t.Fatalf("body prefix %d/%d: got %v, want ErrTruncatedFrame", n, len(body), err)
		}
	}
	if err := p.ParseBinary(fabric.NewReader(string(append(body, 0)))); err == nil || errors.Is(err, fabric.ErrTruncatedFrame) {
		t.Fatalf("body plus a trailing byte: got %v, want a trailing-bytes error", err)
	}
	// Three batches nested, built by hand since the encoder refuses it: a
	// batch's kind, a mask with only the batched-packets bit and a count of
	// one, for the outer and the inner batch, and a third-level body of
	// bytes that cannot parse. The inner batch fails at its mask, so the
	// third level is never read: the error is errNestedBatch, not a
	// truncation.
	batchOfOne := fabric.AppendUvarint(fabric.AppendUvarint(fabric.AppendUvarint(nil, uint64(kBatch)), hasMsgs), 1)
	nested := append(append(batchOfOne, batchOfOne...), bytes.Repeat([]byte{0xff}, minPacketBytes)...)
	if err := p.ParseBinary(fabric.NewReader(string(nested))); !errors.Is(err, errNestedBatch) {
		t.Fatalf("nested batch: got %v, want errNestedBatch", err)
	}
}

var updatePackets = flag.Bool("update", false, "rewrite testdata/packets.golden from this run")

// TestPacketWireGolden pins the body of every samplePackets entry byte for
// byte, one "name: hex" line each in name order, against
// testdata/packets.golden. A diff there is a wire change: peers of the two
// trees cannot read each other's group packets.
func TestPacketWireGolden(t *testing.T) {
	samples := samplePackets()
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		body, err := samples[name].AppendBinary(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&sb, "%s: %x\n", name, body)
	}
	got := sb.String()
	path := filepath.Join("testdata", "packets.golden")
	if *updatePackets {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("packet bodies differ from %s (rewrite with -update):\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestPacketWireSizes pins the body bytes of the three packets
// group_seq_1x4 moves per multicast, at its shapes: a 24-byte op body, and a
// message number and a global sequence number of two varint bytes each —
// the data to the sequencer, the order back to the origin, and the order
// that forwards the message to the others. Written field by field, every
// field present, the first two took 49 and 25 bytes.
func TestPacketWireSizes(t *testing.T) {
	for _, c := range []struct {
		name string
		p    *packet
		want int
	}{
		{"data", &packet{Kind: kData, From: "m1", ViewID: 1, Body: "m1:1500:ssssssssssssssss", Size: 16, MsgID: msgID{Origin: "m1", N: 1500}}, 34},
		{"order", &packet{Kind: kOrder, From: "m0", ViewID: 1, GlobalSeq: 6000, MsgID: msgID{Origin: "m1", N: 1500}}, 13},
		{"order forwarded", &packet{Kind: kOrder, From: "m0", ViewID: 1, Body: "m1:1500:ssssssssssssssss", Size: 16, MsgID: msgID{Origin: "m1", N: 1500}, GlobalSeq: 6000}, 39},
	} {
		body, err := c.p.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) != c.want {
			t.Errorf("%s: body is %d bytes (%x), want %d", c.name, len(body), body, c.want)
		}
	}
}

// TestPacketDecodeStrict: the parser accepts only the one encoding of a
// packet. Each body but the one marked valid breaks one rule.
func TestPacketDecodeStrict(t *testing.T) {
	// body is Kind, the mask, then the given field bytes.
	body := func(k kind, mask uint64, fields ...byte) []byte {
		b := fabric.AppendUvarint(fabric.AppendUvarint(nil, uint64(k)), mask)
		return append(b, fields...)
	}
	for _, c := range []struct {
		name string
		body []byte
		want string
	}{
		{"unknown bit", body(kData, hasMsgIDs<<1), "unknown presence bits"},
		{"retired view bit", retiredViewBody(), "unknown presence bits 0x200"},
		{"empty From", body(kData, hasFrom, 0), errNotCanonical.Error()},
		{"zero ViewID", body(kData, hasViewID, 0), errNotCanonical.Error()},
		{"zero Size", body(kData, hasSize, 0), errNotCanonical.Error()},
		{"zero MsgID", body(kData, hasMsgID, 0, 0), errNotCanonical.Error()},
		{"origin bit without MsgID", body(kData, hasFrom|originIsFrom, 1, 'a'), errNotCanonical.Error()},
		{"origin written though it is From", body(kData, hasFrom|hasMsgID, 1, 'a', 1, 'a', 7), errNotCanonical.Error()},
		{"IsError alone is valid", body(kRPCRep, isError), ""},
		{"zero VC count", body(kData, hasVC, 0), errNotCanonical.Error()},
		{"zero batch count", body(kBatch, hasMsgs, 0), errNotCanonical.Error()},
		{"zero MsgIDs count", body(kOrder, hasMsgIDs, 0), errNotCanonical.Error()},
		{"duplicate VC site", body(kData, hasVC, 2, 1, 'a', 1, 1, 'a', 2), `vector site "a" follows "a"`},
		{"VC sites out of order", body(kData, hasVC, 2, 1, 'b', 1, 1, 'a', 2), `vector site "a" follows "b"`},
		{"non-minimal varint", body(kData, hasViewID, 0x83, 0x00), "bad uvarint"},
	} {
		var p packet
		err := p.ParseBinary(fabric.NewReader(string(c.body)))
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: %x rejected: %v", c.name, c.body, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %x gave %v, want %q", c.name, c.body, err, c.want)
		}
	}
}

// TestPacketDecodeAllocs pins the decode cost of the three frames
// group_seq_1x4 moves per multicast: the packet and one copy of the body's
// strings, plus for a packet carrying the message the string boxed into
// Body.
func TestPacketDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	codec := wireCodec()
	for _, c := range []struct {
		name string
		p    *packet
		want float64
	}{
		{"data", &packet{Kind: kData, From: "m1", ViewID: 1, Body: "m1:17:ssssssssssss", Size: 16, MsgID: msgID{Origin: "m1", N: 17}}, 3},
		{"order", &packet{Kind: kOrder, From: "m0", ViewID: 1, GlobalSeq: 65, MsgID: msgID{Origin: "m1", N: 17}}, 2},
		{"order forwarded", &packet{Kind: kOrder, From: "m0", ViewID: 1, Body: "m1:17:ssssssssssss", Size: 16, MsgID: msgID{Origin: "m1", N: 17}, GlobalSeq: 65}, 3},
	} {
		frame, err := codec.Encode(c.p)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := codec.Decode(frame); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: Decode allocates %v objects, want %v", c.name, got, c.want)
		}
	}
}

// FuzzPacketDecode: arbitrary bytes never panic the packet parser, and
// whatever it accepts re-encodes to the same bytes, which parse to an
// equal packet: an accepted body is the one encoding of its packet.
func FuzzPacketDecode(f *testing.F) {
	for name, p := range samplePackets() {
		body, err := p.AppendBinary(nil)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(body)
	}
	f.Add(retiredViewBody())
	f.Fuzz(func(t *testing.T, data []byte) {
		var p packet
		if p.ParseBinary(fabric.NewReader(string(data))) != nil {
			return
		}
		body, err := p.AppendBinary(nil)
		if err != nil {
			t.Fatalf("re-encode of accepted %#v: %v", p, err)
		}
		if !bytes.Equal(body, data) {
			t.Fatalf("accepted %x re-encodes to %x", data, body)
		}
		var again packet
		if err := again.ParseBinary(fabric.NewReader(string(body))); err != nil || !reflect.DeepEqual(p, again) {
			t.Fatalf("re-parse mismatch: %#v vs %#v (err %v)", p, again, err)
		}
	})
}

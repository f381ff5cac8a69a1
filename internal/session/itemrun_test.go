package session

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/transport"
)

// runHead is the start of a MsgItems body with two items: doc "", the count,
// then the first item in full, {Seq 1, From "a", Kind "k", Body "", At 0},
// which fills table slots 0 and 1 with "a" and "k".
const runHead = "\x00\x02\x01\x01a\x01k\x00\x00"

// hostileRuns are item-run bodies no appender writes, each one byte away
// from the canonical body runHead + "\x01\x01\x00\x00\x00" ({2 k a "" 0}).
var hostileRuns = map[string]string{
	"reference past the table":   runHead + "\x01\x02\x00\x00\x00",  // From: slot 2, never filled
	"new string the table holds": runHead + "\x01\x09a\x00\x00\x00", // From: a new "a", which slot 0 holds
	"new kind the table holds":   runHead + "\x01\x00\x09k\x00\x00", // Kind: a new "k", which slot 1 holds
}

// itemsFrame frames body under the session/items tag, as the codec would.
func itemsFrame(t *testing.T, body string) []byte {
	t.Helper()
	frame, err := NewWireCodec().Encode(MsgItems{})
	if err != nil {
		t.Fatal(err)
	}
	head := frame[:4+int(frame[3])] // magic, version, encoding, tag
	return append(binary.BigEndian.AppendUint32(head, uint32(len(body))), body...)
}

// TestItemRunRefusesHostile: a reference to a table slot that was never
// filled, and a new string the table still holds, are decode errors, and a
// frame carrying one reaches an endpoint as a counted drop, delivered to
// nothing. The canonical body they were cut from decodes.
func TestItemRunRefusesHostile(t *testing.T) {
	var m MsgItems
	if err := m.ParseBinary(fabric.NewReader(runHead + "\x01\x01\x00\x00\x00")); err != nil {
		t.Fatalf("canonical run refused: %v", err)
	}
	want := []Item{{Seq: 1, From: "a", Kind: "k"}, {Seq: 2, From: "k", Kind: "a"}}
	if !reflect.DeepEqual(m.Items, want) {
		t.Fatalf("canonical run decoded to %+v, want %+v", m.Items, want)
	}
	// A join ack's backlog is the same run after doc "", a mode and no
	// members: canonical, it decodes; hostile, the ack is refused.
	const ackHead = "\x00\x01\x00"
	var ack MsgJoinAck
	if err := ack.ParseBinary(fabric.NewReader(ackHead + runHead[1:] + "\x01\x01\x00\x00\x00")); err != nil || !reflect.DeepEqual(ack.Backlog, want) {
		t.Fatalf("canonical join ack: %+v, %v", ack.Backlog, err)
	}
	for name, body := range hostileRuns {
		var ack MsgJoinAck
		if err := ack.ParseBinary(fabric.NewReader(ackHead + body[1:])); err == nil {
			t.Errorf("join ack with %s: decoded to %+v", name, ack.Backlog)
		}
	}
	book := transport.NewAddressBook()
	ep := tcpEndpoint(t, "host", book)
	ep.SetHandler(func(from string, payload any, _ int) { t.Errorf("delivered %#v from %s", payload, from) })
	peer, err := transport.DialTCP("mallory", book)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	sent := uint64(0)
	for name, body := range hostileRuns {
		var m MsgItems
		if err := m.ParseBinary(fabric.NewReader(body)); err == nil {
			t.Errorf("%s: decoded to %+v", name, m.Items)
			continue
		}
		if err := peer.Send("host", itemsFrame(t, body)); err != nil {
			t.Fatal(err)
		}
		sent++
		for deadline := time.Now().Add(5 * time.Second); ep.(fabric.DropCounter).Dropped() != sent; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d drops after 5s, want %d", name, ep.(fabric.DropCounter).Dropped(), sent)
			}
		}
	}
}

// TestItemRunManyAuthors: a run with more distinct authors than the table
// holds round-trips, and re-encodes byte for byte: an author pushed out of
// the table is written again as a new string.
func TestItemRunManyAuthors(t *testing.T) {
	var items []Item
	for i := range 40 {
		items = append(items, Item{
			Seq:  uint64(1000 + i),
			From: fmt.Sprintf("u%d", i*7%(runTable+3)),
			Kind: []string{"eng/op", "chat"}[i%5/4],
			Body: fmt.Sprint(i),
			At:   time.Duration(i*i) * time.Millisecond,
		})
	}
	body := string(appendItems(nil, items, nil))
	r := fabric.NewReader(body)
	got, err := readItems(&r)
	if err == nil {
		err = r.Done("item run")
	}
	if err != nil || !reflect.DeepEqual(got, items) {
		t.Fatalf("round trip: %v\n got %+v\nwant %+v", err, got, items)
	}
	if again := string(appendItems(nil, got, nil)); again != body {
		t.Fatalf("re-encoded to %x, was %x", again, body)
	}
}

// FuzzItemRun: an item list built from arbitrary bytes round-trips through
// appendItems and readItems, and cut into segments where the bytes say, the
// way a host reads a run out of its log, it encodes byte for byte as the one
// slice, in a push and in a join ack; arbitrary bytes parsed as a MsgItems
// body never panic, and a body that parses re-encodes to itself.
func FuzzItemRun(f *testing.F) {
	f.Add([]byte(runHead + "\x01\x01\x00\x00\x00"))
	for _, body := range hostileRuns {
		f.Add([]byte(body))
	}
	f.Add(appendItems([]byte{0}, []Item{
		{Seq: 7, From: "p1", Kind: "eng/op", Body: "x", At: time.Second},
		{Seq: 8, From: "p2", Kind: "eng/op", Body: "y", At: time.Second + time.Microsecond},
		{Seq: 9, From: "p1", Kind: "eng/op", At: time.Second},
	}, nil))
	// Three items by two authors, cut into [1] [] [2] [3] (fuzzSegments).
	f.Add([]byte{1, 1, 0, 0, 1, 1, 1, 1, 0, 0xc1, 1, 1, 0, 0, 0x82})
	f.Fuzz(func(t *testing.T, data []byte) {
		// 25 items reach every table state; a longer input adds nothing
		// but the minimizer's time, which grows with its square.
		if len(data) > 128 {
			return
		}
		items := fuzzItems(data)
		r := fabric.NewReader(string(appendItems(nil, items, nil)))
		got, err := readItems(&r)
		if err == nil {
			err = r.Done("item run")
		}
		if err != nil || !slices.Equal(got, items) {
			t.Fatalf("round trip of %+v: got %+v, %v", items, got, err)
		}
		segs := fuzzSegments(data, items)
		for _, m := range [][2]fabric.BinaryAppender{
			{MsgItems{Doc: "d", Items: items}, MsgItems{Doc: "d", segs: &segs}},
			{MsgJoinAck{Doc: "d", Backlog: items}, MsgJoinAck{Doc: "d", segs: &segs}},
		} {
			whole, _ := m[0].AppendBinary(nil)
			if split, _ := m[1].AppendBinary(nil); string(split) != string(whole) {
				t.Fatalf("%T of %+v in segments %+v encodes to %x, in one slice to %x", m[0], items, segs, split, whole)
			}
		}
		var m MsgItems
		if m.ParseBinary(fabric.NewReader(string(data))) != nil {
			return
		}
		if again, _ := m.AppendBinary(nil); string(again) != string(data) {
			t.Fatalf("accepted body %x re-encodes to %x", data, again)
		}
	})
}

// fuzzSegments cuts items into segments where data says: before item i when
// the top bit of its fifth byte is set, with an empty segment there too when
// the next bit is.
func fuzzSegments(data []byte, items []Item) [][]Item {
	segs := [][]Item{}
	start := 0
	for i := range items {
		if b := data[5*i+4]; b&0x80 != 0 {
			segs = append(segs, items[start:i])
			if b&0x40 != 0 {
				segs = append(segs, nil)
			}
			start = i
		}
	}
	return append(segs, items[start:])
}

// fuzzAuthors is a pool of authors twice the size of the table.
var fuzzAuthors = func() (a [2 * runTable]string) {
	for i := range a {
		a[i] = fmt.Sprintf("s%d", i)
	}
	return a
}()

// fuzzItems reads an item list out of data, five bytes an item: the Seq and
// At steps (either way), an author from a pool larger than the table, a
// kind, and a body length.
func fuzzItems(data []byte) []Item {
	var items []Item
	var it Item
	for ; len(data) >= 5; data = data[5:] {
		it.Seq += uint64(int8(data[0]))
		it.At += time.Duration(int8(data[1])) << (data[1] % 40)
		it.From = fuzzAuthors[int(data[2])%len(fuzzAuthors)]
		it.Kind = [...]string{"eng/op", "chat", "", "s1"}[data[3]%4]
		it.Body = string(data[:data[4]%6])
		items = append(items, it)
	}
	return items
}

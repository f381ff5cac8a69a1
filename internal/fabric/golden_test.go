package fabric_test

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/crdt"
	"repro/internal/fabric"
	"repro/internal/session"
	"repro/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/frames.golden")

// TestFrameGolden pins the encoded frame of one instance of every registered
// payload type, byte for byte, in testdata/frames.golden. The session,
// engine, crdt and hello lines are the bytes the binary codec produced
// before it became the only codec: a diff here moves wire_bytes_per_op on
// every sessiond workload, and a peer built from an older tree stops
// understanding this one.
func TestFrameGolden(t *testing.T) {
	codec := fullRegistry()
	payloads := registeredPayloads()
	names := make([]string, 0, len(payloads))
	for name := range payloads {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		frame, err := codec.Encode(payloads[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%s\t%s\n", name, hex.EncodeToString(frame))
	}
	const path = "testdata/frames.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("frames differ from %s (rerun with -update and read the diff):\n got:\n%s\nwant:\n%s", path, b.String(), want)
	}
}

// readFrames reads a frames golden file: one "name<TAB>hex frame" per line.
func readFrames(t testing.TB, path string) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := make(map[string][]byte)
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, h, ok := strings.Cut(line, "\t")
		frame, err := hex.DecodeString(h)
		if !ok || err != nil {
			t.Fatalf("%s: bad line %q", path, line)
		}
		frames[name] = frame
	}
	return frames
}

// TestFrameGoldenFromV1 maps every line of testdata/frames-v1.golden, the
// frames of version 1, to its line in frames.golden. The version byte is 2
// where it was 1 and every other header byte is unchanged, except the body
// length of a frame whose body moved. Bodies moved only where an item run
// rides, in session/items and session/join-ack: version 2 writes each item
// after the first against the one before it, and neither body grew. The
// codec refuses every version-1 frame. A form the codec no longer carries
// maps to its line in frames-retired.golden.
func TestFrameGoldenFromV1(t *testing.T) {
	codec := fullRegistry()
	old, cur := readFrames(t, "testdata/frames-v1.golden"), readFrames(t, "testdata/frames.golden")
	for name, frame := range readFrames(t, "testdata/frames-retired.golden") {
		cur[name] = frame
	}
	for name, o := range old {
		n, ok := cur[name]
		if !ok {
			t.Errorf("%s: no line in frames.golden", name)
			continue
		}
		if got, err := codec.Decode(o); err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Errorf("%s: version-1 frame decoded to (%v, %v), want a version error", name, got, err)
		}
		tagEnd := 4 + int(o[3])
		if o[1] != 1 || n[1] != 2 || o[0] != n[0] || !bytes.Equal(o[2:tagEnd], n[2:tagEnd]) {
			t.Errorf("%s: header %x became %x, want only the version byte 1 -> 2", name, o[:tagEnd], n[:tagEnd])
		}
		oldBody, body := o[tagEnd+4:], n[tagEnd+4:]
		switch name {
		case "session/items", "session/join-ack":
			if len(body) > len(oldBody) {
				t.Errorf("%s: item-run body grew from %d to %d bytes", name, len(oldBody), len(body))
			}
		default:
			if !bytes.Equal(o[tagEnd:], n[tagEnd:]) {
				t.Errorf("%s: body %x became %x, want it unchanged", name, oldBody, body)
			}
		}
	}
}

// TestRetiredFramesRefused: the forms no program sends through a codec are
// gone from it both ways. Each line of testdata/frames-retired.golden is a
// frame this codec wrote before (a CRDT set-remove op, a set state, a
// counter state, a mode switch): decoding it yields nothing, and encoding
// what is left of the value it carried fails. The set and counter states
// have no Go value any more, so only their decode is checked.
func TestRetiredFramesRefused(t *testing.T) {
	codec := fullRegistry()
	values := map[string]any{
		"crdt/op":        crdt.MsgOp{Doc: "d", Op: crdt.Op{Kind: 4, Site: "b", Seq: 9}},
		"crdt/state set": nil,
		"crdt/state ctr": nil,
		"session/mode":   session.MsgMode{Mode: session.Synchronous},
	}
	frames := readFrames(t, "testdata/frames-retired.golden")
	if len(frames) != len(values) {
		t.Fatalf("frames-retired.golden has %d lines, want %d", len(frames), len(values))
	}
	for name, frame := range frames {
		if got, err := codec.Decode(frame); got != nil {
			t.Errorf("%s: retired frame decoded to %#v (err %v)", name, got, err)
		}
		v, ok := values[name]
		if !ok {
			t.Errorf("%s: no value for this retired line", name)
			continue
		}
		if v == nil {
			continue
		}
		if frame, err := codec.Encode(v); err == nil {
			t.Errorf("%s: %#v encoded to %x", name, v, frame)
		}
	}
}

// TestV1FramesDroppedOverTCP: every version-1 frame a peer built from an
// older tree sends reaches the endpoint as one counted drop and is
// delivered to nothing, its first frame included; a current frame sent
// after them on the same conn is delivered.
func TestV1FramesDroppedOverTCP(t *testing.T) {
	codec := fullRegistry()
	book := transport.NewAddressBook()
	eps := listenTCP(t, book, "v1", "cur")
	ep := fabric.FromTransport(eps[1], codec)
	var got atomic.Value
	ep.SetHandler(func(from string, payload any, _ int) { got.Store(payload) })
	old := readFrames(t, "testdata/frames-v1.golden")
	names := make([]string, 0, len(old))
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		if err := eps[0].Send("cur", old[name]); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, func() bool { return ep.Dropped() == uint64(i+1) }, name+" counted as a drop")
	}
	want := session.MsgLeave{From: "v1"}
	frame, err := codec.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Send("cur", frame); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return got.Load() != nil }, "the current frame")
	if p := got.Load(); !reflect.DeepEqual(p, &want) || ep.Dropped() != uint64(len(names)) {
		t.Fatalf("delivered %#v with %d drops, want %#v after %d", p, ep.Dropped(), &want, len(names))
	}
}

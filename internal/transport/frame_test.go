package transport

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// frameBytes is the frame TCPEndpoint.Send writes for payload from from.
func frameBytes(t testing.TB, from string, payload []byte) []byte {
	t.Helper()
	buf := make([]byte, 6+len(from)+len(payload))
	putFrame(buf, from, payload)
	return buf
}

// TestFrameBytes pins the frame layout byte for byte: a big-endian uint32
// length of what follows it, a big-endian uint16 sender-id length, the id,
// then the payload.
func TestFrameBytes(t *testing.T) {
	want := []byte{0, 0, 0, 9, 0, 5, 'a', 'l', 'i', 'c', 'e', 'h', 'i'}
	if got := frameBytes(t, "alice", []byte("hi")); !bytes.Equal(got, want) {
		t.Errorf("frame = %x, want %x", got, want)
	}
}

// cycle replays one byte sequence forever: a sender that repeats itself.
type cycle struct {
	data []byte
	off  int
}

func (c *cycle) Read(p []byte) (int, error) {
	n := copy(p, c.data[c.off:])
	c.off = (c.off + n) % len(c.data)
	return n, nil
}

// TestFrameReadAllocs pins the socket read step: once the buffer has grown
// to the frame size, reading a frame from a repeating sender allocates
// nothing — not the header, not the body, not the sender id.
func TestFrameReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	br := bufio.NewReader(&cycle{data: frameBytes(t, "alice", []byte("a keystroke"))})
	var fr frameReader
	read := func() {
		from, payload, err := fr.read(br)
		if err != nil || from != "alice" || string(payload) != "a keystroke" {
			t.Fatalf("read = %q, %q, %v", from, payload, err)
		}
	}
	read()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("frame read allocates %v objects, want 0", n)
	}
}

// TestFrameReaderKeepsAtMostCap: a frame past FrameBufCap is read into a
// one-off buffer, so the connection keeps at most FrameBufCap bytes, and
// the small frame after it still reads correctly.
func TestFrameReaderKeepsAtMostCap(t *testing.T) {
	big := bytes.Repeat([]byte{'x'}, 100<<10)
	stream := append(frameBytes(t, "a", []byte("hi")), frameBytes(t, "a", big)...)
	stream = append(stream, frameBytes(t, "a", []byte("bye"))...)
	var fr frameReader
	r := bytes.NewReader(stream)
	for _, want := range [][]byte{[]byte("hi"), big, []byte("bye")} {
		_, payload, err := fr.read(r)
		if err != nil || !bytes.Equal(payload, want) {
			t.Fatalf("read %d bytes (err %v), want %d", len(payload), err, len(want))
		}
		if cap(fr.buf) > FrameBufCap {
			t.Fatalf("reader keeps a %d-byte buffer, cap is %d", cap(fr.buf), FrameBufCap)
		}
	}
}

// FuzzFrameReader reads arbitrary byte streams through one reused reader.
// It must never panic, and every frame it returns must be exactly the
// bytes it consumed: the payload lies inside that frame, and putFrame
// re-encodes (from, payload) to the same bytes.
func FuzzFrameReader(f *testing.F) {
	f.Add(frameBytes(f, "alice", []byte("hello")))
	f.Add(append(frameBytes(f, "alice", []byte("one")), frameBytes(f, "bob", nil)...))
	f.Add(append(frameBytes(f, "", []byte{0xC5, 1}), 0, 0, 0, 1))
	f.Add([]byte{0, 0, 0, 3, 0, 9, 'x'})
	f.Add(frameBytes(f, strings.Repeat("i", 0xFFFF), nil)) // 2 + id length overflows a uint16
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr frameReader
		r := bytes.NewReader(data)
		for {
			at := len(data) - r.Len()
			from, payload, err := fr.read(r)
			if err != nil {
				return
			}
			frame := data[at : len(data)-r.Len()]
			if len(payload) > len(frame) {
				t.Fatalf("%d-byte payload from a %d-byte frame", len(payload), len(frame))
			}
			if again := frameBytes(t, from, payload); !bytes.Equal(again, frame) {
				t.Fatalf("frame %x re-encodes as %x", frame, again)
			}
			if cap(fr.buf) > FrameBufCap {
				t.Fatalf("reader keeps a %d-byte buffer", cap(fr.buf))
			}
		}
	})
}

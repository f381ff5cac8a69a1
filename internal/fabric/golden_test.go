package fabric_test

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
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

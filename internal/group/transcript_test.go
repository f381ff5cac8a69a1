package group

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/netsim"
)

var updateTranscripts = flag.Bool("update-transcripts", false, "rewrite testdata/transcript_*.golden from this run")

// TestUnbatchedWireTranscript pins what a member with a zero BatchConfig
// puts on the wire. A fixed script runs over netsim while a fabric.Tap on
// every endpoint records each frame handed to the substrate and each
// delivery into the application; the recording must equal the golden one
// under testdata/, which was captured before the batched and unbatched send
// paths were merged. Anything that changes a frame's kind, stamps, run
// length, destination or virtual send time for the default configuration
// fails here first.
func TestUnbatchedWireTranscript(t *testing.T) {
	for _, ord := range []Ordering{FIFO, TotalSequencer, TotalToken} {
		ord := ord
		t.Run(ord.String(), func(t *testing.T) {
			got := runTranscript(t, ord)
			if ord != FIFO {
				checkTotalTranscript(t, got, scriptMulticasts)
			}
			path := filepath.Join("testdata", "transcript_"+ord.String()+".golden")
			if *updateTranscripts {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i, g := range gl {
				w := "<end of golden>"
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("transcript differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
				}
			}
			t.Fatalf("transcript stops after %d lines, %s has %d", len(gl), path, len(wl))
		})
	}
}

// scriptMulticasts is how many messages runTranscript's script multicasts.
const scriptMulticasts = 16

// checkTotalTranscript fails t unless every member of a total-order
// transcript delivered the same list of (seq, from, body), gapless from 1,
// with each of the script's multicasts in it once.
func checkTotalTranscript(t *testing.T, transcript string, multicasts int) {
	t.Helper()
	lists := make(map[string][]string)
	for _, line := range strings.Split(transcript, "\n") {
		var at, id, slot string
		if n, _ := fmt.Sscanf(line, "%s deliver %s %s", &at, &id, &slot); n == 3 {
			lists[id] = append(lists[id], line[strings.Index(line, slot):])
		}
	}
	want := lists["m00"]
	seen := make(map[string]bool)
	for i, d := range want {
		body := d[strings.Index(d, "body="):]
		if !strings.HasPrefix(d[strings.Index(d, "seq="):], fmt.Sprintf("seq=%d ", i+1)) || seen[body] {
			t.Fatalf("m00 delivery %d is %q: a gap, or a message twice", i+1, d)
		}
		seen[body] = true
	}
	if len(lists) != 4 || len(want) != multicasts {
		t.Fatalf("%d members delivered, m00 %d messages; want 4 and %d", len(lists), len(want), multicasts)
	}
	for id, l := range lists {
		if strings.Join(l, ";") != strings.Join(want, ";") {
			t.Errorf("%s delivered %v, m00 %v", id, l, want)
		}
	}
}

// runTranscript plays the script and returns the recording, one line per
// frame sent or message delivered, in the order they happened.
func runTranscript(t *testing.T, ord Ordering) string {
	t.Helper()
	sim := netsim.New(1, netsim.LANLink)
	var rec strings.Builder
	ids := []string{"m00", "m01", "m02", "m03"}
	members := make(map[string]*Member, len(ids))
	for _, id := range ids {
		id := id
		tap := fabric.Tap(func(to string, payload any, size int) {
			p, ok := payload.(*packet)
			if !ok {
				t.Errorf("%s sent a %T, want *packet", id, payload)
				return
			}
			fmt.Fprintf(&rec, "%v send %s>%s kind=%d size=%d sseq=%d id=%s/%d gseq=%d msgs=%d ids=%d\n",
				sim.Now(), id, to, p.Kind, size, p.SenderSeq, p.MsgID.Origin, p.MsgID.N, p.GlobalSeq, len(p.Msgs), len(p.MsgIDs))
		}, nil)
		m, err := NewMember(Config{
			Endpoint: fabric.Wrap(fabric.FromSim(sim.MustAddNode(id)), tap),
			Timer:    TimerFunc(func(d time.Duration, fn func()) { sim.At(d, fn) }),
			Ordering: ord,
			Deliver: func(d Delivery) {
				fmt.Fprintf(&rec, "%v deliver %s from=%s seq=%d body=%v\n", sim.Now(), id, d.From, d.Seq, d.Body)
				// A send from inside a delivery re-enters the member while
				// its outbox is draining.
				if id == "m02" && d.Body == "m01-3" {
					if err := members[id].Multicast("m02-echo", 24); err != nil {
						t.Errorf("nested multicast: %v", err)
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		members[id] = m
	}
	v := NewView(1, ids)
	for _, id := range ids {
		members[id].InstallView(v)
	}
	send := func(id, body string, size int) {
		if err := members[id].Multicast(body, size); err != nil {
			t.Errorf("multicast %s: %v", body, err)
		}
	}
	// One sender at a time, the sequencer/initial token holder first.
	for i, id := range ids {
		i, id := i, id
		sim.At(time.Duration(i)*time.Millisecond, func() { send(id, id+"-0", 16) })
	}
	// Every member in the same instant.
	sim.At(10*time.Millisecond, func() {
		for _, id := range ids {
			send(id, id+"-1", 32)
		}
	})
	// A burst from one member, interleaved with another's.
	sim.At(20*time.Millisecond, func() {
		for i := 2; i < 6; i++ {
			send("m01", fmt.Sprintf("m01-%d", i), 8)
			if i%2 == 0 {
				send("m03", fmt.Sprintf("m03-%d", i), 48)
			}
		}
	})
	// Flush has nothing to move for an unbatched member, mid-traffic or idle.
	sim.At(20*time.Millisecond+50*time.Microsecond, func() { members["m01"].Flush() })
	sim.At(30*time.Millisecond, func() {
		send("m02", "m02-last", 16)
		members["m02"].Flush()
	})
	sim.Run()
	return rec.String()
}

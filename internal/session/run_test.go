package session

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chunklog"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// unseenModel is the catch-up a member is owed, built the way the host
// built it before runs were read in place: a copy of the items in
// (since, len(log)] that id did not author.
func unseenModel(log []Item, id string, since uint64) []Item {
	var out []Item
	for _, it := range log[min(since, uint64(len(log))):] {
		if it.From != id {
			out = append(out, it)
		}
	}
	return out
}

// runCase is one catch-up of TestRunMatchesUnseen: a log of n items, the
// joiner's own items at seqs own, and a rejoin and a poll from since.
type runCase struct {
	n     int
	own   []uint64
	since uint64
}

// runCases covers logs within a first chunk that is still growing (5 and 20
// items) and across one, two and three chunk boundaries; the joiner's own
// items at the start, middle and end of its range and on both sides of each
// boundary; and since at 0, at the head of the log and at a seeded point.
func runCases(rng *rand.Rand) []runCase {
	var cases []runCase
	for _, n := range []int{5, 20, chunklog.Size, chunklog.Size + 44, 2*chunklog.Size + 88, 3*chunklog.Size + 7} {
		for _, since := range []uint64{0, uint64(n), uint64(rng.Intn(n)), uint64(n / 2)} {
			last := uint64(n)
			mid := since + (last-since+1)/2
			edges := []uint64{}
			for b := uint64(chunklog.Size); b < last; b += chunklog.Size {
				edges = append(edges, b, b+1)
			}
			for _, own := range [][]uint64{
				nil,
				{since + 1, mid, last},
				edges,
				{since + 1, since + 2, last - 1, last},
				{uint64(rng.Intn(n) + 1), uint64(rng.Intn(n) + 1), uint64(rng.Intn(n) + 1)},
			} {
				cases = append(cases, runCase{n: n, own: own, since: since})
			}
		}
	}
	return cases
}

// ackCatcher records the last join ack and items frame the host sends to
// the joiner "j" and passes every frame on.
type ackCatcher struct {
	fabric.Endpoint
	ack   *MsgJoinAck
	items *MsgItems
}

func (c *ackCatcher) Send(to string, payload any, size int) error {
	switch m := payload.(type) {
	case *MsgJoinAck:
		if to == "j" {
			c.ack = m
		}
	case *MsgItems:
		if to == "j" {
			c.items = m
		}
	}
	return c.Endpoint.Send(to, payload, size)
}

// TestRunMatchesUnseen holds the host's catch-up, read out of its log in
// place, to the copy it used to send, over seeded logs of one to four
// chunks: a rejoin's backlog and a poll's answer, as the joiner's client
// takes them on netsim (the host's segments walked where they lie) and as
// the wire codec a TCP edge runs decodes them. Before the joiner's endpoint
// is delivered to, more items are logged, enough to move a growing first
// chunk to a new array, and the runs already sealed must still read as they
// were.
func TestRunMatchesUnseen(t *testing.T) {
	codec := NewWireCodec()
	rng := rand.New(rand.NewSource(1))
	for _, tc := range runCases(rng) {
		name := fmt.Sprintf("n=%d since=%d own=%v", tc.n, tc.since, tc.own)
		sim := netsim.New(1, netsim.LocalLink)
		catcher := &ackCatcher{Endpoint: fabric.FromSim(sim.MustAddNode("host"))}
		var ticks time.Duration
		h := NewHost(catcher, Asynchronous, func() time.Duration { ticks += time.Millisecond; return ticks })
		cli := NewClientForDoc(fabric.FromSim(sim.MustAddNode("j")), "host", "")
		var got []Item
		cli.OnItem = func(it Item) { got = append(got, it) }
		for _, id := range []string{"j", "a", "b"} {
			h.Receive(id, &MsgJoin{From: id, State: Active})
		}
		var log []Item
		post := func(seq int) {
			from := []string{"a", "b", HostAuthor}[rng.Intn(3)]
			if slices.Contains(tc.own, uint64(seq)) {
				from = "j"
			}
			it := Item{Seq: uint64(seq), From: from, Kind: "chat", Body: strconv.Itoa(seq), At: time.Duration(seq) * time.Millisecond}
			log = append(log, it)
			if from == HostAuthor {
				h.Host("").PostLocal(it.Kind, it.Body)
			} else {
				h.Receive(from, &MsgPost{From: from, Kind: it.Kind, Body: it.Body})
			}
		}
		for seq := 1; seq <= tc.n; seq++ {
			post(seq)
		}
		sim.Run() // the first join ack, with nothing in it
		got = nil
		h.Receive("j", &MsgJoin{From: "j", Since: tc.since, State: Active})
		h.Receive("j", &MsgPoll{From: "j", Since: tc.since})
		for seq := tc.n + 1; seq <= 2*tc.n+8; seq++ {
			post(seq)
		}
		want := unseenModel(log[:tc.n], "j", tc.since)
		sim.Run()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: the client took %v, want %v", name, seqList(got), seqList(want))
		}
		for _, payload := range []any{catcher.ack, catcher.items} {
			frame, err := codec.Encode(payload)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := codec.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			var run []Item
			switch m := decoded.(type) {
			case *MsgJoinAck:
				run = m.Backlog
			case *MsgItems:
				run = m.Items
			}
			if !slices.Equal(run, want) {
				t.Fatalf("%s: %T decodes to %v, want %v", name, decoded, seqList(run), seqList(want))
			}
		}
	}
}

// TestJoinAckEncodedWhilePostsLand: a participant rejoins again and again
// over TCP, each time from 0, while two writers post on their own
// connections. Each join ack's backlog is read out of the log in place and
// encoded with the document's lock released, so posts land while it is
// encoded: the first chunk grows and moves, and new chunks are added. Every
// ack must still decode to the log as it stood when the ack was sealed:
// sequence numbers 1..n with no gap, each writer's items in the order
// posted. Under -race this is the check that the log is read safely
// without its lock.
func TestJoinAckEncodedWhilePostsLand(t *testing.T) {
	const perRound, joins = 40, 10 // each writer's posts while one join is served
	book := transport.NewAddressBook()
	NewHost(tcpEndpoint(t, "host", book), Synchronous, func() time.Duration { return 0 })
	writers := []*Client{
		NewClientForDoc(tcpEndpoint(t, "w0", book), "host", ""),
		NewClientForDoc(tcpEndpoint(t, "w1", book), "host", ""),
	}
	for _, w := range writers {
		joined := make(chan struct{})
		w.OnJoined = func(Mode, []string) { close(joined) }
		if err := w.Join(0); err != nil {
			t.Fatal(err)
		}
		select {
		case <-joined:
		case <-time.After(5 * time.Second):
			t.Fatal("a writer's join timed out")
		}
	}
	roamer := tcpEndpoint(t, "roamer", book)
	acks := make(chan *MsgJoinAck, joins)
	roamer.SetHandler(func(_ string, payload any, _ int) {
		if m, ok := payload.(*MsgJoinAck); ok {
			acks <- m
		}
	})
	var wg sync.WaitGroup
	defer wg.Wait() // no writer outlives the test, even one that fails
	for round := range joins {
		for _, w := range writers {
			wg.Add(1)
			go func(w *Client) {
				defer wg.Done()
				for i := range perRound {
					if err := w.Post("chat", fmt.Sprintf("%s-%d", w.ID(), round*perRound+i), 0); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		if err := roamer.Send("host", &MsgJoin{From: "roamer", State: Active}, 64); err != nil {
			t.Fatal(err)
		}
		var ack *MsgJoinAck
		select {
		case ack = <-acks:
		case <-time.After(5 * time.Second):
			t.Fatal("no join ack")
		}
		next := map[string]int{}
		for i, it := range ack.Backlog {
			author, n, _ := strings.Cut(it.Body, "-")
			if it.Seq != uint64(i+1) || it.From != author || n != strconv.Itoa(next[author]) {
				t.Fatalf("backlog of %d items: item %d is %+v, want seq %d and %s's item %d", len(ack.Backlog), i, it, i+1, author, next[author])
			}
			next[author]++
		}
		wg.Wait()
	}
}

package session

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/netsim"
)

var update = flag.Bool("update", false, "rewrite testdata/host.golden")

// frameRecorder logs every frame the host sends, one line each.
type frameRecorder struct {
	fabric.Endpoint
	b *strings.Builder
}

func (r frameRecorder) Send(to string, payload any, size int) error {
	fmt.Fprintf(r.b, "  to=%s %T doc=%q", to, payload, DocOf(payload))
	switch m := payload.(type) {
	case *MsgJoinAck:
		fmt.Fprintf(r.b, " mode=%v backlog=%s members=%v", m.Mode, seqList(m.Backlog), m.Members)
	case *MsgItems:
		fmt.Fprintf(r.b, " items=%s", seqList(m.Items))
	case *MsgMode:
		fmt.Fprintf(r.b, " mode=%v", m.Mode)
	case *MsgPresence:
		fmt.Fprintf(r.b, " from=%s state=%v", m.From, m.State)
	}
	r.b.WriteByte('\n')
	return r.Endpoint.Send(to, payload, size)
}

func seqList(items []Item) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = fmt.Sprintf("%d/%s", it.Seq, it.From)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// TestHostFramesGolden drives one host endpoint serving two named documents
// and the unnamed one through a fixed script and pins every frame it sends
// in testdata/host.golden. The script ends with a stranger and a forger
// speaking to docA: neither may draw a single frame.
func TestHostFramesGolden(t *testing.T) {
	sim := netsim.New(1, netsim.LANLink)
	var b strings.Builder
	rec := frameRecorder{Endpoint: fabric.FromSim(sim.MustAddNode("host")), b: &b}
	h := NewHost(rec, Synchronous, sim.Now)
	h.Owns = func(doc string) bool { return doc != "elsewhere" }

	cls := map[string]*Client{}
	for _, c := range []struct{ id, doc string }{
		{"a1", "docA"}, {"a2", "docA"}, {"b1", "docB"}, {"b2", "docB"}, {"u1", ""}, {"u2", ""}, {"e1", "elsewhere"},
	} {
		cls[c.id] = NewClientForDoc(fabric.FromSim(sim.MustAddNode(c.id)), "host", c.doc)
	}
	raw := fabric.FromSim(sim.MustAddNode("s"))
	step := func(name string, fn func()) {
		fmt.Fprintf(&b, "# %s\n", name)
		fn()
		sim.Run()
	}
	now := sim.Now

	step("join a1 b1 u1", func() {
		for _, id := range []string{"a1", "b1", "u1"} {
			_ = cls[id].Join(now())
		}
	})
	step("posts before the late joiners", func() {
		_ = cls["a1"].Post("chat", "a-1", now())
		_ = cls["a1"].Post("chat", "a-2", now())
		_ = cls["u1"].Post("chat", "u-1", now())
	})
	step("join a2 b2 u2 with backlog", func() {
		for _, id := range []string{"a2", "b2", "u2"} {
			_ = cls[id].Join(now())
		}
	})
	step("post fan-out", func() {
		_ = cls["a2"].Post("chat", "a-3", now())
		_ = cls["b1"].Post("chat", "b-1", now())
		_ = cls["u2"].Post("chat", "u-2", now())
	})
	step("poll", func() {
		_ = cls["a1"].Poll(now())
		_ = cls["u1"].Poll(now())
	})
	step("a2 away", func() { _ = cls["a2"].SetPresence(Away, now()) })
	step("posts while a2 is away", func() {
		_ = cls["a1"].Post("chat", "a-4", now())
		_ = cls["a1"].Post("chat", "a-5", now())
	})
	step("a2 active flushes", func() { _ = cls["a2"].SetPresence(Active, now()) })
	step("docB async", func() { h.Host("docB").SetMode(Asynchronous) })
	step("posts while docB is async", func() {
		_ = cls["b1"].Post("chat", "b-2", now())
		_ = cls["b1"].Post("chat", "b-3", now())
	})
	step("docB sync flushes", func() { h.Host("docB").SetMode(Synchronous) })
	step("PostLocal", func() {
		h.Host("").PostLocal("eng/op", "commit-u")
		h.Host("docA").PostLocal("eng/op", "commit-a")
	})
	step("u2 leaves", func() { _ = cls["u2"].Leave(now()) })
	step("post after the leave", func() { _ = cls["u1"].Post("chat", "u-3", now()) })
	step("stranger post poll leave", func() {
		_ = raw.Send("host", &MsgPost{Doc: "docA", From: "s", Kind: "chat", Body: "spam"}, 64)
		_ = raw.Send("host", &MsgPoll{Doc: "docA", From: "s"}, 64)
		_ = raw.Send("host", &MsgLeave{Doc: "docA", From: "s"}, 64)
	})
	step("join for an unowned document", func() { _ = cls["e1"].Join(now()) })
	fmt.Fprintf(&b, "# docs=%v rejected=%d\n", h.Docs(), h.Rejected())
	step("s speaks as a1 and a2", func() {
		_ = raw.Send("host", &MsgPost{Doc: "docA", From: "a1", Kind: "chat", Body: "forged"}, 64)
		_ = raw.Send("host", &MsgPoll{Doc: "docA", From: "a1"}, 64)
		_ = raw.Send("host", &MsgPresence{Doc: "docA", From: "a2", State: Away}, 64)
		_ = raw.Send("host", &MsgLeave{Doc: "docA", From: "a2"}, 64)
		_ = raw.Send("host", &MsgJoin{Doc: "docA", From: "a2", State: Active}, 64)
	})

	const path = "testdata/host.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("host frames differ from %s (rerun with -update and read the diff):\n got:\n%s\nwant:\n%s", path, b.String(), want)
	}
}

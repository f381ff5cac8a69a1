package main

import (
	"bufio"
	"context"
	"io"
	"log"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
)

func TestMain(m *testing.M) {
	log.SetOutput(io.Discard)
	os.Exit(m.Run())
}

// TestRunRejectsBadFlags: every bad value is an error before anything
// listens, -mode included (an unknown mode used to run synchronous).
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-mode asnyc", `sessiond: unknown mode "asnyc" (sync or async)`},
		{"-codec json", `sessiond: unknown codec "json" (binary is the only codec)`},
		{"-engine paxos", `sessiond: unknown engine "paxos" (ot or crdt)`},
		{"-shards 2 -shard 2", `sessiond: -shard 2 outside [0,2)`},
		{"-shard -1", `sessiond: -shard -1 outside [0,1)`},
	} {
		args := append(strings.Fields(c.args), "-listen", "127.0.0.1:0")
		var out strings.Builder
		if err := run(context.Background(), args, &out); err == nil || err.Error() != c.want {
			t.Errorf("run %s: %v, want %s", c.args, err, c.want)
		}
		if out.Len() > 0 {
			t.Errorf("run %s announced %q", c.args, out.String())
		}
	}
}

// TestRunServesUntilCancelled: the banner names the bound address, a
// participant can join there, and cancelling the context (what SIGINT and
// SIGTERM do) closes the listener and returns nil.
func TestRunServesUntilCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	banner, out := io.Pipe()
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-listen", "127.0.0.1:0"}, out) }()

	line, err := bufio.NewReader(banner).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	const want = " (synchronous mode, binary codec, crdt engine, domain dom00 of 1)\n"
	addr, ok := strings.CutPrefix(strings.TrimSuffix(line, want), "sessiond listening on ")
	if !ok || !strings.HasSuffix(line, want) {
		t.Fatalf("banner %q", line)
	}
	p, err := daemon.Dial(daemon.Config{User: "alice", Host: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Join(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v after cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	late, err := daemon.Dial(daemon.Config{User: "bob", Host: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if err := late.Join(time.Second); err == nil || !strings.Contains(err.Error(), "reach sessiond") {
		t.Errorf("join after shutdown: %v, want the listener gone", err)
	}
}

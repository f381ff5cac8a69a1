package daemon

import (
	"testing"

	"repro/internal/engine"
)

// TestDialedParticipantJoinsTwice joins a participant twice on one
// connection, wired by Dial alone: the test's dial helper sets the client's
// OnJoined, which would replace whatever Dial installed. A rejoin delivers a
// second join ack to the same client, and it must be processed like the
// first, with Join returning and nothing panicking on the connection's
// reader.
func TestDialedParticipantJoinsTwice(t *testing.T) {
	d := startDaemon(t, hostConfig(engine.CRDT))
	p, err := Dial(Config{User: "alice", Host: d.Addr(), Doc: "notes", Engine: engine.CRDT})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	for i := 1; i <= 2; i++ {
		if err := p.Join(wait); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
}

package load

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/session"
)

// parityOps is the length of the replica-parity script.
const parityOps = 2000

// CheckParity holds the in-process replica to the real daemon: a seeded script
// of parityOps OT ops from a single writer, run once against the sessiond
// child and once against the replica's wiring, must leave a single reader with
// byte-identical item streams. The per-layer figures come from the replica, so
// drift between cmd/sessiond/main.go and the replica fails the benchmark
// instead of silently mis-attributing layers.
//
// With one writer the stream is deterministic whatever the timing: the
// engine keeps one submission in flight, nothing is concurrent with it, so
// every submission's base revision is the count of commits before it.
func CheckParity(bin string, seed int64) error {
	real, err := parityStream(bin, seed, false)
	if err != nil {
		return fmt.Errorf("against sessiond: %w", err)
	}
	rep, err := parityStream(bin, seed, true)
	if err != nil {
		return fmt.Errorf("against the replica: %w", err)
	}
	return compareStreams(real, rep)
}

// parityStream runs the script and returns what the reader received.
func parityStream(bin string, seed int64, inProcess bool) ([]session.Item, error) {
	wl := Workload{Name: "parity", Engine: engine.OT, Docs: 1, PerDoc: 2, Rate: 1}
	g, err := startSession(wl, parityOps, bin, nil, inProcess)
	if err != nil {
		return nil, err
	}
	defer g.stop()
	writer, reader := g.editors[0], g.editors[1]
	reader.mu.Lock()
	reader.record = true
	reader.mu.Unlock()
	for _, d := range Script(seed, parityOps) {
		if err := writer.issue(d, -1); err != nil {
			return nil, err
		}
	}
	g.drain()
	if len(g.w.failures) > 0 {
		return nil, fmt.Errorf("%s", g.w.failures[0])
	}
	reader.mu.Lock()
	defer reader.mu.Unlock()
	// Every op reaches the reader twice: the relayed submission and the commit.
	if len(reader.items) != 2*parityOps {
		return nil, fmt.Errorf("reader received %d items, want %d", len(reader.items), 2*parityOps)
	}
	return reader.items, nil
}

// compareStreams reports the first difference in (Seq, From, Kind, Body); At
// is the host's clock and differs by design.
func compareStreams(real, rep []session.Item) error {
	if len(real) != len(rep) {
		return fmt.Errorf("sessiond sent %d items, the replica %d", len(real), len(rep))
	}
	for i := range real {
		a, b := real[i], rep[i]
		if a.Seq != b.Seq || a.From != b.From || a.Kind != b.Kind || a.Body != b.Body {
			return fmt.Errorf("item %d differs: sessiond #%d %s %s %q, replica #%d %s %s %q",
				i, a.Seq, a.From, a.Kind, a.Body, b.Seq, b.From, b.Kind, b.Body)
		}
	}
	return nil
}

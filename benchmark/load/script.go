package load

import (
	"math/rand"
	"unicode/utf8"
)

// Draw is one scripted edit before it meets a replica: the random numbers are
// fixed by the seed, the concrete kind and position are resolved against the
// issuing replica's length when the op is issued (a position cannot be chosen
// earlier — the replica's length depends on which remote ops have arrived).
type Draw struct {
	Kind float64 // uniform [0,1): insert when below the insert probability
	Pos  float64 // uniform [0,1): scaled to the replica's length bound
	Ch   rune
}

// Script returns the n draws seed determines. The same seed always gives the
// same script; sessiond only ever sees the traffic generated from it.
func Script(seed int64, n int) []Draw {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Draw, n)
	for i := range out {
		out[i] = Draw{Kind: rng.Float64(), Pos: rng.Float64(), Ch: rune('a' + rng.Intn(26))}
	}
	return out
}

const (
	// targetLen is the visible document length the generator steers to, so
	// every op costs about the same however long the run.
	targetLen = 200
	// rereadEvery is how many remote applies may pass before the bound is
	// re-read from Text(). Text() walks the whole history, tombstones
	// included, so calling it per op costs more than the system under test.
	rereadEvery = 32
)

// lengthTracker keeps a lower bound on one replica's visible length without
// reading the document: local edits move it exactly, a remote delete lowers
// it (the delete may hit a tombstone and remove nothing), a remote insert
// leaves it (the op may still be held back), and every rereadEvery applies it
// is reset from Text(). Positions drawn below the bound are always in range.
type lengthTracker struct {
	bound     int
	sinceRead int
}

// resolve turns a draw into a concrete edit for the tracked replica and
// accounts for it. Inserts get likelier the further the bound is below
// targetLen and deletes the further above, which holds the length near it.
func (l *lengthTracker) resolve(d Draw) (insert bool, pos int) {
	pInsert := 0.5 + float64(targetLen-l.bound)/(2*targetLen)
	if l.bound == 0 || d.Kind < pInsert {
		pos = int(d.Pos * float64(l.bound+1))
		l.bound++
		return true, pos
	}
	pos = int(d.Pos * float64(l.bound))
	l.bound--
	return false, pos
}

// applied accounts for one remote op; text is called only on a re-read.
func (l *lengthTracker) applied(insert bool, text func() string) {
	if !insert && l.bound > 0 {
		l.bound--
	}
	l.sinceRead++
	if l.sinceRead >= rereadEvery {
		l.bound = utf8.RuneCountInString(text())
		l.sinceRead = 0
	}
}

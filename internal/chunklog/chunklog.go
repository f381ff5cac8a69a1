// Package chunklog holds Log, an append-only sequence stored in fixed-size
// chunks, for histories that live as long as their owner: the session host's
// item log and the OT server's commit log. A slice grown by append copies all
// of its history at every growth, and past a few hundred elements Go grows it
// by a quarter at a time, so the bytes it allocates per element rise with its
// length. A Log allocates each chunk once and never copies a stored element
// again, so what an append costs does not depend on how long the log is,
// and a reader takes a range where it lies, chunk by chunk (Runs), rather
// than as a copy.
package chunklog

import "slices"

// Size is the number of elements a chunk holds.
const Size = 256

// Log is an append-only sequence. Element i lives in chunk i/Size. The first
// chunk grows by append up to Size elements, so that a log of a few elements
// does not pay for a whole chunk; every later chunk is allocated at Size and
// filled in place. A stored element is never written again, so a pointer or
// slice handed out stays valid for reading even after the first chunk has
// grown: it reads a copy that nothing writes. The zero Log is empty and ready
// to use. A Log is not safe for concurrent use; its owner's lock guards it.
type Log[T any] struct {
	chunks [][]T
	n      int
}

// Len returns the number of elements stored.
func (l *Log[T]) Len() int { return l.n }

// Append stores v at index Len() and returns a pointer to the stored element.
func (l *Log[T]) Append(v T) *T {
	last := len(l.chunks) - 1
	switch {
	case last < 0:
		l.chunks = append(l.chunks, make([]T, 0, firstCap))
		last = 0
	case len(l.chunks[last]) == Size:
		l.chunks = append(l.chunks, make([]T, 0, Size))
		last++
	}
	c := l.chunks[last]
	if len(c) == cap(c) { // only the first chunk is ever full below Size
		c = append(make([]T, 0, min(2*cap(c), Size)), c...)
	}
	c = append(c, v)
	l.chunks[last] = c
	l.n++
	return &c[len(c)-1]
}

// firstCap is the first chunk's capacity when it is allocated: it doubles
// from there until it holds Size elements.
const firstCap = 8

// At returns element i, which must be in [0, Len()).
func (l *Log[T]) At(i int) T {
	return l.chunks[i/Size][i%Size]
}

// Runs calls yield, in order, with the elements in [from, to) that skip
// does not report, as the log's own storage: each is a stretch of one chunk
// ended by the chunk's end, by an element skip reports or by to, none is
// empty, and each is capped at its length, so an append to it copies rather
// than writing into the log. Runs copies and allocates nothing. What it
// yields may be read after the owner's lock is released: a stored element
// is never written again, and a first chunk that grows moves to a new array
// and leaves the old one as it was.
func (l *Log[T]) Runs(from, to int, skip func(T) bool, yield func([]T)) {
	for from < to {
		c := from / Size
		s := l.chunks[c][from%Size : min(to-c*Size, Size)]
		if j := slices.IndexFunc(s, skip); j >= 0 {
			s, from = s[:j:j], from+1 // the skipped element
		}
		if len(s) > 0 {
			yield(s[:len(s):len(s)])
		}
		from += len(s)
	}
}

// Copy returns a fresh copy of the elements in [from, to).
func (l *Log[T]) Copy(from, to int) []T {
	out := make([]T, 0, to-from)
	for i := from; i < to; {
		lo, hi := i%Size, min(Size, to-i/Size*Size)
		out = append(out, l.chunks[i/Size][lo:hi]...)
		i += hi - lo
	}
	return out
}

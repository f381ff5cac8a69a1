package chunklog

import (
	"slices"
	"testing"
)

// TestLogMatchesSlice holds a Log to a plain slice over every range of a log
// that spans four chunks, and checks that what it hands out is never moved
// or written by a later append.
func TestLogMatchesSlice(t *testing.T) {
	var l Log[int]
	var want []int
	var ptrs []*int
	var early [][]int
	for i := 0; i < 3*Size+17; i++ {
		p := l.Append(i)
		if *p != i {
			t.Fatalf("Append(%d) returned a pointer to %d", i, *p)
		}
		want = append(want, i)
		ptrs = append(ptrs, p)
		if i%37 == 0 {
			early = append(early, l.Slice(i/2, i+1))
		}
	}
	if l.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", l.Len(), len(want))
	}
	for i, p := range ptrs {
		if *p != i || l.At(i) != i {
			t.Fatalf("element %d reads %d through its pointer and %d through At", i, *p, l.At(i))
		}
	}
	for k, s := range early {
		i := 37 * k
		if !slices.Equal(s, want[i/2:i+1]) {
			t.Fatalf("Slice(%d, %d) taken early now reads %v", i/2, i+1, s)
		}
	}
	for _, from := range []int{0, 1, Size - 1, Size, Size + 1, 2*Size - 3, 3 * Size} {
		for _, to := range []int{from, from + 1, Size, 2 * Size, 2*Size + 5, len(want)} {
			if to < from || to > len(want) {
				continue
			}
			s, c := l.Slice(from, to), l.Copy(from, to)
			if !slices.Equal(s, want[from:to]) || !slices.Equal(c, want[from:to]) {
				t.Fatalf("[%d, %d): Slice %v, Copy %v", from, to, s, c)
			}
			if cap(s) != len(s) {
				t.Errorf("Slice(%d, %d) has cap %d, want it capped at its length %d", from, to, cap(s), len(s))
			}
		}
	}
}

// TestSliceSharesOneChunk: a range inside one chunk is the log's own storage
// and costs nothing; a range across two is one fresh copy.
func TestSliceSharesOneChunk(t *testing.T) {
	var l Log[int]
	for i := 0; i < 2*Size; i++ {
		l.Append(i)
	}
	if n := testing.AllocsPerRun(10, func() { l.Slice(Size+1, Size+9) }); n != 0 {
		t.Errorf("Slice within a chunk allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { l.Slice(Size-4, Size+4) }); n != 1 {
		t.Errorf("Slice across two chunks allocates %v objects, want 1", n)
	}
	a, b := l.Slice(Size+1, Size+9), l.Slice(Size+1, Size+9)
	if &a[0] != &b[0] {
		t.Error("two Slices of one chunk's range do not share storage")
	}
}

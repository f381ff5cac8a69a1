package chunklog

import (
	"slices"
	"testing"
)

// runs reads [from, to) of l in place, leaving out what skip reports.
func runs(l *Log[int], from, to int, skip func(int) bool) [][]int {
	var out [][]int
	l.Runs(from, to, skip, func(s []int) { out = append(out, s) })
	return out
}

func none(int) bool { return false }

// TestLogMatchesSlice holds a Log to a plain slice over every range of a log
// that spans four chunks, read whole and with every third element skipped,
// and checks that what it hands out is never moved or written by a later
// append.
func TestLogMatchesSlice(t *testing.T) {
	var l Log[int]
	var want []int
	var ptrs []*int
	var early [][][]int
	for i := 0; i < 3*Size+17; i++ {
		p := l.Append(i)
		if *p != i {
			t.Fatalf("Append(%d) returned a pointer to %d", i, *p)
		}
		want = append(want, i)
		ptrs = append(ptrs, p)
		if i%37 == 0 {
			early = append(early, runs(&l, i/2, i+1, none))
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
	for k, rs := range early {
		i := 37 * k
		if got := slices.Concat(rs...); !slices.Equal(got, want[i/2:i+1]) {
			t.Fatalf("[%d, %d) read early now reads %v", i/2, i+1, got)
		}
	}
	third := func(v int) bool { return v%3 == 0 }
	for _, from := range []int{0, 1, Size - 1, Size, Size + 1, 2*Size - 3, 3 * Size} {
		for _, to := range []int{from, from + 1, Size, 2 * Size, 2*Size + 5, len(want)} {
			if to < from || to > len(want) {
				continue
			}
			rs, c := runs(&l, from, to, none), l.Copy(from, to)
			if got := slices.Concat(rs...); !slices.Equal(got, want[from:to]) || !slices.Equal(c, want[from:to]) {
				t.Fatalf("[%d, %d): Runs %v, Copy %v", from, to, rs, c)
			}
			n := 0 // the chunks [from, to) touches
			if to > from {
				n = (to-1)/Size - from/Size + 1
			}
			if len(rs) != n {
				t.Errorf("[%d, %d) read in %d runs, want one per chunk, %d", from, to, len(rs), n)
			}
			kept := slices.DeleteFunc(slices.Clone(want[from:to]), third)
			rs = runs(&l, from, to, third)
			if got := slices.Concat(rs...); !slices.Equal(got, kept) {
				t.Fatalf("[%d, %d) without every third: Runs %v, want %v", from, to, rs, kept)
			}
			for _, s := range rs {
				if len(s) == 0 || cap(s) != len(s) {
					t.Errorf("[%d, %d): a run of length %d and cap %d, want it non-empty and capped at its length", from, to, len(s), cap(s))
				}
			}
		}
	}
}

// TestRunsReadInPlace: reading a range through Runs hands out the log's own
// storage and costs nothing, in one chunk or across two, and in a first
// chunk that is still growing.
func TestRunsReadInPlace(t *testing.T) {
	var l Log[int]
	for i := 0; i < 2*Size; i++ {
		l.Append(i)
	}
	for _, r := range [][2]int{{Size + 1, Size + 9}, {Size - 4, Size + 4}} {
		if n := testing.AllocsPerRun(10, func() { l.Runs(r[0], r[1], none, func([]int) {}) }); n != 0 {
			t.Errorf("reading [%d, %d) allocates %v objects, want 0", r[0], r[1], n)
		}
	}
	rs := runs(&l, Size-4, Size+9, none)
	if len(rs) != 2 || &rs[0][0] != &l.chunks[0][Size-4] || &rs[1][0] != &l.chunks[1][0] {
		t.Error("Runs does not hand out the log's own storage, one run per chunk")
	}
	var g Log[int]
	for i := range firstCap {
		g.Append(i)
	}
	old := runs(&g, 0, firstCap, none)[0]
	g.Append(firstCap) // the first chunk moves to a larger array
	if !slices.Equal(old, []int{0, 1, 2, 3, 4, 5, 6, 7}) || &old[0] == &g.chunks[0][0] {
		t.Errorf("a growing first chunk: the old read holds %v", old)
	}
}

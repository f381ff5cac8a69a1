package hyperdoc

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestBaseDocumentOrder(t *testing.T) {
	d := NewDocument(nil)
	if _, err := d.AddBase("alice", "Introduction", 0); err != nil {
		t.Fatal(err)
	}
	d.AddBase("bob", "Method", 1)
	if d.Text() != "Introduction\nMethod" {
		t.Errorf("Text = %q", d.Text())
	}
}

func TestIndependentIDsNeverCollide(t *testing.T) {
	d := NewDocument(nil)
	seen := make(map[string]bool)
	for i := 0; i < 10; i++ {
		for _, u := range []string{"alice", "bob", "carol"} {
			id, err := d.AddBase(u, "x", 0)
			if err != nil {
				t.Fatal(err)
			}
			if seen[id] {
				t.Fatalf("collision: %s", id)
			}
			seen[id] = true
		}
	}
}

func TestAnnotateAndThread(t *testing.T) {
	d := NewDocument(nil)
	base, _ := d.AddBase("alice", "The method is sound.", 0)
	c1, err := d.Annotate("bob", base, Comment, "Is it though?", 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := d.Annotate("alice", c1, Comment, "Yes: see section 3.", 2)
	c3, _ := d.Annotate("carol", base, Comment, "Add a citation.", 3)
	th := d.Thread(base)
	if len(th) != 3 {
		t.Fatalf("thread = %+v", th)
	}
	if th[0].ID != c1 || th[0].Depth != 0 {
		t.Errorf("thread[0] = %+v", th[0])
	}
	if th[1].ID != c2 || th[1].Depth != 1 {
		t.Errorf("thread[1] = %+v (reply should nest)", th[1])
	}
	if th[2].ID != c3 || th[2].Depth != 0 {
		t.Errorf("thread[2] = %+v", th[2])
	}
	// Link types: annotation of base vs reply to annotation.
	types := map[string]LinkType{}
	for _, l := range d.links {
		types[l.From] = l.Type
	}
	if types[c1] != Annotates || types[c2] != RepliesTo {
		t.Errorf("link types = %v", types)
	}
}

func TestAnnotateValidation(t *testing.T) {
	d := NewDocument(nil)
	if _, err := d.Annotate("bob", "nope", Comment, "x", 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown target = %v", err)
	}
	base, _ := d.AddBase("alice", "x", 0)
	if _, err := d.Annotate("bob", base, Base, "x", 0); err == nil {
		t.Error("annotating with kind Base should fail")
	}
}

func TestSuggestionAcceptMergesIntoBase(t *testing.T) {
	d := NewDocument(nil)
	base, _ := d.AddBase("alice", "teh method", 0)
	sug, _ := d.Annotate("bob", base, Suggestion, "the method", 1)
	if err := d.Resolve("alice", sug, true, 2); err != nil {
		t.Fatal(err)
	}
	n, _ := d.Node(base)
	if n.Content != "the method" || n.Version != 2 {
		t.Errorf("base after accept = %+v", n)
	}
	sn, _ := d.Node(sug)
	if !sn.Resolved || !sn.Accepted {
		t.Errorf("suggestion state = %+v", sn)
	}
	if err := d.Resolve("alice", sug, false, 3); !errors.Is(err, ErrResolved) {
		t.Errorf("double resolve = %v", err)
	}
}

func TestSuggestionReject(t *testing.T) {
	d := NewDocument(nil)
	base, _ := d.AddBase("alice", "original", 0)
	sug, _ := d.Annotate("bob", base, Suggestion, "replacement", 1)
	if err := d.Resolve("alice", sug, false, 2); err != nil {
		t.Fatal(err)
	}
	n, _ := d.Node(base)
	if n.Content != "original" || n.Version != 1 {
		t.Errorf("base after reject = %+v", n)
	}
}

func TestResolveValidation(t *testing.T) {
	d := NewDocument(nil)
	base, _ := d.AddBase("alice", "x", 0)
	c, _ := d.Annotate("bob", base, Comment, "note", 1)
	if err := d.Resolve("alice", c, true, 2); !errors.Is(err, ErrNotSuggestion) {
		t.Errorf("resolve comment = %v", err)
	}
	if err := d.Resolve("alice", "nope", true, 2); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("resolve unknown = %v", err)
	}
}

func TestConcurrentEditSurfaced(t *testing.T) {
	d := NewDocument(nil)
	base, _ := d.AddBase("alice", "v1", 0)
	// Both read version 1; bob lands first.
	if err := d.Edit("bob", base, 1, "bob's v2", 1); err != nil {
		t.Fatal(err)
	}
	err := d.Edit("carol", base, 1, "carol's v2", 2)
	if !errors.Is(err, ErrStaleEdit) {
		t.Fatalf("stale edit = %v", err)
	}
	if want := "at v2, edit based on v1 (changed by bob)"; !strings.Contains(err.Error(), want) {
		t.Errorf("stale edit error %q lacks %q", err, want)
	}
	if d.Conflicts != 1 {
		t.Errorf("conflicts = %d", d.Conflicts)
	}
	// Carol retries against the current version.
	if err := d.Edit("carol", base, 2, "merged v3", 3); err != nil {
		t.Fatal(err)
	}
	n, _ := d.Node(base)
	if n.Content != "merged v3" || n.Version != 3 {
		t.Errorf("node = %+v", n)
	}
}

func TestPermissionHook(t *testing.T) {
	// Reviewers may annotate but not edit — the Quilt role split.
	perm := func(user, op string, n *Node) bool {
		if user == "reviewer" {
			return op == "annotate"
		}
		return true
	}
	d := NewDocument(perm)
	base, _ := d.AddBase("alice", "x", 0)
	if _, err := d.Annotate("reviewer", base, Comment, "note", 1); err != nil {
		t.Fatalf("reviewer annotate: %v", err)
	}
	if err := d.Edit("reviewer", base, 1, "sneaky", 2); !errors.Is(err, ErrNotPermitted) {
		t.Errorf("reviewer edit = %v", err)
	}
	if _, err := d.AddBase("reviewer", "y", 3); !errors.Is(err, ErrNotPermitted) {
		t.Errorf("reviewer add base = %v", err)
	}
}

func TestKindAndLinkStrings(t *testing.T) {
	if Base.String() != "base" || Comment.String() != "comment" || Suggestion.String() != "suggestion" {
		t.Error("kind names")
	}
	if Annotates.String() != "annotates" || RepliesTo.String() != "replies-to" {
		t.Error("link names")
	}
}

func BenchmarkAnnotateThread(b *testing.B) {
	d := NewDocument(nil)
	base, _ := d.AddBase("a", "x", 0)
	for i := 0; i < 50; i++ {
		d.Annotate("u", base, Comment, "c", time.Duration(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Thread(base)
	}
}

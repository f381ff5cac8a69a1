// Package hyperdoc implements a multi-user hypertext document in the style
// the paper surveys (§3.2.3): a network of typed nodes and links built by
// several users adding nodes *independently*, with explicit facilities for
// the conflicts inherent in that process.
//
// The document model follows Quilt (Fish et al. 1988), the paper's
// representative co-authoring system: a *base* document plus annotation
// nodes — comments and revision suggestions — hanging off it like margin
// notes and post-its, threaded by reply links. Suggestions can be accepted
// (merging their text into the base) or rejected. Concurrent edits to one
// node are detected by version stamping and surfaced rather than silently
// lost, matching the package-wide philosophy: conflicts are social matters
// to be made visible, not hidden.
package hyperdoc

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// NodeKind classifies nodes.
type NodeKind int

const (
	// Base is part of the primary document body.
	Base NodeKind = iota + 1
	// Comment is an annotation with no proposed change.
	Comment
	// Suggestion proposes replacement text for its target.
	Suggestion
)

// String returns the kind name.
func (k NodeKind) String() string {
	switch k {
	case Base:
		return "base"
	case Comment:
		return "comment"
	case Suggestion:
		return "suggestion"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// LinkType classifies links.
type LinkType int

const (
	// Annotates attaches an annotation to its target.
	Annotates LinkType = iota + 1
	// RepliesTo threads a comment under another annotation.
	RepliesTo
)

// String returns the link type name.
func (t LinkType) String() string {
	switch t {
	case Annotates:
		return "annotates"
	case RepliesTo:
		return "replies-to"
	default:
		return fmt.Sprintf("LinkType(%d)", int(t))
	}
}

// Node is one hypertext node.
type Node struct {
	ID      string
	Author  string
	Kind    NodeKind
	Content string
	Version uint64
	Created time.Duration
	// Resolved marks a handled suggestion (accepted or rejected).
	Resolved bool
	Accepted bool
}

// Link is one typed edge.
type Link struct {
	From, To string
	Type     LinkType
}

// Errors returned by the document.
var (
	ErrUnknownNode   = errors.New("hyperdoc: unknown node")
	ErrStaleEdit     = errors.New("hyperdoc: edit based on a stale version")
	ErrNotSuggestion = errors.New("hyperdoc: node is not a suggestion")
	ErrResolved      = errors.New("hyperdoc: suggestion already resolved")
	ErrNotPermitted  = errors.New("hyperdoc: operation not permitted")
)

// Permission checks whether a user may perform an operation kind ("edit",
// "annotate", "resolve") on a node; nil permits everything. This is where
// the access package plugs in.
type Permission func(user, op string, n *Node) bool

// Document is the shared hypertext network.
type Document struct {
	nodes   map[string]*Node
	order   []string // base node order
	links   []Link
	lastEd  map[string]string // node -> last editing user
	counter map[string]uint64 // per-author node counters (independent IDs)
	perm    Permission
	// Conflicts counts stale-edit detections.
	Conflicts int
}

// NewDocument creates an empty document. perm may be nil.
func NewDocument(perm Permission) *Document {
	return &Document{
		nodes:   make(map[string]*Node),
		lastEd:  make(map[string]string),
		counter: make(map[string]uint64),
		perm:    perm,
	}
}

func (d *Document) allowed(user, op string, n *Node) bool {
	return d.perm == nil || d.perm(user, op, n)
}

// newID mints an author-scoped ID: concurrent users never collide, the
// property that lets nodes be added fully independently.
func (d *Document) newID(author string) string {
	d.counter[author]++
	return fmt.Sprintf("%s#%d", author, d.counter[author])
}

// Node returns a copy of the node.
func (d *Document) Node(id string) (Node, bool) {
	n, ok := d.nodes[id]
	if !ok {
		return Node{}, false
	}
	return *n, true
}

// AddBase appends a base node to the document body.
func (d *Document) AddBase(author, content string, now time.Duration) (string, error) {
	if !d.allowed(author, "edit", nil) {
		return "", fmt.Errorf("%w: %s add base", ErrNotPermitted, author)
	}
	id := d.newID(author)
	d.nodes[id] = &Node{ID: id, Author: author, Kind: Base, Content: content, Version: 1, Created: now}
	d.order = append(d.order, id)
	d.lastEd[id] = author
	return id, nil
}

// Annotate attaches a comment or suggestion to target; replies thread under
// other annotations automatically (RepliesTo) and under base nodes as
// Annotates.
func (d *Document) Annotate(author, target string, kind NodeKind, content string, now time.Duration) (string, error) {
	tn, ok := d.nodes[target]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownNode, target)
	}
	if kind != Comment && kind != Suggestion {
		return "", fmt.Errorf("hyperdoc: annotation kind must be comment or suggestion, got %v", kind)
	}
	if !d.allowed(author, "annotate", tn) {
		return "", fmt.Errorf("%w: %s annotate %s", ErrNotPermitted, author, target)
	}
	id := d.newID(author)
	d.nodes[id] = &Node{ID: id, Author: author, Kind: kind, Content: content, Version: 1, Created: now}
	lt := Annotates
	if tn.Kind != Base {
		lt = RepliesTo
	}
	d.links = append(d.links, Link{From: id, To: target, Type: lt})
	return id, nil
}

// Edit replaces a node's content. baseVersion must equal the node's current
// version; otherwise the concurrent edit is surfaced as ErrStaleEdit (and
// counted) — first writer wins, second writer is told which version it
// lost to and by whom.
func (d *Document) Edit(author, id string, baseVersion uint64, content string, now time.Duration) error {
	n, ok := d.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	if !d.allowed(author, "edit", n) {
		return fmt.Errorf("%w: %s edit %s", ErrNotPermitted, author, id)
	}
	if n.Version != baseVersion {
		d.Conflicts++
		return fmt.Errorf("%w: node %s at v%d, edit based on v%d (changed by %s)",
			ErrStaleEdit, id, n.Version, baseVersion, d.lastEd[id])
	}
	n.Content = content
	n.Version++
	d.lastEd[id] = author
	return nil
}

// annotationTarget finds what an annotation is attached to.
func (d *Document) annotationTarget(id string) (string, bool) {
	for _, l := range d.links {
		if l.From == id && (l.Type == Annotates || l.Type == RepliesTo) {
			return l.To, true
		}
	}
	return "", false
}

// Resolve accepts or rejects a suggestion. Accepting merges the suggested
// content into the target base node (bumping its version).
func (d *Document) Resolve(user, suggestionID string, accept bool, now time.Duration) error {
	n, ok := d.nodes[suggestionID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, suggestionID)
	}
	if n.Kind != Suggestion {
		return fmt.Errorf("%w: %s is %v", ErrNotSuggestion, suggestionID, n.Kind)
	}
	if n.Resolved {
		return fmt.Errorf("%w: %s", ErrResolved, suggestionID)
	}
	if !d.allowed(user, "resolve", n) {
		return fmt.Errorf("%w: %s resolve %s", ErrNotPermitted, user, suggestionID)
	}
	n.Resolved = true
	n.Accepted = accept
	if !accept {
		return nil
	}
	tgt, ok := d.annotationTarget(suggestionID)
	if !ok {
		return fmt.Errorf("%w: suggestion %s has no target", ErrUnknownNode, suggestionID)
	}
	t := d.nodes[tgt]
	t.Content = n.Content
	t.Version++
	d.lastEd[tgt] = n.Author
	return nil
}

// Annotations returns the IDs of annotations directly attached to target,
// sorted by creation time then ID.
func (d *Document) Annotations(target string) []string {
	var out []string
	for _, l := range d.links {
		if l.To == target && (l.Type == Annotates || l.Type == RepliesTo) {
			out = append(out, l.From)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := d.nodes[out[i]], d.nodes[out[j]]
		if a.Created != b.Created {
			return a.Created < b.Created
		}
		return a.ID < b.ID
	})
	return out
}

// Thread returns the annotation tree under target as a depth-first list of
// (id, depth) pairs.
func (d *Document) Thread(target string) []ThreadEntry {
	var out []ThreadEntry
	var walk func(id string, depth int)
	walk = func(id string, depth int) {
		for _, child := range d.Annotations(id) {
			out = append(out, ThreadEntry{ID: child, Depth: depth})
			walk(child, depth+1)
		}
	}
	walk(target, 0)
	return out
}

// ThreadEntry is one row of a rendered annotation thread.
type ThreadEntry struct {
	ID    string
	Depth int
}

// Text renders the base document in order.
func (d *Document) Text() string {
	s := ""
	for i, id := range d.order {
		if i > 0 {
			s += "\n"
		}
		s += d.nodes[id].Content
	}
	return s
}

package workflow

import (
	"fmt"
	"time"
)

// Step is one step of an office procedure, bound to a role.
type Step struct {
	Name string
	Role string
}

// Procedure is an ordered office procedure (the Domino model).
type Procedure struct {
	Name  string
	Steps []Step
}

// ProceduralEngine runs instances of a procedure: steps complete strictly
// in order, each by a user holding the step's role.
type ProceduralEngine struct {
	proc   Procedure
	roleOf map[string]string // user -> role
	items  map[string]*procItem
	stats  Stats
}

type procItem struct {
	step int
}

// NewProceduralEngine creates an engine for the procedure with the given
// user-role directory.
func NewProceduralEngine(proc Procedure, roleOf map[string]string) *ProceduralEngine {
	r := make(map[string]string, len(roleOf))
	for k, v := range roleOf {
		r[k] = v
	}
	return &ProceduralEngine{proc: proc, roleOf: r, items: make(map[string]*procItem)}
}

// Stats returns the attempt/rejection counts.
func (e *ProceduralEngine) Stats() Stats { return e.stats }

// Start creates a new instance of the procedure.
func (e *ProceduralEngine) Start(id string) error {
	if _, ok := e.items[id]; ok {
		return fmt.Errorf("%w: %s", ErrExists, id)
	}
	e.items[id] = &procItem{}
	return nil
}

// Done reports whether the item finished all steps.
func (e *ProceduralEngine) Done(id string) bool {
	it, ok := e.items[id]
	return ok && it.step >= len(e.proc.Steps)
}

// Complete attempts to complete the named step of item id as user. Out of
// order steps and wrong roles are rejected (and counted).
func (e *ProceduralEngine) Complete(id, user, stepName string, now time.Duration) error {
	it, ok := e.items[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownItem, id)
	}
	e.stats.Attempts++
	if it.step >= len(e.proc.Steps) {
		e.stats.Rejections++
		return fmt.Errorf("%w: item already complete", ErrBadAct)
	}
	cur := e.proc.Steps[it.step]
	if stepName != cur.Name {
		e.stats.Rejections++
		return fmt.Errorf("%w: step %q while waiting on %q", ErrBadAct, stepName, cur.Name)
	}
	if e.roleOf[user] != cur.Role {
		e.stats.Rejections++
		return fmt.Errorf("%w: %s (role %q) cannot do %q (needs %q)",
			ErrWrongParty, user, e.roleOf[user], cur.Name, cur.Role)
	}
	it.step++
	return nil
}

// --- Informal model ---

// Note is one free-form action on an informal work item.
type Note struct {
	User string
	Verb string
	Text string
	At   time.Duration
}

// InformalEngine is the Object-Lens-style free router: every act by any
// member is accepted and recorded. It never rejects — and consequently only
// knows an item is complete if somebody says so.
type InformalEngine struct {
	members map[string]bool
	items   map[string]*informalItem
	stats   Stats
}

type informalItem struct {
	notes      []Note
	markedDone bool
}

// NewInformalEngine creates an engine for the given members.
func NewInformalEngine(members []string) *InformalEngine {
	ms := make(map[string]bool, len(members))
	for _, m := range members {
		ms[m] = true
	}
	return &InformalEngine{members: ms, items: make(map[string]*informalItem)}
}

// Stats returns the attempt/rejection counts (rejections stay zero for
// members).
func (e *InformalEngine) Stats() Stats { return e.stats }

// Start creates a work item.
func (e *InformalEngine) Start(id string) error {
	if _, ok := e.items[id]; ok {
		return fmt.Errorf("%w: %s", ErrExists, id)
	}
	e.items[id] = &informalItem{}
	return nil
}

// Act records a free-form action. The verb "done" marks the item complete;
// "reopen" clears the mark. Everything from a member is accepted.
func (e *InformalEngine) Act(id, user, verb, text string, now time.Duration) error {
	it, ok := e.items[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownItem, id)
	}
	e.stats.Attempts++
	if !e.members[user] {
		e.stats.Rejections++
		return fmt.Errorf("%w: %s", ErrWrongParty, user)
	}
	it.notes = append(it.notes, Note{User: user, Verb: verb, Text: text, At: now})
	switch verb {
	case "done":
		it.markedDone = true
	case "reopen":
		it.markedDone = false
	}
	return nil
}

// Done reports whether anyone has marked the item done.
func (e *InformalEngine) Done(id string) bool {
	it, ok := e.items[id]
	return ok && it.markedDone
}

// CompletionKnown: the informal engine only knows when someone told it; an
// item with activity but no "done"/"reopen" verdict is unknowable.
func (e *InformalEngine) CompletionKnown(id string) bool {
	it, ok := e.items[id]
	if !ok {
		return false
	}
	if it.markedDone {
		return true
	}
	for _, n := range it.notes {
		if n.Verb == "done" || n.Verb == "reopen" {
			return true
		}
	}
	return false
}

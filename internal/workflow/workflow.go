// Package workflow implements the three families of activity model the
// paper surveys (§3.2.1) and critiques (§4.1):
//
//   - SpeechAct: the conversation-for-action state machine of Co-ordinator
//     and Action Workflow (Winograd/Flores, Medina-Mora et al.): request,
//     promise/counter/decline, perform, report, approve. Strongly typed and
//     strongly *prescriptive* — any utterance outside the state machine is
//     rejected. The paper quotes the critique that this prescriptiveness is
//     what made users call Co-ordinator "the world's first fascist computer
//     system"; the engine counts every rejection so experiment E10 can
//     quantify it.
//   - Procedural: Domino-style office procedures — an ordered sequence of
//     steps, each bound to a role; steps complete in order by the right
//     role.
//   - Informal: Object-Lens-style free routing — any member may do anything
//     to a work item; everything is accepted and recorded, but the system
//     can only *guess* at completion (the trade-off in the other
//     direction).
//
// All three expose attempt/rejection counts and a completion-tracking
// verdict, the measures E10 reports.
package workflow

import (
	"errors"
	"fmt"
	"time"
)

// Stats counts attempted and rejected transitions — the prescriptiveness
// measure.
type Stats struct {
	Attempts   int
	Rejections int
}

// RejectionRate returns rejections per attempt.
func (s Stats) RejectionRate() float64 {
	if s.Attempts == 0 {
		return 0
	}
	return float64(s.Rejections) / float64(s.Attempts)
}

// Errors returned by the engines.
var (
	ErrUnknownItem = errors.New("workflow: unknown work item")
	ErrBadAct      = errors.New("workflow: act not permitted in current state")
	ErrWrongParty  = errors.New("workflow: act not permitted for this participant")
	ErrExists      = errors.New("workflow: item already exists")
)

// --- Speech-act model (conversation for action) ---

// CfAState is a conversation-for-action state.
type CfAState int

const (
	// StateProposed: the customer has requested; awaiting the performer.
	StateProposed CfAState = iota + 1
	// StateCountered: the performer counter-offered; awaiting the customer.
	StateCountered
	// StateAgreed: promise made; performance under way.
	StateAgreed
	// StateReported: performer declared completion; awaiting approval.
	StateReported
	// StateCompleted: customer approved; conversation closed.
	StateCompleted
	// StateDeclined: performer declined; closed.
	StateDeclined
	// StateCancelled: customer withdrew; closed.
	StateCancelled
)

// String returns the state name.
func (s CfAState) String() string {
	switch s {
	case StateProposed:
		return "proposed"
	case StateCountered:
		return "countered"
	case StateAgreed:
		return "agreed"
	case StateReported:
		return "reported"
	case StateCompleted:
		return "completed"
	case StateDeclined:
		return "declined"
	case StateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("CfAState(%d)", int(s))
	}
}

// Act is a speech act.
type Act int

const (
	// ActRequest opens a conversation (implicit in Open).
	ActRequest Act = iota + 1
	// ActPromise commits the performer.
	ActPromise
	// ActCounter proposes different conditions.
	ActCounter
	// ActAcceptCounter accepts the performer's counter.
	ActAcceptCounter
	// ActDecline refuses the request.
	ActDecline
	// ActReport declares the work done.
	ActReport
	// ActApprove accepts the reported work.
	ActApprove
	// ActRejectReport sends the work back to performance.
	ActRejectReport
	// ActCancel withdraws the request.
	ActCancel
)

// String returns the act name.
func (a Act) String() string {
	names := map[Act]string{
		ActRequest: "request", ActPromise: "promise", ActCounter: "counter",
		ActAcceptCounter: "accept-counter", ActDecline: "decline",
		ActReport: "report", ActApprove: "approve",
		ActRejectReport: "reject-report", ActCancel: "cancel",
	}
	if n, ok := names[a]; ok {
		return n
	}
	return fmt.Sprintf("Act(%d)", int(a))
}

type conversation struct {
	customer  string
	performer string
	state     CfAState
}

// SpeechActEngine runs conversation-for-action work items.
type SpeechActEngine struct {
	convs map[string]*conversation
	stats Stats
}

// NewSpeechActEngine creates an empty engine.
func NewSpeechActEngine() *SpeechActEngine {
	return &SpeechActEngine{convs: make(map[string]*conversation)}
}

// Stats returns the attempt/rejection counts.
func (e *SpeechActEngine) Stats() Stats { return e.stats }

// Open starts a conversation: customer requests work from performer.
func (e *SpeechActEngine) Open(id, customer, performer string, now time.Duration) error {
	if _, ok := e.convs[id]; ok {
		return fmt.Errorf("%w: %s", ErrExists, id)
	}
	e.stats.Attempts++
	e.convs[id] = &conversation{
		customer: customer, performer: performer, state: StateProposed,
	}
	return nil
}

// StateOf returns the conversation state.
func (e *SpeechActEngine) StateOf(id string) (CfAState, error) {
	c, ok := e.convs[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownItem, id)
	}
	return c.state, nil
}

// Submit attempts a speech act by user on conversation id. Anything outside
// the state machine — wrong state, wrong party — is rejected and counted.
func (e *SpeechActEngine) Submit(id, user string, act Act, now time.Duration) error {
	c, ok := e.convs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownItem, id)
	}
	e.stats.Attempts++
	reject := func(err error) error {
		e.stats.Rejections++
		return fmt.Errorf("%w: %s by %s in %s", err, act, user, c.state)
	}
	isCustomer := user == c.customer
	isPerformer := user == c.performer
	if !isCustomer && !isPerformer {
		return reject(ErrWrongParty) // third parties may not speak at all
	}
	var next CfAState
	switch {
	case c.state == StateProposed && isPerformer && act == ActPromise:
		next = StateAgreed
	case c.state == StateProposed && isPerformer && act == ActCounter:
		next = StateCountered
	case c.state == StateProposed && isPerformer && act == ActDecline:
		next = StateDeclined
	case c.state == StateProposed && isCustomer && act == ActCancel:
		next = StateCancelled
	case c.state == StateCountered && isCustomer && act == ActAcceptCounter:
		next = StateAgreed
	case c.state == StateCountered && isCustomer && act == ActCancel:
		next = StateCancelled
	case c.state == StateCountered && isPerformer && act == ActDecline:
		next = StateDeclined
	case c.state == StateAgreed && isPerformer && act == ActReport:
		next = StateReported
	case c.state == StateAgreed && isCustomer && act == ActCancel:
		next = StateCancelled
	case c.state == StateReported && isCustomer && act == ActApprove:
		next = StateCompleted
	case c.state == StateReported && isCustomer && act == ActRejectReport:
		next = StateAgreed
	default:
		if !isCustomer && !isPerformer {
			return reject(ErrWrongParty)
		}
		return reject(ErrBadAct)
	}
	c.state = next
	return nil
}

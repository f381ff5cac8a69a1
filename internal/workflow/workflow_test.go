package workflow

import (
	"errors"
	"testing"
)

func TestCfAHappyPath(t *testing.T) {
	e := NewSpeechActEngine()
	if err := e.Open("t1", "cust", "perf", 0); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		user string
		act  Act
		want CfAState
	}{
		{"perf", ActPromise, StateAgreed},
		{"perf", ActReport, StateReported},
		{"cust", ActApprove, StateCompleted},
	}
	for _, s := range steps {
		if err := e.Submit("t1", s.user, s.act, 0); err != nil {
			t.Fatalf("%s by %s: %v", s.act, s.user, err)
		}
		if st, _ := e.StateOf("t1"); st != s.want {
			t.Fatalf("state = %v, want %v", st, s.want)
		}
	}
	if e.Stats().Rejections != 0 {
		t.Errorf("stats = %+v", e.Stats())
	}
}

func TestCfACounterNegotiation(t *testing.T) {
	e := NewSpeechActEngine()
	e.Open("t", "c", "p", 0)
	if err := e.Submit("t", "p", ActCounter, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit("t", "c", ActAcceptCounter, 2); err != nil {
		t.Fatal(err)
	}
	if st, _ := e.StateOf("t"); st != StateAgreed {
		t.Errorf("state = %v", st)
	}
}

func TestCfADeclineAndCancel(t *testing.T) {
	e := NewSpeechActEngine()
	e.Open("d", "c", "p", 0)
	e.Submit("d", "p", ActDecline, 1)
	if st, _ := e.StateOf("d"); st != StateDeclined {
		t.Errorf("state = %v", st)
	}
	e.Open("x", "c", "p", 0)
	e.Submit("x", "c", ActCancel, 1)
	if st, _ := e.StateOf("x"); st != StateCancelled {
		t.Errorf("state = %v", st)
	}
}

func TestCfARejectReportLoops(t *testing.T) {
	e := NewSpeechActEngine()
	e.Open("t", "c", "p", 0)
	e.Submit("t", "p", ActPromise, 1)
	e.Submit("t", "p", ActReport, 2)
	if err := e.Submit("t", "c", ActRejectReport, 3); err != nil {
		t.Fatal(err)
	}
	if st, _ := e.StateOf("t"); st != StateAgreed {
		t.Errorf("state after rejection = %v", st)
	}
	// Perform again and approve.
	e.Submit("t", "p", ActReport, 4)
	e.Submit("t", "c", ActApprove, 5)
	if st, _ := e.StateOf("t"); st != StateCompleted {
		t.Errorf("state = %v", st)
	}
}

func TestCfAPrescriptiveness(t *testing.T) {
	e := NewSpeechActEngine()
	e.Open("t", "c", "p", 0)
	// The real-world improvisations the paper's critique describes:
	cases := []struct {
		user string
		act  Act
		want error
	}{
		{"c", ActPromise, ErrBadAct},          // customer promising own request
		{"helper", ActPromise, ErrWrongParty}, // a colleague helping out
		{"p", ActReport, ErrBadAct},           // reporting before promising
		{"p", ActApprove, ErrBadAct},          // performer self-approving
	}
	for _, tc := range cases {
		if err := e.Submit("t", tc.user, tc.act, 0); !errors.Is(err, tc.want) {
			t.Errorf("%s by %s = %v, want %v", tc.act, tc.user, err, tc.want)
		}
	}
	st := e.Stats()
	if st.Rejections != 4 {
		t.Errorf("rejections = %d", st.Rejections)
	}
	if st.RejectionRate() <= 0.5 {
		t.Errorf("rate = %v", st.RejectionRate())
	}
	// Conversation state unharmed by rejected acts.
	if s, _ := e.StateOf("t"); s != StateProposed {
		t.Errorf("state = %v", s)
	}
}

func TestCfAClosedConversationRejectsEverything(t *testing.T) {
	e := NewSpeechActEngine()
	e.Open("t", "c", "p", 0)
	e.Submit("t", "p", ActDecline, 1)
	if err := e.Submit("t", "p", ActPromise, 2); !errors.Is(err, ErrBadAct) {
		t.Errorf("act on closed = %v", err)
	}
}

func TestCfAUnknownAndDuplicate(t *testing.T) {
	e := NewSpeechActEngine()
	if err := e.Submit("nope", "x", ActPromise, 0); !errors.Is(err, ErrUnknownItem) {
		t.Errorf("unknown = %v", err)
	}
	if _, err := e.StateOf("nope"); !errors.Is(err, ErrUnknownItem) {
		t.Errorf("StateOf = %v", err)
	}
	e.Open("t", "c", "p", 0)
	if err := e.Open("t", "c", "p", 0); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate = %v", err)
	}
}

// --- procedural ---

var expenseProc = Procedure{
	Name: "expense-claim",
	Steps: []Step{
		{Name: "submit", Role: "employee"},
		{Name: "approve", Role: "manager"},
		{Name: "pay", Role: "finance"},
	},
}

var staff = map[string]string{
	"ann": "employee", "mike": "manager", "fay": "finance",
}

func TestProceduralHappyPath(t *testing.T) {
	e := NewProceduralEngine(expenseProc, staff)
	if err := e.Start("claim1"); err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct{ user, step string }{
		{"ann", "submit"}, {"mike", "approve"}, {"fay", "pay"},
	} {
		if err := e.Complete("claim1", s.user, s.step, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Done("claim1") {
		t.Error("should be done")
	}
	if e.Stats().Rejections != 0 {
		t.Errorf("stats = %+v", e.Stats())
	}
}

func TestProceduralOutOfOrderAndWrongRole(t *testing.T) {
	e := NewProceduralEngine(expenseProc, staff)
	e.Start("c")
	if err := e.Complete("c", "fay", "pay", 0); !errors.Is(err, ErrBadAct) {
		t.Errorf("skip ahead = %v", err)
	}
	if err := e.Complete("c", "mike", "submit", 0); !errors.Is(err, ErrWrongParty) {
		t.Errorf("wrong role = %v", err)
	}
	e.Complete("c", "ann", "submit", 0)
	e.Complete("c", "mike", "approve", 0)
	e.Complete("c", "fay", "pay", 0)
	if err := e.Complete("c", "fay", "pay", 0); !errors.Is(err, ErrBadAct) {
		t.Errorf("complete after done = %v", err)
	}
	if e.Stats().Rejections != 3 {
		t.Errorf("rejections = %d", e.Stats().Rejections)
	}
}

func TestProceduralUnknownItem(t *testing.T) {
	e := NewProceduralEngine(expenseProc, staff)
	if err := e.Complete("nope", "ann", "submit", 0); !errors.Is(err, ErrUnknownItem) {
		t.Errorf("unknown = %v", err)
	}
	e.Start("c")
	if err := e.Start("c"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate = %v", err)
	}
}

// --- informal ---

func TestInformalAcceptsEverything(t *testing.T) {
	e := NewInformalEngine([]string{"ann", "mike", "fay"})
	e.Start("memo")
	acts := []struct{ user, verb string }{
		{"ann", "draft"}, {"fay", "comment"}, {"mike", "edit"},
		{"ann", "forward"}, {"fay", "pay"}, // wildly out of any order
	}
	for _, a := range acts {
		if err := e.Act("memo", a.user, a.verb, "", 0); err != nil {
			t.Fatalf("%s by %s rejected: %v", a.verb, a.user, err)
		}
	}
	if e.Stats().Rejections != 0 {
		t.Errorf("rejections = %d", e.Stats().Rejections)
	}
	// But completion is unknown until declared.
	if e.CompletionKnown("memo") {
		t.Error("completion should be unknown")
	}
	e.Act("memo", "ann", "done", "", 0)
	if !e.CompletionKnown("memo") || !e.Done("memo") {
		t.Error("done mark not tracked")
	}
	e.Act("memo", "mike", "reopen", "", 0)
	if e.Done("memo") {
		t.Error("reopen should clear done")
	}
	if !e.CompletionKnown("memo") {
		t.Error("an explicit reopen is still a verdict")
	}
}

func TestInformalNonMember(t *testing.T) {
	e := NewInformalEngine([]string{"ann"})
	e.Start("m")
	if err := e.Act("m", "stranger", "steal", "", 0); !errors.Is(err, ErrWrongParty) {
		t.Errorf("stranger = %v", err)
	}
	if err := e.Act("nope", "ann", "x", "", 0); !errors.Is(err, ErrUnknownItem) {
		t.Errorf("unknown = %v", err)
	}
	if err := e.Start("m"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate = %v", err)
	}
	if e.Done("nope") || e.CompletionKnown("nope") {
		t.Error("unknown item verdicts")
	}
}

func TestEnumStrings(t *testing.T) {
	if StateProposed.String() != "proposed" || StateCompleted.String() != "completed" {
		t.Error("state names")
	}
	for s, want := range map[CfAState]string{
		StateCountered: "countered", StateAgreed: "agreed", StateReported: "reported",
		StateDeclined: "declined", StateCancelled: "cancelled", CfAState(42): "CfAState(42)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if ActPromise.String() != "promise" || ActRejectReport.String() != "reject-report" {
		t.Error("act names")
	}
	for a, want := range map[Act]string{
		ActRequest: "request", ActCounter: "counter", ActAcceptCounter: "accept-counter",
		ActDecline: "decline", ActReport: "report", ActApprove: "approve", ActCancel: "cancel",
	} {
		if a.String() != want {
			t.Errorf("%d.String() = %q", int(a), a.String())
		}
	}
	if (Stats{}).RejectionRate() != 0 {
		t.Error("zero stats rate")
	}
}

func BenchmarkCfAConversation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewSpeechActEngine()
		e.Open("t", "c", "p", 0)
		e.Submit("t", "p", ActPromise, 0)
		e.Submit("t", "p", ActReport, 0)
		e.Submit("t", "c", ActApprove, 0)
	}
}

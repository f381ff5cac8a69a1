package engine

import (
	"testing"

	"repro/internal/ot"
)

// TestServerIgnoresResend: a client resends its unacknowledged submission on
// every Tick, so the server sees a submission again after committing it.
// The resend commits nothing and answers with nothing (a pull recovers the
// commit); the same sequence number from another site is a new submission.
func TestServerIgnoresResend(t *testing.T) {
	body, err := EncodeItemBody(NewWireCodec(), Msg{To: "!host", Body: &MsgSubmit{Sub: ot.Submission{Op: ot.Op{Kind: ot.Insert, Ch: 'x'}, Seq: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer("!host")
	for _, step := range []struct {
		from, text string
		answers    bool
	}{
		{"p1", "x", true},
		{"p1", "x", false}, // the resend
		{"p2", "xx", true},
	} {
		answer, err := srv.Integrate(step.from, body, nil)
		if err != nil || (len(answer) > 0) != step.answers || srv.Text() != step.text {
			t.Fatalf("submission from %s: answer %x, %v, text %q; want an answer %v and %q", step.from, answer, err, srv.Text(), step.answers, step.text)
		}
	}
}

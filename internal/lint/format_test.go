package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

// Edge cases in the output writers, mostly around workflow-command
// escaping: GitHub's runner URL-decodes annotation messages, so %, CR and
// LF must be encoded — and % first, or the escapes themselves get mangled.

func fakeDiag(msg string) Diagnostic {
	return Diagnostic{
		Pos:     token.Position{Filename: "/mod/internal/x/x.go", Line: 7, Column: 3},
		Rule:    "det-time",
		Message: msg,
	}
}

func TestGitHubEscape(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"line one\nline two", "line one%0Aline two"},
		{"crlf\r\nnext", "crlf%0D%0Anext"},
		{"n=%d stays literal", "n=%25d stays literal"},
		// A literal "%0A" in the message must not decode to a newline:
		// % escapes to %25 first, leaving %250A.
		{"looks escaped %0A already", "looks escaped %250A already"},
	}
	for _, c := range cases {
		if got := githubEscape(c.in); got != c.want {
			t.Errorf("githubEscape(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWriteGitHubMultiline(t *testing.T) {
	var buf bytes.Buffer
	WriteGitHub(&buf, "/mod", []Diagnostic{fakeDiag("first line\nsecond line with 50%")})
	out := buf.String()
	if strings.Count(out, "\n") != 1 {
		t.Fatalf("annotation must be one line, got %q", out)
	}
	want := "::error file=internal/x/x.go,line=7,col=3::[det-time] first line%0Asecond line with 50%25\n"
	if out != want {
		t.Errorf("got  %q\nwant %q", out, want)
	}
}

func TestWriteSARIFEscapesNothing(t *testing.T) {
	// SARIF gets raw messages: escaping is the JSON decoder's job there.
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "/mod", []Diagnostic{fakeDiag("a\nb %0A c")}); err != nil {
		t.Fatal(err)
	}
	var got sarifLog
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	res := got.Runs[0].Results
	if len(res) != 1 || res[0].Message.Text != "a\nb %0A c" {
		t.Errorf("round-trip mangled the message: %+v", res)
	}
	if uri := res[0].Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "internal/x/x.go" {
		t.Errorf("uri = %q, want module-relative path", uri)
	}
}

func TestSARIFCoversEveryRule(t *testing.T) {
	// The named CI lint job uploads SARIF; every analyzer must ship rule
	// metadata there or code scanning drops its results.
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "/mod", nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	rules := []string{"lint-directive"}
	for _, a := range Analyzers() {
		rules = append(rules, strings.Split(a.Name, ",")...)
	}
	for _, rule := range rules {
		if !strings.Contains(out, `"id": "`+rule+`"`) {
			t.Errorf("SARIF driver rules missing %q", rule)
		}
	}
}

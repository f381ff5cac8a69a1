package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// These tests exercise the CLI front-end (lint.CLIMain) against the tiny
// deliberately-dirty module in testdata/broken, so each run loads one
// package instead of the whole repository. It has two findings: a det-time
// in clockbad.go and an unused //lint:ignore in stale.go.

// runCLI invokes the front-end capturing both streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = lint.CLIMain("cscwlint", args, &out, &errb)
	return code, out.String(), errb.String()
}

// sarifLog is the exact shape GitHub code scanning reads; unknown or
// missing fields here would make the upload step reject the log.
type sarifLog struct {
	Schema  string `json:"$schema"`
	Version string `json:"version"`
	Runs    []struct {
		Tool struct {
			Driver struct {
				Name  string `json:"name"`
				Rules []struct {
					ID               string `json:"id"`
					ShortDescription struct {
						Text string `json:"text"`
					} `json:"shortDescription"`
				} `json:"rules"`
			} `json:"driver"`
		} `json:"tool"`
		Results []struct {
			RuleID  string `json:"ruleId"`
			Level   string `json:"level"`
			Message struct {
				Text string `json:"text"`
			} `json:"message"`
			Locations []struct {
				PhysicalLocation struct {
					ArtifactLocation struct {
						URI string `json:"uri"`
					} `json:"artifactLocation"`
					Region struct {
						StartLine int `json:"startLine"`
					} `json:"region"`
				} `json:"physicalLocation"`
			} `json:"locations"`
		} `json:"results"`
	} `json:"runs"`
}

// runSARIF lints testdata/broken with -format=sarif and decodes the log.
func runSARIF(t *testing.T) sarifLog {
	t.Helper()
	code, stdout, _ := runCLI("-format=sarif", "testdata/broken")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var log sarifLog
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("output is not SARIF JSON: %v", err)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	return log
}

func TestFormatSARIF(t *testing.T) {
	log := runSARIF(t)
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("version/schema = %q / %q, want 2.1.0", log.Version, log.Schema)
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "cscwlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	for _, r := range run.Tool.Driver.Rules {
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no shortDescription", r.ID)
		}
	}
}

func TestFormatSARIFResults(t *testing.T) {
	run := runSARIF(t).Runs[0]
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	// Results come in position order with module-relative URIs.
	want := []struct {
		rule, uri string
		line      int
	}{
		{"det-time", "internal/clockbad/clockbad.go", 8},
		{"lint-directive", "internal/clockbad/stale.go", 6},
	}
	if len(run.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(run.Results), len(want))
	}
	for i, w := range want {
		res := run.Results[i]
		if res.RuleID != w.rule || res.Level != "error" || res.Message.Text == "" {
			t.Errorf("result %d: unexpected %+v, want rule %s", i, res, w.rule)
		}
		if !ruleIDs[res.RuleID] {
			t.Errorf("result rule %q missing from driver rule metadata", res.RuleID)
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != w.uri || loc.Region.StartLine != w.line {
			t.Errorf("result %d: location %+v, want %s:%d", i, loc, w.uri, w.line)
		}
	}
}

func TestFormatGitHub(t *testing.T) {
	code, stdout, _ := runCLI("-format=github", "testdata/broken")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.HasPrefix(stdout, "::error file=internal/clockbad/clockbad.go,line=") {
		t.Errorf("not a workflow-command annotation: %q", stdout)
	}
	if !strings.Contains(stdout, "::[det-time] ") {
		t.Errorf("annotation message missing rule tag: %q", stdout)
	}
}

func TestFormatUnknown(t *testing.T) {
	code, _, stderr := runCLI("-format=yaml", "testdata/broken")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown format") {
		t.Errorf("stderr = %q, want unknown-format error", stderr)
	}
}

func TestUnusedDirectiveFails(t *testing.T) {
	// stale.go holds a //lint:ignore whose finding is gone: the directive
	// itself is the finding, named by file:line so it can be deleted.
	code, stdout, _ := runCLI("testdata/broken")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	site := filepath.Join("internal", "clockbad", "stale.go") + ":6:2: [lint-directive] //lint:ignore det-time suppresses no finding"
	if !strings.Contains(stdout, site) {
		t.Errorf("stdout = %q, want a finding at %s", stdout, site)
	}
}

func TestPackageFilter(t *testing.T) {
	if code, stdout, _ := runCLI("testdata/broken", "clockbad"); code != 1 || !strings.Contains(stdout, "det-time") {
		t.Errorf("matching filter: exit %d, stdout %q; want 1 with det-time", code, stdout)
	}
	code, _, stderr := runCLI("testdata/broken", "nosuchpackage")
	if code != 2 {
		t.Errorf("unmatched filter: exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "no loaded package matches") {
		t.Errorf("stderr = %q, want unmatched-filter error", stderr)
	}
}

// writeModule writes files (slash paths relative to the module root) into a
// fresh directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestRunFromSubdirectory(t *testing.T) {
	rootCode, rootOut, _ := runCLI("testdata/broken")
	subCode, subOut, _ := runCLI(filepath.Join("testdata", "broken", "internal", "clockbad"))
	if subCode != rootCode || subOut != rootOut {
		t.Errorf("from a subdirectory: exit %d, stdout %q; from the module root: exit %d, stdout %q",
			subCode, subOut, rootCode, rootOut)
	}
}

func TestOutsideModule(t *testing.T) {
	code, _, stderr := runCLI(t.TempDir())
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "go.mod file not found") {
		t.Errorf("stderr = %q, want the go command's no-module message", stderr)
	}
}

func TestTypeErrorNamesPackage(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":       "module example.com/bad\n\ngo 1.22\n",
		"ok/ok.go":     "package ok\n",
		"wrong/bad.go": "package wrong\n\nfunc F() int { return \"x\" }\n",
	})
	code, _, stderr := runCLI(dir)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "example.com/bad/wrong") {
		t.Errorf("stderr = %q, want it to name example.com/bad/wrong", stderr)
	}
}

func TestIgnoredFileNotLoaded(t *testing.T) {
	// gen.go would not type-check as part of package p: loading it exits 2.
	dir := writeModule(t, map[string]string{
		"go.mod":   "module example.com/gen\n\ngo 1.22\n",
		"p/p.go":   "package p\n\nfunc F() int { return 1 }\n",
		"p/gen.go": "//go:build ignore\n\npackage main\n\nfunc main() {}\n",
	})
	if code, stdout, stderr := runCLI(dir); code != 0 {
		t.Fatalf("exit = %d, stdout %q, stderr %q; want 0 with gen.go left out", code, stdout, stderr)
	}
}

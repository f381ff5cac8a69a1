package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Output formats of cmd/cscwlint:
//
//	text    file:line:col: [rule] message (the default)
//	sarif   SARIF 2.1.0, the shape GitHub code scanning ingests
//	github  GitHub Actions workflow commands (::error …), which render as
//	        inline annotations without needing code-scanning upload
//
// File paths in sarif/github output are module-root-relative, which is
// what both SARIF artifactLocation URIs and Actions annotations expect.

// WriteText prints diagnostics one per line.
func WriteText(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
}

// WriteGitHub prints diagnostics as GitHub Actions error annotations.
func WriteGitHub(w io.Writer, root string, diags []Diagnostic) {
	for _, d := range diags {
		// Workflow-command syntax: properties are comma-separated, the
		// message follows ::. The runner URL-decodes message data, so a
		// literal % must become %25 — and must be escaped first, or it
		// would re-escape the %0A/%0D below. CR before LF, so a CRLF pair
		// decodes back to CRLF rather than collapsing.
		msg := githubEscape(fmt.Sprintf("[%s] %s", d.Rule, d.Message))
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d::%s\n",
			relPath(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, msg)
	}
}

// relPath renders file module-root-relative with forward slashes; files
// outside the root keep their absolute path.
func relPath(root, file string) string {
	if root == "" {
		return file
	}
	rel, err := filepath.Rel(root, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return file
	}
	return filepath.ToSlash(rel)
}

// githubEscape encodes workflow-command message data: %, CR, LF.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	return strings.ReplaceAll(s, "\n", "%0A")
}

// --- SARIF 2.1.0 ---------------------------------------------------------

// The minimal subset of the SARIF 2.1.0 object model GitHub code scanning
// consumes: one run, a tool driver with rule metadata, and one result per
// finding with a physical location.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// ruleDocs maps every rule name to its one-line doc, for SARIF metadata.
func ruleDocs() map[string]string {
	docs := map[string]string{
		"lint-directive": "//lint:ignore directives must name a known rule, give a reason and suppress a finding",
	}
	for _, a := range Analyzers() {
		for _, r := range strings.Split(a.Name, ",") {
			docs[r] = a.Doc
		}
	}
	return docs
}

// WriteSARIF prints diagnostics as a SARIF 2.1.0 log.
func WriteSARIF(w io.Writer, root string, diags []Diagnostic) error {
	docs := ruleDocs()
	var ids []string
	for id := range docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	rules := make([]sarifRule, 0, len(ids))
	for _, id := range ids {
		rules = append(rules, sarifRule{ID: id, ShortDescription: sarifText{Text: docs[id]}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Rule,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: relPath(root, d.Pos.Filename)},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "cscwlint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

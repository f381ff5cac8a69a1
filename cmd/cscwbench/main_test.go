package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFailedRowNamed: run from outside any module, the lint row cannot load
// one, so its benchmark fails before it times an iteration. The run fails
// naming that row and the error it stopped on, and writes no report.
func TestFailedRowNamed(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	out := filepath.Join(dir, "report.json")
	err = run([]string{"-date", "2026-01-01", "-lint-only", "-out", out})
	if err == nil || !strings.Contains(err.Error(), "lint_wall_ms") {
		t.Fatalf("run = %v, want an error naming lint_wall_ms", err)
	}
	if !strings.Contains(err.Error(), "go.mod file not found") {
		t.Errorf("run = %v, want the cause the lint row stopped on", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a report was written (stat: %v)", err)
	}
}

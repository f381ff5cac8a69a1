package main

import "testing"

// The exit-code contract is shared with `cscwctl chaos`:
// 0 clean, 1 violations, 2 usage/load error.

func TestRunCleanModule(t *testing.T) {
	// The repository itself must lint clean (satellite fixes are guarded by
	// internal/lint's TestRepoIsClean; this checks the CLI surface).
	if code := run([]string{"."}); code != 0 {
		t.Fatalf("run(.) = %d, want 0", code)
	}
	// The benchmark harness is a module of its own, which "." leaves out.
	if code := run([]string{"../../benchmark"}); code != 0 {
		t.Fatalf("run(../../benchmark) = %d, want 0", code)
	}
}

func TestRunBrokenModule(t *testing.T) {
	if code := run([]string{"testdata/broken"}); code != 1 {
		t.Fatalf("run(testdata/broken) = %d, want 1", code)
	}
}

func TestRunUsageErrors(t *testing.T) {
	if code := run([]string{"a", "b"}); code != 2 {
		t.Fatalf("run(a b) = %d, want 2", code)
	}
	if code := run([]string{"testdata/nonexistent"}); code != 2 {
		t.Fatalf("run(nonexistent) = %d, want 2", code)
	}
}

func TestRunRules(t *testing.T) {
	if code := run([]string{"-rules"}); code != 0 {
		t.Fatalf("run(-rules) = %d, want 0", code)
	}
}

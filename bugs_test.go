//go:build bugs

package repro

// The bug ledger: testdata/bugs holds, one file each, bugs this repository
// shipped and then fixed, and names the test that now fails if the bug comes
// back. TestBugLedger puts each one back into today's source, in a copy the
// go command reads through -overlay, and runs the named test on it; the
// tree itself is never written. A test that stops catching its bug, because
// it was deleted, merged or weakened, fails the ledger, so a claim that one
// check replaces another is checked rather than asserted. `make bugs` runs
// it (go test -tags bugs -run Ledger .).
//
// An entry file is a header of "key: value" lines followed by two sections:
//
//	file: internal/group/member.go
//	catch: ./internal/group TestRequestRepairSendsNow
//	race: true                  (optional: run the test under -race)
//	shipped: <the commit and PR that fixed the bug, and what it was>
//	-- old --
//	<text that occurs exactly once in file>
//	-- new --
//	<its replacement>
//
// catch names a package and a test; the test runs as -run '^<test>$', so a
// subtest is named as Test/sub. The entry is caught only if that test fails
// or panics with the mutant in place. Old text that does not occur exactly
// once is stale, and a mutant that does not build is a broken entry: both
// fail, and neither counts as caught.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

type bug struct {
	name, file, pkg, test, shipped string
	race                           bool
	old, new                       string
}

func readBug(path string) (bug, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return bug{}, err
	}
	head, rest, ok := strings.Cut(string(data), "-- old --\n")
	old, repl, ok2 := strings.Cut(rest, "-- new --\n")
	if !ok || !ok2 {
		return bug{}, fmt.Errorf("%s: want a header, then -- old -- and -- new -- sections", path)
	}
	b := bug{
		name: strings.TrimSuffix(filepath.Base(path), ".txt"),
		old:  strings.TrimSuffix(old, "\n"),
		new:  strings.TrimSuffix(repl, "\n"),
	}
	for _, line := range strings.Split(strings.TrimSpace(head), "\n") {
		key, val, _ := strings.Cut(line, ": ")
		switch key {
		case "file":
			b.file = val
		case "catch":
			b.pkg, b.test, _ = strings.Cut(val, " ")
		case "race":
			b.race = val == "true"
		case "shipped":
			b.shipped = val
		default:
			return bug{}, fmt.Errorf("%s: unknown header line %q", path, line)
		}
	}
	if b.file == "" || b.pkg == "" || b.test == "" || b.shipped == "" || b.old == "" || b.old == b.new {
		return bug{}, fmt.Errorf("%s: file, catch (a package and a test), shipped and a changed old text are all required", path)
	}
	return b, nil
}

// replay runs b's test with b's mutant in place. It returns what the failure
// said, and an error unless the test failed or panicked.
func replay(b bug, scratch string) (string, error) {
	src, err := os.ReadFile(b.file)
	if err != nil {
		return "", err
	}
	if n := strings.Count(string(src), b.old); n != 1 {
		return "", fmt.Errorf("stale entry: the old text occurs %d times in %s, want exactly once", n, b.file)
	}
	mutant := filepath.Join(scratch, filepath.Base(b.file))
	if err := os.WriteFile(mutant, []byte(strings.Replace(string(src), b.old, b.new, 1)), 0o644); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(b.file)
	if err != nil {
		return "", err
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutant}})
	if err != nil {
		return "", err
	}
	overlayFile := filepath.Join(scratch, "overlay.json")
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		return "", err
	}
	args := []string{"test", "-overlay", overlayFile, "-count=1", "-timeout=60s", "-v"}
	if b.race {
		args = append(args, "-race")
	}
	args = append(args, "-run", "^"+b.test+"$", b.pkg)
	out, err := exec.Command("go", args...).CombinedOutput()
	switch {
	case strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]"):
		return "", fmt.Errorf("the mutant does not build:\n%s", out)
	case err == nil:
		return "", fmt.Errorf("not caught: %s passes with the mutant in place:\n%s", b.test, out)
	case !strings.Contains(string(out), "--- FAIL: ") && !strings.Contains(string(out), "panic: "):
		return "", fmt.Errorf("go test failed without a failing test: %v\n%s", err, out)
	}
	var said []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, "_test.go:") || strings.Contains(line, "panic: ") || strings.Contains(line, "DATA RACE") {
			said = append(said, strings.TrimSpace(line))
		}
	}
	return strings.Join(said[:min(len(said), 4)], "\n"), nil
}

// TestBugLedger replays every entry; each must be caught.
func TestBugLedger(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "bugs", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no ledger entries")
	}
	for _, path := range paths {
		b, err := readBug(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			said, err := replay(b, t.TempDir())
			if err != nil {
				t.Fatalf("%s (%s): %v", b.name, b.shipped, err)
			}
			t.Logf("caught by %s %s:\n%s", b.pkg, b.test, said)
		})
	}
}

// TestBugLedgerRefuses holds the runner to its own rules: an entry whose old
// text is gone is stale, a mutant that does not build is refused, and one
// that the named test does not notice is not caught.
func TestBugLedgerRefuses(t *testing.T) {
	base := bug{file: "internal/group/group.go", pkg: "./internal/group", test: "TestViewBasics", shipped: "-"}
	for _, c := range []struct {
		name, old, new, want string
	}{
		{"stale", "no such text in the file", "x", "stale entry"},
		{"broken", "package group", "package group\n\nfunc broken() int { return \"\" }", "does not build"},
		{"unnoticed", "// Ordering selects", "// Ordering chooses", "not caught"},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			b := base
			b.old, b.new = c.old, c.new
			_, err := replay(b, t.TempDir())
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("replay = %v, want an error saying %q", err, c.want)
			}
		})
	}
}

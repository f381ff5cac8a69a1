# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all check build vet lint lint-golden test race bugs progcover bench bench-json bench-lint bench-e2e-test chaos chaos-golden chaos-scale experiments experiments-golden examples cover fuzz-smoke

all: check

check: build vet lint test race bugs progcover

build:
	go build ./...

# The shadow analyzer ships outside the stdlib toolchain; run it when the
# binary is installed, stay quiet (but honest) when it is not.
vet:
	go vet ./...
	@if command -v shadow >/dev/null 2>&1; then \
		go vet -vettool=$$(command -v shadow) ./...; \
	else \
		echo "vet: shadow analyzer not installed; skipping shadowed-variable pass"; \
	fi

# Project-specific invariants (determinism, layering, error discipline),
# each checked one package at a time; see DESIGN.md "Enforced invariants".
# No send under a lock, locked accessors and callbacks that fire twice are
# measured by tests instead, which `make bugs` holds to the bugs they catch.
# A finding is accepted
# only by a //lint:ignore at its site, and an unused one fails too. Exit
# codes: 0 clean, 1 violation, 2 load error — shared with `cscwctl chaos`.
# benchmark/ is a module of its own, so it is linted on its own.
lint:
	go run ./cmd/cscwlint .
	go run ./cmd/cscwlint benchmark

# Rewrite internal/lint/testdata/fixtures.golden, the exact rendering of every
# fixture diagnostic (TestFixturesGolden). Read the diff: a changed message
# is a behaviour change.
lint-golden:
	go test ./internal/lint -run TestFixturesGolden -update

test:
	go test ./...

race:
	go test -race ./...

# The shipped-bug ledger (testdata/bugs, bugs_test.go): every entry puts a bug
# this repository shipped and fixed back into the source, through
# `go test -overlay` on a copy (the tree is never written), and requires the
# test it names to fail. Stale or non-building entries fail too. Behind the
# `bugs` build tag, so `go test ./...` does not run it.
bugs:
	go test -tags bugs -count=1 -run Ledger .

# The program-coverage gate (progcover_test.go): builds every main package
# of this module and of benchmark/ with `go build -cover` into a temporary
# directory, runs the corpus the test fixes (experiments, the examples, every
# chaos scenario at seeds 7/11/23, cscwbench, cscwload, cscwlint, a scripted
# sessiond with cscwctl clients), merges the counters with `go tool covdata`,
# and fails on a function no program runs, on a block of a protocol package
# no program runs unless it is a refusal its tests run, and on a stale entry
# of testdata/unreached.txt, whose header gives the list's grammar and
# reasons. Prints each corpus step's wall time and every package's executed
# and total statements. Behind the `progcover` build tag; writes nothing to
# the tree.
progcover:
	go test -tags progcover -count=1 -v -run ProgCover .

# Benchmarks. PKG narrows the sweep: `make bench PKG=./internal/bench`.
bench:
	go test -run XXXNONE -bench=. -benchmem $(if $(PKG),$(PKG),./...)

# Regenerate the checked-in benchmark baseline (EXPERIMENTS.md explains the
# fields). The date is computed here because cscwbench itself never reads
# the wall clock.
BENCH_DATE := $(shell date +%F)
bench-json:
	go run ./cmd/cscwbench -date $(BENCH_DATE) -out BENCH_$(BENCH_DATE).json

# Lint-suite timing row only (lint_wall_ms): fast enough to rerun whenever
# an analyzer changes, without the full simulator matrix.
bench-lint:
	go run ./cmd/cscwbench -date $(BENCH_DATE) -lint-only -out BENCH_$(BENCH_DATE)-lint.json

# The end-to-end benchmark harness is its own Go module (benchmark/go.mod),
# which root `./...` skips: vet it and run its tests, including a -quick rep
# of every workload against a real sessiond child.
bench-e2e-test:
	cd benchmark && go vet ./... && go test ./...

# Short-mode chaos matrix under the race detector, over a fixed seed set.
# Any violation prints the seed and a one-command replay. Then the soaks:
# the group's, 10^5 multicasts per ordering, every map bounded, the live heap
# flat; and the session post path's, 6 000 posts over 120 connections that
# join, leave and hang up, with the host's route table, every outbox array
# and the MsgPost free list bounded by one round's traffic.
chaos:
	go test -race ./internal/chaos
	go test -race ./internal/chaos -chaos.seed=11
	go test -race ./internal/chaos -chaos.seed=23
	go test -count=1 -run TestOrderingSoak ./internal/group
	go test -count=1 -run TestChurnSoak ./internal/session

# Rewrite internal/chaos/testdata/traces.golden, a sha256 of every scenario's
# trace at seeds 7/11/23 (TestChaosTraceGolden). Replay a changed line with
# `cscwctl chaos -scenario S -seed N -v` on both sides and read the diff
# first: a changed trace is a behaviour change.
chaos-golden:
	go test ./internal/chaos -run TestChaosTraceGolden -update

# The scale scenarios (federation-crdt-wan, conference-floor-storm,
# flash-crowd-join-leave) at full node counts: CHAOS_SCALE=1 disables the
# divisor that keeps the regular matrix (and CI) at ~1/10th size.
chaos-scale:
	CHAOS_SCALE=1 go test ./internal/chaos
	CHAOS_SCALE=1 go test ./internal/chaos -chaos.seed=11

# Short coverage-guided fuzz pass over every Fuzz* target (the checked-in
# seed corpora always run in plain `make test`; this explores beyond them).
# The packages are every one under internal/ whose tests declare a fuzz
# target, so a new target runs without being listed here.
# `go test -fuzz` takes exactly one target per invocation, hence the loop.
FUZZ_PKGS = $(sort $(patsubst %/,./%,$(dir $(shell grep -rl --include='*_test.go' '^func Fuzz' internal))))
FUZZ_TIME := 10s
fuzz-smoke:
	@for pkg in $(FUZZ_PKGS); do \
		for f in $$(go test -list 'Fuzz.*' $$pkg | grep '^Fuzz'); do \
			echo "== fuzz $$pkg $$f ($(FUZZ_TIME)) =="; \
			go test -run XXXNONE -fuzz "^$$f$$" -fuzztime=$(FUZZ_TIME) $$pkg || exit 1; \
		done; \
	done

experiments:
	go run ./cmd/experiments

# Rewrite internal/exps/testdata/experiments.golden, the exact `-seed 1`
# output that TestExperimentsGolden compares against. Read the diff: a moved
# number is a behaviour change in a harness or in the layer it measures.
experiments-golden:
	go test ./internal/exps -run TestExperimentsGolden -update

# Every example, by directory: a new one is run without being listed here.
# Each exits non-zero on failure.
examples:
	@for ex in examples/*/; do \
		echo "== $${ex%/} =="; go run ./$$ex || exit 1; echo; \
	done

cover:
	go test -cover ./internal/...

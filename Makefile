# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all check build vet lint lint-baseline lint-golden test race bench bench-json bench-lint bench-e2e-test chaos chaos-scale experiments experiments-golden examples cover fuzz-smoke

all: check

check: build vet lint test race

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

# Project-specific invariants (determinism, layering, lock hygiene, error
# discipline); see DESIGN.md "Enforced invariants". Exit codes: 0 clean,
# 1 violation, 2 load error — shared with `cscwctl lint` and `cscwctl chaos`.
lint:
	go run ./cmd/cscwlint -stale=fail .

# Print every current finding as lint.baseline candidate lines (the gate
# fails on stale entries; this regenerates the non-comment body). Always
# exits 0 — the output feeds a human edit, not CI.
lint-baseline:
	go run ./cmd/cscwlint -format=baseline .

# Rewrite internal/lint/testdata/fixtures.golden, the exact rendering of every
# fixture diagnostic that TestFixturesGolden compares against. Read the diff:
# a changed `via` chain or held-lock name is a behaviour change.
lint-golden:
	go test ./internal/lint -run TestFixturesGolden -update

test:
	go test ./...

race:
	go test -race ./...

# Benchmarks. PKG narrows the sweep: `make bench PKG=./internal/bench`.
bench:
	go test -run XXXNONE -bench=. -benchmem $(if $(PKG),$(PKG),./...)

# Regenerate the checked-in benchmark baseline (EXPERIMENTS.md explains the
# fields). The date is computed here because cscwbench itself never reads
# the wall clock.
BENCH_DATE := $(shell date +%F)
bench-json:
	go run ./cmd/cscwbench -date $(BENCH_DATE) -out BENCH_$(BENCH_DATE).json

# Lint-suite timing rows only (lint_wall_ms, lint_stage4_ms): fast enough to
# rerun whenever an analyzer changes, without the full simulator matrix.
bench-lint:
	go run ./cmd/cscwbench -date $(BENCH_DATE) -lint-only -out BENCH_$(BENCH_DATE)-lint.json

# The end-to-end benchmark harness is its own Go module (benchmark/go.mod),
# which root `./...` skips: vet it and run its tests, including a -quick rep
# of every workload against a real sessiond child.
bench-e2e-test:
	cd benchmark && go vet ./... && go test ./...

# Short-mode chaos matrix under the race detector, over a fixed seed set.
# Any violation prints the seed and a one-command replay.
chaos:
	go test -race ./internal/chaos
	go test -race ./internal/chaos -chaos.seed=11
	go test -race ./internal/chaos -chaos.seed=23

# The scale scenarios (federation-crdt-wan, conference-floor-storm,
# flash-crowd-join-leave) at full node counts: CHAOS_SCALE=1 disables the
# divisor that keeps the regular matrix (and CI) at ~1/10th size.
chaos-scale:
	CHAOS_SCALE=1 go test ./internal/chaos
	CHAOS_SCALE=1 go test ./internal/chaos -chaos.seed=11

# Short coverage-guided fuzz pass over every Fuzz* target (the checked-in
# seed corpora always run in plain `make test`; this explores beyond them).
# `go test -fuzz` takes exactly one target per invocation, hence the loop.
FUZZ_PKGS := ./internal/crdt ./internal/engine ./internal/fabric
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

examples:
	@for ex in quickstart coauthoring atc conference mobilefield mediaspace shareddraw; do \
		echo "== examples/$$ex =="; go run ./examples/$$ex || exit 1; echo; \
	done

cover:
	go test -cover ./internal/...

# Developer entry points. `make verify` is the tier-1 gate CI runs on every
# push (vet, gofmt over the tracked .go files, build, test, the no-sleep
# grep, the examples, and the bench/ smoke); `make examples` builds and
# runs every program under examples/ and fails on the first non-zero exit
# or stdout that differs from the example's stdout.golden — `go test
# ./...` only compiles them (≈ 20 s with the builds, 6 s of
# it the cluster demo's run); `make bench` smoke-runs the pipeline,
# guard, state-plane and streaming-ingest benchmarks (five iterations each, enough to catch
# regressions in wiring and to average out single-run jitter) and records
# the results machine-readably in BENCH_PR18.json so the performance
# trajectory survives the CI log. `make fuzz` gives every Fuzz target in
# the module — found by `go test -list`, never listed by hand — a short
# bounded pass.
# `make benchcmp` runs the same benchmarks once and gates them against the
# checked-in record: non-zero exit when req/s regresses >20% or allocs/op
# rises on any shared benchmark. Both targets share the bench.out recipe,
# so a benchmark added to the record is automatically in the gate.
# `make chaos` runs the fault-injection suite under the race detector:
# detector panics (through the guard, both pipeline modes, the facade and
# the CLI), torn checkpoint writes, ENOSPC, follower read errors — every
# failure the failure plane claims to absorb, injected on purpose. It runs
# every TestChaos* test in the module, so no package list is kept: a
# chaos test joins by its name.
# `make nosleep` greps tests for time.Sleep — deterministic tests drive
# time through injected clocks and hooks (internal/clockwork,
# faultinject.SetSleep, the Sleep hooks on configs), never the wall clock.
# `make race` runs the whole module under the race detector — no package
# list to keep, so a package a PR touches is never left out (≈2 minutes
# on two cores). `make benchsmoke` vets and tests bench/, the end-to-end
# benchmark: it is a module of its own that compiles against this one's
# types (pipeline.Config/Decision/Sink, stream.Sweeper, mitigate.Engine,
# httpguard.Config), `go build ./... && go test ./...` here never sees it,
# and no code PR may edit it — so a change to those types is checked
# against it on every verify (≈ 10 s). `make profile`
# CPU-profiles BenchmarkE2EReplay — log bytes on disk through detection,
# the path bench/ times but cannot profile — and prints the cumulative
# top 30 with input generation left out; PROFILE_KIND=allocs counts every
# allocation instead and prints who made the most objects;
# PROFILE_KIND=heap prints the in-use bytes by call site of what the last
# replay of each case still holds (the benchmark keeps it reachable until
# the profile is written; /wide runs the graduated ladder, a majority
# quorum and a 2 h sweeper in its sink as bench/'s follow-wide does, so its
# held-B/line reads what heap_bytes_per_req reads) — where a
# heap_bytes_per_req goes; the profile
# and test binary stay under .bench_build/. `make lines` prints the tracked non-test Go lines
# outside bench/, per package and in total — the figure a simplicity PR
# reports before and after (stage new files first: it counts what git
# tracks). `make sizes` prints every per-client record's unsafe.Sizeof (each
# side's and the ladder's TestRecordHoldsStateOnly, and stats' TestIDSetSize
# for the product set three of them embed) and what a tracked client holds
# in each detector, the ladder, the enricher — swept, and past its horizon
# with no sweep — a surviving sentinel client and the interner
# (TestHeldMemoryPerClient), and what the guard's restore points hold per
# client of the guard-http traffic, raw and packed (TestRestorePointSize)
# — the figures a memory PR reports before and after; CI prints them on
# every run.

GO ?= go

# bench pipes through tee; without pipefail a failing benchmark run would
# still exit 0 and CI would upload a silently truncated record.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

BENCH_RECORD := BENCH_PR18.json

.PHONY: verify build test vet fmtcheck examples bench benchcmp benchsmoke profile race chaos fuzz nosleep lines sizes cover bench.out

verify: vet fmtcheck build test nosleep examples benchsmoke

vet:
	$(GO) vet ./...

# gofmt prints the files it would rewrite; any name is a failure.
fmtcheck:
	@out=$$(gofmt -l $$(git ls-files '*.go')); if [ -n "$$out" ]; then \
		echo "error: gofmt would rewrite:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Each example is a program with its own checks (the cluster demo, for
# one, exits non-zero when failover misses), and its stdout must equal
# examples/<name>/stdout.golden byte for byte.
examples:
	@for d in examples/*/; do \
		n=$$(basename $$d); \
		echo "$(GO) run ./$$d"; \
		$(GO) run ./$$d | diff -u $${d}stdout.golden - || \
			{ echo "error: $$n's stdout differs from $${d}stdout.golden"; exit 1; }; \
	done

# Flaky-test firewall: wall-clock sleeping in tests is the #1 source of
# order- and load-dependent flakes. Tests coordinate through injected
# clocks/hooks instead (see internal/clockwork and the Sleep hook on
# stream.FollowerConfig). Every tracked test file outside bench/ is held
# to it, the root package's included.
nosleep:
	@if grep -n -E '\btime\.Sleep\(' $$(git ls-files '*_test.go' | grep -v '^bench/'); then \
		echo "error: time.Sleep is forbidden in tests; inject a clock (internal/clockwork) or a sleep hook instead"; \
		exit 1; \
	fi

lines:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^bench/' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

sizes:
	@$(GO) test -count=1 -v -run '^(TestRecordHoldsStateOnly|TestIDSetSize)$$' ./internal/... | \
		sed -n 's/^ *\([a-z]*\)_test\.go:[0-9]*: /\1: /p'
	@$(GO) test -count=1 -v -run '^TestHeldMemoryPerClient$$' . | sed -n 's/^ *memory_test\.go:[0-9]*: //p'
	@$(GO) test -count=1 -v -run '^TestRestorePointSize$$' ./httpguard | sed -n 's/^ *failure_test\.go:[0-9]*: //p'

# Per-package coverage summary; CI publishes cover.out + the function
# table as a workflow artifact.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tee cover.txt

race:
	$(GO) test -race ./...

benchsmoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# PROFILE_BENCH narrows the profile to one path: E2EReplay/paper or /wide.
# PROFILE_KIND is cpu (cumulative time), allocs (objects allocated, every
# allocation sampled): the allocs_per_req the end-to-end benchmark reports,
# by call site — or heap (bytes still in use when the profile is written,
# every allocation sampled): its heap_bytes_per_req, by call site.
PROFILE_BENCH ?= E2EReplay
PROFILE_KIND ?= cpu

profile_flags_cpu := -cpuprofile .bench_build/e2e.prof
profile_flags_allocs := -memprofile .bench_build/e2e.prof -memprofilerate 1
profile_flags_heap := $(profile_flags_allocs)
pprof_flags_cpu := -cum
pprof_flags_allocs := -sample_index=alloc_objects
pprof_flags_heap := -sample_index=inuse_space

profile:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)' -benchtime 20x $(profile_flags_$(PROFILE_KIND)) -o .bench_build/e2e.test .
	$(GO) tool pprof -top $(pprof_flags_$(PROFILE_KIND)) -nodecount 30 -ignore e2eMix .bench_build/e2e.test .bench_build/e2e.prof

# The chaos suite under -race: injected detector panics, overload stalls,
# torn/ENOSPC checkpoint writes, follower read errors, kill-and-restore,
# dropped/delayed/exhausted cluster delta frames and mid-rebalance faults —
# every TestChaos* test in the module, wherever it lives.
chaos:
	$(GO) test -race -run '^TestChaos' ./...

# Every Fuzz target in the module gets a short native-fuzz pass over its
# committed seed corpus plus fresh mutations, one after another: `go test
# -fuzz` accepts one target per invocation. The list is what `go test
# -list` finds, package by package, so a new target joins without an edit
# here or in CI.
FUZZTIME ?= 15s

fuzz:
	@$(GO) test -list '^Fuzz' ./... | \
		awk '/^Fuzz/ { n[++c] = $$1; next } /^ok/ { for (i = 1; i <= c; i++) print $$2, n[i]; c = 0 }' | \
		while read -r pkg target; do \
			echo "$(GO) test $$pkg -run xxx -fuzz '^$$target\$$' -fuzztime $(FUZZTIME)"; \
			$(GO) test $$pkg -run xxx -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) </dev/null || exit 1; \
		done

bench.out:
	@rm -f bench.out
	$(GO) test -run xxx -bench 'BenchmarkPipeline|BenchmarkSnapshotRestore' -benchtime 5x . | tee -a bench.out
	$(GO) test -run xxx -bench 'BenchmarkDetectorInspect' -benchtime 20000x . | tee -a bench.out
	$(GO) test -run xxx -bench 'BenchmarkPipeline' -benchtime 5x ./internal/pipeline/ | tee -a bench.out
	$(GO) test -run xxx -bench 'BenchmarkHTTPGuard|BenchmarkRebalance' -benchtime 5x ./httpguard/ | tee -a bench.out
	$(GO) test -run xxx -bench 'BenchmarkStreamIngest' -benchtime 5x ./internal/stream/ | tee -a bench.out
	$(GO) test -run xxx -bench 'BenchmarkClusterDelta' -benchtime 5x ./internal/cluster/ | tee -a bench.out

bench: bench.out
	$(GO) run ./cmd/benchjson -out $(BENCH_RECORD) < bench.out
	@rm -f bench.out

benchcmp: bench.out
	$(GO) run ./cmd/benchjson -compare $(BENCH_RECORD) < bench.out
	@rm -f bench.out

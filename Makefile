# Convenience targets; `make check` is the one CI should run.

# Recipes use bash features (`time -p` is a bash keyword; POSIX sh such
# as dash has no `time` builtin and may lack /usr/bin/time).
SHELL := /bin/bash

.PHONY: all build test bench bench-smoke trace-smoke shard-smoke check fuzz coverage fmt fmt-check clean

all: build

build:
	dune build

# The suite runs twice: fully serial and with a 4-domain pool. The
# results must be identical (the Par determinism contract); --force
# because dune would otherwise serve the second run from cache.
test:
	CLUSEQ_DOMAINS=1 dune runtest --force
	CLUSEQ_DOMAINS=4 dune runtest --force

bench:
	dune exec bench/main.exe

# Perf regression smoke gate: re-run a fast experiment at the baseline's
# scale — plus the micro suite, so the similarity-kernel ns/op numbers
# (similarity-psa-200sym etc.) are gated too — and compare against the
# committed BENCH_baseline.json. The threshold is deliberately loose
# (machines differ); it exists to catch order-of-magnitude regressions,
# not 10% jitter. --domains is pinned to 1 so the timings stay
# comparable across machines with different core counts (the comparer
# rejects mismatched domain counts). Refresh the baseline with:
#   dune exec bench/main.exe -- --scale 0.25 --domains 1 --record BENCH_baseline.json
bench-smoke: build
	@tmp=$$(mktemp -d); \
	dune exec bench/main.exe -- table4 micro --scale 0.25 --domains 1 \
	  --record $$tmp/BENCH_smoke.json >/dev/null; \
	dune exec bench/main.exe -- compare BENCH_baseline.json \
	  $$tmp/BENCH_smoke.json --threshold 250 --quality-threshold 5 \
	  || { rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp; \
	echo "bench-smoke: OK"

# Flight-recorder smoke gate (DESIGN.md §10): record a tiny 4-domain
# experiment with --trace-out, then have `bench trace-validate` re-parse
# the Chrome-trace JSON and require timeline events from at least two
# domains — proving the per-domain rings, the exporter, and the
# cross-domain merge all work end to end.
trace-smoke: build
	@tmp=$$(mktemp -d); \
	dune exec bench/main.exe -- table4 --scale 0.25 --domains 4 \
	  --trace-out $$tmp/trace.json >/dev/null; \
	dune exec bench/main.exe -- trace-validate $$tmp/trace.json \
	  || { rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp; \
	echo "trace-smoke: OK"

# Shard-and-merge smoke gate (DESIGN.md §14): cluster a synthetic file
# with --shards 4 while recording a flight-recorder trace, re-parse the
# trace (per-shard lanes land on worker-domain tracks, so it must show
# >= 2 domains), then run the audited 4-shard clustering gate over the
# same file (`cluseq check FILE --shards 4`: serial reclustering replay
# inside every shard + merged-result invariants). On multi-core
# machines the 4-shard run must also beat the 1-shard wall clock;
# single-core machines skip that assertion — there is no parallelism
# to win.
shard-smoke: build
	@tmp=$$(mktemp -d); \
	dune exec bin/cluseq_cli.exe -- generate --kind synthetic --num 360 --len 100 \
	  --clusters 3 --contexts 120 --seed 11 -o $$tmp/shard.tsv >/dev/null; \
	dune exec bin/cluseq_cli.exe -- cluster $$tmp/shard.tsv --k-init 2 \
	  --significance 8 --min-residual 8 --max-iterations 30 --seed 4 \
	  --shards 4 --domains 4 --trace-out $$tmp/trace.json >/dev/null 2>&1; \
	dune exec bench/main.exe -- trace-validate $$tmp/trace.json \
	  || { echo "shard-smoke: trace validation FAILED"; rm -rf $$tmp; exit 1; }; \
	dune exec bin/cluseq_cli.exe -- check $$tmp/shard.tsv --shards 4 --domains 4 \
	  || { echo "shard-smoke: audited 4-shard check FAILED"; rm -rf $$tmp; exit 1; }; \
	if [ "$$(nproc)" -gt 1 ]; then \
	  t1=$$( { time -p dune exec bin/cluseq_cli.exe -- cluster $$tmp/shard.tsv --k-init 2 \
	    --significance 8 --min-residual 8 --max-iterations 30 --seed 4 \
	    --shards 1 --domains 4 >/dev/null 2>&1; } 2>&1 | awk '/^real/ {print $$2}'); \
	  t4=$$( { time -p dune exec bin/cluseq_cli.exe -- cluster $$tmp/shard.tsv --k-init 2 \
	    --significance 8 --min-residual 8 --max-iterations 30 --seed 4 \
	    --shards 4 --domains 4 >/dev/null 2>&1; } 2>&1 | awk '/^real/ {print $$2}'); \
	  echo "shard-smoke: 1-shard $${t1}s, 4-shard $${t4}s"; \
	  awk -v a="$$t4" -v b="$$t1" 'BEGIN { exit !(a+0 < b+0) }' \
	    || { echo "shard-smoke: 4 shards not faster than 1 ($${t4}s >= $${t1}s)"; rm -rf $$tmp; exit 1; }; \
	else \
	  echo "shard-smoke: single core; skipping the wall-clock assertion"; \
	fi; \
	rm -rf $$tmp; \
	echo "shard-smoke: OK"

# Deterministic fuzz sweep over every correctness oracle (differential
# PST, brute-force similarity, the automaton kept current by in-place
# refresh vs a fresh compile, serial reclustering replay, 1-vs-4-domain
# determinism, sketch-gated vs full reclustering scan). A failure prints
# a minimized workload and a replay seed; sketch-gate false negatives
# (possible by design) are reported as notes, not failures.
fuzz: build
	dune exec bin/cluseq_cli.exe -- check --fuzz 200 --seed 42

# Full gate: build, unit tests, the fuzz sweep, the formatting check,
# the CLI metrics smoke run (generate -> cluster --metrics -> grep),
# the perf regression smoke gate, the flight-recorder trace smoke
# gate, and the shard-and-merge smoke gate.
check: build test fuzz fmt-check bench-smoke trace-smoke shard-smoke
	@tmp=$$(mktemp -d); \
	dune exec bin/cluseq_cli.exe -- generate --kind synthetic --num 60 --len 60 \
	  --clusters 3 -o $$tmp/smoke.tsv >/dev/null; \
	dune exec bin/cluseq_cli.exe -- cluster $$tmp/smoke.tsv --significance 4 \
	  --metrics=$$tmp/smoke.json >/dev/null 2>&1; \
	grep -q '"pst.insertions"' $$tmp/smoke.json \
	  && grep -q '"similarity.calls"' $$tmp/smoke.json \
	  && grep -q '"similarity.compile_seconds"' $$tmp/smoke.json \
	  && grep -q '"pst.refreshes"' $$tmp/smoke.json \
	  && grep -q '"cluseq.iter.reclustering_seconds"' $$tmp/smoke.json \
	  || { echo "check: metrics smoke test FAILED ($$tmp/smoke.json)"; exit 1; }; \
	rm -rf $$tmp; \
	echo "check: OK"

# Requires ocamlformat (pinned in .ocamlformat); not installed in every
# environment. `fmt` rewrites in place; `fmt-check` only diffs (no
# promotion) and is part of `check`, gated on the tool's presence so
# environments without ocamlformat still pass the rest of the gate.
fmt:
	dune build @fmt --auto-promote

fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt && echo "fmt-check: OK"; \
	else \
	  echo "fmt-check: ocamlformat is not installed; skipping."; \
	fi

# Line-coverage report for the test suite. bisect_ppx is optional (not
# baked into every build image), so the target gates on its presence
# rather than failing the build; when available, instrument with
#   (preprocess (pps bisect_ppx --conditional)) via BISECT_ENABLE.
coverage:
	@if ocamlfind query bisect_ppx >/dev/null 2>&1; then \
	  BISECT_ENABLE=yes dune runtest --force --instrument-with bisect_ppx \
	  && bisect-ppx-report summary --per-file; \
	else \
	  echo "coverage: bisect_ppx is not installed; skipping."; \
	  echo "  opam install bisect_ppx   # then re-run: make coverage"; \
	fi

clean:
	dune clean

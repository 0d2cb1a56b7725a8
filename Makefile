# Convenience targets; `make check` is the one CI should run.

# Recipes use bash features (`time -p` is a bash keyword; POSIX sh such
# as dash has no `time` builtin and may lack /usr/bin/time).
SHELL := /bin/bash

.PHONY: all build test bench bench-smoke trace-smoke shard-smoke suite-smoke exit-smoke examples-smoke check identity fuzz coverage fmt fmt-check clean

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
# refresh and patching vs a fresh compile, divergence profiles vs the
# tree walk, a tree with PST tails vs its all-slot reload, serial
# reclustering replay, 1-vs-4-domain determinism, score-column cache
# on vs off). A failure prints a minimized workload and a replay seed.
fuzz: build
	dune exec bin/cluseq_cli.exe -- check --fuzz 200 --seed 42

# Benchmark-of-record smoke gate: every workload of benchsuite/ at its
# smallest size, traced and untraced. The suite's output checks (a
# digest of results and scan census that must repeat on rerun, and
# Check.result_invariants on every clustering) run on each job.
suite-smoke: build
	python3 benchsuite/run.py smoke

# CLI error-path smoke gate: an unwritable output file, a missing or
# corrupt model (a trained model whose root line gains a next-symbol
# entry outside the alphabet, whose background loses its last entry, or
# whose alphabet line gains a symbol, among them, checked against the
# untouched model loading fine), an unreadable input, and a training run
# that finds no clusters must each exit 1 with a `cluseq: ` line on stderr, never 125
# (an uncaught exception). Explaining a sequence whose last-pass best
# cluster was dismissed by the final consolidation must exit 0. An
# out-of-range model option (a zero significance, depth, node budget or
# initial cluster count, a threshold below 1 or not finite, a negative
# residual or iteration cap) must exit 1 naming the option, on every
# command that clusters, and so must a shard or domain count outside
# 1-64 (which would otherwise run silently clamped); so must an
# out-of-range `generate` option (no
# sequences, clusters or symbols, an outlier fraction outside [0, 1),
# length 0, a separation that is not finite and above 0, a negative
# context count, too few proteins per family, fewer than one sentence
# per language).
exit-smoke: build
	@tmp=$$(mktemp -d); cli="dune exec bin/cluseq_cli.exe --"; fail=0; \
	$$cli generate --kind synthetic --num 60 --len 60 --clusters 3 -o $$tmp/in.tsv >/dev/null; \
	$$cli generate --kind synthetic --num 20 --len 20 --clusters 3 -o $$tmp/tiny.tsv >/dev/null; \
	echo "not a model" > $$tmp/corrupt.model; \
	$$cli train $$tmp/in.tsv --significance 4 -o $$tmp/good.model >/dev/null 2>&1; \
	awk '!done && /^node - / { $$0 = $$0 " 99:5"; done = 1 } 1' $$tmp/good.model \
	  > $$tmp/foreign-symbol.model; \
	awk '/^background / { sub(/ [^ ]*$$/, "") } 1' $$tmp/good.model \
	  > $$tmp/short-background.model; \
	awk '/^alphabet\t/ { $$0 = $$0 "\tA" } 1' $$tmp/good.model > $$tmp/wide-alphabet.model; \
	expect_1() { \
	  "$$@" >/dev/null 2>$$tmp/err; code=$$?; \
	  if [ $$code -ne 1 ] || ! grep -q '^cluseq: ' $$tmp/err; then \
	    echo "exit-smoke: exit $$code from: $${*:5}"; cat $$tmp/err; fail=1; \
	  fi; \
	}; \
	expect_0() { \
	  "$$@" >/dev/null 2>$$tmp/err; code=$$?; \
	  if [ $$code -ne 0 ]; then \
	    echo "exit-smoke: exit $$code from: $${*:5}"; cat $$tmp/err; fail=1; \
	  fi; \
	}; \
	expect_1 $$cli generate --num 10 -o /nonexistent/x.tsv; \
	expect_1 $$cli cluster $$tmp/in.tsv --significance 4 -o /nonexistent/a.tsv; \
	expect_1 $$cli train $$tmp/in.tsv --significance 4 -o /nonexistent/m; \
	expect_1 $$cli train $$tmp/tiny.tsv -o $$tmp/tiny.model; \
	expect_1 $$cli classify $$tmp/in.tsv -m $$tmp/missing.model; \
	expect_1 $$cli classify $$tmp/in.tsv -m $$tmp/corrupt.model; \
	expect_0 $$cli classify $$tmp/in.tsv -m $$tmp/good.model; \
	expect_1 $$cli classify $$tmp/in.tsv -m $$tmp/foreign-symbol.model; \
	expect_1 $$cli classify $$tmp/in.tsv -m $$tmp/short-background.model; \
	expect_1 $$cli classify $$tmp/in.tsv -m $$tmp/wide-alphabet.model; \
	expect_1 $$cli cluster $$tmp/missing.tsv; \
	expect_0 $$cli explain $$tmp/in.tsv 45 --significance 4; \
	for bad in "--significance 0" "--depth 0" "--max-nodes 0" "--k-init 0" \
	  "--threshold 0.5" "--threshold nan" "--threshold inf" \
	  "--min-residual=-1" "--max-iterations=-1" \
	  "--shards 0" "--shards 65" "--domains 0"; do \
	  expect_1 $$cli cluster $$tmp/in.tsv $$bad; \
	done; \
	expect_1 $$cli train $$tmp/in.tsv --significance 0 -o $$tmp/bad.model; \
	expect_1 $$cli evaluate $$tmp/in.tsv --threshold nan; \
	expect_1 $$cli explain $$tmp/in.tsv 45 --max-nodes 0; \
	for bad in "--num 0" "--clusters 0" "--sigma 0" "--outliers 1.5" "--len 0" \
	  "--separation nan" "--separation 0" "--separation=-1" "--contexts=-1" \
	  "--kind protein --num 0" "--kind protein --len 0" "--kind language --num 2"; do \
	  expect_1 $$cli generate $$bad -o $$tmp/bad.tsv; \
	done; \
	rm -rf $$tmp; \
	[ $$fail -eq 0 ] || exit 1; \
	echo "exit-smoke: OK"

# Examples smoke gate: run every program under examples/ (a few
# seconds together) and require exit 0. `dune build` only compiles
# them; this catches an example that raises or fails when run.
examples-smoke: build
	@fail=0; \
	for src in examples/*.ml; do \
	  ex=$$(basename $$src .ml); \
	  dune exec examples/$$ex.exe >/dev/null 2>&1 \
	    || { echo "examples-smoke: examples/$$ex.exe exited $$?"; fail=1; }; \
	done; \
	[ $$fail -eq 0 ] || exit 1; \
	echo "examples-smoke: OK"

# Full gate: build, unit tests, the fuzz sweep, the formatting check,
# the CLI metrics smoke run (generate -> cluster --metrics -> grep),
# the perf regression smoke gate, the flight-recorder trace smoke
# gate, the shard-and-merge smoke gate, the benchmark suite smoke, the
# CLI error-path smoke, and a run of every example program.
check: build test fuzz fmt-check bench-smoke trace-smoke shard-smoke suite-smoke exit-smoke examples-smoke
	@tmp=$$(mktemp -d); \
	dune exec bin/cluseq_cli.exe -- generate --kind synthetic --num 60 --len 60 \
	  --clusters 3 -o $$tmp/smoke.tsv >/dev/null; \
	dune exec bin/cluseq_cli.exe -- cluster $$tmp/smoke.tsv --significance 4 \
	  --metrics=$$tmp/smoke.json >/dev/null 2>&1; \
	grep -q '"pst.insertions"' $$tmp/smoke.json \
	  && grep -q '"similarity.calls"' $$tmp/smoke.json \
	  && grep -q '"similarity.compile_seconds"' $$tmp/smoke.json \
	  && grep -q '"pst.refreshes"' $$tmp/smoke.json \
	  && grep -q '"pst.patches"' $$tmp/smoke.json \
	  && grep -q '"similarity.refresh_seconds"' $$tmp/smoke.json \
	  && grep -q '"pst.prune_seconds"' $$tmp/smoke.json \
	  && grep -q '"pst.store_words_fresh"' $$tmp/smoke.json \
	  && grep -q '"pst.store_words_reused"' $$tmp/smoke.json \
	  && grep -q '"pst.tail_retraces"' $$tmp/smoke.json \
	  && grep -q '"pst.head_splits"' $$tmp/smoke.json \
	  && grep -q '"cluseq.scan.pairs_reused"' $$tmp/smoke.json \
	  && grep -q '"cluseq.iter.reclustering_seconds"' $$tmp/smoke.json \
	  && grep -q '"cluseq.drift_seconds"' $$tmp/smoke.json \
	  || { echo "check: metrics smoke test FAILED ($$tmp/smoke.json)"; exit 1; }; \
	rm -rf $$tmp; \
	echo "check: OK"

# Byte-identity against a parent build, for a change that must not move
# any output. Not part of `check`: it needs a second, built checkout.
#   git archive <rev> | tar -x -C DIR
#   (cd DIR && dune build --root . bin/cluseq_cli.exe)
#   make identity PARENT=DIR
# scripts/identity.py runs 96 `cluster` (8 of them at significance 2,
# the smallest with PST tails, and 1, where tails are off; all with -v,
# so every iteration's stats lines are compared), 8 `train`
# (each model classified back at 1 and at 4 domains) and 21 `explain`
# runs with both CLIs and exits 1 if any exit status, stdout (less its `time:`),
# -o file, model, classify output or journal (less its timestamps)
# differs. Differing --metrics counters and gauges are printed as notes
# (gc.*, par.domain_busy_ratio* and histograms are not compared;
# pst.store_words_fresh/_reused depend on which domain's spare list
# serves a growth, so their split is compared only in --domains 1 runs
# and their sum in every run).
identity: build
	@[ -n "$(PARENT)" ] || { echo "identity: set PARENT=DIR, a built parent checkout"; exit 1; }
	python3 scripts/identity.py "$(PARENT)"

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

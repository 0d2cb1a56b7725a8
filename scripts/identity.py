#!/usr/bin/env python3
"""Byte-identity of this checkout's `cluseq` against a parent build.

Runs the same matrix of `cluster`, `train` + `classify` and `explain`
commands with two CLI binaries, each in its own scratch directory, and
compares what they leave behind:

  * exit status and stdout (with the wall-clock `time: ...s` stripped);
  * `-o` assignment files, model files and `classify` output;
  * journals, with each record's `"ts_ns":N` stripped.

Any difference there is a failure (exit 1). `--metrics` counters and
gauges that differ are printed as notes only, because a change may
legitimately do less work; histograms are timings and are skipped, as
are the `gc.*` and `par.domain_busy_ratio*` gauges.

Each difference line ends with the parent's `pst.prunings` for its run
(summed over the run's commands that write metrics), and the last line
counts the differing runs whose parent never pruned: a change to the
pruning order alone may move only runs that pruned.

The matrix: two generated inputs (240 synthetic sequences of length 80,
240 protein sequences of length 150); `cluster` under eleven option sets
x `--domains 1/4` x default/`--significance 6` on each (88 runs), and
with `--max-nodes 300` at `--significance 2` (the smallest at which the
tree keeps contexts seen once as tails) and `--significance 1` (no
tails) x `--domains 1/4` on each (8 runs); `train` under default/`--shards 3` x default/`--significance 6` on each,
each model classified back on its input at `--domains 1/4` (8 runs, 16
`classify`); `explain` of five sequences x each input x `--shards 1/2`,
plus the case whose best cluster the final consolidation dismissed (21
runs).

Usage:
  python3 scripts/identity.py PARENT_DIR [--cli PATH] [--keep DIR]

PARENT_DIR is a checkout with `_build/default/bin/cluseq_cli.exe` built
in it, e.g.
  git archive <rev> | tar -x -C DIR && (cd DIR && dune build --root . bin/cluseq_cli.exe)
`--cli` defaults to this checkout's `_build/default/bin/cluseq_cli.exe`.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_REL = os.path.join("_build", "default", "bin", "cluseq_cli.exe")

TIME_RE = re.compile(rb"time: [0-9.]+s")
TS_RE = re.compile(rb'"ts_ns":[0-9]+')

INPUTS = {
    "syn.tsv": ["--kind", "synthetic", "--num", "240", "--len", "80"],
    "prot.tsv": ["--kind", "protein", "--num", "240", "--len", "150"],
}

CLUSTER_OPTIONS = [
    [],
    ["--max-nodes", "1500"],
    ["--max-nodes", "300"],
    ["--no-index"],
    ["--shards", "2"],
    ["--order", "random"],
    ["--order", "cluster-based"],
    ["--depth", "4"],
    ["--no-adjust", "--threshold", "3"],
    ["--shards", "3", "--max-nodes", "1500"],
    ["--shards", "4"],
]

SIGNIFICANCES = [[], ["--significance", "6"]]

# Small significances under a node budget that prunes: 2 is the
# smallest at which PST tails exist, 1 runs with them off.
TAIL_OPTIONS = [
    ["--significance", "2", "--max-nodes", "300"],
    ["--significance", "1", "--max-nodes", "300"],
]
EXPLAIN_IDS = ["0", "45", "99", "150", "239"]


def skipped_metric(name):
    return name.startswith("gc.") or name.startswith("par.domain_busy_ratio")


class Side:
    """One binary and the scratch directory its runs write into."""

    def __init__(self, cli, work):
        self.cli = cli
        self.work = work
        os.makedirs(work, exist_ok=True)

    def run(self, args):
        p = subprocess.run([self.cli] + args, cwd=self.work, capture_output=True)
        return p.returncode, TIME_RE.sub(b"time: s", p.stdout)

    def read(self, name, journal=False):
        path = os.path.join(self.work, name)
        if not os.path.exists(path):
            return None
        with open(path, "rb") as f:
            data = f.read()
        return TS_RE.sub(b'"ts_ns":', data) if journal else data

    def metrics(self, name):
        path = os.path.join(self.work, name)
        if not os.path.exists(path):
            return {}
        with open(path) as f:
            d = json.load(f)
        flat = {}
        for kind in ("counters", "gauges"):
            for k, v in d.get(kind, {}).items():
                if not skipped_metric(k):
                    flat[k] = v
        return flat

    def clean(self, names):
        for name in names:
            path = os.path.join(self.work, name)
            if os.path.exists(path):
                os.remove(path)


class Matrix:
    def __init__(self, parent, change):
        self.parent = parent
        self.change = change
        self.runs = {}
        self.failures = []
        self.notes = []
        self.differing = 0
        self.differing_unpruned = 0

    def case(self, label, steps):
        """Run [steps], a list of (args, files, journals, metrics) with
        file names relative to each side's directory, on both sides."""
        self.runs[label] = self.runs.get(label, 0) + 1
        diffs = []
        prunings = 0
        for args, files, journals, metrics in steps:
            outputs = files + journals + ([metrics] if metrics else [])
            for side in (self.parent, self.change):
                side.clean(outputs)
            p_code, p_out = self.parent.run(args)
            c_code, c_out = self.change.run(args)
            what = " ".join(args)
            if p_code != c_code:
                diffs.append(f"{label}: exit {p_code} -> {c_code}: {what}")
            if p_out != c_out:
                diffs.append(f"{label}: stdout differs: {what}")
            for name in files + journals:
                j = name in journals
                if self.parent.read(name, j) != self.change.read(name, j):
                    diffs.append(f"{label}: {name} differs: {what}")
            if metrics:
                pm, cm = self.parent.metrics(metrics), self.change.metrics(metrics)
                prunings += pm.get("pst.prunings", 0)
                for k in sorted(set(pm) | set(cm)):
                    if pm.get(k) != cm.get(k):
                        self.notes.append(f"{label}: {k} {pm.get(k)} -> {cm.get(k)}")
        if diffs:
            self.differing += 1
            self.differing_unpruned += prunings == 0
            self.failures += [f"{d} (parent pst.prunings {prunings})" for d in diffs]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="parent checkout with the CLI built in it")
    ap.add_argument("--cli", default=os.path.join(ROOT, CLI_REL), help="CLI under test")
    ap.add_argument("--keep", help="write the runs' files here and keep them")
    a = ap.parse_args()
    parent_cli = os.path.join(os.path.abspath(a.parent), CLI_REL)
    for cli in (parent_cli, a.cli):
        if not os.access(cli, os.X_OK):
            sys.exit(f"identity: no built CLI at {cli}")
    base = a.keep or tempfile.mkdtemp(prefix="cluseq-identity-")
    try:
        m = Matrix(Side(parent_cli, os.path.join(base, "parent")), Side(a.cli, os.path.join(base, "change")))
        for name, gen in INPUTS.items():
            m.case("generate", [(["generate"] + gen + ["-o", name], [name], [], None)])
        m.case(
            "generate",
            [(["generate", "--kind", "synthetic", "--num", "60", "--len", "60", "--clusters", "3", "-o", "in.tsv"], ["in.tsv"], [], None)],
        )
        obs = ["--journal", "j.jsonl", "--metrics=m.json"]
        for inp in INPUTS:
            for opts in CLUSTER_OPTIONS:
                for domains in ("1", "4"):
                    for sig in SIGNIFICANCES:
                        args = ["cluster", inp] + opts + ["--domains", domains] + sig
                        m.case("cluster", [(args + ["-o", "out.tsv"] + obs, ["out.tsv"], ["j.jsonl"], "m.json")])
            for opts in TAIL_OPTIONS:
                for domains in ("1", "4"):
                    args = ["cluster", inp] + opts + ["--domains", domains]
                    m.case("cluster", [(args + ["-o", "out.tsv"] + obs, ["out.tsv"], ["j.jsonl"], "m.json")])
        for inp in INPUTS:
            for shards in ([], ["--shards", "3"]):
                for sig in SIGNIFICANCES:
                    m.case(
                        "train",
                        [
                            (["train", inp] + shards + sig + ["-o", "model"] + obs, ["model"], ["j.jsonl"], "m.json"),
                        ]
                        + [
                            (["classify", inp, "-m", "model", "--domains", d, "--metrics=c.json"], [], [], "c.json")
                            for d in ("1", "4")
                        ],
                    )
        for inp in INPUTS:
            for seq in EXPLAIN_IDS:
                for shards in ("1", "2"):
                    args = ["explain", inp, seq, "--significance", "6", "--shards", shards]
                    m.case("explain", [(args + obs, [], ["j.jsonl"], "m.json")])
        m.case("explain", [(["explain", "in.tsv", "45", "--significance", "4", "--metrics=m.json"], [], [], "m.json")])
        for note in m.notes:
            print(f"note: {note}")
        for failure in m.failures:
            print(f"DIFF: {failure}")
        runs = ", ".join(f"{n} {label}" for label, n in m.runs.items())
        if m.failures:
            print(f"identity: {len(m.failures)} differences over {runs}")
            print(f"identity: {m.differing} runs differ, {m.differing_unpruned} of them never pruned at the parent")
            return 1
        print(f"identity: identical over {runs} ({len(m.notes)} metric notes)")
        return 0
    finally:
        if not a.keep:
            shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

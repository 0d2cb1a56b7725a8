#!/usr/bin/env python3
"""Entry point of the benchmark of record (see README.md).

One workload, one run:
    python3 benchsuite/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds benchsuite/suite.exe from source with dune, runs it from the root
of the checkout, and passes its output through. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A failed build, a failed output check or a
metric missing from the output exits non-zero.

Tools built on it:
    run.py sweep --out FILE [--seeds 1-10]
        runs every workload untraced once per seed and appends the results
        to FILE
    run.py agree A.jsonl [B.jsonl]
        per (workload, end-to-end metric): medians, quartiles and spread of
        each set, and whether B agrees with A within BENCHMARK.json's bounds
        (accuracy and ARI: paired per seed, within 0.005 absolute)
    run.py smoke
        every workload at a tiny size, untraced and traced
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "benchsuite", "suite.exe")
RUN_TIMEOUT_S = 170


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout, or when this script
    is stopped, kill the whole group (dune's compiler children included)
    and wait for it. Returns (exit code, stdout), or (None, "") on
    timeout."""
    with subprocess.Popen(cmd, cwd=ROOT, text=True, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
            return proc.returncode, out or ""
        except BaseException as e:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            if isinstance(e, subprocess.TimeoutExpired):
                return None, ""
            raise


def build():
    """Build the suite; dune's own output goes to stderr."""
    try:
        code, _ = run_group(
            ["dune", "build", "--root", ".", "--cache=disabled", "./benchsuite/suite.exe"],
            timeout=850, stdout=sys.stderr, stderr=sys.stderr,
            env=dict(os.environ, DUNE_CACHE="disabled"))
    except OSError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return False
    return code == 0 and os.path.exists(EXE)


def run_suite(workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (exit code, stdout lines, parsed result)."""
    cmd = [EXE, workload, "--seed", str(seed), "--seconds", str(seconds)]
    cmd += ["--traced"] if trace else []
    cmd += list(extra)
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    if code is None:
        print(f"{workload}: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, [], None
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return code, lines, result


def missing_metrics(result, trace):
    """Names of the BENCHMARK.json metrics the result lacks or mislabels."""
    wanted = spec()["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    return [m["name"] for m in wanted
            if m["name"] not in got or got[m["name"]].get("unit") != m["unit"]]


def run_one(workload, seed, seconds, trace, extra=()):
    code, lines, result = run_suite(workload, seed, seconds, trace, extra)
    if result is None:
        print("\n".join(lines), file=sys.stderr)
        return code or 1, None
    missing = missing_metrics(result, trace)
    if missing:
        print("\n".join(lines[:-1]))
        print(f"{workload}: metrics missing: {', '.join(missing)}", file=sys.stderr)
        return 1, None
    print("\n".join(lines), flush=True)
    return code, result


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def sweep(args):
    if not build():
        return 2
    seconds = spec()["run_seconds"]
    rev = git_rev()
    status = 0
    with open(args.out, "a") as out:
        for seed in seed_range(args.seeds):
            for w in spec()["workloads"]:
                start = time.monotonic()
                code, result = run_one(w["name"], seed, seconds, 0)
                wall = time.monotonic() - start
                status = status or code
                print(f"# {w['name']} seed {seed}: exit {code}, {wall:.1f} s", file=sys.stderr)
                if result is not None:
                    out.write(json.dumps({"workload": w["name"], "seed": seed, "rev": rev,
                                          "wall_s": wall, "result": result}) + "\n")
                    out.flush()
    return status


def load_set(path):
    """{(workload, metric): {seed: value}}"""
    by_key = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                by_key.setdefault((rec["workload"], name), {})[rec["seed"]] = m["value"]
    return by_key


def summary(values):
    """Median, quartiles and the quartile spread as a share of the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


# Quality is a deterministic function of the seed, so set B is compared
# with set A seed by seed, against an absolute bound on the worsening.
PAIRED = {"accuracy": 0.005, "ari": 0.005}


def agree(args):
    metrics = {m["name"]: m for m in spec()["end_to_end"]}
    sets = [load_set(args.a)] + ([load_set(args.b)] if args.b else [])
    status = 0
    print(f"{'workload':18} {'metric':12} {'median A':>11} {'spread A':>8}"
          + (f" {'median B':>11} {'spread B':>8} {'worse':>7}  verdict" if args.b else "  steady"))
    for (workload, name) in sorted(sets[0]):
        if name not in metrics:
            continue
        bound = metrics[name]["bound"]
        lower = metrics[name]["better"] == "lower"
        a_by_seed = sets[0][(workload, name)]
        a = summary(list(a_by_seed.values()))
        row = f"{workload:18} {name:12} {a[0]:11.5g} {a[3]:8.3f}"
        if not args.b:
            steady = a[3] < bound / 3
            print(row + ("  yes" if steady else "  NO"))
            status = status or (0 if steady else 1)
            continue
        b_by_seed = sets[1].get((workload, name), {})
        b = summary(list(b_by_seed.values()) or [float("nan")])
        if name in PAIRED:
            # Worsening per shared seed, in absolute units; judged by its
            # median and by the spread of the per-seed differences.
            bound = PAIRED[name]
            seeds = sorted(set(a_by_seed) & set(b_by_seed))
            diffs = [(b_by_seed[s] - a_by_seed[s]) if lower else (a_by_seed[s] - b_by_seed[s])
                     for s in seeds] or [float("nan")]
            worse = statistics.median(diffs)
            q1, _, q3 = statistics.quantiles(diffs, n=4) if len(diffs) > 1 else (worse, worse, worse)
            noisy = q3 - q1 > bound
            how = f"paired over {len(seeds)} seeds, absolute bound {bound}"
        else:
            worse = ((b[0] - a[0]) if lower else (a[0] - b[0])) / abs(a[0])
            noisy = max(a[3], b[3]) > bound
            how = f"q {a[1]:.5g}..{a[2]:.5g} / {b[1]:.5g}..{b[2]:.5g}, bound {bound}"
        if noisy:
            verdict = "unresolved"
        elif not worse <= bound:
            verdict = "differs"
        else:
            verdict = "agree"
        status = status or (0 if verdict == "agree" else 1)
        print(row + f" {b[0]:11.5g} {b[3]:8.3f} {worse:7.3f}  {verdict}  ({how})")
    return status


def smoke(_args):
    if not build():
        return 2
    status = 0
    for w in spec()["workloads"]:
        for trace in (0, 1):
            code, result = run_one(w["name"], 1, 0.5, trace, ["--size", "smoke"])
            if code or result is None or result["failed"]:
                print(f"smoke: {w['name']} --trace {trace} failed", file=sys.stderr)
                status = 1
    return status


def main(argv):
    if argv and argv[0] in ("sweep", "agree", "smoke"):
        p = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        if argv[0] == "sweep":
            p.add_argument("--out", required=True)
            p.add_argument("--seeds", default="1-10")
        elif argv[0] == "agree":
            p.add_argument("a")
            p.add_argument("b", nargs="?")
        args = p.parse_args(argv[1:])
        return {"sweep": sweep, "agree": agree, "smoke": smoke}[argv[0]](args)
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not build():
        return 2
    code, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    # A SIGTERM unwinds through run_group, which stops the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Same-host A/B performance gate over srlbench.

Usage (from anywhere inside the repository):

    python3 tools/bench_gate.py BASE

BASE is a git revision: a SHA, a branch or a tag. The gate checks it
out as a git worktree under .bench_build/ and runs every workload of
BENCHMARK.json with `python3 srlbench/run.py --trace 0`, once in the
base checkout and once in the working tree per round. The two sides
take turns and the side that runs first alternates from round to
round, so a drift in the host's speed falls on both alike. Round r
gives both sides seed r + 1. Each side builds its own srlbench (the
first run of a side builds it; the build is outside every metric).

The gate fails when, on any workload:
  - a run prints no result line or reports "correct": false;
  - the working tree fails a larger share of its operations than the
    base does;
  - an end-to-end metric's median over the rounds is worse in the
    working tree than in the base by more than that metric's `bound`
    in BENCHMARK.json (a fraction of the base's median).

Both sides run on the same host within minutes of each other, so the
verdict speaks of the code, not of the machine. There is no committed
absolute number to compare against.

Exit status: 0 = pass, 1 = fail, 2 = bad usage or BASE cannot be
checked out.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

# At least ten pairs of runs, with one to spare: setup_s is one sample
# per run, and its run-to-run spread on a shared 4-core host (IQR up to
# ~38% of the median) is close to its 0.25 bound.
ROUNDS = 11
SECONDS = 6

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args, cwd=ROOT):
    return subprocess.run(["git", "-C", cwd, *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def checkout_base(rev):
    """Path of a worktree holding @rev, made or reused."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(ROOT, ".bench_build", "base-" + sha[:12])
    if os.path.isdir(path):
        try:
            if git("rev-parse", "HEAD", cwd=path) == sha:
                return sha, path
        except subprocess.CalledProcessError:
            pass
        shutil.rmtree(path)
    git("worktree", "prune")
    git("worktree", "add", "--detach", "--force", path, sha)
    return sha, path


def run_once(root, workload, seed):
    """One srlbench run; its parsed result line, or None and a reason."""
    cmd = [sys.executable, "srlbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            out, err = child.communicate()
        except BaseException:
            # run.py's SIGTERM handler can hang waiting for its child,
            # so stop run.py, the benchmark and its daemon together.
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        tail = "\n".join(err.strip().splitlines()[-15:])
        return None, "no result line (exit %d)\n%s" % (child.returncode,
                                                      tail)
    if result.get("correct") is not True:
        return result, '"correct": false'
    return result, None


def worse_by(metric, base, tree):
    """Fraction by which @tree is worse than @base (negative: better)."""
    if base == 0:
        return 0.0 if tree == base else float("inf")
    change = (tree - base) / base
    return -change if metric["better"] == "higher" else change


def spread(vals):
    """Interquartile range over the median."""
    if len(vals) < 2 or statistics.median(vals) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def gate_workload(name, metrics, results):
    """Print one workload's comparison; return its list of failures."""
    fails = []
    share = {}
    for side, runs in results.items():
        attempted = sum(r.get("attempted", 0) for r in runs)
        failed = sum(r.get("failed", 0) for r in runs)
        share[side] = failed / attempted if attempted else 0.0
    print("%s: failed share base %.4f, tree %.4f" %
          (name, share["base"], share["tree"]))
    if share["tree"] > share["base"]:
        fails.append("%s: failed-operation share %.4f > base %.4f" %
                     (name, share["tree"], share["base"]))
    print("  %-20s %12s %9s %12s %9s %6s" %
          ("metric", "base median", "base IQR", "tree median", "worse by",
           "bound"))
    for m in metrics:
        vals = {side: [r["metrics"][m["name"]]["value"] for r in runs
                       if m["name"] in r["metrics"]]
                for side, runs in results.items()}
        if any(len(vals[side]) != len(results[side]) for side in vals):
            print("  %-20s missing" % m["name"])
            fails.append("%s %s: missing from a result line" %
                         (name, m["name"]))
            continue
        base, tree = (statistics.median(vals[s]) for s in ("base", "tree"))
        worse = worse_by(m, base, tree)
        verdict = "FAIL" if worse > m["bound"] else "ok"
        print("  %-20s %12.5g %8.1f%% %12.5g %+8.1f%% %5.0f%% %s" %
              (m["name"], base, 100 * spread(vals["base"]), tree,
               100 * worse, 100 * m["bound"], verdict))
        if verdict == "FAIL":
            fails.append("%s %s: %.1f%% worse than base (bound %.0f%%)" %
                         (name, m["name"], 100 * worse, 100 * m["bound"]))
    return fails


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print("usage: tools/bench_gate.py BASE", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    try:
        sha, base_root = checkout_base(sys.argv[1])
    except subprocess.CalledProcessError as e:
        print("bench_gate: cannot check out %s: %s" %
              (sys.argv[1], e.stderr.strip()), file=sys.stderr)
        return 2
    print("bench_gate: base %s in %s, %d rounds of %d s per workload" %
          (sha[:12], os.path.relpath(base_root, ROOT), ROUNDS, SECONDS),
          flush=True)

    sides = {"base": base_root, "tree": ROOT}
    fails = []
    for w in bench["workloads"]:
        name = w["name"]
        results = {"base": [], "tree": []}
        for r in range(ROUNDS):
            order = ("base", "tree") if r % 2 == 0 else ("tree", "base")
            for side in order:
                result, problem = run_once(sides[side], name, r + 1)
                if problem:
                    fails.append("%s %s seed %d: %s" %
                                 (name, side, r + 1, problem))
                if result is not None:
                    results[side].append(result)
        if all(results.values()):
            fails += gate_workload(name, bench["end_to_end"], results)
        sys.stdout.flush()

    for line in fails:
        print("bench_gate: FAIL " + line)
    print("bench_gate: %s against %s" %
          ("FAIL" if fails else "PASS", sha[:12]))
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())

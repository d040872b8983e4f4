#!/usr/bin/env python3
"""srlbench entry point: build srlsim in Release, then run one workload.

Usage (from the repository root):

    python3 srlbench/run.py --workload fig6_sweep --seed 1 --seconds 15 --trace 0
    python3 srlbench/run.py --selftest

The build lives in .bench_build/srlbench (CMake, Ninja when available)
and is reused when up to date. The workload's result is the last line of
stdout, a JSON object (see srlbench/README.md). The command refuses to
run when an environment variable that changes what srlsim simulates or
how it is timed is set.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "srlbench")

# Each of these changes what is simulated (SRL_NO_DISCARD), where the
# uop stream comes from (SRLSIM_WORKLOAD_CACHE) or adds debug output to
# the timed loop (SRLSIM_DEBUG).
FORBIDDEN_ENV = ("SRL_NO_DISCARD", "SRLSIM_WORKLOAD_CACHE", "SRLSIM_DEBUG")


def log(msg):
    print("srlbench: " + msg, file=sys.stderr, flush=True)


def commit_id():
    """The git commit when there is one, and a digest of the sources."""
    try:
        head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        head = "none"
    digest = hashlib.sha256()
    for top in ("src", "examples", "srlbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return head, digest.hexdigest()[:16]


def run_child(cmd, **kw):
    """Run @cmd; on SIGTERM/SIGINT stop it and wait before leaving."""
    child = subprocess.Popen(cmd, **kw)

    def stop(signum, _frame):
        child.terminate()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait()
    finally:
        for s, h in old.items():
            signal.signal(s, h)
        if child.poll() is None:
            child.kill()
            child.wait()


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "processor.hh")):
        log("srlsim sources not found next to srlbench/; nothing to build")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_child(cmd, stdout=sys.stderr) != 0:
            log("configure failed")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if run_child(cmd, stdout=sys.stderr) != 0:
        log("build failed")
        return False
    return True


def main():
    os.chdir(ROOT)
    bad = [v for v in FORBIDDEN_ENV if v in os.environ]
    if bad:
        log("refusing to run with %s set: it changes what is simulated "
            "or how it is timed" % ", ".join(bad))
        return 2
    selftest = sys.argv[1:] == ["--selftest"]
    target = "srlbench_selftest" if selftest else "srlbench"
    if not build([target, "serve_tool"]):
        return 1
    head, digest = commit_id()
    print("srlbench: Release build, commit %s, sources %s" % (head, digest),
          flush=True)
    exe = os.path.join(BUILD, target)
    return run_child([exe] + ([] if selftest else sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the perfbench load generator from this checkout; run one workload.

    python3 perfbench/run.py --workload decompose|answer|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
`perfbench` and `hypertree_serve` (Release) under $CARGO_TARGET_DIR
(default .bench_build)/perfbench; later runs only rebuild what changed.
The load generator's informational lines are passed through; the last
line of stdout is the JSON result:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

Exits non-zero, without a result line, when the repository sources are
missing, the build fails, or perfbench does not produce a valid result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("decompose", "answer", "serve")
RUN_TIMEOUT_EXTRA_S = 120


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may not
    be a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    tops = [os.path.join(ROOT, "src"), HERE,
            os.path.join(ROOT, "tools", "hypertree_serve.cc")]
    files = []
    for top in tops:
        if os.path.isfile(top):
            files.append(top)
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "sources-" + source_digest()


def build(build_dir):
    """Configure once, then build the two targets; output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench",
           "hypertree_serve"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != wanted or result["attempted"] < 1:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/hypertree_serve.cc",
                   "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no %s in %s: run from a hypertree checkout" % (needed, ROOT))

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    build(build_dir)

    env = dict(os.environ)
    # Keep every file the program writes inside the checkout, and run the
    # join engine with its default (unlimited) memory budget.
    env["TMPDIR"] = work_dir
    env["HYPERTREE_SPILL_DIR"] = work_dir
    env.pop("HYPERTREE_MEMORY_BUDGET", None)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--spec-dir=" + os.path.join(HERE, "spec"),
           "--work-dir=" + work_dir,
           "--serve-bin=" + os.path.join(build_dir, "hypertree_serve"),
           "--commit=" + commit_id()]
    # Own process group, so a timeout also takes down the server child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=args.seconds + RUN_TIMEOUT_EXTRA_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("perfbench timed out")
    sys.stderr.write(err)
    lines = out.splitlines()
    result = valid_result(lines[-1], args.trace) if lines else None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(out)
        fail("perfbench exited %d without a valid result" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

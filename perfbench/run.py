#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the benchmark (perfbench/CMakeLists.txt,
Release) into $CARGO_TARGET_DIR or .bench_build, runs one workload, checks
that the result names exactly the metrics BENCHMARK.json declares for the
mode, and prints the result object as the last line of stdout. Build output
and diagnostics go to stderr. Any failure exits non-zero without printing a
result. --self-test builds and runs the benchmark's own tests and checks the
metric catalog against BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench-release")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) are missing; nothing to build")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out


def source_id():
    """Digest of the sources the benchmark builds, since a checkout need not
    be a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    digest = h.hexdigest()[:16]
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return f"src-{digest}"  # never look above the checkout
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0:
            return f"{commit.stdout.strip()[:12]}+src-{digest}"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return f"src-{digest}"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def catalog(binary):
    """(workloads, {mode: [(name, unit)]}) as the binary reports them."""
    p = subprocess.run([binary, "--list-metrics"], capture_output=True,
                       text=True, timeout=60)
    if p.returncode:
        fail("--list-metrics failed")
    workloads, metrics = [], {"end_to_end": [], "per_layer": []}
    for line in p.stdout.splitlines():
        parts = line.split()
        if parts[0] == "workload":
            workloads.append(parts[1])
        else:
            metrics[parts[0]].append((parts[1], parts[2]))
    return workloads, metrics


def check_catalog(spec, workloads, metrics):
    """Problems with BENCHMARK.json against the binary's catalog."""
    problems = []
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(workloads):
        problems.append(f"workloads {declared} != binary's {workloads}")
    for mode in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in spec[mode]]
        if want != metrics[mode]:
            problems.append(f"{mode} metrics differ from the binary's catalog")
    names = declared + [m["name"] for mode in ("end_to_end", "per_layer")
                        for m in spec[mode]]
    for n in names:
        if not NAME_RE.match(n):
            problems.append(f"bad name {n!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for mode in ("end_to_end", "per_layer"):
        for m in spec[mode]:
            if not UNIT_RE.match(m["unit"]):
                problems.append(f"bad unit {m['unit']!r}")
    return problems


def validate(result, spec, traced):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed"
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        return f"metric names {sorted(set(got) ^ set(want))}"
    for name, m in got.items():
        if m.get("unit") != want[name] or not isinstance(
                m.get("value"), (int, float)):
            return f"metric {name}"
    return None


def self_test():
    out = build(["coda_perfbench", "perfbench_test"])
    if subprocess.run([os.path.join(out, "perfbench_test")]).returncode:
        fail("perfbench_test failed")
    workloads, metrics = catalog(os.path.join(out, "coda_perfbench"))
    problems = check_catalog(load_spec(), workloads, metrics)
    for p in problems:
        log(p)
    if problems:
        sys.exit(1)
    log("self-test passed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    coda_env = sorted(k for k in os.environ if k.startswith("CODA_"))
    if coda_env:
        fail("refusing to run with " + ", ".join(coda_env) + " set", 2)
    if args.self_test:
        self_test()
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required", 2)
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}", 2)

    out = build(["coda_perfbench"])
    scratch = os.path.join(out, f"scratch-{os.getpid()}")
    cmd = [os.path.join(out, "coda_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", scratch,
           "--source", source_id()]
    t0 = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode or not lines:
        fail(f"benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not a JSON object")
    problem = validate(result, spec, args.trace == 1)
    if problem:
        fail("result does not match BENCHMARK.json: " + problem)
    log(f"{args.workload} seed {args.seed} finished in "
        f"{time.time() - t0:.1f} s")
    # The provenance line (seed, trace size, hardware, build, sources), then
    # the result object, verbatim, as the last line.
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()

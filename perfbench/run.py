#!/usr/bin/env python3
"""The repository's benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds perfbench/ (and with it the library
sources under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the named workload in a fresh process.
Prints one `name value unit` line per metric, then the result JSON as the
last line of stdout: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. Exits non-zero when the
build fails, an op or output check fails, or the result does not match
BENCHMARK.json. Spans of a traced run go to .bench_build/traces/.

--self-test runs every workload briefly twice, once clean and once with
its answers and sketch deliberately corrupted, and passes only when the
clean runs pass every check and the corrupted runs report ok_ops_frac < 1
and fail.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")
    return Path(target) / "perfbench"


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "core" / "count_sketch.h").is_file():
        log(f"no streamfreq sources under {ROOT / 'src'}; nothing to build")
        return None
    out = build_dir()
    # Compiler temporaries stay inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            log("cmake configure failed")
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr, env=env,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        log("build failed")
        return None
    return out / "perfbench"


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, trace, corrupt=False):
    """Runs one workload; returns (exit code, stdout lines, parsed result)."""
    workdir = Path(".bench_build") / "run" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", str(workdir)]
    if trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.tsv")]
    if corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def validate(result, wanted):
    """Problems with `result` against the metric list `wanted`."""
    if not isinstance(result, dict):
        return ["no result JSON on the last line"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed must be a whole number")
    metrics = result.get("metrics", {})
    names = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(names):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(names) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(names))}")
    for name, unit in names.items():
        m = metrics.get(name)
        if not isinstance(m, dict):
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
    return problems


def ok_ops_frac(result):
    return (result or {}).get("metrics", {}).get("ok_ops_frac", {}).get("value")


def self_test(binary, spec):
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        before = len(failures)
        code, _, result = run_workload(binary, name, 1, 2, False)
        ok_frac = ok_ops_frac(result)
        if code != 0 or ok_frac != 1:
            failures.append(f"{name}: clean run exit {code}, "
                            f"ok_ops_frac {ok_frac}")
        code, _, result = run_workload(binary, name, 1, 2, False, corrupt=True)
        ok_frac = ok_ops_frac(result)
        if code == 0 or ok_frac is None or ok_frac >= 1:
            failures.append(f"{name}: corrupted run exit {code}, ok_ops_frac "
                            f"{ok_frac} (checks did not fire)")
        status = "ok" if len(failures) == before else "FAILED"
        log(f"self-test {name}: {status}")
    for f in failures:
        log(f"self-test failure: {f}")
    print("self-test:", "PASS" if not failures else "FAIL")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    spec = load_spec()
    if args.self_test:
        return self_test(binary, spec)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; one of {names}")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    code, lines, result = run_workload(binary, args.workload, args.seed,
                                       seconds, args.trace == 1)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = validate(result, wanted)
    for p in problems:
        log(f"invalid result: {p}")
    if problems:
        for line in lines[:-1]:
            print(line)
        return 1
    for line in lines:
        print(line)
    if code != 0:
        log(f"workload exited {code}: an op or output check failed")
    return code


if __name__ == "__main__":
    sys.exit(main())

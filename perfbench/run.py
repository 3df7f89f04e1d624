#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The program under test is built from source (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Each workload
runs in its own child process. The script prints a table of every metric
with its unit and sample count, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 the
per-layer metrics of a traced run. The run exits non-zero, printing no
result, when the program cannot be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Every workload the program runs. BENCHMARK.json gates a subset of them
# (see README.md); "all" runs that subset.
WORKLOADS = ["azure-fleet", "azure-fleet-wal", "alibaba-paper", "regime-shift"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(spec, trace):
    """Name -> unit of the metrics a run must print."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate_metrics(metrics, expected):
    """Problems with the printed metrics: missing, unexpected, wrong unit or
    not a finite number. An empty list means they match BENCHMARK.json."""
    problems = []
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"missing metric {name}")
            continue
        got = metrics[name]
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, expected {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value != value \
                or value in (float("inf"), float("-inf")):
            problems.append(f"{name}: value {value!r} is not a finite number")
    for name in metrics:
        if name not in expected:
            problems.append(f"unexpected metric {name}")
    return problems


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, cwd=root, env=env, check=True, stdout=sys.stderr)
    jobs = str(max(1, (os.cpu_count() or 2)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], cwd=root, env=env,
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_workload(binary, scratch, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: perfbench printed no report")
    return json.loads(lines[-1])


def print_table(workload, report):
    print(f"== {workload}: correct={report['correct']} "
          f"attempted={report['attempted']} failed={report['failed']}")
    for failure in report.get("failures", []):
        print(f"   FAILED CHECK: {failure}")
    for name, m in sorted(report["metrics"].items()):
        tail = f" (p{100 * m['percentile']:.4g})" if "percentile" in m else ""
        print(f"   {name:32s} {m['value']:>16.6g} {m['unit']:8s} n={m['samples']}{tail}")


def result_line(report, problems):
    return {
        "correct": bool(report["correct"]) and not problems and not report.get("failures"),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in report["metrics"].items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        spec = load_spec(root)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        build_dir = os.path.join(os.path.abspath(os.path.join(root, target)), "perfbench")
        binary = build(root, build_dir)
        scratch = os.path.join(build_dir, "scratch")
        os.makedirs(scratch, exist_ok=True)
        expected = expected_metrics(spec, args.trace == 1)
        workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                     else [args.workload])
        results = {}
        for workload in workloads:
            report = run_workload(binary, scratch, workload, args)
            problems = validate_metrics(report["metrics"], expected)
            for problem in problems:
                report.setdefault("failures", []).append("metric names: " + problem)
            print_table(workload, report)
            results[workload] = result_line(report, problems)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        for workload, line in results.items():
            print(f"{workload}: {json.dumps(line)}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

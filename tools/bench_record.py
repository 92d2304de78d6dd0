"""Record a benchmark trajectory file, ``BENCH_<label>.json``.

    python3 tools/bench_record.py --label pr21 --runs 10 --seconds 35

Runs ``perfbench/run.py`` at seed 12 on every workload that
``BENCHMARK.json`` declares, ``--runs`` times each, workloads interleaved
so that a slower host stretches all of them alike. Every run must end with
``"correct": true`` and ``"failed": 0``, and each workload must give one
output digest in every run; otherwise the script prints why and exits 1
without writing a file. It then runs ``tools/stream_curve.py`` and
``tools/train_step_curve.py`` with ``min(--runs, 3)`` repeats and writes,
at the repository root, the checked-out commit, the host, each workload's
digest and, for each end-to-end metric of ``BENCHMARK.json``, the median,
the quartiles, the run count and the unit, and the two curves' JSON
output. Files from two commits, made with the same options on one host,
compare metric by metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 12
MAX_CURVE_REPEATS = 3


def run_json(argv: list[str]) -> list[dict]:
    """The JSON lines a script prints, parsed; a failing script raises."""
    out = subprocess.run([sys.executable, *argv], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    end_to_end = [m["name"] for m in declared["end_to_end"]]

    results = {w: [] for w in workloads}
    problems = []
    for run in range(args.runs):
        for w in workloads:
            head, last = run_json(["perfbench/run.py", "--workload", w, "--seed", str(SEED),
                                   "--seconds", str(args.seconds)])[-2:]
            print(f"{w} run {run + 1}/{args.runs}: correct={last['correct']} failed={last['failed']} "
                  f"digest={head['output_digest'][:8]} failures={head['failures']}", file=sys.stderr)
            if last["correct"] is not True or last["failed"] != 0:
                problems.append(f"{w} run {run + 1}: correct={last['correct']} failed={last['failed']} "
                                f"failures={head['failures']}")
            results[w].append((head["output_digest"], last["metrics"]))
    for w, runs in results.items():
        if len({digest for digest, _ in runs}) > 1:
            problems.append(f"{w}: output digests differ between runs")
    if problems:
        print("\n".join(["bench_record: not recorded:", *problems]), file=sys.stderr)
        return 1

    repeats = str(min(args.runs, MAX_CURVE_REPEATS))
    record = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD"),
        "tree_modified": bool(git("status", "--porcelain", "--untracked-files=no")),
        "host": {"platform": platform.platform(), "python": platform.python_version(), "cpus": os.cpu_count()},
        "seed": SEED,
        "seconds": args.seconds,
        "runs": args.runs,
        "workloads": {
            w: {"output_digest": runs[0][0],
                "metrics": {name: summary([metrics[name]["value"] for _, metrics in runs],
                                          runs[0][1][name]["unit"])
                            for name in end_to_end if name in runs[0][1]}}
            for w, runs in results.items()},
        "curves": {name: run_json([f"tools/{name}.py", "--repeats", repeats, "--seed", str(SEED)])[-1]
                   for name in ("stream_curve", "train_step_curve")},
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"bench_record: wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

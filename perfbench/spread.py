"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

Each run is ``run.py --trace 0`` for the ``run_seconds`` that
``BENCHMARK.json`` sets. For each end-to-end metric it prints the median
of the runs, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as
a share of the median. ``--json PATH`` also writes the raw
runs and the summary; ``baseline.json`` holds these summaries for the
baseline commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=BENCH_DIR.parent,
        capture_output=True,
        text=True,
        timeout=180,
        check=True,
    )
    lines = proc.stdout.splitlines()
    return {"report": json.loads(lines[0])["report"], "result": json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0,
            "unit": runs[0]["result"]["metrics"][name]["unit"],
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json")
    args = parser.parse_args()

    seconds = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in seed_list(args.seeds):
        run = run_once(args.workload, seed, seconds)
        result = run["result"]
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}",
            flush=True,
        )
        runs.append(run)
    summary = summarize(runs)
    for name, s in summary.items():
        print(
            f"{name:40s} median {s['median']:.6g} {s['unit']:6s} "
            f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} iqr/median {s['iqr_share']:.4f}"
        )
    if args.json:
        Path(args.json).write_text(
            json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

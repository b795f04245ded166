"""Benchmark of the dnagolay codec, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the codec is imported from
``src/``. With ``--trace 0`` the workload's jobs repeat untraced for
``--seconds`` and the end-to-end metrics are printed. With ``--trace 1``
each pass runs the same fixed jobs untraced and then traced, and the
per-layer metrics come from the traced ones; the difference between the
two is reported as the tracing overhead. Either way a report line with
the environment comes first, and the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Spans of a traced run are written to
``perfbench/out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 11
MB = 1e6

# per-layer metric -> (span name, "total" | "self" | "calls")
LAYERS = {
    "chunks.encode_file_s": ("chunks.encode_file", "total"),
    "chunks.encode_file_self_s": ("chunks.encode_file", "self"),
    "chunks.build_payload_trits_s": ("chunks.build_payload_trits", "total"),
    "transcode.trits_to_dna_s": ("transcode.trits_to_dna", "total"),
    "chunks.emit_fasta_s": ("chunks.emit_fasta", "total"),
    "chunks.parse_fasta_s": ("chunks.parse_fasta", "total"),
    "ternary.parse_dna_s": ("ternary.parse_dna", "total"),
    "mldecode.decode_file_s": ("mldecode.decode_file", "total"),
    "mldecode.decode_file_self_s": ("mldecode.decode_file", "self"),
    "mldecode.decode_codeword_ml_calls": ("mldecode.decode_codeword_ml", "calls"),
    "mldecode.decode_codeword_ml_s": ("mldecode.decode_codeword_ml", "total"),
    "mldecode.decode_chunk_calls": ("mldecode.decode_chunk", "calls"),
    # decode_header is defined in chunks; the decoder calls it on the gap path
    "mldecode.decode_header_calls": ("chunks.decode_header", "calls"),
    "mldecode.audit_substitutions_s": ("mldecode.audit_substitutions", "total"),
    "mldecode.batched_min_stats_s": ("mldecode._batched_min_stats", "total"),
    "analysis.corrupt_records_s": ("analysis.corrupt_records", "total"),
    "analysis.inject_substitutions_calls": ("analysis.inject_substitutions", "calls"),
    "analysis.inject_substitutions_s": ("analysis.inject_substitutions", "total"),
}
TRACED = sorted({span for span, _ in LAYERS.values()})
# per-layer metric -> the span name its spans must be inside; FASTA
# parsing only, as transcode and analysis call parse_dna too
SCOPED = {"ternary.parse_dna_s": "chunks.parse_fasta"}
SETUP_LAYERS = {
    "dnagolay.import_s": "import_s",
    "codebook.load_s": "load_s",
    "mldecode.candidate_images_s": "candidate_images_s",
}
# first matching suffix wins
UNITS = (
    ("_MBps", "MB/s"),
    ("_per_s", "1/s"),
    ("_s", "s"),
    ("_MiB", "MiB"),
    ("_ratio", "ratio"),
    ("_accuracy", "ratio"),
    ("_bytes", "bytes"),
)


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "count")


def import_codec():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import dnagolay
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import dnagolay from {SRC}: {exc}")
    if SRC not in Path(dnagolay.__file__).resolve().parents:
        sys.exit(f"perfbench: dnagolay was imported from {dnagolay.__file__}, not {SRC}")


class SetupSampler:
    """Set-up samples, each in a fresh interpreter, spread evenly over the
    run so that their median covers the machine's load during all of it."""

    def __init__(self, count: int = SETUP_SAMPLES):
        self.count = count
        self.samples: list[dict[str, float]] = []

    def catch_up(self, fraction: float):
        """Take the samples due once ``fraction`` of the run has passed."""
        while len(self.samples) < min(self.count, 1 + int(fraction * self.count)):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py")],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=60,
            )
            if proc.returncode != 0:
                sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
            self.samples.append(json.loads(proc.stdout.splitlines()[-1]))

    def medians(self) -> dict[str, float]:
        self.catch_up(1.0)
        out = {key: statistics.median(s[key] for s in self.samples) for key in self.samples[0]}
        out["total_s"] = statistics.median(sum(s.values()) for s in self.samples)
        return out


def source_identity() -> dict:
    """The git commit when the checkout is a repository, and always a
    digest of the codec's source files."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        **source_identity(),
    }


def time_left(start: float, seconds: float, step: float) -> bool:
    """Whether another step of ``step`` seconds ends nearer to the end of
    the run than stopping now does, so a run lasts ``seconds`` give or
    take half a step."""
    return time.perf_counter() - start + step / 2 < seconds


def run_jobs(workload, codec, seed, seconds, tracer, setup):
    """Untraced jobs on fresh inputs (job index 0, 1, ...) until time is up."""
    outcomes, times = [], []
    start = time.perf_counter()
    while not outcomes or time_left(start, seconds, statistics.median(times)):
        setup.catch_up((time.perf_counter() - start) / seconds)
        mark = len(tracer)
        outcomes.append(workload.job(codec, seed, len(outcomes), tracer))
        times.append(tracer.top_level_seconds(mark))
    return outcomes, times


def stage_rates(outcomes, tracer) -> dict[str, float]:
    """Throughput of each timed stage over all jobs; 0 where a workload
    has no such stage."""
    spans = tracer.aggregate()

    def rate(stage, amount, scale=MB):
        seconds = spans.get(f"stage.{stage}", (0, 0.0, 0.0))[1]
        return amount / seconds / scale if seconds else 0.0

    attempted = sum(o.attempted_bytes for o in outcomes)
    return {
        "encode_MBps": rate("encode", attempted),
        "decode_MBps": rate("decode", sum(o.correct_bytes for o in outcomes)),
        "corrupt_MBps": rate("corrupt", sum(o.channel_bytes for o in outcomes)),
        "audit_cases_per_s": rate("audit", attempted, scale=1),
    }


def end_to_end(outcomes, times, setup) -> dict[str, float]:
    attempted = sum(o.attempted_bytes for o in outcomes)
    correct = sum(o.correct_bytes for o in outcomes)
    # summed, not a median: rate-1k mixes fast aborted jobs with full
    # decodes, and the median of such a mix jumps between the two groups
    return {
        "setup_s": setup["total_s"],
        "goodput_MBps": correct / sum(times) / MB,
        "ok_ratio": sum(o.ok for o in outcomes) / len(outcomes),
        "byte_accuracy": correct / attempted,
        "peak_rss_MiB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(workload, codec, seed, seconds, setup):
    """Passes of the workload's first ``trace_jobs`` jobs, each run
    untraced and then traced on the same inputs."""
    import spans as tracing

    functions, absent = tracing.resolve(TRACED)
    plain, traced = tracing.Tracer(), tracing.Tracer()
    plain_out, plain_times, traced_times, pass_counts, problems = [], [], [], [], []
    start = time.perf_counter()
    while not pass_counts or time_left(start, seconds, pass_seconds):
        setup.catch_up((time.perf_counter() - start) / seconds)
        pass_mark, pass_start = len(traced), time.perf_counter()
        for index in range(workload.trace_jobs):
            mark = len(plain)
            a = workload.job(codec, seed, index, plain)
            plain_times.append(plain.top_level_seconds(mark))
            mark = len(traced)
            with tracing.installed(traced, functions):
                b = workload.job(codec, seed, index, traced)
            traced_times.append(traced.top_level_seconds(mark))
            plain_out.append(a)
            if a != b:
                problems.append(f"job {index}: traced and untraced outcomes differ")
        pass_counts.append({k: v[0] for k, v in traced.aggregate(pass_mark).items()})
        pass_seconds = time.perf_counter() - pass_start
    problems += [p for o in plain_out for p in o.problems]
    if any(c != pass_counts[0] for c in pass_counts):
        problems.append("span counts differ between passes over the same inputs")

    jobs = len(traced_times)
    spans = {scope: traced.aggregate(within=scope) for scope in {None, *SCOPED.values()}}
    layers = {}
    for metric, (span, kind) in LAYERS.items():
        count, total, self_time = spans[SCOPED.get(metric)].get(span, (0, 0.0, 0.0))
        layers[metric] = {"calls": count, "total": total, "self": self_time}[kind] / jobs
    first = plain_out[: workload.trace_jobs]
    windows = sum(o.windows for o in first) / len(first)
    layers["mldecode.windows"] = windows
    calls = layers["mldecode.decode_codeword_ml_calls"]
    layers["mldecode.full_scan_ratio"] = calls / windows if windows else 0.0
    layers["mldecode.aborts_duplicate"] = sum(
        o.abort == "DuplicateChunkError" for o in first
    ) / len(first)
    layers["mldecode.aborts_other"] = sum(
        o.abort not in (None, "DuplicateChunkError") for o in first
    ) / len(first)
    layers["chunks.records"] = sum(o.records for o in first) / len(first)
    layers["chunks.fasta_bytes"] = sum(o.fasta_bytes for o in first) / len(first)
    layers.update(stage_rates(plain_out, plain))
    layers["inexact_ratio"] = sum(not o.ok for o in plain_out) / len(plain_out)
    layers["trace.overhead_ratio"] = sum(traced_times) / sum(plain_times) - 1
    layers["trace.spans_per_job"] = len(traced) / jobs
    layers["trace.absent_names"] = len(absent)

    OUT_DIR.mkdir(exist_ok=True)
    traced.save(OUT_DIR / f"spans-{workload.name}.npz")
    details = {
        "passes": len(pass_counts),
        "absent": absent,
        "span_counts_per_pass": pass_counts[0],
    }
    return plain_out, layers, details, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_codec()
    from workloads import WORKLOADS, Codec

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    codec = Codec()
    sampler = SetupSampler()

    if args.trace:
        outcomes, metrics, details, problems = run_traced(
            workload, codec, args.seed, args.seconds, sampler
        )
        setup = sampler.medians()
        metrics.update({name: setup[key] for name, key in SETUP_LAYERS.items()})
    else:
        from spans import Tracer

        tracer = Tracer()
        outcomes, times = run_jobs(workload, codec, args.seed, args.seconds, tracer, sampler)
        setup = sampler.medians()
        metrics = end_to_end(outcomes, times, setup)
        details = {
            "job_s_quartiles": statistics.quantiles(times, n=4) if len(times) > 1 else times,
            **stage_rates(outcomes, tracer),
        }
        problems = [p for o in outcomes for p in o.problems]

    failed = sum(bool(o.problems) for o in outcomes)
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "jobs": len(outcomes),
        "inexact": sum(not o.ok for o in outcomes),
        "beyond_radius": sum(not o.correctable for o in outcomes),
        "aborts": dict(Counter(o.abort for o in outcomes if o.abort)),
        "setup": setup,
        "problems": problems[:20],
        **details,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

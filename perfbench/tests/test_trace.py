"""Tracing changes no output, its counts repeat, and it survives a
codec that no longer defines a traced name."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
from workloads import WORKLOADS, Codec

SEED = 11
# scalar ML decodes per job at the commit recorded in baseline.json
BASELINE_ML_CALLS = {"clean-1m": 0, "count1-64k": 65_547, "audit": 12_292}


@pytest.fixture(scope="module")
def codec():
    return Codec()


def traced_job(codec, workload, index):
    functions, absent = spans.resolve(run.TRACED)
    assert absent == []
    tracer = spans.Tracer()
    with spans.installed(tracer, functions):
        outcome = workload.job(codec, SEED, index, tracer)
    return outcome, {name: agg[0] for name, agg in tracer.aggregate().items()}


def at_baseline_commit() -> bool:
    baseline = json.loads((run.BENCH_DIR / "baseline.json").read_text())
    current = run.source_identity()["source_sha256"]
    return current == baseline["environment"]["source_sha256"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_jobs_agree_and_counts_repeat(codec, name):
    workload = WORKLOADS[name]
    indices = range(10) if name == "rate-1k" else range(1)
    for index in indices:
        plain = workload.job(codec, SEED, index, spans.Tracer())
        first, counts = traced_job(codec, workload, index)
        again, counts_again = traced_job(codec, workload, index)
        assert first == plain == again
        assert counts == counts_again
        assert not plain.problems
    if name in BASELINE_ML_CALLS and at_baseline_commit():
        calls = counts.get("mldecode.decode_codeword_ml", 0)
        assert calls == BASELINE_ML_CALLS[name]


def test_missing_name_is_absent_and_bindings_are_restored():
    from dnagolay import chunks, transcode

    functions, absent = spans.resolve(["transcode.trits_to_dna", "chunks.no_such_stage"])
    assert absent == ["chunks.no_such_stage"]
    original = chunks.trits_to_dna
    tracer = spans.Tracer()
    with spans.installed(tracer, functions):
        assert chunks.trits_to_dna is not original
        assert transcode.trits_to_dna is not original
        chunks.make_header_dna(0, 5, 2)
    assert chunks.trits_to_dna is original and transcode.trits_to_dna is original
    assert tracer.aggregate()["transcode.trits_to_dna"][0] == 1


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    agg = tracer.aggregate()
    count, total, self_time = agg["outer"]
    inner_total = agg["inner"][1]
    assert agg["inner"][0] == 2
    assert self_time == pytest.approx(total - inner_total)


def test_within_keeps_only_descendants():
    tracer = spans.Tracer()
    with tracer.span("leaf"):
        pass
    with tracer.span("outer"):
        with tracer.span("middle"):
            with tracer.span("leaf"):
                pass
    assert tracer.aggregate()["leaf"][0] == 2
    inside = tracer.aggregate(within="outer")
    assert inside["leaf"][0] == 1 and inside["middle"][0] == 1
    assert "outer" not in inside
    assert tracer.aggregate(within="no_such_span") == {}


def first_job(codec, correctable):
    workload = WORKLOADS["rate-1k"]
    return next(
        index
        for index in range(100)
        if workload.job(codec, SEED, index, spans.Tracer()).correctable == correctable
    )


@pytest.mark.parametrize(
    "error, correctable, fails",
    [(ValueError, False, False), (ValueError, True, True), (TypeError, False, True)],
)
def test_only_crashes_and_losses_on_correctable_input_fail_a_job(
    codec, monkeypatch, error, correctable, fails
):
    """An abort beyond what the code corrects is measured, not a failure."""
    index = first_job(codec, correctable)

    def broken(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(codec.mldecode, "decode_file", broken)
    outcome = WORKLOADS["rate-1k"].job(codec, SEED, index, spans.Tracer())
    assert not outcome.ok
    assert outcome.abort == error.__name__
    assert bool(outcome.problems) == fails


def test_fails_without_the_codec_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rate-1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

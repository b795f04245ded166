"""The four workloads and the job each one repeats.

A job is one unit of user-visible work. Its timed stages are spans named
``stage.*``; making its inputs and checking its outputs happen outside
them. Every call into the codec goes through a module attribute
(``codec.chunks.encode_file``), so that a traced job reaches the
wrappers that :mod:`spans` installs.

Why each workload exists:

* ``clean-1m``: a 1 MiB random file through encode, emit, parse and
  decode with no noise. Chunking, transcoding and FASTA dominate and the
  decoder's lookup-table fast path leaves the ML scan idle. It is the
  bulk path of the array-first pipeline work and sets peak RSS.
* ``count1-64k``: a 64 KiB file with exactly one substitution in every
  payload window. Every window misses the table, so the scalar ML decoder
  and the per-window ``count`` channel of ``analysis`` dominate.
* ``rate-1k``: many independent 1 KiB files at a per-base rate of 1e-3
  over whole records, headers included. Errors are sparse, so decoding is
  a mostly-table-hit repair loop; headers get hit, so this is the one
  workload where aborts and wrong bytes occur. Many small operations,
  against the bulk ``clean-1m``.
* ``audit``: the exhaustive 1- and 2-flip sweep, the only caller of the
  batched kernel ``_batched_min_stats`` plus 12,292 scalar tie-breaks. A
  decoder shared with the stream path that slows the audit shows here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from noise import WINDOW, damage, iid_rate, one_per_window

EXTENSION = "bin"
RATE = 1e-3
# (1-flip cases, 1-flip unique, 2-flip unique, 2-flip ambiguous, 2-flip miscorrected)
AUDIT_PINNED = (33_792, 33_792, 497_356, 5_400, 4_124)


class Codec:
    """The codec modules and the warmed-up default codebook."""

    def __init__(self):
        from dnagolay import analysis, chunks, codebook, mldecode

        self.analysis = analysis
        self.chunks = chunks
        self.mldecode = mldecode
        self.book = codebook.load_default_codebook()
        mldecode.candidate_images(self.book)
        # bound before any tracing, so the benchmark's own serializing of
        # noisy records makes no span
        self.serialize = chunks.emit_fasta


@dataclass(frozen=True)
class Outcome:
    """What one job produced; equal outcomes mean equal outputs."""

    ok: bool
    attempted_bytes: int
    correct_bytes: int
    windows: int
    records: int = 0
    fasta_bytes: int = 0
    channel_bytes: int = 0
    abort: str | None = None
    correctable: bool = True
    digest: str = ""
    problems: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    job: Callable[..., Outcome]
    # jobs per pass of a traced run; a pass repeats the same inputs, so
    # its span counts must repeat exactly
    trace_jobs: int


def _streams(seed: int, index: int) -> list[np.random.Generator]:
    """Independent generators for a job's file, library channel and noise."""
    children = np.random.SeedSequence([seed, index]).spawn(3)
    return [np.random.default_rng(child) for child in children]


def _check_channel(records, damaged, count_mode: bool) -> list[str]:
    """Shape of ``analysis.corrupt_records`` output: same records and
    lengths; in count mode, headers unchanged and one changed base in
    every payload window."""
    if len(damaged) != len(records):
        return [f"channel returned {len(damaged)} records for {len(records)}"]
    if any(
        (len(r.payload_dna), len(r.header_dna)) != (len(d.payload_dna), len(d.header_dna))
        for r, d in zip(records, damaged)
    ):
        return ["channel changed a record length"]
    if not count_mode:
        return []
    headers, flips = damage(records, damaged)
    problems = []
    if headers:
        problems.append("count channel changed a header")
    if not (flips == 1).all():
        problems.append("count channel did not flip exactly one base per window")
    return problems


def file_trial(
    codec: Codec,
    seed: int,
    index: int,
    tracer,
    *,
    size: int,
    channel: str | None,
    noise: Callable | None,
) -> Outcome:
    """Encode and emit a random file, run the library channel on the
    records (timed, output checked, then discarded), apply the benchmark's
    own noise to the records and emit them again, then parse and decode
    the text. Only the decoder's input and the original bytes are alive
    while it decodes.

    The code corrects one substitution per payload window and headers
    have no protection, so a job whose noise leaves every header intact
    and flips at most one base per window is correctable: it must come
    back byte-exact and fully recovered, or the job fails. Beyond that
    radius, aborts, reported losses and miscorrections are outcomes the
    metrics measure, not failures. A decoder exception other than the
    codec's ``ValueError`` aborts (``DecodeError``, ``FastaError``) is a
    crash and fails the job on every workload.
    """
    data_rng, channel_rng, noise_rng = _streams(seed, index)
    data = data_rng.bytes(size)
    chunks = codec.chunks
    with tracer.span("stage.encode"):
        records = chunks.encode_file(chunks.FileDescriptor(data, EXTENSION), codec.book)
        text = chunks.emit_fasta(records)
    problems = []
    if channel is not None:
        spec = codec.analysis.ChannelSpec.parse(channel)
        with tracer.span("stage.corrupt"):
            damaged = codec.analysis.corrupt_records(records, spec, channel_rng)
        problems += _check_channel(records, damaged, spec.mode == "count")
        del damaged
    record_count, fasta_bytes = len(records), len(text)
    windows = sum(len(r.payload_dna) for r in records) // WINDOW
    correctable = True
    if noise is not None:
        noisy = noise(records, rng=noise_rng)
        headers, flips = damage(records, noisy)
        correctable = not headers and bool((flips <= 1).all())
        text = codec.serialize(noisy)
        del noisy
    del records

    abort, content, result = None, b"", None
    with tracer.span("stage.decode"):
        try:
            result = codec.mldecode.decode_file(chunks.parse_fasta(text), codec.book)
        except ValueError as exc:  # the codec's aborts, counted by class
            abort = type(exc).__name__
        except Exception as exc:
            abort = type(exc).__name__
            problems.append(f"job {index}: decoder crashed ({abort}: {exc})")
    if result is not None:
        content = result.content
    n = min(len(content), size)
    correct = int(
        np.count_nonzero(
            np.frombuffer(content[:n], np.uint8) == np.frombuffer(data[:n], np.uint8)
        )
    )
    ok = result is not None and content == data and result.extension == EXTENSION
    if correctable and not (ok and result.fully_recovered):
        problems.append(
            f"job {index}: correctable input "
            + (f"aborted ({abort})" if abort else "not recovered exactly")
        )
    digest = hashlib.sha1(content).hexdigest()
    if result is not None:
        digest += f":{result.extension}:{result.fully_recovered}"
    return Outcome(
        ok=ok and not problems,
        attempted_bytes=size,
        correct_bytes=correct,
        windows=windows,
        records=record_count,
        fasta_bytes=fasta_bytes,
        channel_bytes=size if channel is not None else 0,
        abort=abort,
        correctable=correctable,
        digest=digest,
        problems=tuple(problems),
    )


def audit_job(codec: Codec, seed: int, index: int, tracer) -> Outcome:
    """Both exhaustive sweeps; one case is one window decoding to one byte."""
    with tracer.span("stage.audit"):
        one = codec.mldecode.audit_substitutions(codec.book, 1)
        two = codec.mldecode.audit_substitutions(codec.book, 2)
    got = (one.cases, one.unique_correct, two.unique_correct, two.ambiguous, two.miscorrected)
    cases = one.cases + two.cases
    problems = () if got == AUDIT_PINNED else (f"audit counts {got} != {AUDIT_PINNED}",)
    return Outcome(
        ok=not problems,
        attempted_bytes=cases,
        correct_bytes=one.unique_correct + two.unique_correct,
        windows=cases,
        digest=repr((one, two)),
        problems=problems,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "clean-1m",
            partial(file_trial, size=1 << 20, channel=None, noise=None),
            trace_jobs=1,
        ),
        Workload(
            "count1-64k",
            partial(
                file_trial, size=1 << 16, channel="count:1", noise=one_per_window
            ),
            trace_jobs=1,
        ),
        Workload(
            "rate-1k",
            partial(
                file_trial,
                size=1 << 10,
                channel=f"rate:{RATE}",
                noise=partial(iid_rate, rate=RATE),
            ),
            trace_jobs=100,
        ),
        Workload("audit", audit_job, trace_jobs=1),
    )
}

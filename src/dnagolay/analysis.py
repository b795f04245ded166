"""Substitution-channel simulation plus capacity, cost, and rate models.

All randomness flows through numpy's seeded PCG64 generator so that any
corrupted sequence or Monte Carlo table is bit-reproducible from the
seed recorded in its report.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .chunks import (
    ChunkBatch,
    ChunkRecord,
    DEFAULT_CHUNK_BASES,
    FILE_ID_TRITS,
    FileDescriptor,
    _check_chunk_bases,
    encode_file,
    mu_for_segments,
)
from .codebook import CODEWORD_LENGTH, ByteCodebook
from .mldecode import decode_file
from .transcode import codes_to_dna, dna_codes

MODE_COUNT = "count"
MODE_RATE = "rate"

DEFAULT_BASES_PER_GRAM = 1.82e21
DEFAULT_OVERHEAD_BYTES = 22
DEFAULT_COST_PER_BASE_USD = 0.05
MEGABYTE = 1_000_000
_DRAW_BLOCK = 1 << 16  # rate-mode draws per block


@dataclass(frozen=True)
class ChannelSpec:
    """Substitution channel configuration.

    ``count`` mode flips exactly that many distinct bases in every
    11-base codeword window of a payload; ``rate`` mode flips each base
    independently with the given probability (and, when applied to
    whole records, also reaches the unprotected headers). A substituted
    base is always replaced by a different one.
    """

    mode: str
    count: int = 0
    rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (MODE_COUNT, MODE_RATE):
            raise ValueError(f"unknown channel mode {self.mode!r}")
        if not 0 <= self.count <= CODEWORD_LENGTH:  # no window is longer
            raise ValueError(f"substitution count must be in [0, {CODEWORD_LENGTH}]")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("substitution rate must be in [0, 1]")

    @classmethod
    def fixed_count(cls, count: int, seed: int = 0) -> "ChannelSpec":
        return cls(mode=MODE_COUNT, count=count, seed=seed)

    @classmethod
    def iid_rate(cls, rate: float, seed: int = 0) -> "ChannelSpec":
        return cls(mode=MODE_RATE, rate=rate, seed=seed)

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "ChannelSpec":
        """Parse 'count:N' or 'rate:R'."""
        kind, _, value = text.partition(":")
        kind = kind.strip()
        if kind == MODE_COUNT:
            return cls.fixed_count(int(value), seed)
        if kind == MODE_RATE:
            return cls.iid_rate(float(value), seed)
        raise ValueError(f"channel spec must be 'count:N' or 'rate:R', got {text!r}")

    @property
    def label(self) -> str:
        if self.mode == MODE_COUNT:
            return f"count={self.count}"
        return f"rate={self.rate:g}"


def _substitute(
    codes: np.ndarray,
    spec: ChannelSpec,
    rng: np.random.Generator | None,
    starts: np.ndarray | None = None,
):
    """Apply the channel, in place, to an array of base codes.

    Rate mode reaches every base. Count mode works on the windows that
    begin at ``starts``, by default every 11 bases from the first; each
    ends 11 bases later or at the end of ``codes``.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    if spec.mode == MODE_RATE:
        # one rng.random(len(codes)), drawn a block at a time (one if empty)
        positions = np.concatenate([
            lo + np.flatnonzero(rng.random(min(_DRAW_BLOCK, len(codes) - lo)) < spec.rate)
            for lo in range(0, len(codes) or 1, _DRAW_BLOCK)
        ])
    else:
        # Floyd's sampling in all windows at once, one pass per flip: pass
        # j draws t in [0, width - j] and takes width - j, which no earlier
        # pass could draw, if the window's bit mask already holds t
        if starts is None:
            starts = np.arange(0, len(codes), CODEWORD_LENGTH)
        widths = np.minimum(len(codes) - starts, CODEWORD_LENGTH)
        if len(starts) and spec.count > widths[-1]:
            raise ValueError(
                f"cannot substitute {spec.count} positions in a window of {widths[-1]}"
            )
        if (widths == CODEWORD_LENGTH).all():
            widths = CODEWORD_LENGTH  # a scalar bound draws the same numbers, faster
        taken = np.zeros(len(starts), dtype=np.int16)
        positions = np.empty((spec.count, len(starts)), dtype=np.int64)
        for j in range(spec.count, 0, -1):
            t = rng.integers(0, widths - j + 1, size=len(starts))
            t = np.where((taken >> t) & 1, widths - j, t)
            taken |= 1 << t
            np.add(starts, t, out=positions[j - 1])
    offsets = rng.integers(1, 4, size=positions.shape)
    codes[positions] = (codes[positions] + offsets) & 3


def inject_substitutions(
    dna: str, spec: ChannelSpec, rng: np.random.Generator | None = None
) -> str:
    """Apply the channel to one DNA sequence; deterministic given seed.

    Fixed-count mode substitutes exactly ``count`` distinct positions in
    each consecutive 11-base window (a trailing shorter window is
    allowed as long as it still has ``count`` positions).
    """
    codes = dna_codes(dna)
    _substitute(codes, spec, rng)
    return codes_to_dna(codes)


def corrupt_records(
    records: Sequence[ChunkRecord],
    spec: ChannelSpec,
    rng: np.random.Generator | None = None,
) -> ChunkBatch:
    """Apply the channel to chunk records, in one pass over the base
    codes of all of them.

    Count mode targets payload codeword windows only, so every payload
    must be whole 11-base windows; rate mode sweeps the whole record,
    headers included (headers carry no ECC, so this is how header loss
    gets exercised).
    """
    batch = ChunkBatch.of(records)
    starts = None
    if spec.mode == MODE_COUNT:
        counts, rest = np.divmod(batch.payload_lengths, CODEWORD_LENGTH)
        if (counts < 0).any() or rest.any():
            raise ValueError("count mode needs payloads of whole 11-base windows")
        ends = np.cumsum(counts)
        # window k starts 11 k bases after the first window of the stream,
        # shifted by where its record starts in codes
        starts = np.repeat(batch.starts - CODEWORD_LENGTH * (ends - counts), counts)
        starts += np.arange(0, CODEWORD_LENGTH * len(starts), CODEWORD_LENGTH)
    codes = batch.codes.copy()
    _substitute(codes, spec, rng, starts)
    return ChunkBatch(codes, batch.ends, batch.header_widths, batch.file_ids, batch.chunk_indices)


@dataclass(frozen=True)
class MonteCarloRow:
    """Aggregated decode quality for one channel setting: each rate is
    the mean over all trials, as every decode returns a result."""

    spec: ChannelSpec
    trials: int
    byte_accuracy: float
    parity_failure_rate: float
    file_exact_rate: float

    def to_dict(self) -> dict:
        return {
            "channel": self.spec.label,
            "seed": self.spec.seed,
            "trials": self.trials,
            "byte_accuracy": self.byte_accuracy,
            "parity_failure_rate": self.parity_failure_rate,
            "file_exact_rate": self.file_exact_rate,
        }


def _run_trial(
    records: Sequence[ChunkRecord],
    content: bytes,
    codebook: ByteCodebook,
    spec: ChannelSpec,
    trial: int,
) -> tuple[float, float, float]:
    """(byte accuracy, parity failure rate, exactness) of one trial."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, trial)))
    result = decode_file(corrupt_records(records, spec, rng), codebook)
    decoded = result.content
    if content:
        n = min(len(decoded), len(content))
        same = np.frombuffer(decoded, np.uint8, n) == np.frombuffer(content, np.uint8, n)
        accuracy = int(np.count_nonzero(same)) / len(content)
    else:
        accuracy = 1.0
    parity_failures = int(np.count_nonzero(~result.per_chunk.parity_ok))
    chunk_count = max(1, len(result.per_chunk) + len(result.unrecoverable_chunks))
    exact = float(decoded == content)
    return accuracy, parity_failures / chunk_count, exact


def monte_carlo_decode(
    fd: FileDescriptor,
    codebook: ByteCodebook,
    grid: list[ChannelSpec],
    trials: int,
    chunk_bases: int = DEFAULT_CHUNK_BASES,
) -> list[MonteCarloRow]:
    """Encode once, then corrupt and decode ``trials`` times per channel
    setting. Per-trial generators derive from (spec seed, trial index),
    so the table is reproducible.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    records = encode_file(fd, codebook, chunk_bases)
    rows = []
    for spec in grid:
        outcomes = [_run_trial(records, fd.content, codebook, spec, t) for t in range(trials)]
        accuracy, parity, exact = (sum(column) / trials for column in zip(*outcomes))
        rows.append(MonteCarloRow(spec, trials, accuracy, parity, exact))
    return rows


@dataclass(frozen=True)
class CapacityParams:
    """Inputs of the storage-density fixed-point equation."""

    chunk_payload_bases: int = DEFAULT_CHUNK_BASES
    code_length: int = CODEWORD_LENGTH
    bases_per_gram: float = DEFAULT_BASES_PER_GRAM
    overhead_bytes: float = DEFAULT_OVERHEAD_BYTES

    def __post_init__(self):
        if self.chunk_payload_bases <= 0 or self.code_length <= 0:
            raise ValueError("chunk and code lengths must be positive")
        if self.chunk_payload_bases % self.code_length:
            raise ValueError("chunk payload must be a multiple of the code length")
        if self.bases_per_gram <= 0:
            raise ValueError("bases per gram must be positive")
        if self.overhead_bytes < 0:
            raise ValueError("overhead bytes must be >= 0")


@dataclass(frozen=True)
class CapacityResult:
    bytes_per_gram: float
    mu: float
    residual: float
    iterations: int

    to_dict = asdict


class ConvergenceError(RuntimeError):
    """The capacity fixed-point iteration failed to settle."""


CAPACITY_FORMULA = (
    "x = (bases_per_gram * l) / (N * (l + 3 + log3(N * (x + overhead) / l)))"
    " - overhead"
)
_TOLERANCE, _MAX_ITERATIONS = 1e-12, 1000  # relative step that ends the iteration, and its cap


def solve_capacity(params: CapacityParams = CapacityParams()) -> CapacityResult:
    """Bytes storable per gram, from damped fixed-point iteration.

    Chunk-index trits grow logarithmically with the byte count, so the
    equation is solved self-consistently: mu = log3(N*(x+overhead)/l).
    """
    l = float(params.chunk_payload_bases)
    n = float(params.code_length)
    c = params.bases_per_gram
    overhead = params.overhead_bytes

    def step(x: float) -> tuple[float, float]:
        mu = math.log(n * (x + overhead) / l, 3)
        return c * l / (n * (l + 3 + mu)) - overhead, mu

    x = c * l / (n * (l + 3))
    mu = 0.0
    for iteration in range(1, _MAX_ITERATIONS + 1):
        nxt, mu = step(x)
        if nxt <= 0:
            raise ConvergenceError(f"iterate left the domain: {nxt}")
        if abs(nxt - x) / abs(nxt) < _TOLERANCE:
            x = nxt
            fx, mu = step(x)
            return CapacityResult(
                bytes_per_gram=x,
                mu=mu,
                residual=abs(fx - x) / abs(x),
                iterations=iteration,
            )
        x = 0.5 * (x + nxt)
    raise ConvergenceError(f"no convergence after {_MAX_ITERATIONS} iterations")


def code_rate(bits_per_symbol: int = 8, code_length: int = CODEWORD_LENGTH) -> float:
    """Information bits carried per DNA base."""
    if code_length < 1:
        raise ValueError("code length must be >= 1")
    return bits_per_symbol / code_length


def synthesis_cost(
    num_bases: int, per_base_usd: float = DEFAULT_COST_PER_BASE_USD
) -> float:
    """Synthesis cost in USD at a flat per-base price."""
    return num_bases * per_base_usd


@dataclass(frozen=True)
class CostRow:
    size_bytes: int
    total_bases: int
    cost_usd: float
    cost_per_mb_usd: float

    to_dict = asdict


def count_record_bases(
    size_bytes: int,
    extension: str = "",
    chunk_bases: int = DEFAULT_CHUNK_BASES,
) -> int:
    """Total bases emitted for a file of the given size, headers included.

    Pure arithmetic mirror of the encoder: content plus trailer
    codewords, chunked, plus (3 + mu) header bases per chunk. Raises
    :class:`ChunkError` for a chunk size that the encoder rejects.
    """
    _check_chunk_bases(chunk_bases)
    if size_bytes < 0:
        raise ValueError("size must be >= 0")
    codewords = size_bytes + 1 + len(str(size_bytes)) + 1 + len(extension) + 1
    payload = codewords * CODEWORD_LENGTH
    segments = max(1, -(-payload // chunk_bases))
    mu = mu_for_segments(segments)
    return payload + segments * (FILE_ID_TRITS + mu + 1)


def cost_curve(
    file_sizes: list[int],
    extension: str = "",
    chunk_bases: int = DEFAULT_CHUNK_BASES,
) -> list[CostRow]:
    """Synthesis cost per size; cost/MB uses decimal megabytes."""
    rows = []
    for size in file_sizes:
        bases = count_record_bases(size, extension, chunk_bases)
        cost = synthesis_cost(bases)
        per_mb = cost / (size / MEGABYTE) if size else math.inf
        rows.append(
            CostRow(
                size_bytes=size,
                total_bases=bases,
                cost_usd=cost,
                cost_per_mb_usd=per_mb,
            )
        )
    return rows


def rows_to_csv(rows: list) -> str:
    """Render report rows (anything with ``to_dict``) as CSV text."""
    import csv
    import io

    dicts = [row.to_dict() for row in rows]
    if not dicts:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(dicts[0]))
    writer.writeheader()
    writer.writerows(dicts)
    return buffer.getvalue()

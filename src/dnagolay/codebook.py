"""Byte-to-codeword tables: loading, verification, and greedy construction.

The shipped table assigns one length-11 ternary codeword to each of the
256 byte values. The printed source it was transcribed from carries two
known defects (a byte value listed twice and one wrong declared weight),
so the loader resolves conflicts deterministically and reports every
repair instead of silently accepting the text.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .ternary import parse_trits, weight

CODEWORD_LENGTH = 11
CODE_SIZE = 256

DEFAULT_CODEBOOK_RESOURCE = "golay11.codebook"


class CodebookError(ValueError):
    """Raised when codebook text cannot be resolved into a valid table."""


@dataclass(frozen=True)
class CodeFamilySpec:
    """Target parameters (n, M, d) for a ternary code."""

    length: int
    size: int
    min_distance: int

    def __post_init__(self):
        if self.length < 1 or self.size < 1:
            raise ValueError("code length and size must be positive")
        if not 1 <= self.min_distance <= self.length:
            raise ValueError("min distance must be in 1..length")

    @classmethod
    def parse(cls, text: str) -> "CodeFamilySpec":
        """Parse an 'n,M,d' triple such as '11,256,5'."""
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected 'n,M,d', got {text!r}")
        n, m, d = (int(p) for p in parts)
        return cls(n, m, d)

    def __str__(self) -> str:
        return f"({self.length},{self.size},{self.min_distance})_3"


@dataclass(frozen=True)
class CodeReport:
    """Outcome of an exhaustive pairwise minimum-distance check."""

    spec: CodeFamilySpec
    length: int
    size: int
    d_min: int | None
    distance_histogram: dict[int, int]
    violations: tuple[tuple[str, str, int], ...]
    ok: bool


@dataclass(frozen=True)
class SubcodeReport:
    """Largest-found subset at pairwise distance >= 6 inside a codebook."""

    subset: tuple[int, ...]
    leftover: tuple[int, ...]
    subset_min_distance: int | None
    leftover_min_distance: int | None
    ok: bool

    @property
    def subset_size(self) -> int:
        return len(self.subset)


@dataclass(frozen=True)
class LoadReport:
    """Repairs and observations made while resolving codebook text."""

    duplicate_rows: int = 0
    conflicts: tuple[tuple[int, str, str], ...] = ()
    reassigned: tuple[tuple[int, str], ...] = ()
    weight_mismatches: tuple[tuple[int, str, int, int], ...] = ()

    def describe(self) -> list[str]:
        out = []
        if self.duplicate_rows:
            out.append(f"{self.duplicate_rows} verbatim duplicate row(s) ignored")
        for value, kept, dropped in self.conflicts:
            out.append(
                f"byte {value} listed twice: kept {kept}, displaced {dropped}"
            )
        for value, cw in self.reassigned:
            out.append(f"byte {value} was unlisted: assigned displaced {cw}")
        for value, cw, declared, computed in self.weight_mismatches:
            out.append(
                f"byte {value} codeword {cw}: declared weight {declared}, "
                f"computed {computed}"
            )
        return out


@dataclass(frozen=True)
class ByteCodebook:
    """Immutable bijection between byte values and length-11 codewords."""

    codewords: tuple[str, ...]
    load_report: LoadReport = field(default_factory=LoadReport, compare=False)

    def __post_init__(self):
        if len(self.codewords) != CODE_SIZE:
            raise CodebookError(f"need {CODE_SIZE} codewords, got {len(self.codewords)}")
        for cw in self.codewords:
            parse_trits(cw)
            if len(cw) != CODEWORD_LENGTH:
                raise CodebookError(f"codeword {cw!r} is not length {CODEWORD_LENGTH}")
        if len(set(self.codewords)) != CODE_SIZE:
            raise CodebookError("codewords are not all distinct")

    def encode_byte(self, value: int) -> str:
        """The unique codeword for a byte value."""
        if not 0 <= value <= 255:
            raise ValueError(f"byte value out of range: {value}")
        return self.codewords[value]

    def as_array(self) -> np.ndarray:
        """(256, 11) uint8 matrix of trit values."""
        return _word_matrix(self.codewords)


def _word_matrix(codewords: Sequence[str]) -> np.ndarray:
    joined = "".join(codewords).encode("ascii")
    arr = np.frombuffer(joined, dtype=np.uint8) - ord("0")
    return arr.reshape(len(codewords), -1).copy()


def load_codebook(text: str) -> ByteCodebook:
    """Resolve codebook text into a validated :class:`ByteCodebook`.

    Line format: ``<byte_value> <codeword> <declared_weight>`` with ``#``
    comments. Repeated byte values keep their first codeword (reading
    order); displaced codewords are reassigned to unlisted byte values
    in ascending order. Every repair and every declared-weight mismatch
    lands in the load report.
    """
    assigned: dict[int, str] = {}
    claimed: dict[str, int] = {}
    declared_weights: dict[int, int] = {}
    orphans: list[str] = []
    duplicate_rows = 0
    conflicts: list[tuple[int, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise CodebookError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            value = int(parts[0])
            declared = int(parts[2])
        except ValueError as exc:
            raise CodebookError(f"line {lineno}: {exc}") from exc
        if not 0 <= value <= 255:
            raise CodebookError(f"line {lineno}: byte value {value} out of range")
        codeword = parts[1]
        try:
            parse_trits(codeword)
        except ValueError as exc:
            raise CodebookError(f"line {lineno}: {exc}") from exc
        if len(codeword) != CODEWORD_LENGTH:
            raise CodebookError(
                f"line {lineno}: codeword length {len(codeword)} != {CODEWORD_LENGTH}"
            )

        if value in assigned:
            if assigned[value] == codeword:
                duplicate_rows += 1
            else:
                conflicts.append((value, assigned[value], codeword))
                orphans.append(codeword)
            continue
        if codeword in claimed:
            raise CodebookError(
                f"line {lineno}: codeword {codeword} already assigned to "
                f"byte {claimed[codeword]}"
            )
        assigned[value] = codeword
        claimed[codeword] = value
        declared_weights[value] = declared

    missing = sorted(set(range(CODE_SIZE)) - set(assigned))
    spare = [codeword for codeword in dict.fromkeys(orphans) if codeword not in claimed]
    if len(spare) < len(missing):
        raise CodebookError(
            f"fewer than {CODE_SIZE} byte values covered: byte {missing[len(spare)]} has "
            "no codeword and no displaced codeword remains"
        )
    reassigned = list(zip(missing, spare))
    assigned.update(reassigned)

    mismatches = tuple(
        (value, assigned[value], declared, weight(assigned[value]))
        for value, declared in sorted(declared_weights.items())
        if declared != weight(assigned[value])
    )
    report = LoadReport(
        duplicate_rows=duplicate_rows,
        conflicts=tuple(conflicts),
        reassigned=tuple(reassigned),
        weight_mismatches=mismatches,
    )
    codewords = tuple(assigned[value] for value in range(CODE_SIZE))
    return ByteCodebook(codewords=codewords, load_report=report)


def load_codebook_file(path) -> ByteCodebook:
    with open(path, "r", encoding="utf-8") as fh:
        return load_codebook(fh.read())


def load_default_codebook() -> ByteCodebook:
    """Load the codebook asset shipped with the package."""
    asset = resources.files(__package__) / "data" / DEFAULT_CODEBOOK_RESOURCE
    return load_codebook(asset.read_text(encoding="utf-8"))


def _pairwise_distances(words: np.ndarray) -> np.ndarray:
    """(M, M) matrix of pairwise Hamming distances, uint16."""
    m = len(words)
    out = np.zeros((m, m), dtype=np.uint16)
    block = max(1, 2**22 // max(1, m * words.shape[1]))
    for start in range(0, m, block):
        stop = min(m, start + block)
        out[start:stop] = (
            (words[start:stop, None, :] != words[None, :, :]).sum(axis=2)
        )
    return out


def verify_code(codewords: Iterable[str], spec: CodeFamilySpec) -> CodeReport:
    """Exhaustive O(M^2 * n) pairwise-distance verification.

    Reports the exact minimum distance, the full distance histogram, and
    every pair closer than ``spec.min_distance``.
    """
    words = list(codewords)
    if not words:
        raise ValueError("cannot verify an empty code")
    lengths = {len(w) for w in words}
    if len(lengths) != 1:
        raise ValueError(f"codewords have mixed lengths: {sorted(lengths)}")
    length = lengths.pop()

    # a single word has no pairs, so no minimum distance
    iu = np.triu_indices(len(words), k=1)
    dists = _pairwise_distances(_word_matrix(words))[iu]
    d_min = int(dists.min()) if dists.size else None
    histogram = {
        int(d): int(c) for d, c in zip(*np.unique(dists, return_counts=True))
    }
    bad = np.flatnonzero(dists < spec.min_distance)
    violations = tuple(
        (words[int(iu[0][k])], words[int(iu[1][k])], int(dists[k])) for k in bad
    )
    ok = (
        length == spec.length
        and len(words) >= spec.size
        and (d_min is None or d_min >= spec.min_distance)
    )
    return CodeReport(
        spec=spec,
        length=length,
        size=len(words),
        d_min=d_min,
        distance_histogram=histogram,
        violations=violations,
        ok=ok,
    )


def verify_subcode_243(codebook: ByteCodebook) -> SubcodeReport:
    """Find a maximal subset of codewords at pairwise distance >= 6.

    Peels the byte with the most remaining distance-5 conflicts until
    none remain, then reports the surviving subset (expected size 243),
    and how close the peeled leftovers sit to the rest of the code
    (expected: exactly distance 5).
    """
    matrix = _pairwise_distances(codebook.as_array())
    # a word is no neighbour of itself: mask the diagonal past every distance
    masked = CODEWORD_LENGTH + 1
    np.fill_diagonal(matrix, masked)
    conflict = matrix < 6

    alive = np.ones(CODE_SIZE, dtype=bool)
    degrees = conflict.sum(axis=1).astype(np.int64)
    while degrees[alive].max(initial=0) > 0:
        candidates = np.flatnonzero(alive & (degrees == degrees[alive].max()))
        victim = int(candidates[-1])
        alive[victim] = False
        degrees -= conflict[victim]
        degrees[victim] = 0
        conflict[victim, :] = False
        conflict[:, victim] = False

    def least(distances: np.ndarray) -> int | None:
        found = int(distances.min(initial=masked))
        return None if found == masked else found

    subset = tuple(int(v) for v in np.flatnonzero(alive))
    leftover = tuple(int(v) for v in np.flatnonzero(~alive))
    subset_min = least(matrix[np.ix_(alive, alive)])
    leftover_min = least(matrix[~alive])

    ok = (
        len(subset) >= 243
        and (subset_min is None or subset_min >= 6)
        and (leftover_min is None or leftover_min >= 5)
    )
    return SubcodeReport(
        subset=subset,
        leftover=leftover,
        subset_min_distance=subset_min,
        leftover_min_distance=leftover_min,
        ok=ok,
    )


def greedy_construct(
    spec: CodeFamilySpec,
    order: str = "lex",
    seed: int = 0,
) -> list[str]:
    """Greedy code construction: keep a candidate iff it stays >= d from
    every kept word.

    ``order='lex'`` streams all 3^n trit strings in lexicographic order
    (a classical lexicode); ``order='random'`` draws candidates from a
    seeded generator. Stops at ``spec.size`` words or when candidates
    run out; the caller checks the achieved size. Candidates come 4,096
    at a time: one matrix drops those too close to a word kept before,
    and only the rest are tested in turn against the words kept since.
    """
    n, d = spec.length, spec.min_distance
    if order not in ("lex", "random"):
        raise ValueError(f"unknown order {order!r}")
    if n > 26:
        raise ValueError("lengths above 26 are outside desk-scale candidate scans")
    rng, powers = np.random.default_rng(seed), 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    one_hot = np.eye(3, dtype=np.float32)  # a trit's row: its agreements with 0, 1 and 2
    kept = np.empty((spec.size, n), dtype=np.uint8)
    count = 0
    for lo in range(0, 3**n, 4096):
        if count == spec.size:
            break
        if order == "lex":
            block = np.arange(lo, min(lo + 4096, 3**n))[:, None] // powers % 3
        else:  # drawn as int64: uint8 draws give other words
            block = rng.integers(0, 3, size=(min(4096, 3**n - lo), n))
        hot = one_hot[block].reshape(len(block), -1)
        for at in range(0, count, 256):  # 256 kept words at a time bound the matrix
            agreements = hot @ one_hot[kept[at : min(at + 256, count)]].reshape(-1, 3 * n).T
            far = agreements.max(axis=1) <= n - d
            block, hot = block[far], hot[far]
        start = count
        for cand in block:
            if count > start and int((kept[start:count] != cand).sum(axis=1).min()) < d:
                continue
            kept[count] = cand
            count += 1
            if count == spec.size:
                break

    digits = kept[:count] + ord("0")
    return [row.tobytes().decode("ascii") for row in digits]

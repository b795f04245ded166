"""Error-correcting reverse pipeline: nearest-neighbor decoding in DNA space.

A received 11-base window is compared against the DNA images of all 256
codewords under the current rotation context and the closest image wins.
Searching in the DNA domain (instead of converting the window to trits
first) sidesteps unreadable windows: a corrupted window may contain
repeated bases that have no trit reading at all.

Ties on DNA distance fall through to a second layer: distance between
each tied candidate's codeword and the best-effort trit reading of the
window, with unreadable positions scored as mismatches. If candidates
remain tied after both layers the decode is flagged ambiguous and the
smallest byte value is returned.

One kernel, :func:`_batched_min_stats`, decodes blocks of windows for
streams, chunks and the audit. A codeword's image after base c is its
image after 'A' shifted by c (mod 4), and a window's trit reading does
not change under that shift, so the kernel shifts each window into
context 'A' and needs one image table. :func:`decode_codeword_ml` is
its scalar reference.

Chunks decode sequentially: each corrected window's final base is the
rotation context for the next window, and the last corrected payload
base of chunk k-1 seeds chunk k. A stream decodes every window under
its received context, then re-decodes the windows whose corrected
predecessor ends in another base until none does; that fixed point is
the sequential result. When a predecessor chunk is missing, the decoder
tries all four contexts and keeps the cheapest.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product, repeat

import numpy as np

from .chunks import (
    ChunkRecord,
    EXTENSION_SEPARATOR,
    SIZE_SEPARATOR,
    decode_header,
    decode_headers,
)
from .codebook import CODE_SIZE, CODEWORD_LENGTH, ByteCodebook
from .ternary import DNA_ALPHABET, parse_dna
from .transcode import (
    BASE_INDEX,
    DEFAULT_PREV_BASE,
    codes_to_dna,
    decode_codes,
    decode_rows,
    dna_codes,
    encode_rows,
    read_trits_best_effort,
)


class DecodeError(ValueError):
    """Raised when records cannot be assembled into a file at all."""


class DuplicateChunkError(DecodeError):
    """Two records claim the same chunk index with different contents."""

    def __init__(self, chunk_index: int, first: ChunkRecord, second: ChunkRecord):
        super().__init__(
            f"chunk index {chunk_index} appears twice with conflicting contents: "
            f"{first.sequence} vs {second.sequence}"
        )
        self.chunk_index = chunk_index
        self.first = first
        self.second = second


@dataclass(frozen=True)
class DecodedCodeword:
    """Outcome of decoding one 11-base window."""

    byte_value: int
    dna_distance: int
    trit_distance: int
    ambiguous: bool
    corrected_window: str


@dataclass(slots=True)
class ChunkDecodeReport:
    chunk_index: int
    file_id: int
    parity_ok: bool
    codeword_distances: Sequence[int]
    ambiguities: int

    def to_dict(self) -> dict:
        return {
            "chunk_index": self.chunk_index,
            "file_id": self.file_id,
            "parity_ok": self.parity_ok,
            "codeword_distances": list(self.codeword_distances),
            "ambiguities": self.ambiguities,
        }


@dataclass
class DecodeResult:
    content: bytes
    extension: str
    size_bytes: int | None
    per_chunk: list[ChunkDecodeReport]
    unrecoverable_chunks: list[int]
    file_id: int
    trailer_ok: bool

    @property
    def fully_recovered(self) -> bool:
        return (
            not self.unrecoverable_chunks
            and self.trailer_ok
            and self.size_bytes is not None
            and len(self.content) == self.size_bytes
            and all(rep.parity_ok for rep in self.per_chunk)
        )

    def to_dict(self) -> dict:
        return {
            "file_id": self.file_id,
            "size_bytes": self.size_bytes,
            "extension": self.extension,
            "recovered_bytes": len(self.content),
            "trailer_ok": self.trailer_ok,
            "fully_recovered": self.fully_recovered,
            "unrecoverable_chunks": self.unrecoverable_chunks,
            "chunks": [rep.to_dict() for rep in self.per_chunk],
        }


_MISS = np.uint16(0xFFFF)
_GROUP = 4  # bases per table index: one 4x4x4x4x256 table per group of columns
_BLOCK = 512  # windows per kernel block; each (rows, 256) temporary is 128 KiB


def _group_tables(rows: np.ndarray) -> list[np.ndarray]:
    """Per group of up to ``_GROUP`` columns of the (256, 11) ``rows``, one
    table indexed by the group's values: the mismatch count with each row."""
    tables = []
    for lo in range(0, CODEWORD_LENGTH, _GROUP):
        cols = rows[:, lo : lo + _GROUP].T
        keys = np.indices((4,) * len(cols))
        tables.append(sum(k[..., None] != col for k, col in zip(keys, cols)).astype(np.uint8))
    return tables


def _table_distances(windows: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """(windows, 256) Hamming distances of rows of values 0..3 to the rows
    the tables were built from, one lookup per group of columns."""
    return sum(
        table[tuple(windows[:, lo : lo + _GROUP].T)]
        for lo, table in zip(range(0, CODEWORD_LENGTH, _GROUP), tables)
    )


class CandidateImages:
    """The codeword trits and their DNA images in context 'A', cached per
    codebook, with the distance tables of the batched kernel.

    Also carries a base-3 lookup table over all 3^11 trit windows so
    that uncorrupted payload streams decode in bulk numpy passes.
    """

    def __init__(self, codebook: ByteCodebook):
        self.words = codebook.as_array()
        self.images = encode_rows(self.words, 0)
        self.image_tables = _group_tables(self.images)
        self.word_tables = _group_tables(self.words)
        self.lut = np.full(3**CODEWORD_LENGTH, _MISS, dtype=np.uint16)
        for value, word in enumerate(codebook.codewords):
            self.lut[int(word, 3)] = value


@lru_cache(maxsize=4)
def candidate_images(codebook: ByteCodebook) -> CandidateImages:
    return CandidateImages(codebook)


def decode_codeword_ml(
    window: str,
    prev_base: str,
    codebook: ByteCodebook,
) -> DecodedCodeword:
    """Maximum-likelihood decode of one received window.

    Total function: always returns the best candidate; decode quality is
    conveyed through the distances and the ambiguous flag. This is the
    scalar reference of :func:`_batched_min_stats`: it encodes the
    candidate images in the given context rather than shifting them.
    """
    if len(window) != CODEWORD_LENGTH:
        raise ValueError(
            f"window must have length {CODEWORD_LENGTH}, got {len(window)}"
        )
    words = candidate_images(codebook).words
    images = encode_rows(words, BASE_INDEX[prev_base])
    dists = (images != dna_codes(window)).sum(axis=1)
    best = int(dists.min())
    tied = np.flatnonzero(dists == best)

    # an unreadable position mismatches every candidate
    reading = [3 if v is None else v for v in read_trits_best_effort(window, prev_base)]
    trit_dists = (words[tied] != np.array(reading)).sum(axis=1)
    best_trit = int(trit_dists.min())
    finalists = tied[trit_dists == best_trit]
    return DecodedCodeword(
        byte_value=int(finalists[0]),
        dna_distance=best,
        trit_distance=best_trit,
        ambiguous=len(finalists) > 1,
        corrected_window=codes_to_dna(images[finalists[0]]),
    )


def _batched_min_stats(
    windows: np.ndarray, contexts: np.ndarray | int, images: CandidateImages
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-layer ML decode of rows of base codes, each received after its
    context base code: (byte values, DNA distances, ambiguous flags).

    Each row is shifted into context 'A'. Only the rows tied on DNA
    distance take the trit layer, inside the same block.
    """
    n = len(windows)
    contexts = np.broadcast_to(np.asarray(contexts, dtype=np.uint8), (n,))
    values = np.empty(n, dtype=np.uint8)
    distances = np.empty(n, dtype=np.uint8)
    ambiguous = np.zeros(n, dtype=bool)
    for start in range(0, n, _BLOCK):
        stop = min(n, start + _BLOCK)
        shifted = (windows[start:stop] - contexts[start:stop, None]) & 3
        dist = _table_distances(shifted, images.image_tables)
        best = dist.min(axis=1)
        tied = dist == best[:, None]
        arg = tied.argmax(axis=1)
        rows = np.flatnonzero(tied.sum(axis=1) > 1)
        if rows.size:
            # an unreadable position reads as 3, which matches no trit
            trit_dist = _table_distances(decode_rows(shifted[rows], 0), images.word_tables)
            trit_dist[~tied[rows]] = CODEWORD_LENGTH + 1
            finalists = trit_dist == trit_dist.min(axis=1)[:, None]
            arg[rows] = finalists.argmax(axis=1)
            ambiguous[start + rows] = finalists.sum(axis=1) > 1
        values[start:stop] = arg
        distances[start:stop] = best
    return values, distances, ambiguous


def _decode_stream(
    payload: str, prev_base: str, images: CandidateImages
) -> tuple[bytearray, list[int] | None, list[int], str]:
    """Decode a payload DNA stream window by window with context chaining.

    Returns (bytes, per-window DNA distances or None when every window
    was error-free, indices of ambiguous windows, final corrected base).

    An undamaged stream reads back through the trit lookup table in a
    few array passes; since every window then equals a codeword image
    under its received context, the corrected stream is the received
    stream. Otherwise the kernel decodes the windows the table missed,
    each under its received context. A window's context is the last base
    of its corrected predecessor, so each further round re-decodes the
    windows whose predecessor changed that base, until none does. Window
    k's context is final after at most k+1 rounds, so the result is the
    sequential window-by-window decode.
    """
    n = len(payload) // CODEWORD_LENGTH
    codes = dna_codes(payload)
    trits = decode_codes(codes, BASE_INDEX[prev_base])
    mat = trits.reshape(n, CODEWORD_LENGTH)
    keys = np.zeros(n, dtype=np.int32)
    unreadable = np.zeros(n, dtype=bool)
    for col in range(CODEWORD_LENGTH):
        unreadable |= mat[:, col] == 3
        keys *= 3
        keys += mat[:, col]
    keys[unreadable] = 0  # keeps the lookup in range; these windows miss
    values = images.lut[keys]
    values[unreadable] = _MISS
    todo = np.flatnonzero(values == _MISS)
    if not todo.size:
        return bytearray(values.astype(np.uint8).tobytes()), None, [], payload[-1]

    parse_dna(payload)  # the kernel's shift would read any other symbol as a base
    windows = codes.reshape(n, CODEWORD_LENGTH)
    contexts = np.insert(windows[:-1, -1], 0, BASE_INDEX[prev_base])
    values = values.astype(np.uint8)
    distances = np.zeros(n, dtype=np.uint8)
    ambiguous = np.zeros(n, dtype=bool)
    last = images.images[:, -1]
    while todo.size:
        values[todo], distances[todo], ambiguous[todo] = _batched_min_stats(
            windows[todo], contexts[todo], images
        )
        ends = (last[values[todo]] + contexts[todo]) & 3
        if todo[-1] == n - 1:
            todo, ends = todo[:-1], ends[:-1]
        changed = contexts[todo + 1] != ends
        todo = todo[changed] + 1
        contexts[todo] = ends[changed]
    final = DNA_ALPHABET[(last[values[-1]] + contexts[-1]) & 3]
    ambiguous = np.flatnonzero(ambiguous).tolist()
    return bytearray(values.tobytes()), distances.tolist(), ambiguous, final


def _decode_run(
    payloads: list[str], prev_base: str | None, images: CandidateImages
) -> tuple[bytearray, list[int] | None, list[int], str]:
    """:func:`_decode_stream` over the payloads of consecutive chunks.

    With ``prev_base`` None the run starts from the context under which
    the first chunk decodes with the lowest total distance.
    """
    if prev_base is None:
        costs = [sum(_decode_stream(payloads[0], b, images)[1] or ()) for b in DNA_ALPHABET]
        prev_base = DNA_ALPHABET[costs.index(min(costs))]
    return _decode_stream("".join(payloads), prev_base, images)


def decode_chunk(
    record: ChunkRecord,
    codebook: ByteCodebook,
    prev_base: str | None = DEFAULT_PREV_BASE,
) -> tuple[bytes, ChunkDecodeReport, str]:
    """Decode one chunk: literal header decode plus ML payload decode.

    ``prev_base`` is the inherited payload context; pass None to search
    all four contexts and keep the one with the lowest total distance.
    Header damage never aborts the decode: the payload is still
    recovered best-effort and the chunk is flagged via ``parity_ok``.
    """
    if len(record.payload_dna) % CODEWORD_LENGTH or not record.payload_dna:
        raise DecodeError(
            f"payload length {len(record.payload_dna)} is not a positive "
            f"multiple of {CODEWORD_LENGTH}"
        )
    file_id, chunk_index, parity_ok = decode_header(record)
    data, distances, ambiguous, last = _decode_run(
        [record.payload_dna], prev_base, candidate_images(codebook)
    )
    n = len(record.payload_dna) // CODEWORD_LENGTH
    report = ChunkDecodeReport(
        chunk_index=record.chunk_index if record.chunk_index is not None else chunk_index,
        file_id=file_id,
        parity_ok=parity_ok,
        codeword_distances=distances if distances is not None else [0] * n,
        ambiguities=len(ambiguous),
    )
    return bytes(data), report, last


def split_payload_stream(stream: bytes) -> tuple[bytes, int | None, str, bool]:
    """Split a decoded byte stream into (content, declared size, extension, ok).

    The trailer is parsed from the end: the final ';', the ',' before
    it, the digits, and the opening ';'. Content may contain any bytes;
    extensions must not contain the separator characters (enforced at
    encode time), which keeps the parse unambiguous.
    """
    end = stream.rfind(SIZE_SEPARATOR.encode())
    if end == -1:
        return stream, None, "", False
    comma = stream.rfind(EXTENSION_SEPARATOR.encode(), 0, end)
    if comma == -1:
        return stream, None, "", False
    opens = stream.rfind(SIZE_SEPARATOR.encode(), 0, comma)
    digits = stream[opens + 1 : comma]
    if opens == -1 or not digits.isdigit():
        return stream, None, "", False
    extension = stream[comma + 1 : end].decode("latin-1")
    ok = end == len(stream) - 1
    return stream[:opens], int(digits), extension, ok


@lru_cache(maxsize=16)
def _zero_distances(count: int) -> tuple[int, ...]:
    return (0,) * count


def decode_file(
    records: list[ChunkRecord], codebook: ByteCodebook
) -> DecodeResult:
    """Reassemble and decode a full file from chunk records.

    Records may arrive in any order; indices come from the decoded
    headers. Missing chunks are reported and stand in as zero bytes so
    later content keeps its offsets.
    """
    if not records:
        raise DecodeError("no records to decode")
    images = candidate_images(codebook)

    fid_arr, index_arr, parity_arr = decode_headers([r.header_dna for r in records])
    counts = np.bincount(fid_arr)
    file_id = int(np.flatnonzero(counts == counts.max())[0])

    order_all = np.argsort(index_arr, kind="stable")
    sorted_idx = index_arr[order_all]
    dup_mask = sorted_idx[1:] == sorted_idx[:-1]
    if dup_mask.any():
        for k in np.flatnonzero(dup_mask):
            first, second = int(order_all[k]), int(order_all[k + 1])
            if records[first].sequence != records[second].sequence:
                raise DuplicateChunkError(
                    int(sorted_idx[k]), records[first], records[second]
                )
        keep = np.concatenate(([True], ~dup_mask))
        order = order_all[keep]
    else:
        order = order_all

    present = index_arr[order]
    payloads = [records[pos].payload_dna for pos in order.tolist()]
    windows = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
    bad = np.flatnonzero((windows == 0) | (windows % CODEWORD_LENGTH != 0))
    if bad.size:
        raise DecodeError(
            f"payload length {int(windows[bad[0]])} is not a positive "
            f"multiple of {CODEWORD_LENGTH}"
        )
    windows //= CODEWORD_LENGTH
    ends = np.cumsum(windows)
    seen = np.zeros(int(present[-1]) + 1, dtype=bool)
    seen[present] = True
    missing = np.flatnonzero(~seen).tolist()

    # each run of consecutive chunk indices decodes as one stream; a run
    # that does not start at chunk 0 has lost its context and searches
    # for it, and missing chunks stand in as zero bytes so that later
    # content keeps its offsets
    placeholder = bytes(int(windows.max()))
    runs = (np.flatnonzero(np.diff(present) != 1) + 1).tolist()
    pieces, run_distances, amb_windows = [], [], []
    exact = True  # every window matched a codeword image as received
    decoded = 0
    for start, stop in zip([0, *runs], [*runs, len(payloads)]):
        first = int(present[start])
        pieces.append(placeholder * (first - decoded))
        data, distances, ambiguous, _ = _decode_run(
            payloads[start:stop], DEFAULT_PREV_BASE if first == 0 else None, images
        )
        offset = int(ends[start] - windows[start])
        pieces.append(data)
        exact = exact and distances is None
        run_distances.append(repeat(0, len(data)) if distances is None else distances)
        amb_windows += [offset + w for w in ambiguous]
        decoded = int(present[stop - 1]) + 1
    stream_bytes = b"".join(pieces)

    if exact:
        chunk_distances = list(map(_zero_distances, windows.tolist()))
    else:
        flat = list(chain.from_iterable(run_distances))
        chunk_distances = [
            flat[end - n : end] for end, n in zip(ends.tolist(), windows.tolist())
        ]
    ambiguities = np.bincount(
        np.searchsorted(ends, amb_windows, side="right"), minlength=len(payloads)
    )
    reports = list(
        map(
            ChunkDecodeReport,
            present.tolist(),
            fid_arr[order].tolist(),
            parity_arr[order].tolist(),
            chunk_distances,
            ambiguities.tolist(),
        )
    )

    content, declared_size, extension, trailer_ok = split_payload_stream(stream_bytes)
    if declared_size is not None and len(content) > declared_size:
        content = content[:declared_size]
    return DecodeResult(
        content=content,
        extension=extension,
        size_bytes=declared_size,
        per_chunk=reports,
        unrecoverable_chunks=missing,
        file_id=file_id,
        trailer_ok=trailer_ok,
    )


@dataclass(frozen=True)
class AuditResult:
    """Tally of an exhaustive substitution sweep against the decoder."""

    cases: int
    unique_correct: int
    ambiguous: int
    miscorrected: int

    @property
    def fraction_correct(self) -> float:
        return self.unique_correct / self.cases if self.cases else 1.0


def _substitution_patterns(positions: int, flips: int) -> np.ndarray:
    """All (position, offset) combinations for the requested flip count.

    Rows hold (p1, o1, p2, o2, ...) with positions strictly increasing
    and offsets in 1..3 (a substituted base never maps to itself).
    """
    rows = []
    for pos in combinations(range(positions), flips):
        for offs in product((1, 2, 3), repeat=flips):
            row = []
            for p, o in zip(pos, offs):
                row.extend((p, o))
            rows.append(row)
    return np.array(rows, dtype=np.int64)


def audit_substitutions(codebook: ByteCodebook, flips: int) -> AuditResult:
    """Exhaustively flip ``flips`` bases of every codeword image in every
    context and tally the decoder's behaviour.

    A case counts as uniquely corrected when the original byte comes
    back with the ambiguous flag clear. Ties that survive both decoding
    layers count as ambiguous even if the byte-value tiebreak happens to
    return the original.
    """
    patterns = _substitution_patterns(CODEWORD_LENGTH, flips)
    images = candidate_images(codebook)
    truth = np.repeat(np.arange(CODE_SIZE), len(patterns))
    rows = np.arange(len(truth))
    cases = unique_correct = ambiguous = miscorrected = 0
    for context in range(len(DNA_ALPHABET)):
        windows = np.repeat(encode_rows(images.words, context), len(patterns), axis=0)
        for f in range(flips):
            pos = np.tile(patterns[:, 2 * f], CODE_SIZE)
            off = np.tile(patterns[:, 2 * f + 1], CODE_SIZE)
            windows[rows, pos] = (windows[rows, pos] + off) & 3
        values, _, flagged = _batched_min_stats(windows, context, images)
        cases += len(windows)
        unique_correct += int(((values == truth) & ~flagged).sum())
        ambiguous += int(flagged.sum())
        miscorrected += int(((values != truth) & ~flagged).sum())
    return AuditResult(
        cases=cases,
        unique_correct=unique_correct,
        ambiguous=ambiguous,
        miscorrected=miscorrected,
    )


def minimum_image_distance(codebook: ByteCodebook) -> int:
    """Smallest pairwise DNA distance between codeword images.

    Shifting every image by the context base keeps pairwise distances,
    so context 'A' stands for all four.
    """
    images = candidate_images(codebook)
    d = _table_distances(images.images, images.image_tables)
    np.fill_diagonal(d, CODEWORD_LENGTH + 1)
    return int(d.min())

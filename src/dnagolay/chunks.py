"""Forward pipeline: file bytes -> payload DNA -> indexed chunks -> FASTA.

Layout of one encoded file:

* payload trit stream: codewords of every content byte, then ';', the
  decimal digits of the byte count, ',', the extension characters, and a
  closing ';' (all as codewords). The trailer rides inside the payload
  and is therefore protected by the code.
* the payload stream is rotation-encoded as ONE continuous DNA string
  starting from context 'A', then sliced into chunks of 99 bases
  (9 codewords); only the final chunk may be shorter, and always by a
  multiple of 11.
* each chunk gets a header of 2 file-id trits, mu chunk-index trits and
  one parity trit, rotation-encoded from a fresh 'A' context. Headers
  carry no error correction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from .codebook import CODEWORD_LENGTH, ByteCodebook
from .ternary import parse_dna
from .transcode import (
    _CHAR_TO_BASE,
    BASE_INDEX,
    DEFAULT_PREV_BASE,
    codes_to_dna,
    decode_rows,
    dna_codes,
    encode_rows,
    encode_words,
    trit_codes,
    trits_to_dna,
)

DEFAULT_CHUNK_BASES = 99
FILE_ID_TRITS = 2
MAX_FILE_ID = 3**FILE_ID_TRITS - 1
SIZE_SEPARATOR = ";"
EXTENSION_SEPARATOR = ","
FASTA_LINE_WIDTH = 80

_ORD_ZERO = ord("0")
_NEWLINE = ord("\n")
_TITLE = ord(">")
_SEQUENCE_PARTS = attrgetter("payload_dna", "header_dna")


class ChunkError(ValueError):
    """Raised for invalid chunking inputs (sizes, ids, indexes)."""


class FastaError(ValueError):
    """Raised for malformed FASTA text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class FileDescriptor:
    """A file to encode: raw bytes plus the metadata stored beside them."""

    content: bytes
    extension: str = ""
    file_id: int = 0

    def __post_init__(self):
        if not 0 <= self.file_id <= MAX_FILE_ID:
            raise ChunkError(f"file_id must be 0..{MAX_FILE_ID}, got {self.file_id}")
        for ch in self.extension:
            if ord(ch) > 255:
                raise ChunkError(f"extension character {ch!r} is not a byte")
            if ch in (SIZE_SEPARATOR, EXTENSION_SEPARATOR):
                raise ChunkError(f"extension must not contain {ch!r}")

    @property
    def size_bytes(self) -> int:
        return len(self.content)


@dataclass(frozen=True, slots=True)
class ChunkRecord:
    """One synthesizable DNA segment: payload slice plus its header.

    ``file_id`` and ``chunk_index`` are known at encode time; records
    coming back from :func:`parse_fasta` leave them ``None`` until the
    header is decoded.
    """

    payload_dna: str
    header_dna: str
    file_id: int | None = None
    chunk_index: int | None = None

    @property
    def mu(self) -> int:
        return len(self.header_dna) - FILE_ID_TRITS - 1

    @property
    def total_length(self) -> int:
        return len(self.payload_dna) + len(self.header_dna)

    @property
    def sequence(self) -> str:
        return self.payload_dna + self.header_dna


_RECORD_SLOTS = tuple(getattr(ChunkRecord, f.name).__set__ for f in fields(ChunkRecord))


def _make_records(count: int, *columns) -> list[ChunkRecord]:
    """``count`` ChunkRecords from one iterable per field, in field order.

    A megabyte encodes to over 100,000 chunks; filling each slot column
    through its descriptor skips a frozen ``__init__`` per record, which
    took a quarter of the time to encode and a fifth of the time to parse.
    """
    records = list(map(object.__new__, repeat(ChunkRecord, count)))
    for fill, values in zip(_RECORD_SLOTS, columns, strict=True):
        deque(map(fill, records, values), maxlen=0)
    return records


def int_to_trits(value: int, width: int) -> str:
    """Base-3 digits of ``value``, most significant first, zero padded."""
    if value < 0 or value >= 3**width:
        raise ChunkError(f"{value} does not fit in {width} trits")
    digits = []
    for _ in range(width):
        digits.append(str(value % 3))
        value //= 3
    return "".join(reversed(digits))


def mu_for_segments(segment_count: int) -> int:
    """Number of chunk-index trits: ceil(log3(segments)), at least 1."""
    if segment_count < 1:
        raise ChunkError("segment count must be at least 1")
    mu = 1
    while 3**mu < segment_count:
        mu += 1
    return mu


def _payload_values(fd: FileDescriptor) -> np.ndarray:
    """Byte values of the content followed by the ``;<size>,<extension>;``
    trailer, one per payload codeword."""
    trailer = (
        f"{SIZE_SEPARATOR}{fd.size_bytes}{EXTENSION_SEPARATOR}"
        f"{fd.extension}{SIZE_SEPARATOR}"
    )
    return np.frombuffer(fd.content + trailer.encode("latin-1"), dtype=np.uint8)


def build_payload_trits(fd: FileDescriptor, codebook: ByteCodebook) -> str:
    """Concatenated codewords of content plus the metadata trailer."""
    trits = codebook.as_array()[_payload_values(fd)]
    return (trits + _ORD_ZERO).tobytes().decode("ascii")


def segment_payload(payload_dna: str, chunk_bases: int = DEFAULT_CHUNK_BASES) -> list[str]:
    """Slice payload DNA into chunk_bases-long pieces; the last may be short."""
    _check_chunk_bases(chunk_bases)
    if len(payload_dna) % CODEWORD_LENGTH:
        raise ChunkError(
            f"payload length {len(payload_dna)} is not a multiple of {CODEWORD_LENGTH}"
        )
    return [
        payload_dna[i : i + chunk_bases]
        for i in range(0, len(payload_dna), chunk_bases)
    ]


def _check_chunk_bases(chunk_bases: int):
    if chunk_bases < CODEWORD_LENGTH or chunk_bases % CODEWORD_LENGTH:
        raise ChunkError(
            f"chunk size must be a positive multiple of {CODEWORD_LENGTH}, "
            f"got {chunk_bases}"
        )


def parity_trit(id_and_index: str) -> int:
    """Mod-3 sum of the trits at odd (1-based) positions."""
    return sum(int(id_and_index[i]) for i in range(0, len(id_and_index), 2)) % 3


def _header_trit_rows(file_id: int, indices, mu: int) -> np.ndarray:
    """(chunks, 3 + mu) header trits: file id, chunk index, parity."""
    if not 0 <= file_id <= MAX_FILE_ID:
        raise ChunkError(f"file_id must be 0..{MAX_FILE_ID}, got {file_id}")
    if mu < 1:
        raise ChunkError(f"mu must be at least 1, got {mu}")
    rem = np.asarray(indices, dtype=np.int64)
    out_of_range = (rem < 0) | (rem >= 3**mu)
    if out_of_range.any():
        int_to_trits(int(rem[out_of_range][0]), mu)  # raises ChunkError
    trits = np.empty((len(rem), FILE_ID_TRITS + mu + 1), dtype=np.uint8)
    trits[:, :FILE_ID_TRITS] = trit_codes(int_to_trits(file_id, FILE_ID_TRITS))
    for col in range(FILE_ID_TRITS + mu - 1, FILE_ID_TRITS - 1, -1):
        rem, trits[:, col] = np.divmod(rem, 3)
    trits[:, -1] = trits[:, :-1:2].sum(axis=1) % 3
    return trits


def header_trits(file_id: int, chunk_index: int, mu: int) -> str:
    """Header trits for one chunk: file id, chunk index, parity trit."""
    trits = _header_trit_rows(file_id, [chunk_index], mu)
    return (trits + _ORD_ZERO).tobytes().decode("ascii")


def make_header_dna(file_id: int, chunk_index: int, mu: int) -> str:
    """Header DNA for one chunk, rotation-encoded from a fresh 'A' context."""
    return trits_to_dna(header_trits(file_id, chunk_index, mu), DEFAULT_PREV_BASE)


def encode_file(
    fd: FileDescriptor,
    codebook: ByteCodebook,
    chunk_bases: int = DEFAULT_CHUNK_BASES,
) -> list[ChunkRecord]:
    """Encode a file into chunk records.

    The payload is rotation-encoded as one continuous stream (chunk k
    inherits the last payload base of chunk k-1 as context), so the
    payload stays homopolymer-free across chunk boundaries. Headers use
    a fresh 'A' context each.
    """
    _check_chunk_bases(chunk_bases)
    codes = encode_words(
        codebook.as_array(), _payload_values(fd), BASE_INDEX[DEFAULT_PREV_BASE]
    )
    payloads = segment_payload(codes_to_dna(codes), chunk_bases)
    count = len(payloads)
    mu = mu_for_segments(count)
    # every header starts from a fresh 'A' context: one matrix row each
    header_trit_rows = _header_trit_rows(fd.file_id, np.arange(count), mu)
    headers = codes_to_dna(encode_rows(header_trit_rows, BASE_INDEX[DEFAULT_PREV_BASE]))
    width = FILE_ID_TRITS + mu + 1
    return _make_records(
        count,
        payloads,
        [headers[i : i + width] for i in range(0, len(headers), width)],
        repeat(fd.file_id, count),
        range(count),
    )


def _wrap(parts: list[str], lengths: np.ndarray) -> list[str]:
    """Each record's sequence, given as its two consecutive ``parts``, as
    FASTA lines: a newline after every 80 bases and at the end. The
    records are taken in order of length, so that each distinct length
    wraps as one matrix whatever the order of the records."""
    order = np.argsort(lengths, kind="stable")
    picks = np.stack((2 * order, 2 * order + 1), axis=1).ravel().tolist()
    data = np.frombuffer("".join(map(parts.__getitem__, picks)).encode("ascii"), dtype=np.uint8)
    lengths = lengths[order]
    bodies: list[str] = []
    runs = (np.flatnonzero(np.diff(lengths)) + 1).tolist()
    offset = 0
    for start, stop in zip([0, *runs], [*runs, len(lengths)]):
        count, length = stop - start, int(lengths[start])
        rows = data[offset : offset + count * length].reshape(count, length)
        offset += count * length
        lines = -(-length // FASTA_LINE_WIDTH)
        width = length + lines
        wrapped = np.full((count, width), _NEWLINE, dtype=np.uint8)
        for line in range(lines):
            col = line * FASTA_LINE_WIDTH
            piece = rows[:, col : col + FASTA_LINE_WIDTH]
            wrapped[:, col + line : col + line + piece.shape[1]] = piece
        text = wrapped.tobytes().decode("ascii")
        bodies += [text[i * width : (i + 1) * width] for i in range(count)]
    return list(map(bodies.__getitem__, np.argsort(order).tolist()))


def emit_fasta(records: list[ChunkRecord]) -> str:
    """Serialize chunk records as FASTA, sequence wrapped at 80 columns."""
    if not records:
        return ""
    parts = list(chain.from_iterable(map(_SEQUENCE_PARTS, records)))
    part_lengths = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
    lengths = part_lengths[0::2] + part_lengths[1::2]
    titles = [
        f">f{rec.file_id}_c{rec.chunk_index} len={length}\n"
        for rec, length in zip(records, lengths.tolist())
    ]
    bodies = _wrap(parts, lengths)
    return "".join(chain.from_iterable(zip(titles, bodies)))


def _infer_mu(lengths: np.ndarray, chunk_bases: int) -> int:
    full_record = int(lengths.max())
    mu = full_record - chunk_bases - FILE_ID_TRITS - 1
    if len(lengths) == 1 and mu < 1:
        # single short chunk: its payload is below chunk_bases and mu is 1
        mu = 1
    return mu


def _split_fasta(text: str) -> tuple[str, np.ndarray, np.ndarray]:
    """Upper-case sequences of all records, concatenated, with each
    record's length and the 1-based line number of its title.

    The text is first read the way :func:`emit_fasta` writes it: lines
    end at newlines and carriage returns are dropped. If that reading
    fails, the text is read again with lines split as
    :meth:`str.splitlines` does and stripped, and that reading decides,
    errors included. Blank lines are skipped; a line starting with '>'
    opens a record.
    """
    try:
        return _split_lines(("\n" + text.replace("\r", "")).encode("utf-8"))
    except FastaError:
        stripped = "\n" + "\n".join(map(str.strip, text.splitlines()))
        return _split_lines(stripped.encode("utf-8"))


def _split_lines(lines: bytes) -> tuple[str, np.ndarray, np.ndarray]:
    """One reading of :func:`_split_fasta`, of UTF-8 text in which every
    line follows a newline, so that line k (0-based) starts right after
    the k-th newline. The work is done on the bytes with one entry per
    line; the line of a bad symbol is only looked up on error.
    """
    buf = np.frombuffer(lines, dtype=np.uint8)
    newlines = np.flatnonzero(buf == _NEWLINE)
    first = newlines + 1
    widths = np.append(newlines[1:], len(buf)) - first
    is_title = np.zeros(len(first), dtype=bool)
    nonblank = np.flatnonzero(widths)
    is_title[nonblank] = buf[first[nonblank]] == _TITLE
    seq_widths = np.where(is_title, 0, widths)
    titles = np.flatnonzero(is_title)
    data_lines = np.flatnonzero(seq_widths)
    if not titles.size or data_lines.size and data_lines[0] < titles[0]:
        raise FastaError("sequence data before any '>' header", int(data_lines[0]) + 1)

    # the bytes of sequence lines, without their newlines
    keep = np.repeat(~is_title, widths + 1)
    keep[newlines] = False
    sequences = buf[keep].tobytes().translate(_CHAR_TO_BASE)
    bad = sequences.find(0)
    if bad >= 0:
        line = int(np.searchsorted(np.cumsum(seq_widths), bad, side="right"))
        start = int(first[line])
        try:
            parse_dna(lines[start : start + int(widths[line])].decode("utf-8"))
        except ValueError as exc:
            raise FastaError(str(exc), line + 1) from exc
    lengths = np.add.reduceat(seq_widths, titles)
    empty = np.flatnonzero(lengths == 0)
    if empty.size:
        raise FastaError("record has no sequence data", int(titles[empty[0]]) + 1)
    return sequences.decode("ascii"), lengths, titles + 1


def parse_fasta(text: str, chunk_bases: int = DEFAULT_CHUNK_BASES) -> list[ChunkRecord]:
    """Parse FASTA text back into chunk records (headers undecoded).

    The chunk-index width mu is inferred from record lengths: full
    records have ``chunk_bases`` payload bases, so mu = record length -
    chunk_bases - 3. At most one record (the final, short chunk) may
    deviate, and only downward.
    """
    _check_chunk_bases(chunk_bases)
    if not text.strip():
        return []
    sequences, lengths, title_lines = _split_fasta(text)

    distinct = np.unique(lengths).tolist()
    if len(distinct) > 2:
        raise FastaError(f"inconsistent record lengths: {distinct}")
    if len(distinct) == 2 and np.count_nonzero(lengths == distinct[0]) != 1:
        raise FastaError(
            f"multiple records of non-full length {distinct[0]}; "
            "only the final chunk may be short"
        )
    mu = _infer_mu(lengths, chunk_bases)
    if mu < 1:
        raise FastaError(
            f"record length {max(distinct)} is too short for "
            f"chunk size {chunk_bases}"
        )
    header_len = FILE_ID_TRITS + mu + 1
    payload_lengths = lengths - header_len
    bad = (payload_lengths < CODEWORD_LENGTH) | (payload_lengths % CODEWORD_LENGTH != 0)
    if bad.any():
        first = int(bad.argmax())
        raise FastaError(
            f"record length {int(lengths[first])} leaves a payload of "
            f"{int(payload_lengths[first])} bases, not a positive multiple of "
            f"{CODEWORD_LENGTH}",
            int(title_lines[first]),
        )
    record_ends = np.cumsum(lengths)
    starts = (record_ends - lengths).tolist()
    splits = (record_ends - header_len).tolist()
    ends = record_ends.tolist()
    return _make_records(
        len(lengths),
        [sequences[a:b] for a, b in zip(starts, splits)],
        [sequences[a:b] for a, b in zip(splits, ends)],
        repeat(None),
        repeat(None),
    )


def _decode_header_rows(codes: np.ndarray):
    """Literal decode of a (headers, width) base-code matrix."""
    trits = decode_rows(codes, BASE_INDEX[DEFAULT_PREV_BASE])
    count, width = trits.shape
    unreadable = np.zeros(count, dtype=bool)
    for col in range(width):
        unreadable |= trits[:, col] == 3
    trits[trits == 3] = 0
    file_ids = np.zeros(count, dtype=np.int64)
    indices = np.zeros(count, dtype=np.int64)
    parity = np.zeros(count, dtype=np.int64)
    for col in range(width - 1):
        number = file_ids if col < FILE_ID_TRITS else indices
        number *= 3
        number += trits[:, col]
        if col % 2 == 0:
            parity += trits[:, col]
    return file_ids, indices, ~unreadable & (parity % 3 == trits[:, -1])


def decode_headers(headers: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Literal (no ECC) decode of many headers: file ids, chunk indices
    and parity_ok flags as arrays. Headers of one width decode together
    in one matrix pass.

    Unreadable positions (repeated bases) read as trit 0 and force
    parity_ok False, matching best-effort recovery of damaged headers.
    """
    count = len(headers)
    widths = np.fromiter(map(len, headers), dtype=np.int64, count=count)
    file_ids = np.empty(count, dtype=np.int64)
    indices = np.empty(count, dtype=np.int64)
    parity_ok = np.empty(count, dtype=bool)
    for width in np.flatnonzero(np.bincount(widths)).tolist():
        rows = np.flatnonzero(widths == width)
        group = headers if len(rows) == count else [headers[i] for i in rows.tolist()]
        codes = dna_codes("".join(group)).reshape(len(rows), width)
        file_ids[rows], indices[rows], parity_ok[rows] = _decode_header_rows(codes)
    return file_ids, indices, parity_ok


def decode_header(record: ChunkRecord) -> tuple[int, int, bool]:
    """Literal (no ECC) header decode: (file_id, chunk_index, parity_ok);
    the one-record case of :func:`decode_headers`."""
    file_ids, indices, parity_ok = decode_headers([record.header_dna])
    return int(file_ids[0]), int(indices[0]), bool(parity_ok[0])

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
  carry no error correction; blocks of them are written and read as
  transposed trit matrices: digits, parity, rotation, and back.

Records travel as one :class:`ChunkBatch`: the base codes of all records
back to back plus a few per-record columns. Encoding writes each
codeword's image whole into the record rows; the decoder reads each
record once as a row (:meth:`ChunkBatch.record_rows`). A
:class:`ChunkRecord` is only built when a caller indexes or iterates it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codebook import CODEWORD_LENGTH, ByteCodebook
from .ternary import parse_dna
from .transcode import (
    _CHAR_TO_CODE_TABLE,
    _CODE_TO_BASE,
    BASE_INDEX,
    DEFAULT_PREV_BASE,
    codes_to_dna,
    decode_rows,
    dna_codes,
    encode_rows,
    encode_words,
    trits_to_dna,
    word_images,
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
_UNKNOWN = -1
# bulk passes work in blocks, so their temporaries do not grow with the file
_TEXT_BLOCK = 1 << 18  # characters of FASTA text per block of emit and parse
_RECORD_BLOCK = 4096  # records per block of FASTA rows, records built or window keys


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


def _known(value: int | None) -> int:
    return _UNKNOWN if value is None else value


def _optional(value: int) -> int | None:
    return None if value < 0 else value


class _Columns(Sequence):
    """A read-only sequence kept as columns of read-only arrays. It builds
    items ``lo`` to ``hi - 1`` (or its end) with ``_items(lo, hi)``, a
    block at a time when iterated, and equals any sequence of equal items."""

    __slots__ = ()

    def _freeze(self, **columns: np.ndarray):
        for name, column in columns.items():
            column.flags.writeable = False
            setattr(self, name, column)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        return next(self._items(i, i + 1))

    def __iter__(self):
        blocks = range(0, len(self), _RECORD_BLOCK)
        return chain.from_iterable(self._items(lo, lo + _RECORD_BLOCK) for lo in blocks)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class ChunkBatch(_Columns):
    """An immutable sequence of :class:`ChunkRecord`, kept as columns.

    ``codes`` holds every record's sequence, payload then header, back
    to back as base codes 0..3; ``ends`` is each record's end offset in
    it and ``header_widths`` its header length. ``file_ids`` and
    ``chunk_indices`` are negative where unknown, as for parsed records.
    The columns are read-only arrays, taken over rather than copied.
    Indexing and iteration build ChunkRecords on demand; the codec's
    functions read the columns, and take any other sequence of records
    through :meth:`of`.
    """

    __slots__ = ("codes", "ends", "header_widths", "file_ids", "chunk_indices")

    def __init__(self, codes, ends, header_widths, file_ids=None, chunk_indices=None):
        unknown = np.full(len(ends), _UNKNOWN, dtype=np.int64)
        self._freeze(
            codes=np.asarray(codes, dtype=np.uint8),
            ends=np.asarray(ends, dtype=np.int64),
            header_widths=np.asarray(header_widths, dtype=np.int64),
            file_ids=np.asarray(unknown if file_ids is None else file_ids, dtype=np.int64),
            chunk_indices=np.asarray(
                unknown if chunk_indices is None else chunk_indices, dtype=np.int64
            ),
        )

    @classmethod
    def of(cls, records: Sequence[ChunkRecord]) -> ChunkBatch:
        """``records`` as a batch: a batch is returned as it is, any
        other sequence of ChunkRecords is joined in one pass, upper
        case. Raises :class:`AlphabetError` for a symbol that is not a
        base."""
        if isinstance(records, ChunkBatch):
            return records
        columns = np.array(
            [
                (len(r.payload_dna), len(r.header_dna), _known(r.file_id), _known(r.chunk_index))
                for r in records
            ],
            dtype=np.int64,
        ).reshape(-1, 4)
        payloads, headers, file_ids, chunk_indices = columns.T
        sequences = [part for r in records for part in (r.payload_dna, r.header_dna)]
        codes = dna_codes("".join(sequences))
        return cls(codes, np.cumsum(payloads + headers), headers, file_ids, chunk_indices)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.ends, prepend=0)

    @property
    def starts(self) -> np.ndarray:
        return self.ends - self.lengths

    @property
    def payload_lengths(self) -> np.ndarray:
        return self.lengths - self.header_widths

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, index):
        item = super().__getitem__(index)
        return ChunkBatch.of(item) if isinstance(index, slice) else item

    def _items(self, lo: int, hi: int):
        """ChunkRecords ``lo`` to ``hi - 1``, from one conversion of each column."""
        origin = int(self.ends[lo - 1]) if lo else 0
        ends = self.ends[lo:hi] - origin
        splits = (ends - self.header_widths[lo:hi]).tolist()
        ends = ends.tolist()
        text = codes_to_dna(self.codes[origin : origin + (ends[-1] if ends else 0)])
        return map(
            ChunkRecord,
            map(text.__getitem__, map(slice, [0, *ends], splits)),
            map(text.__getitem__, map(slice, splits, ends)),
            map(_optional, self.file_ids[lo:hi].tolist()),
            map(_optional, self.chunk_indices[lo:hi].tolist()),
        )

    def record_rows(self, order=slice(None)):
        """Per block of up to ``_RECORD_BLOCK`` records of ``order`` (an
        index into the batch) and per (length, header width) among them:
        their places in ``order``, the (records, length) matrix of their
        base codes, read once (a view where they lie back to back), and
        their header width."""
        records = np.arange(len(self))[order]
        bounds = np.append(0, self.ends)
        for lo in range(0, len(records), _RECORD_BLOCK):
            block = records[lo : lo + _RECORD_BLOCK]
            starts = bounds[block]
            # (length, width) as one key; a record is far shorter than 2**32 bases
            shapes = (bounds[block + 1] - starts) << 32 | self.header_widths[block]
            places = shapes.argsort(kind="stable")
            cuts = [0, *(shapes[places[1:]] != shapes[places[:-1]]).nonzero()[0] + 1, len(places)]
            for first, end in zip(cuts, cuts[1:]):
                group = places[first:end]
                length, width = divmod(int(shapes[group[0]]), 1 << 32)
                at = starts[group]
                if (at[1:] - at[:-1] == length).all():
                    rows = self.codes[at[0] : at[0] + len(at) * length].reshape(-1, length)
                else:
                    rows = sliding_window_view(self.codes, length)[at]
                yield lo + group, rows, width

    def decoded_headers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Literal (no ECC) decode of every header: file ids, chunk
        indices and parity_ok flags as arrays. Headers of one width are
        gathered a block at a time and decoded transposed, so that each
        pass over a header column runs over contiguous memory.

        Unreadable positions (repeated bases) read as trit 0 and force
        parity_ok False, matching best-effort recovery of damaged headers.
        """
        file_ids, indices = np.empty((2, len(self)), dtype=np.int64)
        parity_ok = np.empty(len(self), dtype=bool)
        widths = self.header_widths
        one_width = len(self) and widths.min() == widths.max()
        for width in (widths[:1] if one_width else np.unique(widths)).tolist():
            # the place values of the file id and index trits, mod 2**64 as in int64
            values = np.zeros((2, width - 1), dtype=np.uint64)
            ids = min(FILE_ID_TRITS, width - 1)
            values[0, :ids] = 3 ** np.arange(ids)[::-1]
            values[1, ids:] = [3**p % 2**64 for p in range(width - ids - 2, -1, -1)]
            records = np.flatnonzero(widths == width)
            for lo in range(0, len(records), _RECORD_BLOCK):
                block = records[lo : lo + _RECORD_BLOCK]
                headers = sliding_window_view(self.codes, width)[self.ends[block] - width]
                trits = decode_rows(headers.T.copy().T, BASE_INDEX[DEFAULT_PREV_BASE]).T
                unreadable = trits == 3
                trits[unreadable] = 0
                file_ids[block], indices[block] = (values @ trits[:-1]).view(np.int64)
                parity = trits[:-1:2].sum(axis=0, dtype=np.uint8) % 3
                parity_ok[block] = ~unreadable.any(axis=0) & (parity == trits[-1])
        return file_ids, indices, parity_ok


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


def _check_chunk_bases(chunk_bases: int):
    if chunk_bases < CODEWORD_LENGTH or chunk_bases % CODEWORD_LENGTH:
        raise ChunkError(
            f"chunk size must be a positive multiple of {CODEWORD_LENGTH}, "
            f"got {chunk_bases}"
        )


def _header_values(file_id: int, indices, mu: int) -> np.ndarray:
    """The number file_id * 3**mu + index of each header, checked."""
    if not 0 <= file_id <= MAX_FILE_ID:
        raise ChunkError(f"file_id must be 0..{MAX_FILE_ID}, got {file_id}")
    if mu < 1:
        raise ChunkError(f"mu must be at least 1, got {mu}")
    rem = np.asarray(indices, dtype=np.int64)
    out_of_range = (rem < 0) | (rem >= 3**mu)
    if out_of_range.any():
        raise ChunkError(f"{int(rem[out_of_range][0])} does not fit in {mu} trits")
    return rem + file_id * 3**mu


def _header_rows(file_id: int, indices, mu: int) -> np.ndarray:
    """(chunks, 3 + mu) header base codes: the steps of
    :func:`make_header_dna` on rows. The base-3 digits of each header
    value, most significant first, and the parity trit are rows of one
    transposed trit matrix, rotation-encoded from a fresh 'A' context."""
    rem = _header_values(file_id, indices, mu)
    digits = FILE_ID_TRITS + mu
    trits = np.empty((digits + 1, len(rem)), dtype=np.uint8)
    for place in range(digits - 1, -1, -1):
        # numpy divides by a scalar twice as fast with // as with divmod
        quotient = rem // 3
        trits[place] = rem - quotient * 3
        rem = quotient
    trits[-1] = trits[:-1:2].sum(axis=0, dtype=np.uint8) % 3
    return encode_rows(trits.T, BASE_INDEX[DEFAULT_PREV_BASE])


def make_header_dna(file_id: int, chunk_index: int, mu: int) -> str:
    """Header DNA for one chunk, rotation-encoded from a fresh 'A' context;
    the one-header reference of the bulk encoder in :func:`encode_file`."""
    value = int(_header_values(file_id, [chunk_index], mu)[0])
    digits = [value // 3**place % 3 for place in range(FILE_ID_TRITS + mu - 1, -1, -1)]
    trits = "".join(map(str, [*digits, sum(digits[::2]) % 3]))
    return trits_to_dna(trits, DEFAULT_PREV_BASE)


def encode_file(
    fd: FileDescriptor,
    codebook: ByteCodebook,
    chunk_bases: int = DEFAULT_CHUNK_BASES,
) -> ChunkBatch:
    """Encode a file into a batch of chunk records.

    The payload is rotation-encoded as one continuous stream (chunk k
    inherits the last payload base of chunk k-1 as context), so the
    payload stays homopolymer-free across chunk boundaries. Headers use
    a fresh 'A' context each.

    Full records are rows of one matrix; per block of them, each
    codeword's image is gathered whole into its place in the rows.
    """
    _check_chunk_bases(chunk_bases)
    values = _payload_values(fd)
    words = chunk_bases // CODEWORD_LENGTH
    count = -(-len(values) // words)
    mu = mu_for_segments(count)
    width = FILE_ID_TRITS + mu + 1
    full, rest = divmod(len(values), words)
    ends = np.arange(1, count + 1) * (chunk_bases + width)
    ends[-1] -= (words - (rest or words)) * CODEWORD_LENGTH
    codes = np.empty(int(ends[-1]), dtype=np.uint8)
    rows = codes[: full * (chunk_bases + width)].reshape(full, chunk_bases + width)
    images = word_images(codebook.codewords)
    payload = rows[:, :chunk_bases].view(images.dtype)
    prev = BASE_INDEX[DEFAULT_PREV_BASE]
    for lo in range(0, full, _RECORD_BLOCK):
        hi = min(full, lo + _RECORD_BLOCK)
        prev = encode_words(images, values[lo * words : hi * words], prev, payload[lo:hi])
        rows[lo:hi, chunk_bases:] = _header_rows(fd.file_id, np.arange(lo, hi), mu)
    if rest:
        last = codes[rows.size :]
        encode_words(images, values[full * words :], prev, last[:-width].view(images.dtype))
        last[-width:] = _header_rows(fd.file_id, [full], mu)
    return ChunkBatch(
        codes, ends, np.full(count, width), np.full(count, fd.file_id), np.arange(count)
    )


_POWERS_OF_TEN = 10 ** np.arange(1, 19)


def _digit_counts(values: np.ndarray) -> np.ndarray:
    """Number of decimal digits of each non-negative integer."""
    return 1 + np.searchsorted(_POWERS_OF_TEN, values, side="right")


def _put_decimal(values: np.ndarray, out: np.ndarray):
    """Write non-negative integers as ASCII decimal digits, one per row
    of ``out``, whose width is their digit count."""
    for col in range(out.shape[1] - 1, -1, -1):
        values, digits = np.divmod(values, 10)
        out[:, col] = digits + _ORD_ZERO


def _fasta_rows(
    file_ids: np.ndarray, indices: np.ndarray, bases: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """FASTA text of records whose ids, indices and lengths have the same
    digit counts, one row each: the ``>f<id>_c<index> len=<bases>``
    title, then the rows ``starts`` of ``bases`` with a newline after
    every 80 bases and at the end."""
    count, length = len(starts), bases.shape[1]
    id_end = 2 + int(_digit_counts(file_ids[:1])[0])
    index_end = id_end + 2 + int(_digit_counts(indices[:1])[0])
    template = f">f{'0' * (id_end - 2)}_c{'0' * (index_end - id_end - 2)} len={length}\n"
    title = len(template)
    rows = np.full((count, title + length + -(-length // FASTA_LINE_WIDTH)), _NEWLINE, np.uint8)
    rows[:, :title] = np.frombuffer(template.encode("ascii"), dtype=np.uint8)
    _put_decimal(file_ids, rows[:, 2:id_end])
    _put_decimal(indices, rows[:, id_end + 2 : index_end])
    for line, col in enumerate(range(0, length, FASTA_LINE_WIDTH)):
        piece = bases[starts, col : col + FASTA_LINE_WIDTH]
        rows[:, title + col + line : title + col + line + piece.shape[1]] = piece
    return rows


def emit_fasta(records: Sequence[ChunkRecord]) -> str:
    """Serialize chunk records as FASTA, sequence wrapped at 80 columns.

    Each record is titled ``>f<file_id>_c<chunk_index> len=<bases>``; a
    record that does not know its id or index, as a parsed one, takes it
    from its decoded header.
    """
    batch = ChunkBatch.of(records)
    if not len(batch):
        return ""
    file_ids, indices = batch.file_ids, batch.chunk_indices
    if (file_ids < 0).any() or (indices < 0).any():
        decoded_ids, decoded_indices, _ = batch.decoded_headers()
        file_ids = np.where(file_ids < 0, decoded_ids, file_ids)
        indices = np.where(indices < 0, decoded_indices, indices)
    lengths, starts = batch.lengths, batch.starts
    id_digits, index_digits = _digit_counts(file_ids), _digit_counts(indices)
    sizes = (
        len(">f_c len=\n")
        + id_digits
        + index_digits
        + _digit_counts(lengths)
        + lengths
        + -(-lengths // FASTA_LINE_WIDTH)
    )
    offsets = np.cumsum(sizes) - sizes
    out = bytearray(int(sizes.sum()))
    text = np.frombuffer(out, dtype=np.uint8)
    # records alike in length and digit counts are one matrix of text, per block
    groups = (lengths * 32 + id_digits) * 32 + index_digits
    order = np.argsort(groups, kind="stable")
    blocks = np.arange(_RECORD_BLOCK, len(order), _RECORD_BLOCK)
    for rows in np.split(order, np.union1d(np.flatnonzero(np.diff(groups[order])) + 1, blocks)):
        bases = sliding_window_view(batch.codes, int(lengths[rows[0]]))
        fasta = _fasta_rows(file_ids[rows], indices[rows], bases, starts[rows])
        sliding_window_view(text, fasta.shape[1], writeable=True)[offsets[rows]] = fasta
    # the bases are still codes 0..3; the table keeps every other byte
    for lo in range(0, len(out), _TEXT_BLOCK):
        out[lo : lo + _TEXT_BLOCK] = out[lo : lo + _TEXT_BLOCK].translate(_CODE_TO_BASE)
    return out.decode("ascii")


def _infer_mu(lengths: np.ndarray, chunk_bases: int) -> int:
    full_record = int(lengths.max())
    if full_record < chunk_bases + FILE_ID_TRITS + 2:
        # no full record: the header width that leaves whole windows
        return (full_record - FILE_ID_TRITS - 2) % CODEWORD_LENGTH + 1
    return full_record - chunk_bases - FILE_ID_TRITS - 1


def _split_fasta(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base codes of all records, concatenated, with each record's
    length and the 1-based line number of its title.

    The text is first read the way :func:`emit_fasta` writes it: lines
    end at newlines and carriage returns are dropped. If that reading
    fails, the text is read again with lines split as
    :meth:`str.splitlines` does and stripped, and that reading decides,
    errors included. Blank lines are skipped; a line starting with '>'
    opens a record.
    """
    try:
        return _split_lines(text)
    except FastaError:
        return _split_lines("\n".join(map(str.strip, text.splitlines())))


def _split_lines(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One reading of :func:`_split_fasta`, of the text encoded once, in
    two passes over blocks of about ``_TEXT_BLOCK`` bytes cut after
    newlines: one finds the lines, one writes the codes of the sequence
    bytes into one array. A bad symbol's line is only looked up on error.
    """
    data = (text.replace("\r", "") if "\r" in text else text).encode("utf-8")
    buf = np.frombuffer(data, dtype=np.uint8)
    cuts = [0]
    while cuts[-1] < len(data):
        lo, hi = cuts[-1], cuts[-1] + _TEXT_BLOCK
        cut = data.rfind(b"\n", lo, hi) + 1 or data.find(b"\n", hi) + 1
        cuts.append(len(data) if hi >= len(data) or not cut else cut)
    # where each line starts; its first byte (a blank line's newline) tells a title
    starts = np.concatenate(
        [[0], *(np.flatnonzero(buf[lo:hi] == _NEWLINE) + lo + 1 for lo, hi in zip(cuts, cuts[1:]))]
    )
    widths = np.append(starts[1:] - 1, len(buf)) - starts
    is_title = buf.take(starts, mode="clip") == _TITLE
    lines = np.searchsorted(starts, cuts).tolist()
    titles = np.flatnonzero(is_title)
    data_line = int(np.argmax(~is_title & (widths > 0)))
    if not titles.size or data_line < titles[0] and widths[data_line]:
        raise FastaError("sequence data before any '>' header", data_line + 1)

    codes = np.empty(int(widths.sum() - widths[titles].sum()), dtype=np.uint8)
    pos = 0
    for lo, hi, first, stop in zip(cuts, cuts[1:], lines, lines[1:]):
        # the bytes of sequence lines, without their newlines
        keep = np.repeat(~is_title[first:stop], widths[first:stop] + 1)[: hi - lo]
        keep &= buf[lo:hi] != _NEWLINE
        sequences = np.frombuffer(data[lo:hi].translate(_CHAR_TO_CODE_TABLE), np.uint8)[keep]
        codes[pos : pos + len(sequences)] = sequences
        pos += len(sequences)
    if codes.max(initial=0) > 3:
        seq_ends = np.cumsum(np.where(is_title, 0, widths))
        line = int(np.searchsorted(seq_ends, np.argmax(codes > 3), side="right"))
        try:
            parse_dna(data[starts[line] : starts[line] + widths[line]].decode("utf-8"))
        except ValueError as exc:
            raise FastaError(str(exc), line + 1) from exc
    lengths = np.add.reduceat(widths, titles) - widths[titles]
    empty = np.flatnonzero(lengths == 0)
    if empty.size:
        raise FastaError("record has no sequence data", int(titles[empty[0]]) + 1)
    return codes, lengths, titles + 1


def parse_fasta(text: str, chunk_bases: int = DEFAULT_CHUNK_BASES) -> ChunkBatch:
    """Parse FASTA text back into a batch of chunk records (headers
    undecoded, so ids and indices unknown).

    The chunk-index width mu is inferred from record lengths: full
    records have ``chunk_bases`` payload bases, so mu = record length -
    chunk_bases - 3. At most one record (the final, short chunk) may
    deviate, and only downward. With no full record, the header is the
    one of 4 to 14 bases that leaves whole 11-base windows.
    """
    _check_chunk_bases(chunk_bases)
    if not text or text.isspace():
        return ChunkBatch.of([])
    codes, lengths, title_lines = _split_fasta(text)

    if np.count_nonzero(lengths != lengths.max()) > 1:
        distinct = np.unique(lengths).tolist()
        if len(distinct) > 2:
            raise FastaError(f"inconsistent record lengths: {distinct}")
        raise FastaError(
            f"multiple records of non-full length {distinct[0]}; "
            "only the final chunk may be short"
        )
    mu = _infer_mu(lengths, chunk_bases)
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
    return ChunkBatch(codes, np.cumsum(lengths), np.full(len(lengths), header_len))


def decode_header(record: ChunkRecord) -> tuple[int, int, bool]:
    """Literal (no ECC) header decode: (file_id, chunk_index, parity_ok);
    the one-record case of :meth:`ChunkBatch.decoded_headers`."""
    file_ids, indices, parity_ok = ChunkBatch.of([record]).decoded_headers()
    return int(file_ids[0]), int(indices[0]), bool(parity_ok[0])

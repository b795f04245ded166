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
record once as a row (:meth:`ChunkBatch.record_rows`). FASTA text is
whole-record rows too: emit writes letters into them, and parse slices
that layout before it reads lines. Parsing judges syntax only: each
record keeps its own length, all take the header width their lengths
and number imply, and the decoder sets aside a record whose payload is not
whole windows. A :class:`ChunkRecord` is only built when a caller
indexes or iterates it.
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
_SEPARATORS = frozenset(SIZE_SEPARATOR + EXTENSION_SEPARATOR)  # no extension holds one
FASTA_LINE_WIDTH = 80

_ORD_ZERO = ord("0")
_NEWLINE = ord("\n")
_TITLE = ord(">")
_UNKNOWN = -1
_MAX_HEADER_WIDTH = FILE_ID_TRITS + 39 + 1  # 3**39 < 2**63 < 3**40: index trits an int64 holds
# bulk passes work in blocks, so their temporaries do not grow with the file
_TEXT_BLOCK = 1 << 18  # characters of FASTA text per block of the line reader
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
        _check_extension(self.extension)

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


class ChunkBatch(Sequence):
    """An immutable sequence of :class:`ChunkRecord`, kept as columns.

    ``codes`` holds every record's sequence, payload then header, back
    to back as base codes 0..3; ``ends`` is each record's end offset in
    it and ``header_widths`` its header length. ``file_ids`` and
    ``chunk_indices`` are negative where unknown, as for parsed records.
    The columns are read-only arrays, taken over rather than copied;
    :class:`ChunkError` refuses per-record columns of unequal lengths and
    ends that fall, start below 0 or pass the end of ``codes``. Indexing
    and iteration build ChunkRecords on demand; the codec's functions read
    the columns, and take any other sequence of records through :meth:`of`.
    """

    __slots__ = ("codes", "ends", "header_widths", "file_ids", "chunk_indices")

    def __init__(self, codes, ends, header_widths, file_ids=None, chunk_indices=None):
        codes, ends = np.asarray(codes, dtype=np.uint8), np.asarray(ends, dtype=np.int64)
        others = [
            np.asarray(np.full(len(ends), _UNKNOWN) if column is None else column, dtype=np.int64)
            for column in (header_widths, file_ids, chunk_indices)
        ]
        if any(len(column) != len(ends) for column in others):
            raise ChunkError("per-record columns differ in length")
        for name, column in zip(self.__slots__, [codes, ends, *others]):
            column.flags.writeable = False
            setattr(self, name, column)
        if len(ends) and (ends[-1] > len(codes) or self.lengths.min() < 0):
            raise ChunkError(f"record ends must rise from 0 to at most {len(codes)} bases")

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
        lengths = self.ends.copy()  # np.diff(prepend=0) is about 10x slower on 116,510 ends
        lengths[1:] -= self.ends[:-1]
        return lengths

    @property
    def starts(self) -> np.ndarray:
        return self.ends - self.lengths

    @property
    def payload_lengths(self) -> np.ndarray:
        return self.lengths - self.header_widths

    @property
    def whole_windows(self) -> np.ndarray:
        """Whether each record's payload is a positive multiple of 11 bases."""
        payloads = self.payload_lengths
        return (payloads > 0) & (payloads % CODEWORD_LENGTH == 0)

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ChunkBatch.of([self[i] for i in range(len(self))[index]])
        i = range(len(self))[index]
        return next(self._items(i, i + 1))

    def __iter__(self):
        blocks = range(0, len(self), _RECORD_BLOCK)
        return chain.from_iterable(self._items(lo, lo + _RECORD_BLOCK) for lo in blocks)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

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
        gathered a block at a time as columns and decoded transposed, so
        that each pass over a header column runs over contiguous memory.

        Unreadable positions (repeated bases) read as trit 0 and force
        parity_ok False, matching best-effort recovery of damaged headers.
        A header that is not there to read is not read: one of no bases,
        one longer than its record, or one wider than ``_MAX_HEADER_WIDTH``,
        whose index would overflow int64. It reads as file 0, chunk -1,
        parity False.
        """
        file_ids, indices = np.empty((2, len(self)), dtype=np.int64)
        parity_ok = np.empty(len(self), dtype=bool)
        widths = self.header_widths
        unread = (widths < 1) | (widths > _MAX_HEADER_WIDTH) | (widths > self.lengths)
        file_ids[unread], indices[unread], parity_ok[unread] = 0, -1, False
        widths = np.where(unread, 0, widths)  # no header is gathered at width 0
        # the widths by np.bincount, as np.unique loads numpy.ma
        for width in np.flatnonzero(np.bincount(widths[~unread])).tolist():
            ids = min(FILE_ID_TRITS, width - 1)
            records = np.flatnonzero(widths == width)
            columns = np.arange(width)[:, None]
            for lo in range(0, len(records), _RECORD_BLOCK):
                block = records[lo : lo + _RECORD_BLOCK]
                headers = self.codes.take(columns + (self.ends[block] - width), mode="clip")
                trits = decode_rows(headers.T, BASE_INDEX[DEFAULT_PREV_BASE]).T
                unreadable = trits == 3
                trits[unreadable] = 0
                file_ids[block], indices[block] = _horner(trits[:ids]), _horner(trits[ids:-1])
                parity = trits[:-1:2].sum(axis=0, dtype=np.uint8) % 3
                parity_ok[block] = ~unreadable.any(axis=0) & (parity == trits[-1])
        return file_ids, indices, parity_ok


def _horner(trits: np.ndarray) -> np.ndarray:
    """The base-3 values of the columns of a trit matrix, first row most
    significant, wrapping mod 2**64 as int64 arithmetic does."""
    values = np.zeros(trits.shape[1], dtype=np.int64)
    for row in trits:
        values *= 3
        values += row
    return values


def mu_for_segments(segment_count: int) -> int:
    """Number of chunk-index trits: ceil(log3(segments)), at least 1."""
    if segment_count < 1:
        raise ChunkError("segment count must be at least 1")
    mu = 1
    while 3**mu < segment_count:
        mu += 1
    return mu


def _trailer(size: int, extension: str) -> bytes:
    """The ``;<size>,<extension>;`` trailer that follows the content in
    the payload, one byte per codeword; :func:`split_payload_stream`
    reads it."""
    trailer = f"{SIZE_SEPARATOR}{size}{EXTENSION_SEPARATOR}{extension}{SIZE_SEPARATOR}"
    return trailer.encode("latin-1")


def split_payload_stream(stream: bytes) -> tuple[bytes, int | None, str, bool]:
    """Split a decoded payload stream into (content, declared size,
    extension, ok), reading the :func:`_trailer` from the end: the final
    ';', the ',' before it, the digits and the opening ';'. The content,
    which may hold any bytes, is cut to the declared size. A size of more
    than 18 digits, beyond any file, is no trailer. ok is whether the
    stream ends with the bytes ``_trailer`` writes for that size and an
    extension with no separator."""
    # each separator is sought before the one after it; one not found (-1) leaves none before it
    end = stream.rfind(SIZE_SEPARATOR.encode())
    comma = stream.rfind(EXTENSION_SEPARATOR.encode(), 0, max(end, 0))
    opens = stream.rfind(SIZE_SEPARATOR.encode(), 0, max(comma, 0))
    digits = stream[opens + 1 : comma]
    if opens == -1 or not digits.isdigit() or len(digits) > 18:
        return stream, None, "", False
    size, extension = int(digits), stream[comma + 1 : end].decode("latin-1")
    ok = stream[opens:] == _trailer(size, extension) and _SEPARATORS.isdisjoint(extension)
    return stream[: min(opens, size)], size, extension, ok


def _payload_values(fd: FileDescriptor) -> np.ndarray:
    """Byte values of the content followed by the trailer, one per payload codeword."""
    return np.frombuffer(fd.content + _trailer(fd.size_bytes, fd.extension), dtype=np.uint8)


def build_payload_trits(fd: FileDescriptor, codebook: ByteCodebook) -> str:
    """Concatenated codewords of content plus the metadata trailer."""
    trits = codebook.as_array()[_payload_values(fd)]
    return (trits + _ORD_ZERO).tobytes().decode("ascii")


def _check_extension(extension: str):
    for ch in extension:
        if ord(ch) > 255:
            raise ChunkError(f"extension character {ch!r} is not a byte")
        if ch in _SEPARATORS:
            raise ChunkError(f"extension must not contain {ch!r}")


def _layout(codewords: int, chunk_bases: int) -> tuple[int, int]:
    """(chunk count, header width) of a payload of ``codewords`` codewords
    cut into chunks of ``chunk_bases`` bases. Raises :class:`ChunkError`
    for a chunk size that is not a positive multiple of 11."""
    if chunk_bases < CODEWORD_LENGTH or chunk_bases % CODEWORD_LENGTH:
        raise ChunkError(
            f"chunk size must be a positive multiple of {CODEWORD_LENGTH}, "
            f"got {chunk_bases}"
        )
    count = -(-codewords // (chunk_bases // CODEWORD_LENGTH))
    return count, FILE_ID_TRITS + mu_for_segments(count) + 1


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
    values = _payload_values(fd)
    count, width = _layout(len(values), chunk_bases)
    words = chunk_bases // CODEWORD_LENGTH
    mu = width - FILE_ID_TRITS - 1
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
    """Number of characters of each integer in decimal, a minus sign included."""
    counts = 1 + np.searchsorted(_POWERS_OF_TEN, values, side="right")
    negative = values < 0  # np.abs of every value would cost 1.6 ms of a 1 MiB emit
    counts[negative] = 2 + np.searchsorted(_POWERS_OF_TEN, -values[negative], side="right")
    return counts


def _put_decimal(values: np.ndarray, out: np.ndarray):
    """Write integers in ASCII decimal, one per row of ``out``, whose
    width is their :func:`_digit_counts`."""
    negative, values = values < 0, np.abs(values)
    for col in range(out.shape[1] - 1, -1, -1):
        # one floor division per column, as in _header_rows
        quotient = values // 10
        out[:, col] = values - quotient * 10 + _ORD_ZERO
        values = quotient
    out[negative, 0] = ord("-")


def _fasta_rows(file_ids, indices, digits: tuple[int, int], codes: np.ndarray, out: np.ndarray):
    """Write the FASTA text of records alike in length and in ``digits`` (of id
    and index) into the rows of ``out``: the ``>f<id>_c<index> len=<bases>``
    title, then the letters of ``codes`` with a newline after every 80 and at the end."""
    length = codes.shape[1]
    id_end, index_end = 2 + digits[0], 4 + digits[0] + digits[1]
    template = f">f{'0' * (id_end - 2)}_c{'0' * (index_end - id_end - 2)} len={length}\n"
    title = len(template)
    out[:, :title] = np.frombuffer(template.encode("ascii"), dtype=np.uint8)
    _put_decimal(file_ids, out[:, 2:id_end])
    _put_decimal(indices, out[:, id_end + 2 : index_end])
    # ACGT by uint8 arithmetic, faster than a lookup: 65 + 2u + 11 (u >> 2), u = c + (c >> 1)
    high = codes >> 1
    high += codes
    letters = high >> 2
    letters *= 11
    letters += 65
    high += high
    letters += high
    for line, col in enumerate(range(0, length, FASTA_LINE_WIDTH)):
        at, width = title + col + line, min(FASTA_LINE_WIDTH, length - col)
        out[:, at : at + width] = letters[:, col : col + width]
        out[:, at + width] = _NEWLINE


def emit_fasta(records: Sequence[ChunkRecord]) -> str:
    """Serialize chunk records as FASTA, sequence wrapped at 80 columns.

    Each record is titled ``>f<file_id>_c<chunk_index> len=<bases>``; a
    record that does not know its id or index, as a parsed one, takes it
    from its decoded header.

    Records alike in length and digits are rows of text, a block at a
    time: in place where they lie back to back, else gathered and scattered.
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
    # a title line, then the bases with a newline after every 80 and at the end
    sizes = len(">f_c len=\n") + id_digits + index_digits + _digit_counts(lengths)
    sizes += lengths - -lengths // FASTA_LINE_WIDTH
    offsets = np.cumsum(sizes) - sizes
    # every byte is written below, so the text needs no zeroing
    text = np.empty(int(offsets[-1] + sizes[-1]), dtype=np.uint8)
    groups = (lengths * 32 + id_digits) * 32 + index_digits
    order = np.argsort(groups, kind="stable")
    cuts = {*range(_RECORD_BLOCK, len(order), _RECORD_BLOCK)}  # np.union1d loads numpy.ma mid-emit
    cuts.update((np.flatnonzero(np.diff(groups[order])) + 1).tolist())
    for rows in np.split(order, sorted(cuts)):
        first, count, length, size = rows[0], len(rows), lengths[rows[0]], sizes[rows[0]]
        digits = int(id_digits[first]), int(index_digits[first])
        if rows[-1] - first == count - 1:  # back to back (a stable sort keeps rows ascending)
            codes = batch.codes[starts[first] : starts[first] + count * length]
            place = text[offsets[first] : offsets[first] + count * size].reshape(count, size)
            _fasta_rows(file_ids[rows], indices[rows], digits, codes.reshape(count, length), place)
        else:
            place = np.empty((count, size), dtype=np.uint8)
            codes = sliding_window_view(batch.codes, length)[starts[rows]]
            _fasta_rows(file_ids[rows], indices[rows], digits, codes, place)
            sliding_window_view(text, size, writeable=True)[offsets[rows]] = place
    return str(text, "ascii")


def _split_fasta(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Base codes of all records, concatenated, with each record's length.

    Text laid out as :func:`emit_fasta` writes it is read as rows
    (:func:`_split_layout`), any other by lines: lines end at newlines,
    carriage returns are dropped, blank lines are skipped and a line
    starting with '>' opens a record. If that fails, lines split as
    :meth:`str.splitlines` does and stripped decide, errors included.
    Only syntax is an error here; a record may have any positive length."""
    try:
        return _split_layout(text) or _split_lines(text)
    except FastaError:
        return _split_lines("\n".join(map(str.strip, text.splitlines())))


def _split_layout(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`_split_fasta` of text laid out as :func:`emit_fasta` writes it
    in encode order, else None. Records of one title width and length in a
    row are rows up to the first whose '>' or newlines are out of place, each
    column probed as a bytes slice; each block's bases are copied into one
    codes array and translated there. A newline in a title, a non-base (a CR,
    say), a narrower title or a second run of another length gives None."""
    data = text.encode("utf-8")
    runs, pos, others = [], 0, 0  # blocks of rows: (first byte, rows, title width, span, bases)
    while pos < len(data):
        end = data.find(b"\n", pos)
        title, span = end + 1 - pos, (data.find(b"\n>", end) + 1 or len(data)) - pos
        length = span - title - -(-(span - title) // (FASTA_LINE_WIDTH + 1))
        count = (len(data) - pos) // span if end >= 0 and length > 0 else 0
        for col in [0, *range(title - 1, span - 1, FASTA_LINE_WIDTH + 1), span - 1]:
            column = data[pos + col : pos + count * span : span]  # the rows' bytes in it
            count = len(column) - len(column.lstrip(b"\n" if col else b">"))
        others += bool(runs) and length != runs[0][4]
        if not count or runs and runs[-1][4] == length and title < runs[-1][2] or others > 1:
            return None
        for lo in range(0, count, _RECORD_BLOCK):
            runs.append((pos + lo * span, min(_RECORD_BLOCK, count - lo), title, span, length))
        pos += count * span
    codes = np.empty(sum(run[1] * run[4] for run in runs), dtype=np.uint8)
    at = 0
    for pos, count, title, span, length in runs:
        rows = np.frombuffer(data, np.uint8, count * span, pos).reshape(count, span)
        block = codes[at : at + count * length]
        at += block.size
        for line, col in enumerate(range(0, length, FASTA_LINE_WIDTH)):
            at_text, width = title + col + line, min(FASTA_LINE_WIDTH, length - col)
            block.reshape(count, length)[:, col : col + width] = rows[:, at_text : at_text + width]
        letters = block.tobytes().translate(_CHAR_TO_CODE_TABLE)
        if 255 in letters or np.count_nonzero(rows[:, 1 : title - 1] == _NEWLINE):
            return None
        memoryview(block)[:] = letters
    counts, lengths = zip(*(run[1::3] for run in runs))
    return codes, np.repeat(lengths, counts)


def _split_lines(text: str) -> tuple[np.ndarray, np.ndarray]:
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
    return codes, lengths


def parse_fasta(text: str) -> ChunkBatch:
    """Parse FASTA text back into a batch of chunk records (headers
    undecoded, so ids and indices unknown), every record as it is.

    Only syntax is an error (:class:`FastaError`): sequence data before a
    title, a record with no sequence, a symbol that is not a base. Every
    record gets one header width, 3 + mu, from the records themselves. A
    payload is whole 11-base windows, so the most common record length
    (the longest on a tie) fixes mu modulo 11: mu is one of m, m + 11,
    ..., with m = (length - 4) mod 11 + 1, and of these the one nearest
    ``mu_for_segments(records parsed)``, the width the encoder gives a
    file of that many chunks. Whether a record's payload is whole windows
    is for ``mldecode.decode_file`` to judge.
    """
    if not text or text.isspace():
        return ChunkBatch.of([])
    codes, lengths = _split_fasta(text)
    distinct, counts = np.unique(lengths, return_counts=True)  # counts: no numpy.ma
    common = int(distinct[len(counts) - 1 - counts[::-1].argmax()])
    mu = (common - FILE_ID_TRITS - 2) % CODEWORD_LENGTH + 1
    mu += max(0, round((mu_for_segments(len(lengths)) - mu) / CODEWORD_LENGTH)) * CODEWORD_LENGTH
    return ChunkBatch(codes, np.cumsum(lengths), np.full(len(lengths), FILE_ID_TRITS + mu + 1))


def decode_header(record: ChunkRecord) -> tuple[int, int, bool]:
    """Literal (no ECC) header decode: (file_id, chunk_index, parity_ok);
    the one-record case of :meth:`ChunkBatch.decoded_headers`."""
    file_ids, indices, parity_ok = ChunkBatch.of([record]).decoded_headers()
    return int(file_ids[0]), int(indices[0]), bool(parity_ok[0])

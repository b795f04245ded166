"""Error-correcting reverse pipeline: nearest-neighbor decoding in DNA space.

A received 11-base window decodes to the codeword whose DNA image under
the current rotation context is closest. Searching in the DNA domain
(instead of converting the window to trits first) sidesteps unreadable
windows: a corrupted window may repeat a base and have no trit reading.
Ties on DNA distance fall through to the distance between each tied
codeword and the window's best-effort trit reading, unreadable positions
scored as mismatches; a tie on both layers is flagged ambiguous and the
smallest byte value is returned.

A window is held as one packed 22-bit key, two bits per base, and
every per-base step (a context shift, a trit reading, a substitution)
is a base-by-base sum mod 4 of keys, :func:`_add_fields`. A codeword's
image after base c is its image after 'A' shifted by c (mod 4), and a
window's trit reading does not change under that shift, so windows are
shifted into context 'A' and one image table serves all contexts. A
table indexed by the last nine bases of a shifted window names an image
and a radius, at most two, within which every window decodes to it
alone; built from every window within two substitutions of an image, it
gives ML decodes for any codebook. The same sort gives the near table:
the windows within two substitutions of an image that the radius-2
table does not place, sorted, each with its ML answer. All other windows
go to the kernel, :func:`_batched_min_stats`, which serves streams,
chunks and the audit; :func:`decode_codeword_ml` is its scalar
reference. The kernel answers every key in the near table by one sorted
search. Its row path, :func:`_row_decode`, sums for each farther key one
uint16 table row per key byte into ``distance << 9 | index`` for all 256
images: one row minimum gives the distance and the nearest image, and a
second one any tie, which the trit layer breaks the same way. It also
answers the near table's ties, once at build. Both layers read only the
shifted key, so the kernel decodes each distinct shifted key of a slice
once; the audit gives it each block of codewords in all four contexts in
one call, so a flipped image is decoded once for the four.

Chunks decode in sequence: each corrected window's last base is the
next window's context, and chunk k-1's last corrected base seeds chunk
k; a stream decodes as the fixed point of :func:`_decode_stream`. A file
decodes in one call of it, each run of consecutive chunks a stream.
After a missing chunk, the run takes the context under which its first
chunk decodes cheapest, all four scored for every run in one more call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .chunks import (
    _Columns,
    ChunkBatch,
    ChunkRecord,
    EXTENSION_SEPARATOR,
    SIZE_SEPARATOR,
)
from .codebook import CODE_SIZE, CODEWORD_LENGTH, ByteCodebook
from .ternary import DNA_ALPHABET
from .transcode import (
    _base_code,
    BASE_INDEX,
    DEFAULT_PREV_BASE,
    codes_to_dna,
    decode_rows,
    dna_codes,
    encode_rows,
)


class DecodeError(ValueError):
    """Raised when :func:`decode_chunk` is given a payload that is not
    whole 11-base windows; :func:`decode_file` sets such records aside."""


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


class ChunkReports(_Columns):
    """Read-only sequence of :class:`ChunkDecodeReport`, kept as columns.

    ``chunk_index``, ``file_id``, ``parity_ok`` and ``ambiguities`` hold
    one value per chunk; ``codeword_distances`` holds the DNA distance of
    every window of all chunks back to back, and ``window_ends`` the end
    of each chunk's windows in it. Indexing and iteration build reports
    on demand.
    """

    __slots__ = (
        "chunk_index", "file_id", "parity_ok", "codeword_distances", "window_ends", "ambiguities"
    )

    def __len__(self) -> int:
        return len(self.chunk_index)

    def _items(self, lo: int, hi: int):
        """Reports ``lo`` to ``hi - 1``, from one conversion of each column."""
        origin = int(self.window_ends[lo - 1]) if lo else 0
        ends = (self.window_ends[lo:hi] - origin).tolist()
        distances = self.codeword_distances[origin : origin + (ends[-1] if ends else 0)].tolist()
        return map(
            ChunkDecodeReport,
            self.chunk_index[lo:hi].tolist(),
            self.file_id[lo:hi].tolist(),
            self.parity_ok[lo:hi].tolist(),
            map(distances.__getitem__, map(slice, [0, *ends], ends)),
            self.ambiguities[lo:hi].tolist(),
        )


@dataclass
class DecodeResult:
    content: bytes
    extension: str
    size_bytes: int | None
    per_chunk: ChunkReports
    unrecoverable_chunks: list[int]
    file_id: int
    trailer_ok: bool
    set_aside: list[int]

    @property
    def fully_recovered(self) -> bool:
        return (
            not self.unrecoverable_chunks
            and self.trailer_ok
            and self.size_bytes is not None
            and len(self.content) == self.size_bytes
            and bool(self.per_chunk.parity_ok.all())
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
            "set_aside": self.set_aside,
            "chunks": [rep.to_dict() for rep in self.per_chunk],
        }


_BLOCK = 1024  # windows per kernel block; each (rows, 256) uint16 buffer is 512 KiB
_SLICE = _BLOCK << 4  # windows per kernel slice, whose distinct shifted keys are decoded once
_LOOKUP_BLOCK = 1 << 16  # windows per block of table lookups
_SHIFT = 9  # a packed table entry is mismatches << _SHIFT, plus the image index
_FIELDS = sum(1 << 2 * col for col in range(CODEWORD_LENGTH))  # low bit of every base field
_INDEX = 4**9 - 1  # the last nine bases of a window key: its lookup-table index
# each context's negation mod 4 in every field: adding it shifts a key into context 'A'
_NEGATIONS = (-np.arange(4, dtype=np.uint32) & 3) * np.uint32(_FIELDS)
# the bytes of a little-endian key hold bases 7-10, 3-6 and 0-2: 256, 256 and 64 values
_BYTE_VALUES = (256, 256, 64)
# the number of nonzero 2-bit fields in each byte: its mismatches when it is an XOR
_BYTE_MISMATCHES = sum((np.arange(256) >> 2 * f & 3) != 0 for f in range(4)).astype(np.uint16)
_PACK = np.uint32(1 | 1 << 10 | 1 << 20 | 1 << 30)  # see _row_keys
# the fields of a near table answer, value | distance << 8 | ambiguous << 10, in their low bytes
_ANSWER_SHIFTS = np.array([[0], [8], [10]], dtype=np.uint16)


def _add_fields(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The base-by-base sum mod 4 of window keys: the low bits of each
    field add with no carry out of it, the high bits by XOR."""
    return ((a & _FIELDS) + (b & _FIELDS)) ^ ((a ^ b) & (_FIELDS << 1))


def _key_bytes(keys: np.ndarray) -> np.ndarray:
    """The (3, keys) low three bytes of little-endian window keys."""
    return keys.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)[:, :3].T


def _packed_tables(keys: np.ndarray) -> list[np.ndarray]:
    """Per byte of the 256 window ``keys``, one uint16 table indexed by
    the byte's values: the mismatch count with each key << ``_SHIFT``,
    plus the key's index in the first table only; so a window's entries
    sum to ``distance << _SHIFT | index``."""
    tables = [
        _BYTE_MISMATCHES[np.arange(size, dtype=np.uint8)[:, None] ^ column] << _SHIFT
        for size, column in zip(_BYTE_VALUES, _key_bytes(keys))
    ]
    tables[0] |= np.arange(CODE_SIZE, dtype=np.uint16)
    return tables


def _gather(keys: np.ndarray, tables: list[np.ndarray], out=None, part=None) -> np.ndarray:
    """(keys, 256) packed distances of window keys to the keys the tables
    were built from, into the buffers ``out`` and ``part`` if given."""
    indices = _key_bytes(keys)
    packed = np.take(tables[0], indices[0], axis=0, out=out, mode="clip")
    for table, index in zip(tables[1:], indices[1:]):
        packed += np.take(table, index, axis=0, out=part, mode="clip")
    return packed


def _nearest(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row minima of ``packed`` (distance << _SHIFT | index), so distances
    and lowest nearest indices, and whether another column ties each on
    distance. Subtracting the minimum plus one, in place, leaves a tied
    column below 255, the minimum at 0xFFFF and farther columns at 256 up."""
    best = packed.min(axis=1)
    packed -= (best + 1)[:, None]
    return best, packed.min(axis=1) < CODE_SIZE - 1


def _row_keys(rows: np.ndarray, words: int) -> np.ndarray:
    """The first ``words`` 11-base windows of each row of a C-contiguous
    base-code matrix, each packed into 22 bits, first base highest, as a
    (rows, words) matrix. Bases 0-3, 4-7 and 7-10 of a window are read as
    one little-endian uint32 each; times 1 | 1 << 10 | 1 << 20 | 1 << 30
    it holds b0 << 6 | b1 << 4 | b2 << 2 | b3 in its top byte, no carry
    reaching it. Base 7 is packed twice, onto itself."""
    shape, strides = (len(rows), words), (rows.shape[1], CODEWORD_LENGTH)
    a, b, c = (np.ndarray(shape, "<u4", rows, at, strides) * _PACK >> 24 for at in (0, 4, 7))
    return a << 14 | b << 6 | c


@lru_cache(maxsize=None)
def _flip_offsets(flips: int) -> np.ndarray:
    """The keys that add 1, 2 or 3 to each of ``flips`` distinct bases:
    every substitution of that many bases, as an offset to add by
    :func:`_add_fields` (a substituted base never maps to itself).
    Built once per flip count and read-only."""
    offsets = np.array(
        [
            sum(off << 2 * pos for pos, off in zip(positions, offsets))
            for positions in combinations(range(CODEWORD_LENGTH), flips)
            for offsets in product((1, 2, 3), repeat=flips)
        ],
        dtype=np.uint32,
    )
    offsets.flags.writeable = False
    return offsets


def _radius_tables(image_keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """The radius-2 table of ``image_keys`` and the near table of the keys
    within two substitutions of an image that it does not place, both
    from one sort of every such key.

    Under the last nine bases of a key, the radius-2 table holds
    ``radius << 8 | image``, such that every key within ``radius``
    substitutions of the image decodes to it alone. The near table is
    those other keys, sorted, each with its nearest image and distance,
    ``image | distance << 8``, and the places in it of the keys that tie
    on DNA distance, whose answer the trit layer gives."""
    offsets = [_flip_offsets(flips) for flips in range(3)]
    entries = _add_fields(image_keys[:, None], np.concatenate(offsets)) << 10
    entries |= np.repeat(np.arange(3, dtype=np.uint32), list(map(len, offsets))) << 8
    entries |= np.arange(len(image_keys), dtype=np.uint32)[:, None]
    entries = entries.ravel()  # key << 10 | substitutions << 8 | image
    entries.sort()
    step = (entries[1:] ^ entries[:-1]) >> 8  # 0 within a key and distance, < 4 within a key
    # a key's first entry is its nearest image, unique unless the next entry ties it
    first = np.concatenate(([True], step > 3))
    tied = np.append(step == 0, False)
    del step
    others = np.flatnonzero(~first | tied)  # every entry but a unique nearest image
    slots, near = entries >> 10 & _INDEX, (entries & 0x3FF).astype(np.uint16)
    # a slot names the image of its nearest uniquely decoded key, the lowest on a tie
    table = np.full(_INDEX + 1, 3 << 8, dtype=np.uint16)
    nearest = near.copy()
    nearest[others] = 0xFFFF
    np.minimum.at(table, slots, nearest)
    del nearest
    table &= 0xFF
    # and its radius stops short of its nearest key within 2 of that image not decoding to it alone
    spoilers = others[table[slots[others]] == (near[others] & 0xFF)]
    table |= 2 << 8
    np.minimum.at(table, slots[spoilers], near[spoilers] - (1 << 8))
    # lookup places each key within the radius of the image its slot names; the near table
    # holds the others, each with its nearest image and distance
    slot_entries = table[slots]
    del slots
    placed = ((slot_entries ^ near) & 0xFF == 0) & (near <= slot_entries)
    rest = np.flatnonzero(first & ~placed)
    del slot_entries, placed
    # a last key above every window key ends every search inside the table
    near_keys = np.append(entries[rest] >> 10, np.uint32(4**CODEWORD_LENGTH))
    return table, near_keys, np.append(near[rest], np.uint16(0)), np.flatnonzero(tied[rest])


class CandidateImages:
    """The codeword trits and the keys of their DNA images in context
    'A', cached per codebook, with the kernel's packed tables of both and
    the :func:`_radius_tables` of the image keys: ``table`` for
    :meth:`lookup`, and ``near_keys`` with ``near_answers`` for the kernel,
    whose row path answers the near keys tied on DNA distance at build."""

    def __init__(self, codebook: ByteCodebook):
        self.words = codebook.as_array()
        self.image_keys = _row_keys(encode_rows(self.words, 0), 1)[:, 0]
        self.table, self.near_keys, self.near_answers, ties = _radius_tables(self.image_keys)
        self.image_tables = _packed_tables(self.image_keys)
        self.word_tables = _packed_tables(_row_keys(self.words, 1)[:, 0])
        found = _row_decode(self.near_keys[ties], self)
        self.near_answers[ties] = np.bitwise_or.reduce(found << _ANSWER_SHIFTS, axis=0)

    def lookup(self, keys: np.ndarray, contexts: np.ndarray) -> tuple[np.ndarray, ...]:
        """Table decode of packed windows received after ``contexts``:
        (byte values, DNA distances, placed flags). A window is placed
        when it differs from its entry's image in at most the entry's
        radius of bases; the image is then its unique ML decode, at DNA
        distance 0, 1 or 2. Any other window needs the kernel; its value
        means nothing, and its distance is 1 to 3."""
        keys = _add_fields(keys, _NEGATIONS[contexts])
        entries = np.take(self.table, keys & _INDEX)
        values = entries.astype(np.uint8)  # the low byte: the image
        keys ^= np.take(self.image_keys, values)
        mismatches = (keys | keys >> 1) & _FIELDS  # the low bit of each differing base
        # the count of differing bases, capped at 3: clear the lowest set bit twice
        distances = (mismatches != 0).view(np.uint8)
        for _ in range(2):
            mismatches &= mismatches - 1
            distances += mismatches != 0
        return values, distances, distances <= entries >> 8


@lru_cache(maxsize=4)
def candidate_images(codebook: ByteCodebook) -> CandidateImages:
    return CandidateImages(codebook)


def decode_codeword_ml(
    window: str,
    prev_base: str,
    codebook: ByteCodebook,
) -> DecodedCodeword:
    """Maximum-likelihood decode of one received window after the base
    ``prev_base``, of either case.

    Total function: always returns the best candidate; decode quality is
    conveyed through the distances and the ambiguous flag. This is the
    scalar reference of :func:`_batched_min_stats`: it encodes the
    candidate images in the given context rather than shifting them.
    """
    if len(window) != CODEWORD_LENGTH:
        raise ValueError(
            f"window must have length {CODEWORD_LENGTH}, got {len(window)}"
        )
    prev_code = _base_code(prev_base)
    words = candidate_images(codebook).words
    images = encode_rows(words, prev_code)
    received = dna_codes(window)
    dists = (images != received).sum(axis=1)
    best = int(dists.min())
    tied = np.flatnonzero(dists == best)

    # an unreadable position reads as 3, which mismatches every candidate
    reading = decode_rows(received[None], prev_code)[0]
    trit_dists = (words[tied] != reading).sum(axis=1)
    best_trit = int(trit_dists.min())
    finalists = tied[trit_dists == best_trit]
    return DecodedCodeword(
        byte_value=int(finalists[0]),
        dna_distance=best,
        trit_distance=best_trit,
        ambiguous=len(finalists) > 1,
        corrected_window=codes_to_dna(images[finalists[0]]),
    )


def _row_decode(keys: np.ndarray, images: CandidateImages) -> np.ndarray:
    """The kernel's row path: two-layer ML decode of window keys shifted
    into context 'A', as a (3, keys) uint8 array of byte values, DNA
    distances and ambiguous flags. Keys go ``_BLOCK`` at a time; a block
    sums its packed distances to all images from the image tables, and
    :func:`_nearest` reads the distance, the lowest-index nearest image
    and a tie flag from them. Only the tied keys take the trit layer, in
    the same buffers: the same search over the word tables, with untied
    images set to 0xFFFF."""
    found = np.zeros((3, len(keys)), dtype=np.uint8)
    buffers = np.empty((2, min(len(keys), _BLOCK), CODE_SIZE), dtype=np.uint16)
    for lo in range(0, len(keys), _BLOCK):
        shifted = keys[lo : lo + _BLOCK]
        packed = _gather(shifted, images.image_tables, *buffers[:, : len(shifted)])
        best, tied = _nearest(packed)
        found[:2, lo : lo + _BLOCK] = best & 0xFF, best >> _SHIFT
        rows = np.flatnonzero(tied)
        if rows.size:
            # _nearest left a tied image below 255, or at 0xFFFF for the
            # nearest; the trit reading adds to each base the complement
            # of its predecessor ('A' before the first), so a repeated
            # base reads 3, which matches no trit
            untied = packed[rows] + 1 >= CODE_SIZE
            shifted = shifted[rows]
            readings = _add_fields(shifted, ~shifted >> 2)
            packed = _gather(readings, images.word_tables, *buffers[:, : len(rows)])
            packed[untied] = 0xFFFF
            best, found[2, lo + rows] = _nearest(packed)
            found[0, lo + rows] = best & 0xFF
    return found


def _batched_min_stats(
    keys: np.ndarray, contexts: np.ndarray | int, images: CandidateImages
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-layer ML decode of window keys, each received after its
    context base code: (byte values, DNA distances, ambiguous flags).

    Keys are shifted into context 'A' ``_SLICE`` at a time, and each
    distinct shifted key of a slice is decoded once; both layers read
    only the shifted key, so its result is scattered back to every key
    that shares it. One sorted search of the near table answers every
    distinct key within two substitutions of an image that the radius-2
    table does not place; :func:`_row_decode` answers the others.
    """
    n = len(keys)
    contexts = np.broadcast_to(np.asarray(contexts, dtype=np.uint8), (n,))
    values = np.empty(n, dtype=np.uint8)
    distances = np.empty(n, dtype=np.uint8)
    ambiguous = np.empty(n, dtype=bool)
    for lo in range(0, n, _SLICE):
        part = slice(lo, lo + _SLICE)
        distinct, inverse = np.unique(
            _add_fields(keys[part], _NEGATIONS[contexts[part]]), return_inverse=True
        )
        at = np.searchsorted(images.near_keys, distinct)
        # values, distances and ties, as the near table answers them
        found = (images.near_answers[at] >> _ANSWER_SHIFTS).astype(np.uint8)
        found[1] &= 3
        far = np.flatnonzero(images.near_keys[at] != distinct)
        found[:, far] = _row_decode(distinct[far], images)
        values[part], distances[part], ambiguous[part] = found[:, inverse]
    return values, distances, ambiguous


def _decode_stream(
    keys: np.ndarray, breaks, prev_codes, images: CandidateImages
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Decode streams of received windows, held back to back as packed
    keys, window by window with context chaining. A stream starts at
    each window position in ``breaks``, ascending from 0, after the base
    code at the same place in ``prev_codes``.

    Returns (byte values, per-window DNA distances, per-window ambiguous
    flags, final corrected base code of the last stream).

    A window's context is the last base of its corrected predecessor in
    its stream. Round one looks every window up in the radius-2 table
    under its received context, block by block; a window it finds exact
    keeps its last base, so an undamaged stream ends there. Each round,
    the kernel decodes the misses, except a miss whose context a hit of
    the same round has just changed: that one waits for the next round,
    which looks up again every window whose context this round changed.
    Window k's context is final after at most k+1 rounds, so the result
    is the sequential window-by-window decode of each stream.
    """
    n = len(keys)
    # contexts[k] is the last base of window k-1 as last decoded, or the given context
    contexts = np.empty(n + 1, dtype=np.uint8)
    np.bitwise_and(keys, 3, out=contexts[1:], casting="unsafe")
    contexts[breaks] = prev_codes
    last = (images.image_keys & 3).astype(np.uint8)
    values, distances = np.empty((2, n), dtype=np.uint8)
    hit = np.empty(n, dtype=np.uint8)  # apart, so the results do not hold it
    for lo in range(0, n, _LOOKUP_BLOCK):
        block = slice(lo, min(n, lo + _LOOKUP_BLOCK))
        values[block], distances[block], hit[block] = images.lookup(keys[block], contexts[block])
    ambiguous = np.zeros(n, dtype=bool)
    tails = np.subtract(breaks[1:], 1)  # the last window of every stream but the last
    todo = np.flatnonzero(distances)
    hit = hit.view(bool)[todo]
    while todo.size:
        ctx = contexts[todo]
        # the places in todo of stream tails, whose last base is no context
        ending = np.searchsorted(todo, tails)
        ending = ending[todo.take(ending, mode="clip") == tails]
        moves = hit & (((last[values[todo]] + ctx) & 3) != contexts[todo + 1])
        moves[ending] = False
        run = ~hit
        run[1:] &= ~(moves[:-1] & (np.diff(todo) == 1))
        rows = todo[run]
        if rows.size:
            values[rows], distances[rows], ambiguous[rows] = _batched_min_stats(
                keys[rows], ctx[run], images
            )
        moves[run] = ((last[values[rows]] + ctx[run]) & 3) != contexts[rows + 1]
        moves[ending] = False
        todo = todo[moves]
        contexts[todo + 1] = (last[values[todo]] + contexts[todo]) & 3
        todo = todo[todo < n - 1] + 1
        values[todo], distances[todo], hit = images.lookup(keys[todo], contexts[todo])
        ambiguous[todo] = False
    return values, distances, ambiguous, int(contexts[n])


def _best_contexts(keys: np.ndarray, counts: np.ndarray, images: CandidateImages) -> np.ndarray:
    """For each stream of ``counts`` windows, held back to back in
    ``keys``, the base code under which it decodes with the lowest total
    distance, the lowest code on a tie: one :func:`_decode_stream` call
    decodes every stream in all four contexts."""
    bases = np.arange(len(DNA_ALPHABET))
    breaks = (np.cumsum(counts) - counts + len(keys) * bases[:, None]).ravel()
    prev_codes = np.repeat(bases, len(counts))
    _, distances, _, _ = _decode_stream(np.tile(keys, len(bases)), breaks, prev_codes, images)
    costs = np.add.reduceat(distances, breaks, dtype=np.int64).reshape(len(bases), -1)
    return costs.argmin(axis=0)


def _payload_keys(batch: ChunkBatch, order) -> tuple[np.ndarray, np.ndarray]:
    """The packed keys of the payload windows of the records ``order``,
    in that order, with each record's window count, packed from the
    record rows; no array per window but the keys spans the stream.
    Every record of ``order`` must fit: its payload is a positive
    multiple of 11 bases.
    """
    counts = batch.payload_lengths[order] // CODEWORD_LENGTH
    firsts = np.cumsum(counts) - counts
    keys = np.empty(int(counts.sum()), dtype=np.uint32)
    for places, rows, width in batch.record_rows(order):
        words = (rows.shape[1] - width) // CODEWORD_LENGTH
        # a record's keys as one item, placed by one copy
        item = np.dtype(f"V{keys.itemsize * words}")
        spans = np.ndarray((len(keys) - words + 1,), item, keys, 0, (keys.itemsize,))
        spans[firsts[places]] = _row_keys(rows, words).view(item)[:, 0]
    return keys, counts


def decode_chunk(
    record: ChunkRecord,
    codebook: ByteCodebook,
    prev_base: str | None = DEFAULT_PREV_BASE,
) -> tuple[bytes, ChunkDecodeReport, str]:
    """Decode one chunk: literal header decode plus ML payload decode.

    ``prev_base`` is the inherited payload context, one base of either
    case; pass None to search all four contexts and keep the one with
    the lowest total distance.
    Header damage never aborts the decode: the payload is still
    recovered best-effort and the chunk is flagged via ``parity_ok``.
    Raises :class:`DecodeError` for a payload that is not a positive
    multiple of 11 bases.
    """
    batch = ChunkBatch.of([record])
    if not batch.whole_windows[0]:
        raise DecodeError(f"a payload is not a positive multiple of {CODEWORD_LENGTH} bases")
    keys, _ = _payload_keys(batch, slice(None))
    file_ids, indices, parity_ok = batch.decoded_headers()
    images = candidate_images(codebook)
    search = prev_base is None
    prev = _best_contexts(keys, [len(keys)], images) if search else [_base_code(prev_base)]
    values, distances, ambiguous, last = _decode_stream(keys, [0], prev, images)
    report = ChunkDecodeReport(
        chunk_index=int(indices[0]) if record.chunk_index is None else record.chunk_index,
        file_id=int(file_ids[0]),
        parity_ok=bool(parity_ok[0]),
        codeword_distances=distances.tolist(),
        ambiguities=int(np.count_nonzero(ambiguous)),
    )
    return values.tobytes(), report, DNA_ALPHABET[last]


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


def decode_file(
    records: Sequence[ChunkRecord], codebook: ByteCodebook
) -> DecodeResult:
    """Reassemble and decode a full file from chunk records.

    Records may arrive in any order, of any lengths. Only those whose
    payload is a positive multiple of 11 bases fit; they vote on the file
    id, and their decoded headers give indices. An index is placed below
    ``3**11`` or three times the records that fit, whichever is more, as
    parity does not bound a wide header's index. Each index keeps one
    record: the first whose header passes parity and names the majority
    file id, else its first. All other records are listed in
    ``set_aside`` by input position, ascending. Missing chunks are
    reported and stand in as zero bytes so later content keeps its
    offsets. Never raises on records that parse: with none that fits,
    the result is empty, file id 0, and every record is set aside.
    """
    batch = ChunkBatch.of(records)
    fits = batch.whole_windows
    images = candidate_images(codebook)

    fid_arr, index_arr, parity_arr = batch.decoded_headers()
    file_id = int(np.bincount(fid_arr[fits], minlength=1).argmax())
    limit = max(3 * int(np.count_nonzero(fits)), 3**11)  # 3**11 chunks: 1.6 MB
    placeable = fits & (index_arr >= 0) & (index_arr < limit)
    # a stable sort by index, trusted headers first within an index, of the placeable records
    order = np.lexsort((~(parity_arr & (fid_arr == file_id)), index_arr))
    order = order[placeable[order]]
    order = order[np.diff(index_arr[order], prepend=-1) != 0]
    set_aside = np.flatnonzero(np.bincount(order, minlength=len(batch)) == 0).tolist()

    present = index_arr[order]
    keys, counts = _payload_keys(batch, order)
    ends = np.cumsum(counts)
    missing = np.flatnonzero(np.bincount(present) == 0).tolist()

    # each run of consecutive chunk indices (indices are at least 0, so
    # the first record starts one) is a stream of one decode; a run after
    # a gap takes the context its first chunk decodes best under
    runs = np.flatnonzero(np.diff(present, prepend=-2) != 1)
    firsts = (ends - counts)[runs]  # the first window of each run
    prev_codes = np.full(len(runs), BASE_INDEX[DEFAULT_PREV_BASE], dtype=np.uint8)
    lost = present[runs] != 0
    if lost.any():
        heads = np.concatenate([keys[lo:hi] for lo, hi in zip(firsts[lost], ends[runs[lost]])])
        prev_codes[lost] = _best_contexts(heads, counts[runs[lost]], images)
    values, distances, ambiguous, _ = _decode_stream(keys, firsts, prev_codes, images)

    # missing chunks stand in as zero bytes so that later content keeps its offsets
    placeholder = bytes(int(counts.max(initial=0)))
    gaps = np.diff(present[runs] - runs, prepend=0)  # the chunks missing before each run
    pieces = []
    for gap, lo, hi in zip(gaps.tolist(), firsts.tolist(), [*firsts[1:].tolist(), len(keys)]):
        pieces += [placeholder * gap, values[lo:hi].tobytes()]
    stream_bytes = b"".join(pieces)
    # the chunk of each ambiguous window, of which there are few
    chunk_of = np.searchsorted(ends, np.flatnonzero(ambiguous), side="right")
    reports = ChunkReports(
        present,
        fid_arr[order],
        parity_arr[order],
        distances,
        ends,
        np.bincount(chunk_of, minlength=len(ends)),
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
        set_aside=set_aside,
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


def audit_substitutions(codebook: ByteCodebook, flips: int) -> AuditResult:
    """Exhaustively flip ``flips`` bases of every codeword image in every
    context and tally the decoder's behaviour.

    A case counts as uniquely corrected when the original byte comes
    back with the ambiguous flag clear. Ties that survive both decoding
    layers count as ambiguous even if the byte-value tiebreak happens to
    return the original.

    The codewords are looked up in the radius-2 table in blocks, each in
    all four contexts, and the cases it cannot place go to the kernel in
    one call of at most ``_SLICE`` windows. Every case is shifted by its
    own context and tallied from its own result; the kernel decodes a
    flipped image once for all four contexts, as they share its shift
    into context 'A'. Up to two flips, every case the radius-2 table
    leaves is in the kernel's near table, so no row is summed.
    """
    offsets = _flip_offsets(flips)
    images = candidate_images(codebook)
    contexts = np.arange(len(DNA_ALPHABET), dtype=np.uint8)
    received = np.stack([_row_keys(encode_rows(images.words, c), 1)[:, 0] for c in contexts])
    words = max(1, _SLICE // (len(contexts) * max(1, len(offsets))))
    cases = unique_correct = ambiguous = miscorrected = 0
    for lo in range(0, CODE_SIZE, words):
        keys = _add_fields(received[:, lo : lo + words, None], offsets)
        block = np.repeat(contexts, keys[0].size)
        values, _, placed = images.lookup(keys.ravel(), block)
        flagged = np.zeros(keys.shape, dtype=bool)
        misses = np.flatnonzero(~placed)
        values[misses], _, flagged.ravel()[misses] = _batched_min_stats(
            keys.ravel()[misses], block[misses], images
        )
        correct = values.reshape(keys.shape) == np.arange(lo, lo + keys.shape[1])[:, None]
        cases += keys.size
        unique_correct += int((correct & ~flagged).sum())
        ambiguous += int(flagged.sum())
        miscorrected += int((~correct & ~flagged).sum())
    return AuditResult(
        cases=cases,
        unique_correct=unique_correct,
        ambiguous=ambiguous,
        miscorrected=miscorrected,
    )

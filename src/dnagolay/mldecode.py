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
shifted into context 'A' and one image table serves all contexts.

Every answer is one uint16 word, ``distance << 9 | ambiguous << 8 |
byte``, from the ball table through the kernel to the stream decoder.
The ball table holds the final two-layer answer of every shifted key
within two substitutions of an image, for any codebook, and ``_FAR``,
``3 << 9``, for every other key. One sort of every such key with each
image it is near gives its nearest image, or a tie, which the row path
answers at build. The table has two levels: the last nine bases of a
key, its slot, name a block of 16 cells, and its first two bases the
cell; slots with equal cells share a block. The kernel,
:func:`_batched_min_stats`, serves streams, chunks and the audit;
:func:`decode_codeword_ml` is its scalar reference. It reads the ball
table for every key. Its row path, :func:`_row_decode`, sums for each
farther key one uint16 table row per key byte into
``distance << 9 | index`` for all 256 images: one row minimum is the
answer of a key with one nearest image, and a second one finds any tie,
which the trit layer breaks the same way. Both layers read only the
shifted key, so the row path decodes each distinct shifted key of a
slice once. The audit gives the kernel each block of codewords in all
four contexts in one call; up to two flips the ball table answers every
case.

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

from .chunks import _Columns, ChunkBatch, ChunkRecord, split_payload_stream
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
_AMBIGUOUS = 1 << 8  # the tie flag of an answer word, distance << _SHIFT | tie << 8 | byte
_FIELDS = sum(1 << 2 * col for col in range(CODEWORD_LENGTH))  # low bit of every base field
_INDEX = 4**9 - 1  # the last nine bases of a window key: its lookup-table index
# each context's negation mod 4 in every field: adding it shifts a key into context 'A'
_NEGATIONS = (-np.arange(4, dtype=np.uint32) & 3) * np.uint32(_FIELDS)
# the bytes of a little-endian key hold bases 7-10, 3-6 and 0-2: 256, 256 and 64 values
_BYTE_VALUES = (256, 256, 64)
# the number of nonzero 2-bit fields in each byte: its mismatches when it is an XOR
_BYTE_MISMATCHES = sum((np.arange(256) >> 2 * f & 3) != 0 for f in range(4)).astype(np.uint16)
_PACK = np.uint32(1 | 1 << 10 | 1 << 20 | 1 << 30)  # see _row_keys
_FAR = 3 << _SHIFT  # the ball cell of a key farther than two substitutions from every image


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


def _ball_table(images: CandidateImages) -> tuple[np.ndarray, np.ndarray]:
    """The ball table of ``images``: the final two-layer ML answer word
    of every key within two substitutions of an image, in two levels.
    Returns the block of each key's last nine bases, its slot, and the
    (16, blocks) cells of the blocks, indexed by its first two bases.

    Every such key is listed with each image it is near,
    ``key << 10 | substitutions << 8 | image``, and one sort puts its
    nearest image first; the next entry ties it when it has the same key
    and count, and the row path answers those keys. Slots whose 16 cells
    are equal share a block: the keys sort by their first two bases, and
    each of those 16 runs splits the classes of the slots it touches by
    their cells there. Block 0, all cells ``_FAR``, serves the slots no
    key touches."""
    offsets = [_flip_offsets(flips) for flips in range(3)]
    entries = _add_fields(images.image_keys[:, None], np.concatenate(offsets)) << 10
    entries |= np.repeat(np.arange(3, dtype=np.uint32), list(map(len, offsets))) << 8
    entries |= np.arange(len(images.image_keys), dtype=np.uint32)[:, None]
    entries = entries.ravel()
    entries.sort()
    step = (entries[1:] ^ entries[:-1]) >> 8  # 0 within a key and distance, < 4 within a key
    # a key's first entry is its nearest image, unique unless the next entry ties it
    first = np.concatenate(([True], step > 3))
    ties = np.flatnonzero(np.append(step == 0, False)[first])
    del step
    entries = entries[first]
    del first
    cells = (entries & 0x3FF).astype(np.uint16)
    cells += cells & 0x300  # the distance from bit 8 to bit _SHIFT
    # the row path answers the tied keys 256 at a time: freeing its 1 MiB
    # buffers for 1,024 keys would raise glibc's mmap threshold, so the 1 MiB
    # slot classes below would come from its heap, whose pages stay resident
    tied = entries[ties] >> 10
    parts = np.array_split(tied, range(256, len(tied), 256))
    cells[ties] = np.concatenate([_row_decode(part, images) for part in parts])
    # the keys sort by their first two bases: 16 runs, each ascending by slot
    runs = [0, *np.searchsorted(entries, np.arange(1, 16, dtype=np.uint32) << 28), len(entries)]
    entries >>= 10
    entries &= _INDEX  # now each key's slot
    # each run splits the classes of the slots it reaches by their cell in it, so
    # slots end in one class when their 16 cells are equal; class 0 holds the
    # slots no key reaches
    classes = np.zeros(_INDEX + 1, dtype=np.uint32)
    count = 1
    for lo, hi in zip(runs[:-1], runs[1:]):
        slots = entries[lo:hi]
        distinct, inverse = np.unique(classes[slots] << 11 | cells[lo:hi], return_inverse=True)
        classes[slots] = inverse + count
        count += len(distinct)
    # a block per class left, numbered in class order from block 0, the far block
    used = np.zeros(count, dtype=bool)
    used[classes] = True
    blocks = np.cumsum(used, dtype=np.min_scalar_type(np.count_nonzero(used))) - 1
    block_cells = np.full((len(runs) - 1, int(blocks[-1]) + 1), _FAR, dtype=np.uint16)
    blocks = blocks[classes]
    del classes
    highs = np.repeat(np.arange(len(runs) - 1, dtype=np.uint8), np.diff(runs))
    block_cells[highs, blocks[entries]] = cells
    return blocks, block_cells


class CandidateImages:
    """The codeword trits and the keys of their DNA images in context
    'A', cached per codebook, with the kernel's packed tables of both and
    the :func:`_ball_table` of the image keys, ``ball_blocks`` and the
    answer words ``ball_cells``, which :meth:`lookup` reads; the kernel's
    row path answers the keys in it that tie on DNA distance, at build."""

    def __init__(self, codebook: ByteCodebook):
        self.words = codebook.as_array()
        self.image_keys = _row_keys(encode_rows(self.words, 0), 1)[:, 0]
        self.image_tables = _packed_tables(self.image_keys)
        self.word_tables = _packed_tables(_row_keys(self.words, 1)[:, 0])
        self.ball_blocks, self.ball_cells = _ball_table(self)

    def lookup(self, keys: np.ndarray, contexts: np.ndarray | int) -> np.ndarray:
        """Ball table decode of packed windows received after
        ``contexts``: one answer word per window, from two table reads. A
        window within two substitutions of an image is placed, its word
        below ``_FAR`` and its two-layer ML decode, that of
        :func:`_row_decode`; any other window needs the row path, and its
        word is ``_FAR``."""
        keys = _add_fields(keys, np.take(_NEGATIONS, contexts))
        blocks = np.take(self.ball_blocks, keys & _INDEX)
        keys >>= 2 * 9  # the first two bases
        keys *= self.ball_cells.shape[1]
        keys += blocks
        return np.take(self.ball_cells, keys)


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
    into context 'A', one answer word per key. Keys go ``_BLOCK`` at a
    time; a block sums its packed distances to all images from the image
    tables, and :func:`_nearest` reads each row minimum, the answer of a
    key with one nearest image, and a tie flag from them. Only the tied
    keys take the trit layer, in the same buffers: the same search over
    the word tables, with untied images set to 0xFFFF, whose nearest
    image and tie flag replace the low nine bits of the answer."""
    found = np.empty(len(keys), dtype=np.uint16)
    buffers = np.empty((2, min(len(keys), _BLOCK), CODE_SIZE), dtype=np.uint16)
    for lo in range(0, len(keys), _BLOCK):
        shifted = keys[lo : lo + _BLOCK]
        packed = _gather(shifted, images.image_tables, *buffers[:, : len(shifted)])
        block = found[lo : lo + _BLOCK]
        block[:], tied = _nearest(packed)
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
            best, ambiguous = _nearest(packed)
            block[rows] = block[rows] >> _SHIFT << _SHIFT | ambiguous << 8 | best & 0xFF
    return found


def _batched_min_stats(
    keys: np.ndarray, contexts: np.ndarray | int, images: CandidateImages
) -> np.ndarray:
    """Two-layer ML decode of window keys, each received after its
    context base code: one answer word per key.

    The ball table answers every key within two substitutions of an
    image. The others are shifted into context 'A' ``_SLICE`` at a time,
    and :func:`_row_decode` decodes each distinct shifted key of a slice
    once; both layers read only the shifted key, so its answer is
    scattered back to every key that shares it.
    """
    contexts = np.broadcast_to(np.asarray(contexts, dtype=np.uint8), (len(keys),))
    words = images.lookup(keys, contexts)
    far = np.flatnonzero(words >= _FAR)
    for lo in range(0, len(far), _SLICE):
        part = far[lo : lo + _SLICE]
        distinct, inverse = np.unique(
            _add_fields(keys[part], _NEGATIONS[contexts[part]]), return_inverse=True
        )
        words[part] = _row_decode(distinct, images)[inverse]
    return words


def _decode_stream(
    keys: np.ndarray, breaks, prev_codes, images: CandidateImages
) -> tuple[np.ndarray, int]:
    """Decode streams of received windows, held back to back as packed
    keys, window by window with context chaining. A stream starts at
    each window position in ``breaks``, ascending from 0, after the base
    code at the same place in ``prev_codes``.

    Returns (one answer word per window, final corrected base code of the
    last stream).

    A window's context is the last base of its corrected predecessor in
    its stream. Round one looks every window up in the ball table under
    its received context, block by block, which answers, ties included,
    every window within two substitutions of an image; a window it finds
    exact keeps its last base, so an undamaged stream ends there. Each
    round, the kernel decodes the misses, except a miss whose context a
    hit of the same round has just changed: that one waits for the next
    round, which looks up again every window whose context this round
    changed.
    Window k's context is final after at most k+1 rounds, so the result
    is the sequential window-by-window decode of each stream.
    """
    n = len(keys)
    # contexts[k] is the last base of window k-1 as last decoded, or the given context
    contexts = np.empty(n + 1, dtype=np.uint8)
    np.bitwise_and(keys, 3, out=contexts[1:], casting="unsafe")
    contexts[breaks] = prev_codes
    last = (images.image_keys & 3).astype(np.uint8)
    words = np.empty(n, dtype=np.uint16)
    for lo in range(0, n, _LOOKUP_BLOCK):
        block = slice(lo, min(n, lo + _LOOKUP_BLOCK))
        words[block] = images.lookup(keys[block], contexts[block])
    # free[k]: window k takes its context from window k-1, as no stream starts at it
    free = np.ones(n + 1, dtype=bool)
    free[breaks] = False

    def moved(rows, ctx):  # whether the answers of rows change the context of a free successor
        return free[rows + 1] & (((last[words[rows] & 0xFF] + ctx) & 3) != contexts[rows + 1])

    todo = np.flatnonzero(words >= 1 << _SHIFT)
    while todo.size:
        ctx = contexts[todo]
        hit = words[todo] < _FAR
        moves = hit & moved(todo, ctx)
        run = ~hit
        run[1:] &= ~(moves[:-1] & (np.diff(todo) == 1))
        rows = todo[run]
        if rows.size:
            words[rows] = _batched_min_stats(keys[rows], ctx[run], images)
        moves[run] = moved(rows, ctx[run])
        todo = todo[moves]
        contexts[todo + 1] = (last[words[todo] & 0xFF] + contexts[todo]) & 3
        todo = todo[todo < n - 1] + 1
        words[todo] = images.lookup(keys[todo], contexts[todo])
    return words, int(contexts[n])


def _best_contexts(keys: np.ndarray, counts: np.ndarray, images: CandidateImages) -> np.ndarray:
    """For each stream of ``counts`` windows, held back to back in
    ``keys``, the base code under which it decodes with the lowest total
    distance, the lowest code on a tie: one :func:`_decode_stream` call
    decodes every stream in all four contexts, and the distance fields of
    its answer words add up per stream."""
    bases = np.arange(len(DNA_ALPHABET))
    breaks = (np.cumsum(counts) - counts + len(keys) * bases[:, None]).ravel()
    prev_codes = np.repeat(bases, len(counts))
    words, _ = _decode_stream(np.tile(keys, len(bases)), breaks, prev_codes, images)
    costs = np.add.reduceat(words >> _SHIFT, breaks, dtype=np.int64).reshape(len(bases), -1)
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
    words, last = _decode_stream(keys, [0], prev, images)
    report = ChunkDecodeReport(
        chunk_index=int(indices[0]) if record.chunk_index is None else record.chunk_index,
        file_id=int(file_ids[0]),
        parity_ok=bool(parity_ok[0]),
        codeword_distances=(words >> _SHIFT).tolist(),
        ambiguities=int(np.count_nonzero(words & _AMBIGUOUS)),
    )
    return words.astype(np.uint8).tobytes(), report, DNA_ALPHABET[last]


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
    words, _ = _decode_stream(keys, firsts, prev_codes, images)
    values = words.astype(np.uint8)
    distances = np.right_shift(words, _SHIFT, out=np.empty_like(values), casting="unsafe")
    # the chunk of each ambiguous window, of which there are few
    chunk_of = np.searchsorted(ends, np.flatnonzero(words & _AMBIGUOUS), side="right")
    del words

    # missing chunks stand in as zero bytes so that later content keeps its offsets
    placeholder = bytes(int(counts.max(initial=0)))
    gaps = np.diff(present[runs] - runs, prepend=0)  # the chunks missing before each run
    pieces = []
    for gap, lo, hi in zip(gaps.tolist(), firsts.tolist(), [*firsts[1:].tolist(), len(keys)]):
        pieces += [placeholder * gap, values[lo:hi].tobytes()]
    stream_bytes = b"".join(pieces)
    reports = ChunkReports(
        present,
        fid_arr[order],
        parity_arr[order],
        distances,
        ends,
        np.bincount(chunk_of, minlength=len(ends)),
    )

    content, declared_size, extension, trailer_ok = split_payload_stream(stream_bytes)
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

    The codewords go to the kernel in blocks, each block in all four
    contexts in one call of at most ``_SLICE`` windows. Every case is
    shifted by its own context and tallied from its own result. Up to
    two flips, the ball table answers every case, so no row is summed;
    beyond, the row path decodes a flipped image once for all four
    contexts, as they share its shift into context 'A'.
    """
    offsets = _flip_offsets(flips)
    images = candidate_images(codebook)
    contexts = np.arange(len(DNA_ALPHABET), dtype=np.uint8)
    received = np.stack([_row_keys(encode_rows(images.words, c), 1)[:, 0] for c in contexts])
    words = max(1, _SLICE // (len(contexts) * max(1, len(offsets))))
    cases = unique_correct = ambiguous = miscorrected = 0
    for lo in range(0, CODE_SIZE, words):
        keys = _add_fields(received[:, lo : lo + words, None], offsets)
        found = _batched_min_stats(keys.ravel(), np.repeat(contexts, keys[0].size), images)
        found = found.reshape(keys.shape)
        flagged = (found & _AMBIGUOUS) != 0
        correct = (found & 0xFF) == np.arange(lo, lo + keys.shape[1])[:, None]
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

"""Rotation-table transcoding between trit strings and homopolymer-free DNA.

Each trit is encoded as one of the three nucleotides different from the
previously emitted base, which makes two equal adjacent bases impossible
by construction. In the cyclic base order A -> C -> G -> T -> A the rule
is arithmetic:

    next_base = rotate(prev_base, trit + 1)
    trit      = rotate_distance(prev_base, cur_base) - 1

A rotate distance of 0 (cur == prev) has no trit preimage; on decode it
marks channel corruption.

The bulk helpers work on numpy code arrays (A,C,G,T -> 0..3) so that
whole payload streams and header batches convert without per-symbol
Python loops. Wrapping uint8 cumulative sums are exact here because
256 is divisible by 4.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ternary import DNA_ALPHABET, AlphabetError, parse_dna, parse_trits

DEFAULT_PREV_BASE = "A"

BASE_INDEX = {base: i for i, base in enumerate(DNA_ALPHABET)}

#: (prev_base, trit) -> next base; one row per prev, bijective onto the
#: three bases different from prev.
FORWARD = {
    (prev, trit): DNA_ALPHABET[(BASE_INDEX[prev] + trit + 1) % 4]
    for prev in DNA_ALPHABET
    for trit in range(3)
}

#: (prev_base, cur_base) -> trit; exact inverse of FORWARD.
BACKWARD = {(prev, cur): trit for (prev, trit), cur in FORWARD.items()}

_CHAR_TO_CODE = np.full(256, 255, dtype=np.uint8)
for _base, _i in BASE_INDEX.items():
    _CHAR_TO_CODE[ord(_base)] = _i
    _CHAR_TO_CODE[ord(_base.lower())] = _i

# the code maps as bytes.translate tables, which beat numpy indexing on
# long sequences: code -> base, leaving every byte above 3 as it is, and
# character -> code, with 255 for every character that is not a base
_CODE_TO_BASE = DNA_ALPHABET.encode("ascii") + bytes(range(len(DNA_ALPHABET), 256))
_CHAR_TO_CODE_TABLE = _CHAR_TO_CODE.tobytes()

_ORD_ZERO = ord("0")


def _base_code(base: str) -> int:
    """Code 0..3 of one base of either case; raises AlphabetError otherwise."""
    code = BASE_INDEX.get(parse_dna(base))
    if code is None:
        raise AlphabetError(f"expected one nucleotide, got {base!r}")
    return code


def trit_codes(trits: str) -> np.ndarray:
    """Trit string -> uint8 array of values 0..2."""
    return np.frombuffer(trits.encode("ascii"), dtype=np.uint8) - _ORD_ZERO


def dna_codes(dna: str) -> np.ndarray:
    """DNA string of either case -> writable uint8 array of values 0..3.

    Raises :class:`AlphabetError` for any other symbol.
    """
    try:
        codes = bytearray(dna, "ascii").translate(_CHAR_TO_CODE_TABLE)
    except UnicodeEncodeError:
        codes = b"\xff"
    if codes.find(255) >= 0:
        parse_dna(dna)  # raises AlphabetError naming the symbol
    return np.frombuffer(codes, dtype=np.uint8)


def codes_to_dna(codes: np.ndarray) -> str:
    """uint8 array of values 0..3 -> DNA string."""
    data = codes.astype(np.uint8, copy=False).tobytes()
    return data.translate(_CODE_TO_BASE).decode("ascii")


def trits_to_dna(trits: str, prev_base: str = DEFAULT_PREV_BASE) -> str:
    """Encode a trit string as DNA that never repeats a base.

    The output has the input's length, starts with a base different from
    ``prev_base``, and contains no two equal adjacent bases.
    """
    trits = parse_trits(trits)
    prev_code = _base_code(prev_base)
    # one prefix sum: encode_rows' column loop is slow on a single long row
    codes = np.cumsum(trit_codes(trits) + 1, dtype=np.uint8)
    return codes_to_dna((codes + prev_code) & 3)


def encode_rows(trit_rows: np.ndarray, prev_code: int) -> np.ndarray:
    """Rotation-encode a (rows, width) trit matrix, one context per row."""
    codes = trit_rows.astype(np.uint8)
    codes += 1
    codes[:, 0] += prev_code
    # rows are short: a pass per column beats a cumsum per row
    for col in range(1, codes.shape[1]):
        codes[:, col] += codes[:, col - 1]
    codes &= 3
    return codes


@lru_cache(maxsize=4)
def word_images(codewords: tuple[str, ...]) -> np.ndarray:
    """The image of each codeword after each base, one item of the
    codeword's width each: word w after base code c is item c * words + w."""
    images = encode_rows(trit_codes("".join(codewords)).reshape(len(codewords), -1), 0)
    rows = (images + np.arange(len(DNA_ALPHABET), dtype=np.uint8)[:, None, None]) & 3
    return rows.reshape(-1, images.shape[1]).view(f"V{images.shape[1]}")[:, 0]


def encode_words(images: np.ndarray, words: np.ndarray, prev_code: int, out: np.ndarray) -> int:
    """Rotation-encode the codewords ``words`` as one stream after base
    ``prev_code`` into the items of ``out``, of the type of ``images``
    (:func:`word_images`), and return its last base. A codeword's context
    is the prefix sum of the last bases of the images after 'A' before
    it; one gather then writes each whole image."""
    count = len(images) // len(DNA_ALPHABET)
    width = images.dtype.itemsize
    contexts = np.zeros(len(words) + 1, dtype=np.uint8)
    last = images[:count].view(np.uint8)[width - 1 :: width]
    np.cumsum(np.take(last, words), dtype=np.uint8, out=contexts[1:])
    contexts += prev_code
    contexts &= 3
    index = np.multiply(contexts[:-1], count, dtype=np.intp)
    index += words
    np.take(images, index.reshape(out.shape), out=out, mode="clip")
    return int(contexts[-1])


def decode_rows(base_rows: np.ndarray, prev_code: int) -> np.ndarray:
    """Rotation-decode a (rows, width) base-code matrix; 3 marks repeats."""
    shifted = np.empty_like(base_rows)
    shifted[:, :1] = prev_code
    shifted[:, 1:] = base_rows[:, :-1]
    return (base_rows - shifted - 1) & 3

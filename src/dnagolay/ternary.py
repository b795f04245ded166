"""Trit and DNA alphabets and their validation.

Strings are the form values take at the library's edges: trits as
'0'/'1'/'2', DNA as upper-case 'A'/'C'/'G'/'T'. Inside, the codec works
on uint8 code arrays (:mod:`dnagolay.transcode`) and keeps chunk records
as columns (:class:`dnagolay.chunks.ChunkBatch`). Validation happens
when values enter the library, through the parse functions or the code
tables that stand in for them; :func:`weight` assumes an
already-validated input.
"""

from __future__ import annotations

TRIT_ALPHABET = "012"
DNA_ALPHABET = "ACGT"

_TRIT_SET = frozenset(TRIT_ALPHABET)
_DNA_SET = frozenset(DNA_ALPHABET)


class AlphabetError(ValueError):
    """Raised when a string contains symbols outside its alphabet."""


def parse_trits(text: str) -> str:
    """Validate a trit string; returns it unchanged."""
    # set(text) collapses to at most a handful of symbols in one C pass,
    # which beats per-character membership checks on long payloads
    if not _TRIT_SET.issuperset(set(text)):
        bad = next(ch for ch in text if ch not in _TRIT_SET)
        raise AlphabetError(f"invalid trit symbol {bad!r}")
    return text


def parse_dna(text: str) -> str:
    """Validate a DNA string, accepting and normalizing lower case."""
    seq = text.upper()
    if not _DNA_SET.issuperset(set(seq)):
        bad = next(ch for ch in seq if ch not in _DNA_SET)
        raise AlphabetError(f"invalid nucleotide {bad!r}")
    return seq


def weight(codeword: str) -> int:
    """Number of nonzero trits in a trit string."""
    return len(codeword) - codeword.count("0")

"""The benchmark's own substitution channel, applied to chunk records.

The decoder is only ever fed inputs made here, from a generator the
benchmark seeds, so that a change to how ``dnagolay.analysis`` maps a
seed to its output cannot change what the decoder is asked to do.

A record is anything with ``payload_dna`` and ``header_dna`` fields that
:func:`dataclasses.replace` accepts, such as ``chunks.ChunkRecord``. Every
payload is a whole number of 11-base codeword windows. A substituted base
always becomes a different base.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

WINDOW = 11

_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)
_CODE = np.full(256, 255, dtype=np.uint8)
_CODE[_BASES] = np.arange(4, dtype=np.uint8)


def _rewrite(records, fields: tuple[str, ...], mutate) -> list:
    """Records with ``fields`` replaced after ``mutate`` has changed, in
    place, the base codes (0-3) of those fields concatenated in order."""
    parts = [getattr(r, f) for r in records for f in fields]
    joined = "".join(parts).encode("ascii")
    codes = _CODE[np.frombuffer(joined, dtype=np.uint8)]
    mutate(codes)
    text = _BASES[codes].tobytes().decode("ascii")
    pieces, offset = [], 0
    for part in parts:
        pieces.append(text[offset : offset + len(part)])
        offset += len(part)
    k = len(fields)
    return [
        replace(r, **dict(zip(fields, pieces[i * k : (i + 1) * k])))
        for i, r in enumerate(records)
    ]


def _substitute(codes: np.ndarray, positions: np.ndarray, rng: np.random.Generator):
    codes[positions] = (codes[positions] + rng.integers(1, 4, size=len(positions))) & 3


def one_per_window(records, rng: np.random.Generator) -> list:
    """Exactly one substitution in every payload window; headers untouched."""

    def mutate(codes):
        starts = WINDOW * np.arange(len(codes) // WINDOW)
        _substitute(codes, starts + rng.integers(0, WINDOW, size=len(starts)), rng)

    return _rewrite(records, ("payload_dna",), mutate)


def damage(records, noisy) -> tuple[int, np.ndarray]:
    """How ``noisy`` differs from ``records`` of the same lengths: the
    number of changed headers and the changed bases of each payload window."""
    changed_headers = sum(r.header_dna != n.header_dna for r, n in zip(records, noisy))
    before, after = (
        np.frombuffer("".join(r.payload_dna for r in rs).encode("ascii"), np.uint8)
        for rs in (records, noisy)
    )
    return changed_headers, (before != after).reshape(-1, WINDOW).sum(axis=1)


def iid_rate(records, rate: float, rng: np.random.Generator) -> list:
    """Each base of every whole record, header included, flips with
    probability ``rate``."""

    def mutate(codes):
        _substitute(codes, np.flatnonzero(rng.random(len(codes)) < rate), rng)

    return _rewrite(records, ("payload_dna", "header_dna"), mutate)

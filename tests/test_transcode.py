import numpy as np
import pytest
from hypothesis import given, strategies as st

from dnagolay.transcode import (
    BACKWARD,
    BASE_INDEX,
    FORWARD,
    decode_rows,
    dna_codes,
    encode_rows,
    encode_words,
    trit_codes,
    trits_to_dna,
    word_images,
)

# the rotation table, row by row: prev base x trit -> next base
EXPECTED_FORWARD = {
    ("A", 0): "C", ("A", 1): "G", ("A", 2): "T",
    ("C", 0): "G", ("C", 1): "T", ("C", 2): "A",
    ("G", 0): "T", ("G", 1): "A", ("G", 2): "C",
    ("T", 0): "A", ("T", 1): "C", ("T", 2): "G",
}

trit_strings = st.text(alphabet="012", max_size=60)
bases = st.sampled_from("ACGT")


def test_forward_table_matches_expected_cells():
    assert FORWARD == EXPECTED_FORWARD


def test_forward_rows_are_bijections_avoiding_prev():
    for prev in "ACGT":
        outputs = {FORWARD[(prev, t)] for t in range(3)}
        assert len(outputs) == 3
        assert prev not in outputs


def test_backward_inverts_forward():
    for (prev, trit), cur in FORWARD.items():
        assert BACKWARD[(prev, cur)] == trit


def test_encode_known_codeword():
    assert trits_to_dna("10111000101", "A") == "GTCTCGTAGTC"


def test_encode_empty():
    assert trits_to_dna("", "A") == ""


def test_encode_zeros_walks_the_rotation():
    assert trits_to_dna("000", "A") == "CGT"


def decode_one(codes, prev):
    """The rotation decode of one row of base codes."""
    return decode_rows(codes[None], BASE_INDEX[prev])[0]


def read_trits(dna, prev):
    return "".join(map(str, decode_one(dna_codes(dna), prev).tolist()))


def repeat_positions(dna, prev):
    """1-based positions where a base repeats its predecessor."""
    return (np.flatnonzero(decode_one(dna_codes(dna), prev) == 3) + 1).tolist()


def test_decode_known_codeword():
    assert read_trits("GTCTCGTAGTC", "A") == "10111000101"


def test_decode_two_flip_corruption():
    assert read_trits("GAGTCGTAGTC", "A") == "11101000101"


def test_decode_rejects_repeat_with_position():
    assert repeat_positions("CC", "A") == [2]


def test_decode_rejects_first_base_equal_to_context():
    assert repeat_positions("ACG", "A") == [1]


def test_read_best_effort_marks_repeats():
    assert decode_one(dna_codes("CC"), "A").tolist() == [0, 3]


@given(trit_strings, bases)
def test_round_trip(trits, prev):
    assert read_trits(trits_to_dna(trits, prev), prev) == trits


@given(trit_strings, bases)
def test_no_homopolymer_and_fresh_start(trits, prev):
    dna = trits_to_dna(trits, prev)
    assert len(dna) == len(trits)
    chained = prev + dna
    assert all(chained[i] != chained[i + 1] for i in range(len(dna)))


@given(st.data())
def test_trit_distance_bounded_by_twice_dna_distance(data):
    n = data.draw(st.integers(min_value=1, max_value=40))
    a = data.draw(st.text(alphabet="012", min_size=n, max_size=n))
    b = data.draw(st.text(alphabet="012", min_size=n, max_size=n))
    prev = data.draw(bases)
    da, db = trits_to_dna(a, prev), trits_to_dna(b, prev)
    d_dna = sum(x != y for x, y in zip(da, db))
    d_trit = sum(x != y for x, y in zip(a, b))
    assert d_trit <= 2 * d_dna
    if d_dna >= 1:
        assert d_trit >= 1


@given(st.data())
def test_single_flip_locality(data):
    """Substituting base i disturbs trit reading i, possibly i+1, nothing else."""
    n = data.draw(st.integers(min_value=1, max_value=24))
    trits = data.draw(st.text(alphabet="012", min_size=n, max_size=n))
    prev = data.draw(bases)
    pos = data.draw(st.integers(min_value=0, max_value=n - 1))
    offset = data.draw(st.integers(min_value=1, max_value=3))

    clean = dna_codes(trits_to_dna(trits, prev))
    flipped = clean.copy()
    flipped[pos] = (flipped[pos] + offset) & 3
    before = decode_one(clean, prev)
    after = decode_one(flipped, prev)
    changed = np.flatnonzero(before != after)
    assert pos in changed
    assert set(changed.tolist()) <= {pos, pos + 1}


def test_single_flip_locality_exhaustive_length_11():
    """Every position x substitution x context on a spread of length-11
    strings: the flipped base disturbs its own trit reading, at most the
    next one, and never anything else."""
    rng = np.random.default_rng(77)
    strings = rng.integers(0, 3, size=(64, 11), dtype=np.uint8)
    for prev in range(4):
        clean = encode_rows(strings, prev)
        before = decode_rows(clean, prev)
        for pos in range(11):
            for offset in (1, 2, 3):
                flipped = clean.copy()
                flipped[:, pos] = (flipped[:, pos] + offset) & 3
                after = decode_rows(flipped, prev)
                changed = before != after
                assert changed[:, pos].all()
                untouched = np.delete(changed, [pos, min(pos + 1, 10)], axis=1)
                assert not untouched.any()


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=30), bases)
def test_row_kernels_match_scalar_ops(rows, width, prev):
    rng = np.random.default_rng(rows * 31 + width)
    mat = rng.integers(0, 3, size=(rows, width), dtype=np.uint8)
    encoded = encode_rows(mat, BASE_INDEX[prev])
    decoded = decode_rows(encoded, BASE_INDEX[prev])
    assert (decoded == mat).all()
    for row in range(rows):
        trits = "".join(str(t) for t in mat[row])
        expect = trits_to_dna(trits, prev)
        got = "".join("ACGT"[c] for c in encoded[row])
        assert got == expect


def test_trit_codes_round_trip():
    assert trit_codes("0210").tolist() == [0, 2, 1, 0]


@given(st.integers(min_value=1, max_value=40), bases)
def test_encode_words_matches_stream_encode(count, prev):
    rng = np.random.default_rng(count)
    book = rng.integers(0, 3, size=(7, 11), dtype=np.uint8)
    words = rng.integers(0, 7, size=count)
    trits = "".join(str(t) for t in book[words].reshape(-1))
    images = word_images(tuple("".join(map(str, word)) for word in book))
    # the payload columns of record rows, as encode_file writes them
    rows = np.zeros((count, 11 + 3), dtype=np.uint8)
    last = encode_words(images, words, BASE_INDEX[prev], rows[:, :11].view(images.dtype)[:, 0])
    got = "".join("ACGT"[c] for c in rows[:, :11].ravel())
    assert got == trits_to_dna(trits, prev)
    assert last == BASE_INDEX[got[-1]]
    assert not rows[:, 11:].any()

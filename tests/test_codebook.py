import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from dnagolay.codebook import (
    ByteCodebook,
    CodebookError,
    CodeFamilySpec,
    greedy_construct,
    load_codebook,
    verify_code,
    verify_subcode_243,
)
from dnagolay.ternary import weight
from hamming import hamming


def book_text(codebook):
    return "\n".join(
        f"{value} {cw} {weight(cw)}" for value, cw in enumerate(codebook.codewords)
    )


# --- loading the shipped table ------------------------------------------------

def test_default_codebook_shape(codebook):
    assert len(codebook.codewords) == 256
    assert all(len(cw) == 11 for cw in codebook.codewords)
    assert len(set(codebook.codewords)) == 256


def test_default_codebook_repairs(codebook):
    rep = codebook.load_report
    assert rep.duplicate_rows == 0
    assert rep.conflicts == ((86, "00002111202", "00011002212"),)
    assert rep.reassigned == ((85, "00011002212"),)
    assert rep.weight_mismatches == ((76, "02110010202", 5, 6),)
    assert len(rep.describe()) == 3


def test_default_codebook_weight_classes(codebook):
    classes = sorted({weight(cw) for cw in codebook.codewords})
    assert classes == [0, 5, 6, 9]
    assert sum(weight(cw) == 5 for cw in codebook.codewords) == 13


def test_encode_byte_examples(codebook):
    assert codebook.encode_byte(68) == "02221221120"
    assert codebook.encode_byte(65) == "10111000101"
    assert codebook.encode_byte(0) == "00000000000"
    # byte 85 is unlisted in the source table; it owns the displaced word
    assert codebook.encode_byte(85) == "00011002212"


def test_encode_byte_range(codebook):
    with pytest.raises(ValueError):
        codebook.encode_byte(256)


def test_round_trip_all_bytes(codebook):
    for value in range(256):
        assert codebook.codewords.index(codebook.encode_byte(value)) == value


# --- loader edge cases --------------------------------------------------------

def test_load_rejects_incomplete_table(codebook):
    lines = book_text(codebook).splitlines()
    with pytest.raises(CodebookError, match="no codeword"):
        load_codebook("\n".join(lines[:-1]))


def test_load_verbatim_duplicate_row_is_idempotent(codebook):
    text = book_text(codebook) + "\n68 02221221120 9\n"
    book = load_codebook(text)
    assert book.load_report.duplicate_rows == 1
    assert book.codewords == codebook.codewords


def test_load_conflicting_value_first_wins():
    text = "\n".join(["0 00000000000 0", "0 00000000001 1", "1 00000000002 1"])
    with pytest.raises(CodebookError, match="fewer than 256"):
        load_codebook(text)  # only 2 values covered, but conflict handling ran


def test_load_reassigns_each_displaced_codeword_once_unless_claimed(codebook):
    """Bytes 10, 20, 30 and 40 unlisted, then six conflicting lines: the
    codeword of 30 is displaced twice, and that of 40 is displaced and then
    listed for byte 40. The unlisted bytes left, ascending, take the
    displaced codewords no byte keeps, once each, in reading order."""
    words = codebook.codewords
    lines = [line for value, line in enumerate(book_text(codebook).splitlines())
             if value not in (10, 20, 30, 40)]
    for value, word in ((0, 30), (3, 40), (1, 30), (40, 40), (4, 10), (5, 20)):
        lines.append(f"{value} {words[word]} {weight(words[word])}")
    report = load_codebook("\n".join(lines)).load_report
    assert report.reassigned == ((10, words[30]), (20, words[10]), (30, words[20]))
    assert len(report.conflicts) == 5
    with pytest.raises(CodebookError, match="byte 30 has no codeword"):
        load_codebook("\n".join(lines[:-1]))


def test_load_rejects_duplicate_codeword(codebook):
    text = book_text(codebook) + "\n57 00000000000 0\n"
    # value 57 is already taken, so this is a conflict, not an error...
    load_codebook(text)
    # ...but assigning an already-claimed codeword to a fresh value is fatal
    lines = book_text(codebook).splitlines()
    lines[57] = lines[57].split()[0] + " 00000000000 0"
    with pytest.raises(CodebookError, match="already assigned"):
        load_codebook("\n".join(lines))


def test_load_rejects_wrong_length():
    with pytest.raises(CodebookError, match="length"):
        load_codebook("0 0120 2")


def test_load_rejects_bad_symbols():
    with pytest.raises(CodebookError, match="invalid trit"):
        load_codebook("0 0000000000X 0")


def test_load_accepts_comments_and_blanks(codebook):
    text = "# header\n\n" + book_text(codebook) + "\n  # trailing\n"
    assert load_codebook(text).codewords == codebook.codewords


# --- verification -------------------------------------------------------------

def test_verify_full_table(codebook):
    report = verify_code(codebook.codewords, CodeFamilySpec(11, 256, 5))
    assert report.d_min == 5
    assert report.ok
    assert report.violations == ()
    assert report.distance_histogram == {5: 895, 6: 16074, 8: 2150, 9: 13365, 11: 156}


def test_verify_singleton_passes_by_vacuity():
    report = verify_code(["0" * 11], CodeFamilySpec(11, 1, 11))
    assert report.d_min is None
    assert report.ok


def test_verify_detects_close_pair():
    report = verify_code(["0" * 11, "0" * 10 + "1"], CodeFamilySpec(11, 2, 5))
    assert report.d_min == 1
    assert not report.ok
    assert report.violations == (("00000000000", "00000000001", 1),)


def test_verify_rejects_empty_and_mixed_lengths():
    with pytest.raises(ValueError):
        verify_code([], CodeFamilySpec(11, 1, 5))
    with pytest.raises(ValueError, match="mixed"):
        verify_code(["01", "012"], CodeFamilySpec(2, 2, 1))


def test_subcode_243(codebook):
    report = verify_subcode_243(codebook)
    assert report.subset_size == 243
    assert report.subset_min_distance == 6
    assert len(report.leftover) == 13
    assert report.leftover_min_distance == 5
    assert report.ok
    # the peeled words are exactly the weight-5 codewords
    assert all(weight(codebook.codewords[v]) == 5 for v in report.leftover)


def test_subcode_reports_violation_inside_claimed_subset(codebook):
    # degrade the table: move one codeword to distance 5 from another
    words = list(codebook.codewords)
    words[1] = "00000201212"  # distance 1 from the word at byte 199's slot
    spoiled = ByteCodebook(codewords=tuple(words))
    report = verify_subcode_243(spoiled)
    assert report.subset_size < 256
    assert report.subset_min_distance >= 6


_WEIGHT_FIVE_BYTES = (7, 11, 30, 55, 59, 61, 62, 121, 189, 199, 228, 232, 236)


def test_subcode_report_fields_are_pinned(codebook):
    report = verify_subcode_243(codebook)
    assert report.leftover == _WEIGHT_FIVE_BYTES
    assert report.subset == tuple(v for v in range(256) if v not in _WEIGHT_FIVE_BYTES)
    assert (report.subset_min_distance, report.leftover_min_distance, report.ok) == (6, 5, True)

    words = list(codebook.codewords)
    words[1] = "00000201212"
    spoiled = verify_subcode_243(ByteCodebook(codewords=tuple(words)))
    assert spoiled.leftover == (1, *_WEIGHT_FIVE_BYTES)
    assert spoiled.subset == tuple(v for v in range(256) if v not in spoiled.leftover)
    assert (spoiled.subset_min_distance, spoiled.leftover_min_distance, spoiled.ok) == (6, 1, False)


# --- greedy construction ------------------------------------------------------

def test_greedy_exhausts_tiny_alphabet():
    words = greedy_construct(CodeFamilySpec(2, 256, 1))
    assert len(words) == 9
    assert sorted(words) == sorted(
        f"{a}{b}" for a in "012" for b in "012"
    )


def test_greedy_lexicographic_is_deterministic():
    spec = CodeFamilySpec(5, 20, 3)
    assert greedy_construct(spec) == greedy_construct(spec)


def test_greedy_random_is_seed_deterministic():
    spec = CodeFamilySpec(6, 30, 3)
    a = greedy_construct(spec, order="random", seed=42)
    b = greedy_construct(spec, order="random", seed=42)
    c = greedy_construct(spec, order="random", seed=43)
    assert a == b
    assert a != c


@pytest.mark.parametrize(
    "order, seed, size, digest",
    [
        ("lex", 0, 24, "62128f8a6dd827a0791ae6a9c2e39cf0950b03dbee6f51e967c08245a7378109"),
        ("random", 0, 21, "9de4768628f6e0c35eb8f16ab3be0714ff0bcd0d26eaae57b3e1be8f033420b5"),
        ("random", 42, 18, "52078ea292365bfe4f97a671e5e12d0a26efa14bf3d18175e49e342b049fd985"),
    ],
)
def test_greedy_words_are_pinned(order, seed, size, digest):
    words = greedy_construct(CodeFamilySpec(7, 100, 4), order=order, seed=seed)
    assert len(words) == size
    assert hashlib.sha256("".join(words).encode("ascii")).hexdigest() == digest


def test_greedy_rejects_unknown_order():
    with pytest.raises(ValueError):
        greedy_construct(CodeFamilySpec(3, 3, 1), order="sorted")


def test_greedy_rejects_oversized_length():
    with pytest.raises(ValueError, match="26"):
        greedy_construct(CodeFamilySpec(27, 256, 15))


@settings(deadline=None, max_examples=20)
@given(
    n=st.integers(min_value=2, max_value=6),
    d=st.integers(min_value=1, max_value=3),
    size=st.integers(min_value=1, max_value=40),
)
def test_greedy_output_always_verifies(n, d, size):
    d = min(d, n)
    spec = CodeFamilySpec(n, size, d)
    words = greedy_construct(spec)
    report = verify_code(words, spec)
    assert report.violations == ()
    assert report.d_min is None or report.d_min >= d


def test_greedy_eleven_five_achieved_size():
    # the plain lexicode does not reach 256 words at distance 5; the
    # shipped table remains the canonical (11,256,5) code
    words = greedy_construct(CodeFamilySpec(11, 256, 5))
    assert len(words) == 185
    report = verify_code(words, CodeFamilySpec(11, 185, 5))
    assert report.d_min == 5 and report.ok


# --- family spec --------------------------------------------------------------

def test_family_spec_parse():
    spec = CodeFamilySpec.parse("9,256,3")
    assert (spec.length, spec.size, spec.min_distance) == (9, 256, 3)
    with pytest.raises(ValueError):
        CodeFamilySpec.parse("9,256")
    with pytest.raises(ValueError):
        CodeFamilySpec(3, 1, 4)


@given(st.data())
def test_trit_hamming_agrees_with_verify_histogram(codebook, data):
    a = data.draw(st.integers(min_value=0, max_value=255))
    b = data.draw(st.integers(min_value=0, max_value=255))
    d = hamming(codebook.encode_byte(a), codebook.encode_byte(b))
    if a != b:
        assert d >= 5
    else:
        assert d == 0

import pytest
from hypothesis import given, strategies as st

from dnagolay.ternary import AlphabetError, parse_dna, parse_trits, weight
from hamming import hamming

trit_strings = st.text(alphabet="012", max_size=40)
dna_strings = st.text(alphabet="ACGT", max_size=40)


def equal_length_pair(alphabet):
    return st.integers(min_value=0, max_value=30).flatmap(
        lambda n: st.tuples(
            st.text(alphabet=alphabet, min_size=n, max_size=n),
            st.text(alphabet=alphabet, min_size=n, max_size=n),
        )
    )


def equal_length_triple(alphabet):
    return st.integers(min_value=0, max_value=30).flatmap(
        lambda n: st.tuples(
            *[st.text(alphabet=alphabet, min_size=n, max_size=n)] * 3
        )
    )


# the Hamming tests pin the reference in tests/hamming.py, which other
# test modules compare the codec's distances against

def test_trit_hamming_identity():
    assert hamming("10111000101", "10111000101") == 0


def test_trit_hamming_two_flip_pair():
    assert hamming("10111000101", "11101000101") == 2


def test_trit_hamming_weight_nine_codeword():
    assert hamming("00000000000", "02221221120") == 9


def test_trit_hamming_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        hamming("01", "012")


def test_dna_hamming_examples():
    assert hamming("ATGACT", "ATTAGC") == 3
    assert hamming("GTCTCGTAGTC", "GTCTCGTAGTC") == 0
    assert hamming("GTCTCGTAGTC", "GAGTCGTAGTC") == 2


def test_dna_hamming_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        hamming("ACG", "AC")


def test_weight_examples():
    assert weight("00000000000") == 0
    assert weight("02221221120") == 9
    # printed table declares 5 for this word, but six trits are nonzero;
    # the codebook loader reports that mismatch
    assert weight("02110010202") == 6


def test_parse_trits_rejects_other_symbols():
    assert parse_trits("0120") == "0120"
    with pytest.raises(AlphabetError, match="'3'"):
        parse_trits("0123")


def test_parse_dna_normalizes_case():
    assert parse_dna("acgt") == "ACGT"
    with pytest.raises(AlphabetError, match="'N'"):
        parse_dna("ACGN")


@given(equal_length_pair("012"))
def test_trit_metric_symmetry(pair):
    a, b = pair
    assert hamming(a, b) == hamming(b, a)
    assert hamming(a, a) == 0


@given(equal_length_triple("ACGT"))
def test_dna_metric_triangle_inequality(triple):
    a, b, c = triple
    assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


@given(equal_length_triple("012"))
def test_trit_metric_triangle_inequality(triple):
    a, b, c = triple
    assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


@given(trit_strings)
def test_weight_is_distance_from_zero(s):
    assert weight(s) == hamming(s, "0" * len(s))

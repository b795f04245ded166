"""The benchmark's own channel: one flip per payload window in count
mode with headers untouched, the requested rate in rate mode, and a
substituted base that always differs from the original."""

import numpy as np
import pytest

from dnagolay import chunks, codebook
from noise import WINDOW, damage, iid_rate, one_per_window


@pytest.fixture(scope="module")
def records():
    """About 340 encoded records; the last one is a short final chunk."""
    data = np.random.default_rng(0).bytes(3000)
    book = codebook.load_default_codebook()
    return chunks.encode_file(chunks.FileDescriptor(data, "bin"), book)


def codes(records, field):
    text = "".join(getattr(r, field) for r in records)
    return np.frombuffer(text.encode("ascii"), np.uint8)


def test_count_mode_flips_one_base_per_window_and_no_header(records):
    noisy = one_per_window(records, np.random.default_rng(3))
    assert [r.header_dna for r in noisy] == [r.header_dna for r in records]
    for before, after in zip(records, noisy):
        assert (before.file_id, before.chunk_index) == (after.file_id, after.chunk_index)
        diff = codes([before], "payload_dna") != codes([after], "payload_dna")
        assert (diff.reshape(-1, WINDOW).sum(axis=1) == 1).all()
    assert len(records[-1].payload_dna) < len(records[0].payload_dna)
    headers, flips = damage(records, noisy)
    assert headers == 0 and (flips == 1).all()


def test_rate_mode_hits_whole_records_at_the_requested_rate(records):
    rate = 0.01
    noisy = iid_rate(records, rate=rate, rng=np.random.default_rng(5))
    flips = sum(
        int((codes(records, f) != codes(noisy, f)).sum())
        for f in ("payload_dna", "header_dna")
    )
    bases = sum(r.total_length for r in records)
    expected = rate * bases
    # five standard deviations of a binomial count
    assert abs(flips - expected) < 5 * np.sqrt(expected * (1 - rate))
    assert (codes(records, "header_dna") != codes(noisy, "header_dna")).any()
    assert [len(r.header_dna) for r in noisy] == [len(r.header_dna) for r in records]
    headers, window_flips = damage(records, noisy)
    assert 0 < headers < len(records) and window_flips.max() > 1


@pytest.mark.parametrize("mode", ["count", "rate"])
def test_substituted_bases_always_change_and_seed_repeats(records, mode):
    def apply(seed):
        rng = np.random.default_rng(seed)
        if mode == "count":
            return one_per_window(records, rng)
        return iid_rate(records, rate=1.0, rng=rng)

    noisy = apply(7)
    if mode == "rate":
        assert all(
            (codes(records, f) != codes(noisy, f)).all()
            for f in ("payload_dna", "header_dna")
        )
    assert apply(7) == noisy
    assert apply(8) != noisy

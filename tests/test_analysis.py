import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from dnagolay.analysis import (
    CAPACITY_FORMULA,
    CapacityParams,
    ChannelSpec,
    corrupt_records,
    cost_curve,
    count_record_bases,
    inject_substitutions,
    monte_carlo_decode,
    rows_to_csv,
    code_rate,
    solve_capacity,
    synthesis_cost,
)
from dnagolay.chunks import ChunkBatch, ChunkError, ChunkRecord, FileDescriptor, encode_file
from dnagolay.mldecode import decode_file
from dnagolay.transcode import codes_to_dna
from hamming import hamming


# --- channel specs -----------------------------------------------------------

def test_channel_spec_parse():
    spec = ChannelSpec.parse("count:2", seed=7)
    assert spec.mode == "count" and spec.count == 2 and spec.seed == 7
    spec = ChannelSpec.parse("rate:0.01")
    assert spec.mode == "rate" and spec.rate == 0.01
    with pytest.raises(ValueError):
        ChannelSpec.parse("flips:3")


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec.iid_rate(1.5)
    with pytest.raises(ValueError):
        ChannelSpec.fixed_count(-1)


# --- substitution injection ----------------------------------------------------

def test_inject_count_zero_is_identity():
    seq = "ACGTACGTACG" * 3
    assert inject_substitutions(seq, ChannelSpec.fixed_count(0, seed=1)) == seq


def test_inject_fixed_count_per_window():
    # whole windows only, then with a 5-base tail window
    for seq in ("ACGTACGTACG" * 4, "ACGTACGTACG" * 4 + "ACGTA"):
        for count in (1, 2, 3):
            out = inject_substitutions(seq, ChannelSpec.fixed_count(count, seed=5))
            assert len(out) == len(seq)
            for lo in range(0, len(seq), 11):
                assert hamming(seq[lo : lo + 11], out[lo : lo + 11]) == count


def test_inject_count_mode_samples_positions_uniformly():
    """Each position of a window flips with probability count/11, and
    count:2 reaches all 55 position pairs about equally often."""
    windows = 22_000
    seq = "ACGTACGTACG" * windows
    clean = np.frombuffer(seq.encode(), np.uint8).reshape(windows, 11)
    for count in (1, 2, 5):
        out = inject_substitutions(seq, ChannelSpec.fixed_count(count, seed=31))
        flips = np.frombuffer(out.encode(), np.uint8).reshape(windows, 11) != clean
        assert (flips.sum(axis=1) == count).all()
        # a frequency's standard deviation is at most 0.0034 over 22,000 windows
        assert np.abs(flips.mean(axis=0) - count / 11).max() < 0.015
        if count == 2:
            first = flips.argmax(axis=1)
            last = 10 - flips[:, ::-1].argmax(axis=1)
            pairs = np.bincount(first * 11 + last, minlength=121).reshape(11, 11)
            upper = pairs[np.triu_indices(11, k=1)]
            assert len(upper) == 55 and (upper > 0).all()
            # 400 expected per pair, standard deviation 20
            assert 300 < upper.min() and upper.max() < 500


def test_inject_reproduces_known_two_flip_pattern():
    # seed found by search: flips positions 2 and 3 to A and G
    out = inject_substitutions("GTCTCGTAGTC", ChannelSpec.fixed_count(2, seed=1284))
    assert out == "GAGTCGTAGTC"


def test_inject_rate_one_changes_every_base():
    seq = "ACGTACGTACG"
    out = inject_substitutions(seq, ChannelSpec.iid_rate(1.0, seed=3))
    assert all(a != b for a, b in zip(seq, out))


def test_inject_rate_zero_is_identity():
    seq = "ACGTACGTACG"
    assert inject_substitutions(seq, ChannelSpec.iid_rate(0.0, seed=3)) == seq


def test_inject_is_seed_deterministic():
    seq = "ACGT" * 25
    spec = ChannelSpec.iid_rate(0.3, seed=11)
    assert inject_substitutions(seq, spec) == inject_substitutions(seq, spec)
    other = ChannelSpec.iid_rate(0.3, seed=12)
    assert inject_substitutions(seq, spec) != inject_substitutions(seq, other)


def test_inject_rate_draws_match_one_draw_per_base():
    """Rate mode draws its floats a block at a time; for a length that is
    no multiple of the block the flips equal those of one draw of a
    float per base, followed by one draw of the offsets."""
    length = 2 * (1 << 16) + 1234
    codes = np.random.default_rng(0).integers(0, 4, length, dtype=np.uint8)
    seq = codes_to_dna(codes)
    rng = np.random.default_rng(5)
    positions = np.flatnonzero(rng.random(length) < 0.01)
    codes[positions] = (codes[positions] + rng.integers(1, 4, size=positions.shape)) & 3
    assert inject_substitutions(seq, ChannelSpec.iid_rate(0.01, seed=5)) == codes_to_dna(codes)


def test_inject_count_exceeding_window_fails():
    with pytest.raises(ValueError, match="window"):
        inject_substitutions("ACGTA", ChannelSpec.fixed_count(6, seed=0))


@pytest.mark.parametrize("channel, bound", [("count:1", 7), ("rate:1e-3", 5)])
def test_inject_substitutions_peak_memory_per_base(codebook, channel, bound):
    """Peak traced allocation while corrupting the joined payload of a
    64 KiB file, in bytes per base: the code array and the position
    arrays, not a stack of full-length copies."""
    fd = FileDescriptor(content=bytes(range(256)) * 256, extension="bin")
    dna = "".join(rec.payload_dna for rec in encode_file(fd, codebook))
    spec = ChannelSpec.parse(channel, seed=3)
    inject_substitutions(dna, spec)
    tracemalloc.start()
    try:
        inject_substitutions(dna, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(dna) <= bound


def test_corrupt_records_count_mode_spares_headers(codebook):
    fd = FileDescriptor(content=bytes(range(64)), extension="")
    records = encode_file(fd, codebook)
    spec = ChannelSpec.fixed_count(1, seed=2)
    corrupted = corrupt_records(records, spec)
    assert all(a.header_dna == b.header_dna for a, b in zip(records, corrupted))
    for a, b in zip(records, corrupted):
        for lo in range(0, len(a.payload_dna), 11):
            assert hamming(a.payload_dna[lo : lo + 11], b.payload_dna[lo : lo + 11]) == 1

    # payloads are joined, so one that is not whole windows would shift
    # every later window; it is rejected wherever it stands
    ragged = ChunkRecord(payload_dna=records[0].payload_dna[:-1], header_dna="ACG")
    # the second record, 3 bases under a 14-base header, has a payload of -11 bases
    shorter = ChunkBatch(np.zeros(116, dtype=np.uint8), [113, 116], [14, 14])
    for batch in ([ragged, records[1]], [records[1], ragged], shorter):
        with pytest.raises(ValueError, match="whole 11-base windows"):
            corrupt_records(batch, spec)


def test_corrupt_records_count_mode_stream_is_pinned(codebook):
    """A seeded count:2 channel over a 4,000-byte file gives these codes:
    the draw of each flip's position is pinned, whatever bound form the
    windows' widths take."""
    data = np.random.default_rng(27).bytes(4000)
    batch = encode_file(FileDescriptor(data, "bin"), codebook)
    noisy = corrupt_records(batch, ChannelSpec.parse("count:2"), np.random.default_rng(27))
    assert len(noisy.codes) == 48124
    assert hashlib.sha256(noisy.codes.tobytes()).hexdigest() == (
        "25dab58ef3c870132c2c58d6bd1b5eb81635ec4775fdc9dd063503eadc76fc69"
    )


def test_corrupt_records_rate_mode_reaches_headers(codebook):
    fd = FileDescriptor(content=bytes(range(64)), extension="")
    records = encode_file(fd, codebook)
    corrupted = corrupt_records(records, ChannelSpec.iid_rate(1.0, seed=2))
    assert all(a.header_dna != b.header_dna for a, b in zip(records, corrupted))


# --- monte carlo ----------------------------------------------------------------

GRID_FD = FileDescriptor(content=bytes(range(256)), extension="bin")


def test_monte_carlo_clean_channel_is_exact(codebook):
    rows = monte_carlo_decode(
        GRID_FD, codebook, [ChannelSpec.fixed_count(0, seed=1)], trials=3
    )
    assert rows[0].file_exact_rate == 1.0
    assert rows[0].byte_accuracy == 1.0
    assert rows[0].parity_failure_rate == 0.0


def test_monte_carlo_single_flip_always_corrects(codebook):
    rows = monte_carlo_decode(
        GRID_FD, codebook, [ChannelSpec.fixed_count(1, seed=17)], trials=5
    )
    assert rows[0].byte_accuracy == 1.0
    assert rows[0].file_exact_rate == 1.0


def test_monte_carlo_is_deterministic(codebook):
    grid = [ChannelSpec.fixed_count(2, seed=23), ChannelSpec.iid_rate(0.01, seed=23)]
    a = monte_carlo_decode(GRID_FD, codebook, grid, trials=4)
    b = monte_carlo_decode(GRID_FD, codebook, grid, trials=4)
    assert [row.to_dict() for row in a] == [row.to_dict() for row in b]


def test_monte_carlo_heavy_corruption_degrades(codebook):
    rows = monte_carlo_decode(
        GRID_FD, codebook, [ChannelSpec.fixed_count(5, seed=99)], trials=10
    )
    assert rows[0].byte_accuracy < 1.0
    assert rows[0].file_exact_rate == 0.0
    # regression pin: measured on the first run of this configuration,
    # re-measured when the count channel became one array pass (the
    # mapping from seed to flips changed)
    assert rows[0].byte_accuracy == pytest.approx(0.012109375, abs=0)


def test_monte_carlo_rates_are_means_over_every_trial(codebook):
    """Every trial decodes, so byte accuracy and the parity failure rate
    are means over all trials, which at a per-base rate of 3e-3 on 1 KiB
    see damaged headers; the row has no abort column."""
    fd = FileDescriptor(content=bytes(range(256)) * 4, extension="bin")
    spec, trials = ChannelSpec.parse("rate:3e-3", seed=1), 8
    [row] = monte_carlo_decode(fd, codebook, [spec], trials=trials)
    records = encode_file(fd, codebook)
    accuracies, parity = [], []
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, trial)))
        result = decode_file(corrupt_records(records, spec, rng), codebook)
        n = min(len(result.content), len(fd.content))
        same = np.frombuffer(result.content, np.uint8, n) == np.frombuffer(fd.content, np.uint8, n)
        accuracies.append(int(same.sum()) / len(fd.content))
        chunks = len(result.per_chunk) + len(result.unrecoverable_chunks)
        parity.append(int((~result.per_chunk.parity_ok).sum()) / chunks)
    assert sum(parity) > 0
    assert row.byte_accuracy == sum(accuracies) / trials
    assert row.parity_failure_rate == sum(parity) / trials
    assert 0 < row.file_exact_rate < 1
    assert list(row.to_dict())[-1] == "file_exact_rate"
    assert rows_to_csv([row]).splitlines()[0].endswith(",file_exact_rate")


def test_monte_carlo_decodes_every_trial_of_a_noisy_channel(codebook):
    """At a per-base rate of 1e-2 headers collide, yet every trial
    decodes to a file of mostly right bytes."""
    fd = FileDescriptor(content=bytes(range(256)) * 4, extension="bin")
    [row] = monte_carlo_decode(fd, codebook, [ChannelSpec.parse("rate:1e-2", seed=1)], trials=4)
    assert row.parity_failure_rate > 0
    assert row.byte_accuracy > 0.9


def test_monte_carlo_validates_trials(codebook):
    with pytest.raises(ValueError):
        monte_carlo_decode(GRID_FD, codebook, [ChannelSpec.fixed_count(0)], trials=0)


# --- capacity -------------------------------------------------------------------

def test_capacity_default_reproduces_published_density():
    result = solve_capacity()
    assert result.bytes_per_gram == pytest.approx(1.15e20, rel=0.02)
    assert result.residual < 1e-9
    assert result.iterations <= 1000
    assert result.mu == pytest.approx(40.05, abs=0.05)


def test_capacity_regression_value():
    result = solve_capacity()
    assert result.bytes_per_gram == pytest.approx(1.1531332926639384e20, rel=1e-9)


def test_capacity_scales_almost_linearly_with_material():
    base = solve_capacity()
    doubled = solve_capacity(CapacityParams(bases_per_gram=2 * 1.82e21))
    ratio = doubled.bytes_per_gram / base.bytes_per_gram
    assert 1.98 < ratio < 2.02  # mu shifts only logarithmically


def test_capacity_decreases_with_longer_code():
    short = solve_capacity(CapacityParams(chunk_payload_bases=99, code_length=9))
    long = solve_capacity(CapacityParams(chunk_payload_bases=99, code_length=11))
    assert short.bytes_per_gram > long.bytes_per_gram


def test_capacity_degenerate_single_codeword_chunks():
    result = solve_capacity(
        CapacityParams(chunk_payload_bases=11, code_length=11, overhead_bytes=0)
    )
    assert result.bytes_per_gram > 0
    assert result.residual < 1e-9


def test_capacity_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        CapacityParams(chunk_payload_bases=100, code_length=11)


def test_capacity_formula_is_documented():
    assert "log3" in CAPACITY_FORMULA


# --- code rate and cost ----------------------------------------------------------

def test_code_rate_values():
    assert code_rate(8, 11) == pytest.approx(0.72727, abs=1e-4)
    assert code_rate(8, 9) == pytest.approx(0.88889, abs=1e-4)
    assert code_rate(8, 8) == 1.0
    with pytest.raises(ValueError):
        code_rate(8, 0)


def test_synthesis_cost():
    assert synthesis_cost(0) == 0
    assert synthesis_cost(100) == pytest.approx(5.0)
    assert synthesis_cost(100, per_base_usd=0.01) == pytest.approx(1.0)


def test_count_record_bases_matches_encoder(codebook):
    for chunk_bases in (11, 99, 198, 990):
        for size, ext in [(0, ""), (1, "x"), (17, "txt"), (1024, "bin")]:
            fd = FileDescriptor(content=bytes(size), extension=ext)
            records = encode_file(fd, codebook, chunk_bases)
            actual = sum(rec.total_length for rec in records)
            assert count_record_bases(size, ext, chunk_bases) == actual
    # an extension of non-ASCII bytes takes one codeword per character
    for chunk_bases in (11, 99, 990):
        records = encode_file(FileDescriptor(bytes(5), "été"), codebook, chunk_bases)
        assert count_record_bases(5, "été", chunk_bases) == int(records.ends[-1])
    # the chunk sizes that encode_file rejects price no layout either
    for chunk_bases in (0, 50, 100):
        with pytest.raises(ChunkError):
            count_record_bases(100, "", chunk_bases)


def test_cost_curve_pinned_values():
    one, ten = cost_curve([10**6, 10**7])
    assert one.total_bases == 12_555_692
    assert ten.total_bases == 127_777_929
    assert one.cost_per_mb_usd == pytest.approx(627_784.60)
    assert ten.cost_per_mb_usd == pytest.approx(638_889.645)


def test_cost_per_mb_growth_is_logarithmic():
    # chunk-index trits grow by two between 1 MB and 10 MB, which moves
    # cost/MB by 1.77%; growth stays bounded and slow
    one, ten = cost_curve([10**6, 10**7])
    variation = ten.cost_per_mb_usd / one.cost_per_mb_usd - 1
    assert 0 < variation < 0.02
    assert variation == pytest.approx(0.0176893, abs=1e-6)


def test_cost_curve_zero_size_has_infinite_unit_cost():
    row = cost_curve([0])[0]
    assert math.isinf(row.cost_per_mb_usd)
    assert row.total_bases == 44 + 4


def test_rows_to_csv():
    text = rows_to_csv(cost_curve([100, 200]))
    lines = text.strip().splitlines()
    assert lines[0] == "size_bytes,total_bases,cost_usd,cost_per_mb_usd"
    assert len(lines) == 3


def test_round_trip_under_each_grid_mode(codebook):
    fd = FileDescriptor(content=b"payload under test", extension="txt")
    records = encode_file(fd, codebook)
    for spec in (ChannelSpec.fixed_count(1, seed=3), ChannelSpec.fixed_count(2, seed=3)):
        result = decode_file(corrupt_records(records, spec), codebook)
        assert len(result.content) == len(fd.content)

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dnagolay import chunks, mldecode
from dnagolay.analysis import ChannelSpec, corrupt_records
from dnagolay.chunks import (
    ChunkBatch,
    ChunkRecord,
    FileDescriptor,
    emit_fasta,
    encode_file,
    parse_fasta,
)
from dnagolay.codebook import CodeFamilySpec, greedy_construct, load_codebook
from dnagolay.mldecode import (
    AuditResult,
    DecodeError,
    _add_fields,
    _batched_min_stats,
    _flip_offsets,
    _row_decode,
    audit_substitutions,
    candidate_images,
    decode_chunk,
    decode_codeword_ml,
    decode_file,
    split_payload_stream,
)
from dnagolay.ternary import AlphabetError, weight
from dnagolay.transcode import (
    BASE_INDEX,
    codes_to_dna,
    decode_rows,
    dna_codes,
    encode_rows,
    trits_to_dna,
)
from batches import mixed_batches
from hamming import hamming


def _window_keys(windows):
    """Each row of 11 base codes as a base-4 number, first base highest:
    the reference of the decoder's packed keys."""
    weights = 4 ** np.arange(10, -1, -1, dtype=np.uint32)
    return (np.asarray(windows, dtype=np.uint32) @ weights).astype(np.uint32)


@pytest.fixture(scope="module")
def lexicode():
    """The (11,256,3) lexicode as a codebook: a valid user codebook whose
    DNA images are only two substitutions apart."""
    words = greedy_construct(CodeFamilySpec.parse("11,256,3"))
    return load_codebook("\n".join(f"{i} {w} {weight(w)}" for i, w in enumerate(words)))


def key_rows(keys):
    """The (keys, 11) base codes of window keys, first base highest."""
    return ((keys[:, None] >> 2 * np.arange(10, -1, -1)) & 3).astype(np.uint8)


def columns(words):
    """Answer words split into (byte values, DNA distances, ambiguous flags)."""
    return words & 0xFF, words >> mldecode._SHIFT, (words & mldecode._AMBIGUOUS) != 0


def corrupt(window, *flips):
    out = list(window)
    for pos, base in flips:
        assert out[pos] != base
        out[pos] = base
    return "".join(out)


# --- single-codeword decoding ---------------------------------------------------

def test_decode_clean_window(codebook):
    decoded = decode_codeword_ml("GTCTCGTAGTC", "A", codebook)
    assert decoded.byte_value == 65
    assert decoded.dna_distance == 0
    assert decoded.trit_distance == 0
    assert not decoded.ambiguous
    assert decoded.corrected_window == "GTCTCGTAGTC"


def test_decode_two_flip_window(codebook):
    decoded = decode_codeword_ml("GAGTCGTAGTC", "A", codebook)
    assert decoded.byte_value == 65
    assert decoded.dna_distance == 2
    assert not decoded.ambiguous
    assert decoded.corrected_window == "GTCTCGTAGTC"


def test_decode_window_length_check(codebook):
    with pytest.raises(ValueError):
        decode_codeword_ml("ACGT", "A", codebook)


def test_decode_distance_invariant(codebook):
    rng = random.Random(4)
    for _ in range(50):
        window = "".join(rng.choice("ACGT") for _ in range(11))
        prev = rng.choice("ACGT")
        decoded = decode_codeword_ml(window, prev, codebook)
        expected = trits_to_dna(codebook.codewords[decoded.byte_value], prev)
        assert decoded.corrected_window == expected
        assert decoded.dna_distance == hamming(window, decoded.corrected_window)
        others = (
            hamming(window, trits_to_dna(word, prev)) for word in codebook.codewords
        )
        assert decoded.dna_distance == min(others)


def test_decode_pinned_ambiguous_window(codebook):
    # two flips into the all-zero codeword's image leave two candidates
    # tied on both layers; the smaller byte value is returned, flagged
    assert trits_to_dna("0" * 11, "A") == "CGTACGTACGT"
    decoded = decode_codeword_ml("GCTACGTACGT", "A", codebook)
    assert decoded.ambiguous
    assert decoded.byte_value == 0
    assert decoded.dna_distance == 2
    assert decoded.trit_distance == 3
    assert decoded.corrected_window == "CGTACGTACGT"


def test_minimum_image_distance_supports_single_flip_correction(codebook):
    images = encode_rows(codebook.as_array(), 0)
    distances = (images[:, None] != images[None]).sum(axis=2)
    np.fill_diagonal(distances, 11)
    assert distances.min() == 3


def test_single_substitutions_sampled(codebook):
    rng = random.Random(9)
    for _ in range(300):
        value = rng.randrange(256)
        prev = rng.choice("ACGT")
        img = trits_to_dna(codebook.codewords[value], prev)
        pos = rng.randrange(11)
        base = rng.choice([b for b in "ACGT" if b != img[pos]])
        decoded = decode_codeword_ml(corrupt(img, (pos, base)), prev, codebook)
        assert decoded.byte_value == value
        assert decoded.dna_distance == 1
        assert not decoded.ambiguous


def test_kernel_matches_scalar_decoder(codebook):
    """The batched kernel, which shifts every window into context 'A',
    agrees with the scalar decoder, which encodes the images in the
    window's own context."""
    rng = random.Random(12)
    windows, contexts, expected = [], [], []
    for _ in range(3000):
        # mostly near a codeword image, so that ties and both layers occur
        value, prev = rng.randrange(256), rng.choice("ACGT")
        window = list(trits_to_dna(codebook.codewords[value], prev))
        for pos in rng.sample(range(11), rng.choice((0, 1, 2, 2, 3, 11))):
            window[pos] = rng.choice("ACGT")
        window = "".join(window)
        decoded = decode_codeword_ml(window, prev, codebook)
        windows.append(dna_codes(window))
        contexts.append("ACGT".index(prev))
        expected.append((decoded.byte_value, decoded.dna_distance, decoded.ambiguous))
    keys, contexts = _window_keys(np.array(windows)), np.array(contexts, dtype=np.uint8)
    values, distances, ambiguous = columns(
        _batched_min_stats(keys, contexts, candidate_images(codebook))
    )
    got = list(zip(values.tolist(), distances.tolist(), ambiguous.tolist()))
    assert got == expected
    assert sum(amb for _, _, amb in expected) > 50
    assert set(contexts) == {0, 1, 2, 3}


def flipped_windows(images, flips, values=slice(None)):
    """Every window ``flips`` substitutions from the images of ``values``
    (all by default), in every context: (windows, contexts)."""
    offsets = key_rows(_flip_offsets(flips))
    words = images.words[values]
    windows = [(encode_rows(words, context)[:, None] + offsets) & 3 for context in range(4)]
    contexts = np.repeat(np.arange(4, dtype=np.uint8), len(words) * len(offsets))
    return np.concatenate(windows).reshape(-1, 11), contexts


def radius_two_windows(images):
    """Every window at most two substitutions from an image, in every
    context: (windows, contexts, substitution counts)."""
    near = [flipped_windows(images, flips) for flips in range(3)]
    flips = np.repeat(np.arange(3), [len(windows) for windows, _ in near])
    return *(np.concatenate(column) for column in zip(*near)), flips


def row_path_answers(keys, contexts, images):
    """The kernel's row path on each key, shifted into context 'A', as
    answer words: the reference of the ball table."""
    distinct, inverse = np.unique(
        _add_fields(keys, mldecode._NEGATIONS[contexts]), return_inverse=True
    )
    return _row_decode(distinct, images)[inverse]


def tied_keys(keys, images):
    """The keys, in context 'A', with two or more images at their least
    DNA distance, found 16,384 keys at a time."""
    image_rows, tied = key_rows(images.image_keys), []
    for lo in range(0, len(keys), 1 << 14):
        rows = key_rows(keys[lo : lo + (1 << 14)])
        distances = np.zeros((len(rows), len(image_rows)), dtype=np.uint8)
        for col in range(11):
            distances += rows[:, col, None] != image_rows[:, col]
        tied.append((distances == distances.min(axis=1)[:, None]).sum(axis=1) > 1)
    return keys[np.concatenate(tied)]


def check_ball_table(codebook, ties, tie_sample=None):
    """Every window at most two substitutions from an image, in every
    context: lookup places it and gives exactly the row path's byte, DNA
    distance and ambiguous flag, and so does the kernel. A seeded sample,
    ambiguous windows among it, agrees with the scalar reference, and so
    do the ``ties`` keys in context 'A' that tie on DNA distance, whose
    answer the row path gave at build (a seeded ``tie_sample`` of them,
    if given). Returns the lookup's columns and each window's
    substitution count."""
    images = candidate_images(codebook)
    windows, contexts, flips = radius_two_windows(images)
    assert len(windows) == 4 * 256 * 529
    keys = _window_keys(windows)
    words = images.lookup(keys, contexts)
    assert (words < mldecode._FAR).all()
    expected = row_path_answers(keys, contexts, images)
    assert np.array_equal(words, expected)
    assert np.array_equal(_batched_min_stats(keys, contexts, images), expected)
    got = columns(words)
    assert (got[1] <= flips).all()
    assert got[2].any()
    # and no other key of the 4**11 is placed
    shifted = np.unique(_add_fields(keys, mldecode._NEGATIONS[contexts]))
    cells_placed = np.count_nonzero(images.ball_cells != mldecode._FAR, axis=0)
    assert cells_placed[images.ball_blocks].sum() == len(shifted)

    rng = random.Random(21)
    sample = rng.sample(range(len(keys)), 200)
    sample += rng.sample(np.flatnonzero(got[2]).tolist(), 50)
    for row in sample:
        decoded = decode_codeword_ml(codes_to_dna(windows[row]), "ACGT"[contexts[row]], codebook)
        assert tuple(column[row] for column in got) == (
            decoded.byte_value, decoded.dna_distance, decoded.ambiguous
        )

    tied = tied_keys(shifted, images)
    assert len(tied) == ties
    if tie_sample is not None:
        tied = np.array(random.Random(23).sample(tied.tolist(), tie_sample), dtype=np.uint32)
    answers = columns(images.lookup(tied, 0))
    for key, answer in zip(key_rows(tied), zip(*answers)):
        decoded = decode_codeword_ml(codes_to_dna(key), "A", codebook)
        assert answer == (decoded.byte_value, decoded.dna_distance, decoded.ambiguous)
    return got, flips


def test_lookup_table_matches_kernel_within_radius_two(codebook):
    """The shipped codebook's ball table: 133,716 distinct shifted keys in
    70,161 of the 4**9 slots, whose blocks of 16 cells take 7,082
    distinct values besides the far block; 673 keys are ambiguous. Its
    images are three substitutions apart, so only two-flip windows can
    tie."""
    (_, _, ambiguous), flips = check_ball_table(codebook, 1533)
    images = candidate_images(codebook)
    assert np.count_nonzero(images.ball_blocks) == 70161
    assert images.ball_cells.shape == (16, 7083)
    cells_placed = np.count_nonzero(images.ball_cells != mldecode._FAR, axis=0)
    assert cells_placed[images.ball_blocks].sum() == 133716
    cells_ambiguous = np.count_nonzero(images.ball_cells & mldecode._AMBIGUOUS, axis=0)
    assert cells_ambiguous[images.ball_blocks].sum() == 673
    assert not ambiguous[flips < 2].any()


def test_lookup_table_matches_kernel_for_close_images(lexicode):
    """With images two substitutions apart, a window one substitution from
    an image may be as close to another; the ball table still gives each
    window the row path's answer."""
    (_, distances, ambiguous), _ = check_ball_table(lexicode, 19678, 1000)
    assert ambiguous[distances == 1].any()


@pytest.mark.parametrize("book", ["codebook", "lexicode"])
def test_ball_table_leaves_every_farther_window_to_the_row_path(book, request):
    """Every window three substitutions from a seeded sample of 16 images,
    in every context, and 20,000 random windows: lookup places exactly
    those within two substitutions of some image, with the row path's
    answer, and gives the others distance 3, which the kernel replaces
    with the row path's answer."""
    codebook = request.getfixturevalue(book)
    images = candidate_images(codebook)
    three, three_contexts = flipped_windows(images, 3, random.Random(5).sample(range(256), 16))
    rng = np.random.default_rng(5)
    windows = np.concatenate([three, rng.integers(0, 4, (20000, 11), dtype=np.uint8)])
    contexts = np.concatenate([three_contexts, rng.integers(0, 4, 20000, dtype=np.uint8)])
    keys = _window_keys(windows)
    words = images.lookup(keys, contexts)
    placed, got = words < mldecode._FAR, columns(words)
    answers = row_path_answers(keys, contexts, images)
    expected = columns(answers)
    assert np.array_equal(placed, expected[1] <= 2)
    assert 0 < placed.mean() < 1
    assert all(np.array_equal(column[placed], want[placed]) for column, want in zip(got, expected))
    assert (got[1][~placed] == 3).all() and not got[2][~placed].any()
    assert np.array_equal(_batched_min_stats(keys, contexts, images), answers)


@pytest.mark.parametrize("book", ["codebook", "lexicode"])
def test_kernel_matches_scalar_reference_on_flips(book, request):
    """Every 1- and 2-flip window of a seeded sample of codewords, in all
    four contexts: the kernel's byte, DNA distance and ambiguous flag are
    the scalar reference's. The lexicode's images two substitutions apart
    give ties at distance 1 as well as 2."""
    codebook = request.getfixturevalue(book)
    images = candidate_images(codebook)
    values = sorted({0, 255, *random.Random(8).sample(range(1, 255), 14)})
    assert len(values) == 16
    one, two = (flipped_windows(images, flips, values) for flips in (1, 2))
    windows, contexts = np.concatenate([one[0], two[0]]), np.concatenate([one[1], two[1]])
    got = columns(_batched_min_stats(_window_keys(windows), contexts, images))
    expected = []
    for window, context in zip(windows, contexts):
        decoded = decode_codeword_ml(codes_to_dna(window), "ACGT"[context], codebook)
        expected.append((decoded.byte_value, decoded.dna_distance, decoded.ambiguous))
    assert list(zip(*(column.tolist() for column in got))) == expected
    assert got[2].any()
    if book == "lexicode":
        assert got[2][got[1] == 1].any()


def test_kernel_tie_between_first_and_last_byte(lexicode):
    """A window whose nearest images are exactly bytes 0 and 255, the
    widest index gap a tie can have in a packed row."""
    window, images = "CGAAAGCACGT", encode_rows(lexicode.as_array(), 0)
    distances = (images != dna_codes(window)).sum(axis=1)
    assert np.flatnonzero(distances == distances.min()).tolist() == [0, 255]
    decoded = decode_codeword_ml(window, "A", lexicode)
    values, dna_distances, ambiguous = columns(
        _batched_min_stats(_window_keys(dna_codes(window)[None]), 0, candidate_images(lexicode))
    )
    assert (values[0], dna_distances[0], ambiguous[0]) == (
        decoded.byte_value, decoded.dna_distance, decoded.ambiguous
    )
    assert dna_distances[0] == 3


def test_kernel_runner_up_one_base_farther_with_lower_index(lexicode):
    """Byte 255 is nearest and byte 0 one base farther: their packed
    entries are 256 apart, the closest two untied images can be, so the
    window must not read as a tie."""
    window, images = "CGACAGTACGT", encode_rows(lexicode.as_array(), 0)
    distances = (images != dna_codes(window)).sum(axis=1)
    assert np.flatnonzero(distances == distances.min()).tolist() == [255]
    assert distances[0] == distances.min() + 1
    values, dna_distances, ambiguous = columns(
        _batched_min_stats(_window_keys(dna_codes(window)[None]), 0, candidate_images(lexicode))
    )
    assert (values[0], dna_distances[0], ambiguous[0]) == (255, 2, False)
    decoded = decode_codeword_ml(window, "A", lexicode)
    assert (decoded.byte_value, decoded.dna_distance, decoded.ambiguous) == (255, 2, False)


# a codeword's byte value and context, with up to three bases changed
# at (position, offset); or, with the byte value None, any window at all
received_windows = st.tuples(
    st.one_of(st.none(), st.integers(0, 255)),
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(0, 10), st.integers(1, 3)), max_size=3),
    st.lists(st.integers(0, 3), min_size=11, max_size=11),
)


@settings(deadline=None, max_examples=300)
@given(st.lists(received_windows, min_size=1, max_size=20))
def test_every_table_hit_agrees_with_kernel(codebook, cases):
    """Whatever the window, lookup places it exactly when it lies within
    two substitutions of an image, with the kernel's answer, and reads
    any other as distance 3, where the kernel finds 3 or more."""
    images = candidate_images(codebook)
    windows = np.array([window for _, _, _, window in cases], dtype=np.uint8)
    contexts = np.array([context for _, context, _, _ in cases], dtype=np.uint8)
    for row, (value, context, flips, _) in enumerate(cases):
        if value is not None:
            windows[row] = encode_rows(images.words[value][None], context)[0]
            for pos, off in flips:
                windows[row, pos] = (windows[row, pos] + off) & 3
    keys = _window_keys(windows)
    words = images.lookup(keys, contexts)
    hits = words < mldecode._FAR
    values, distances, ambiguous = columns(words)
    kernel = columns(_batched_min_stats(keys, contexts, images))
    assert np.array_equal(hits, kernel[1] <= 2)
    assert all(np.array_equal(got[hits], want[hits]) for got, want in zip(
        (values, distances, ambiguous), kernel
    ))
    assert (distances[~hits] == 3).all()


def test_substitution_pattern_counts():
    assert len(_flip_offsets(1)) == 33
    assert len(_flip_offsets(2)) == 495


def test_kernel_shares_each_distinct_shifted_key_across_slices(codebook):
    """Each of 6,480 windows in context 'A' received in all four contexts,
    shuffled: 25,920 keys, of which more than a slice of the kernel lie
    farther than two substitutions from every image, so every such
    shifted key repeats within a slice and across the slice boundary.
    Every key decodes as its shifted key does alone, and as the scalar
    reference does on a sample."""
    images = candidate_images(codebook)
    rng = np.random.default_rng(11)
    # 1,980 windows two substitutions from four images, the rest random
    near, near_contexts = flipped_windows(images, 2, rng.choice(256, 4, replace=False))
    shifted = np.concatenate(
        [near[near_contexts == 0], rng.integers(0, 4, (4500, 11), dtype=np.uint8)]
    )
    contexts = np.repeat(np.arange(4, dtype=np.uint8), len(shifted))
    keys = _add_fields(np.tile(_window_keys(shifted), 4), contexts * np.uint32(mldecode._FIELDS))
    order = rng.permutation(len(keys))
    keys, contexts = keys[order], contexts[order]
    assert np.count_nonzero(images.lookup(keys, contexts) >= mldecode._FAR) > mldecode._SLICE

    got = list(zip(*(c.tolist() for c in columns(_batched_min_stats(keys, contexts, images)))))
    alone = [
        tuple(column[0] for column in columns(_batched_min_stats(key[None], 0, images)))
        for key in _window_keys(shifted)
    ]
    assert got == [alone[row] for row in (order % len(shifted)).tolist()]
    assert any(ambiguous for _, _, ambiguous in got)
    for row in random.Random(11).sample(range(len(keys)), 200):
        decoded = decode_codeword_ml(
            codes_to_dna(key_rows(keys[row : row + 1])[0]), "ACGT"[contexts[row]], codebook
        )
        assert got[row] == (decoded.byte_value, decoded.dna_distance, decoded.ambiguous)


def test_audit_sums_no_row_up_to_two_flips(codebook, monkeypatch):
    """The audit gives the kernel each block of codewords in all four
    contexts in one call. Every case up to two flips lies in the ball
    table, so the pinned tallies come with no call of the row path or of
    its row sums; three flips reach both."""
    calls, rows, summed = [], [], []
    kernel, row_decode, gather = mldecode._batched_min_stats, mldecode._row_decode, mldecode._gather

    def counted(keys, contexts, images):
        calls.append(len(keys))
        return kernel(keys, contexts, images)

    monkeypatch.setattr(mldecode, "_batched_min_stats", counted)
    monkeypatch.setattr(
        mldecode, "_row_decode", lambda *args: rows.append(args) or row_decode(*args)
    )
    monkeypatch.setattr(mldecode, "_gather", lambda *args: summed.append(args) or gather(*args))
    assert audit_substitutions(codebook, 1) == AuditResult(33792, 33792, 0, 0)
    assert audit_substitutions(codebook, 2) == AuditResult(506880, 497356, 5400, 4124)
    assert not rows and not summed
    assert sum(calls) == 4 * 256 * (33 + 495)
    assert len(calls) == len(range(0, 256, mldecode._SLICE // (4 * 33))) + len(
        range(0, 256, mldecode._SLICE // (4 * 495))
    )
    audit_substitutions(codebook, 3)
    assert rows and summed


def test_kernel_call_within_the_ball_runs_no_sort(codebook, monkeypatch):
    """A kernel call whose keys all lie within two substitutions of an
    image is two table reads: it takes no np.unique and no row path."""
    images = candidate_images(codebook)
    keys = _add_fields(images.image_keys[:3], np.array([0, 1, 5], dtype=np.uint32))
    contexts = np.array([0, 1, 2], dtype=np.uint8)
    keys = _add_fields(keys, contexts * np.uint32(mldecode._FIELDS))
    expected = list(zip(*columns(row_path_answers(keys, contexts, images))))

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel sorted or summed rows")

    monkeypatch.setattr(np, "unique", refuse)
    monkeypatch.setattr(mldecode, "_row_decode", refuse)
    got = columns(_batched_min_stats(keys, contexts, images))
    assert list(zip(*got)) == expected
    assert list(got[0]) == [0, 1, 2] and list(got[1]) == [0, 1, 2]


@pytest.mark.parametrize(
    "book, pinned",
    [
        ("codebook", (AuditResult(33792, 33792, 0, 0), AuditResult(506880, 497356, 5400, 4124))),
        (
            "lexicode",
            (AuditResult(33792, 29912, 2768, 1112), AuditResult(506880, 320148, 90516, 96216)),
        ),
    ],
)
def test_kernel_alone_gives_the_pinned_audits(book, pinned, request):
    """Both exhaustive sweeps sent straight to the kernel's row path, no
    window answered by the ball table, tally as the audit does."""
    images = candidate_images(request.getfixturevalue(book))
    for flips, expected in zip((1, 2), pinned):
        windows, contexts = flipped_windows(images, flips)
        values, _, ambiguous = columns(row_path_answers(_window_keys(windows), contexts, images))
        correct = values == np.tile(np.repeat(np.arange(256), len(_flip_offsets(flips))), 4)
        assert AuditResult(
            len(values),
            int((correct & ~ambiguous).sum()),
            int(ambiguous.sum()),
            int((~correct & ~ambiguous).sum()),
        ) == expected


def test_audit_without_flips_and_with_more_flips_than_bases(codebook):
    assert audit_substitutions(codebook, 0) == AuditResult(1024, 1024, 0, 0)
    assert audit_substitutions(codebook, 12) == AuditResult(0, 0, 0, 0)


# --- chunk decoding -------------------------------------------------------------

def test_decode_chunk_clean(codebook):
    fd = FileDescriptor(content=b"hello", extension="")
    record = encode_file(fd, codebook)[0]
    data, report, last = decode_chunk(record, codebook, "A")
    assert data[: len(b"hello")] == b"hello"
    assert report.parity_ok
    assert set(report.codeword_distances) == {0}
    assert last == record.payload_dna[-1]


def test_decode_chunk_context_search_matches_known_context(codebook):
    fd = FileDescriptor(content=bytes(range(40)), extension="")
    records = encode_file(fd, codebook, chunk_bases=44)
    assert len(records) > 2
    ctx = records[0].payload_dna[-1]
    known, _, _ = decode_chunk(records[1], codebook, ctx)
    searched, report, _ = decode_chunk(records[1], codebook, None)
    assert searched == known
    assert sum(report.codeword_distances) == 0


def test_decode_chunk_rejects_partial_payload(codebook):
    record = ChunkRecord(payload_dna="ACGT", header_dna="CGTA")
    with pytest.raises(DecodeError):
        decode_chunk(record, codebook)


def test_context_base_is_read_like_trits_to_dna(codebook):
    record = encode_file(FileDescriptor(content=b"hello", extension=""), codebook)[0]
    window = record.payload_dna[:11]
    assert decode_codeword_ml(window, "c", codebook) == decode_codeword_ml(window, "C", codebook)
    assert decode_chunk(record, codebook, "c") == decode_chunk(record, codebook, "C")
    for bad in ("N", "AC", ""):
        with pytest.raises(AlphabetError):
            decode_codeword_ml(window, bad, codebook)
        with pytest.raises(AlphabetError):
            decode_chunk(record, codebook, bad)
        with pytest.raises(AlphabetError):
            trits_to_dna("", bad)


def test_decode_chunk_rejects_non_dna_symbol(codebook):
    record = encode_file(FileDescriptor(content=b"hello", extension=""), codebook)[0]
    damaged = ChunkRecord(payload_dna="N" + record.payload_dna[1:], header_dna=record.header_dna)
    with pytest.raises(ValueError, match="'N'"):
        decode_chunk(damaged, codebook)


def test_key_arithmetic_matches_base_rows():
    """On packed keys, the context shift, the trit reading and the audit's
    flips are the same steps on rows of base codes, in every context."""
    rows = np.random.default_rng(4).integers(0, 4, size=(500, 11), dtype=np.uint8)
    rows[0], rows[1] = 0, 3
    keys = _window_keys(rows)
    assert keys.max() < 4**11
    assert (key_rows(keys) == rows).all()
    offsets = _flip_offsets(1)
    flipped = key_rows(_add_fields(keys[:, None], offsets).ravel())
    assert (flipped == ((rows[:, None] + key_rows(offsets)) & 3).reshape(-1, 11)).all()
    for ctx in range(4):
        shifted = _add_fields(keys, mldecode._NEGATIONS[ctx])
        assert np.array_equal(shifted, _window_keys((rows - ctx) & 3))
        reading = _add_fields(shifted, ~shifted >> 2)
        assert np.array_equal(reading, _window_keys(decode_rows((rows - ctx) & 3, 0)))


def test_stream_decode_skips_the_kernel_when_no_window_needs_it(codebook, monkeypatch):
    rows = []

    def kernel(keys, contexts, images):
        rows.append(len(keys))
        return _batched_min_stats(keys, contexts, images)

    monkeypatch.setattr(mldecode, "_batched_min_stats", kernel)
    for seed in range(40):
        fd = FileDescriptor(content=np.random.default_rng(seed).bytes(1024), extension="bin")
        noisy = corrupt_records(
            encode_file(fd, codebook), ChannelSpec.parse("rate:0.001"), np.random.default_rng(seed)
        )
        decode_file(noisy, codebook)
    assert rows and min(rows) > 0


# --- trailer split ----------------------------------------------------------------

def test_split_payload_stream_simple():
    content, size, ext, ok = split_payload_stream(b"DA;2,txt;")
    assert (content, size, ext, ok) == (b"DA", 2, "txt", True)


def test_split_payload_stream_content_with_separators():
    content, size, ext, ok = split_payload_stream(b"a;b,c;d;8,bin;")
    assert (content, size, ext, ok) == (b"a;b,c;d", 8, "bin", True)


def test_split_payload_stream_empty_extension():
    content, size, ext, ok = split_payload_stream(b"xy;2,;")
    assert (content, size, ext, ok) == (b"xy", 2, "", True)


def test_split_payload_stream_damaged():
    content, size, ext, ok = split_payload_stream(b"no trailer here")
    assert not ok and size is None
    content, size, ext, ok = split_payload_stream(b"data;x,bin;")
    assert not ok and size is None


def test_split_payload_stream_rejects_a_separator_in_the_extension():
    """No extension the writer accepts holds ';', so a trailer that ends
    in two is not one the encoder wrote; content and size read as they are."""
    assert split_payload_stream(b"abc;3,x;;") == (b"abc", 3, "x;", False)


def test_split_payload_stream_cuts_content_to_the_declared_size():
    assert split_payload_stream(b"abcdef;3,x;") == (b"abc", 3, "x", True)
    assert split_payload_stream(b"ab;3,x;") == (b"ab", 3, "x", True)


# --- whole-file decoding -----------------------------------------------------------

def test_decode_file_round_trip(codebook):
    fd = FileDescriptor(content=b"the quick brown fox", extension="txt", file_id=2)
    result = decode_file(parse_fasta(emit_fasta(encode_file(fd, codebook))), codebook)
    assert result.content == fd.content
    assert result.extension == "txt"
    assert result.size_bytes == len(fd.content)
    assert result.file_id == 2
    assert result.fully_recovered
    assert all(rep.parity_ok for rep in result.per_chunk)


def test_decode_file_accepts_shuffled_records(codebook):
    fd = FileDescriptor(content=bytes(range(200)), extension="bin")
    records = encode_file(fd, codebook)
    rng = random.Random(0)
    shuffled = list(records[:])
    rng.shuffle(shuffled)
    result = decode_file(shuffled, codebook)
    assert result.content == fd.content
    assert [rep.chunk_index for rep in result.per_chunk] == list(range(len(records)))


def test_decode_file_verbatim_duplicates_collapse(codebook):
    fd = FileDescriptor(content=b"dup", extension="")
    records = encode_file(fd, codebook)
    result = decode_file(list(records) + list(records), codebook)
    assert result.content == b"dup"
    assert result.fully_recovered


def _clone_of_chunk_1(records):
    """Chunk 1's header over its payload reversed: a record that claims
    index 1 with other contents and a header that passes parity."""
    return ChunkRecord(
        payload_dna=records[1].payload_dna[::-1], header_dna=records[1].header_dna
    )


def test_decode_file_sets_aside_a_conflicting_record_after_the_original(codebook):
    fd = FileDescriptor(content=bytes(range(120)), extension="")
    records = list(encode_file(fd, codebook))
    result = decode_file(records + [_clone_of_chunk_1(records)], codebook)
    assert result.content == fd.content
    assert result.fully_recovered
    assert result.set_aside == [len(records)]
    assert result.to_dict()["set_aside"] == [len(records)]


def test_decode_file_keeps_the_first_of_two_trusted_records(codebook):
    """Two records with the same good header: input order decides."""
    fd = FileDescriptor(content=bytes(range(120)), extension="")
    records = list(encode_file(fd, codebook))
    result = decode_file([_clone_of_chunk_1(records)] + records, codebook)
    assert result.set_aside == [2]
    assert result.unrecoverable_chunks == []
    assert len(result.per_chunk) == len(records)


@pytest.mark.parametrize("minority_first", [False, True])
def test_decode_file_sets_aside_the_records_of_a_pooled_minority_file(codebook, minority_first):
    """Two files in one FASTA, the second shorter, so each of its
    indices is taken by a record of the first: the majority file id
    decodes exactly and every record of the other is set aside."""
    major = FileDescriptor(content=bytes(range(216)), extension="bin", file_id=0)
    minor = FileDescriptor(content=bytes(range(117))[::-1], extension="bin", file_id=1)
    major_records, minor_records = (encode_file(fd, codebook) for fd in (major, minor))
    assert len(minor_records) < len(major_records)
    pooled = [major_records, minor_records][:: -1 if minority_first else 1]
    parsed = parse_fasta("".join(map(emit_fasta, pooled)))
    result = decode_file(parsed, codebook)
    assert result.file_id == 0
    assert result.content == major.content
    assert result.fully_recovered
    offset = 0 if minority_first else len(major_records)
    assert result.set_aside == list(range(offset, offset + len(minor_records)))


def _edit_base(text, record, offset, insert):
    """``text`` with the base ``offset`` bases into record ``record``'s
    sequence deleted, or with an 'A' inserted before it."""
    at = text.index("\n", text.index(f"_c{record} ")) + 1 + offset
    return text[:at] + ("A" if insert else "") + text[at + (not insert) :]


def test_decode_file_sets_aside_records_with_one_base_deleted_or_inserted(codebook):
    """One base deleted from record 10 and one inserted into record 20:
    both are set aside, their two chunks are missing, and every other
    byte, the trailer included, comes back exact."""
    fd = FileDescriptor(np.random.default_rng(22).bytes(1 << 16), extension="bin")
    text = emit_fasta(encode_file(fd, codebook))
    damaged = _edit_base(_edit_base(text, 10, 40, False), 20, 7, True)
    parsed = parse_fasta(damaged)
    result = decode_file(parsed, codebook)
    assert result.set_aside == [10, 20] and result.unrecoverable_chunks == [10, 20]
    assert result.trailer_ok and len(result.content) == len(fd.content)
    got, want = (np.frombuffer(data, np.uint8) for data in (result.content, fd.content))
    wrong = np.flatnonzero(got != want) // 9
    assert set(wrong.tolist()) <= {10, 20}
    assert len(result.per_chunk) == len(parsed) - 2


def test_decode_file_of_a_pool_of_two_file_sizes(codebook):
    """Files of 4,000 and 1,000 bytes have headers of two widths and full
    records of two lengths. The larger file's length is the most common,
    so it decodes exactly, and every record of the other is set aside."""
    big = FileDescriptor(np.random.default_rng(1).bytes(4000), extension="a")
    small = FileDescriptor(np.random.default_rng(2).bytes(1000), extension="b", file_id=1)
    big_records, small_records = (encode_file(fd, codebook) for fd in (big, small))
    assert big_records[0].mu != small_records[0].mu
    result = decode_file(parse_fasta(emit_fasta(big_records) + emit_fasta(small_records)), codebook)
    assert result.content == big.content and result.fully_recovered
    assert result.set_aside == list(range(len(big_records), len(big_records) + len(small_records)))


def test_decode_file_sets_aside_an_index_past_any_file(codebook):
    """A lone 200-base record with a 101-base header, whose index parity
    does not bound: one at or past max(3**11, 3 x the records that fit),
    or negative (wrapped past 2**63), is set aside, not placed."""
    rng = np.random.default_rng(3)
    batch = ChunkBatch(rng.integers(0, 4, 200, dtype=np.uint8), [200], [101])
    _, indices, _ = batch.decoded_headers()
    assert batch.header_widths[0] == 101 and batch.whole_windows.all()
    assert not 0 <= indices[0] < 3**11
    result = decode_file(batch, codebook)
    assert result.set_aside == [0] and len(result.per_chunk) == 0
    assert (result.content, result.unrecoverable_chunks, result.trailer_ok) == (b"", [], False)


# up to ten record lengths of 1 to 300 bases, drawn from up to three, so that lengths repeat
record_lengths = st.lists(st.integers(1, 300), min_size=1, max_size=3).flatmap(
    lambda lengths: st.lists(st.sampled_from(lengths), min_size=1, max_size=10)
)


@settings(deadline=None, max_examples=150)
@given(record_lengths, st.integers(0, 2**32 - 1))
def test_parse_and_decode_are_total(codebook, lengths, seed):
    """Titled records of random bases and any lengths parse, and
    decode_file accounts for every record, decoded or set aside."""
    rng = np.random.default_rng(seed)
    sequences = [codes_to_dna(rng.integers(0, 4, n, dtype=np.uint8)) for n in lengths]
    batch = parse_fasta("".join(f">r{i}\n{seq}\n" for i, seq in enumerate(sequences)))
    assert batch.lengths.tolist() == lengths
    result = decode_file(batch, codebook)
    assert len(result.per_chunk) + len(result.set_aside) == len(batch)


def test_decode_file_reports_gap_and_keeps_offsets(codebook):
    fd = FileDescriptor(content=bytes(range(120)), extension="bin")
    records = encode_file(fd, codebook)
    assert len(records) >= 3
    survivors = [rec for rec in records if rec.chunk_index != 1]
    result = decode_file(survivors, codebook)
    assert result.unrecoverable_chunks == [1]
    assert not result.fully_recovered
    assert len(result.content) == 120
    assert result.content[:9] == fd.content[:9]
    assert result.content[9:18] == bytes(9)  # zero fill for the lost chunk
    assert result.content[18:] == fd.content[18:]


def _chunk_by_chunk(records, lost, codebook):
    """The reference for a gapped decode: the chunks one by one, each
    after its predecessor's last corrected base, all four contexts
    searched after a gap, a full chunk of zeros for each lost one;
    (content, reports)."""
    expected, reports, ctx = bytearray(), [], "A"
    for rec in records:
        if rec.chunk_index in lost:
            expected += bytes(len(records[0].payload_dna) // 11)
            ctx = None
            continue
        data, report, ctx = decode_chunk(rec, codebook, ctx)
        expected += data
        reports.append(report.to_dict())
    content, size, _, _ = split_payload_stream(bytes(expected))
    return content[:size], reports


def test_decode_file_with_gaps_matches_chunk_by_chunk_reference(codebook):
    """Runs between missing chunks decode as streams; the reference walks
    the chunks one by one, searching all contexts after each gap."""
    rng = random.Random(7)
    fd = FileDescriptor(content=bytes(rng.randrange(256) for _ in range(400)), extension="bin")
    records = corrupt_records(
        encode_file(fd, codebook), ChannelSpec.parse("count:2"), np.random.default_rng(7)
    )
    lost = {0, 3, 4, 9}
    survivors = [rec for rec in records if rec.chunk_index not in lost]
    result = decode_file(survivors, codebook)

    content, reports = _chunk_by_chunk(records, lost, codebook)
    assert result.unrecoverable_chunks == sorted(lost)
    assert result.content == content
    assert [rep.to_dict() for rep in result.per_chunk] == reports
    assert any(rep["ambiguities"] or any(rep["codeword_distances"]) for rep in reports)


@pytest.mark.parametrize("channel", ["count:1", "count:2", "count:3"])
@pytest.mark.parametrize("lost", [{0}, {0, 2, 4}, {1, 3, 44}])
def test_decode_file_with_gaps_matches_reference_at_every_kind_of_break(codebook, channel, lost):
    """Chunk 0 lost; one-chunk runs between two gaps (chunks 1, 2 and 3);
    and the short last chunk, 45, alone after a gap."""
    rng = random.Random(17)
    fd = FileDescriptor(content=bytes(rng.randrange(256) for _ in range(400)), extension="bin")
    records = corrupt_records(
        encode_file(fd, codebook), ChannelSpec.parse(channel), np.random.default_rng(17)
    )
    assert len(records) == 46 and len(records[-1].payload_dna) < len(records[0].payload_dna)
    result = decode_file([rec for rec in records if rec.chunk_index not in lost], codebook)
    content, reports = _chunk_by_chunk(records, lost, codebook)
    assert result.unrecoverable_chunks == sorted(lost)
    assert result.content == content
    assert [rep.to_dict() for rep in result.per_chunk] == reports


def test_decode_file_break_after_a_window_the_table_corrects_in_its_last_base(codebook):
    """The table corrects the last base of the last window before a gap,
    which would change its successor's context; the window after the gap,
    three substitutions from its image, starts a stream, so it keeps its
    own context and is not held back: the kernel decodes it."""
    content = bytes(random.Random(11).randrange(256) for _ in range(100))
    records = list(encode_file(FileDescriptor(content=content, extension="bin"), codebook))
    swap = {"A": "C", "C": "G", "G": "T", "T": "A"}
    tail, head = records[2].payload_dna, records[4].payload_dna
    records[2] = ChunkRecord(tail[:-1] + swap[tail[-1]], records[2].header_dna, 0, 2)
    window = corrupt(head[:11], (0, swap[head[0]]), (5, swap[head[5]]), (9, swap[head[9]]))
    records[4] = ChunkRecord(window + head[11:], records[4].header_dna, 0, 4)
    # the window after the gap is a table miss under its true context
    images = candidate_images(codebook)
    context = np.array([BASE_INDEX[records[3].payload_dna[-1]]], dtype=np.uint8)
    assert images.lookup(_window_keys(dna_codes(window)[None]), context)[0] >= mldecode._FAR

    result = decode_file(records[:3] + records[4:], codebook)
    expected, reports = _chunk_by_chunk(records, {3}, codebook)
    assert result.content == expected == content[:27] + bytes(9) + content[36:]
    assert [rep.to_dict() for rep in result.per_chunk] == reports
    assert reports[2]["codeword_distances"][-1] == 1 and reports[3]["codeword_distances"][0] == 3


def test_decode_file_makes_at_most_two_stream_calls(codebook, monkeypatch):
    """All runs decode in one stream call, and the lost contexts of all
    runs after a gap are searched in one more, however many gaps."""
    calls = []
    stream = mldecode._decode_stream

    def counted(keys, *args):
        calls.append(len(keys))
        return stream(keys, *args)

    monkeypatch.setattr(mldecode, "_decode_stream", counted)
    content = np.random.default_rng(9).integers(0, 256, 1 << 16, dtype=np.uint8).tobytes()
    records = corrupt_records(
        encode_file(FileDescriptor(content=content, extension="bin"), codebook),
        ChannelSpec.parse("count:1"),
        np.random.default_rng(9),
    )
    assert decode_file(records, codebook).content == content
    assert len(calls) == 1
    calls.clear()
    result = decode_file([rec for k, rec in enumerate(records) if k % 3], codebook)
    assert len(result.unrecoverable_chunks) == len(range(0, len(records) - 1, 3)) > 2000
    assert len(calls) == 2


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.01, 0.1, 0.3, 0.75]))
def test_batched_context_search_matches_one_call_per_context(codebook, seed, rate):
    """Every chunk's context, searched in one call, is the one that four
    calls, one per context, pick: the lowest total distance, the lowest
    base on a tie."""
    rng = np.random.default_rng(seed)
    content = rng.integers(0, 256, int(rng.integers(1, 120)), dtype=np.uint8).tobytes()
    batch = encode_file(FileDescriptor(content=content, extension=""), codebook, chunk_bases=44)
    if rate:
        batch = corrupt_records(batch, ChannelSpec.parse(f"rate:{rate}"), rng)
    keys, counts = mldecode._payload_keys(batch, slice(None))
    images = candidate_images(codebook)
    expected = []
    for hi, count in zip(np.cumsum(counts), counts):
        chunk = keys[hi - count : hi]
        costs = [
            int(columns(mldecode._decode_stream(chunk, [0], [b], images)[0])[1].sum())
            for b in range(4)
        ]
        expected.append(costs.index(min(costs)))
    assert mldecode._best_contexts(keys, counts, images).tolist() == expected


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_payload_keys_match_per_record_window_keys(codebook, seed):
    """The keys read from whole record rows are each record's windows
    packed one by one, for the batch in order, shuffled and with records
    left out."""
    rng = np.random.default_rng(seed)
    for batch in mixed_batches(codebook, seed):
        shuffled = rng.permutation(len(batch))
        for order in (slice(None), shuffled, shuffled[: len(batch) // 2]):
            records = [batch[int(i)] for i in np.arange(len(batch))[order]]
            keys, counts = mldecode._payload_keys(batch, order)
            expected = [_window_keys(dna_codes(r.payload_dna).reshape(-1, 11)) for r in records]
            assert counts.tolist() == [len(k) for k in expected]
            assert keys.tolist() == np.concatenate([[], *expected]).astype(int).tolist()


def _outcome(records, codebook):
    result = decode_file(records, codebook)
    reports = [rep.to_dict() for rep in result.per_chunk]
    return (
        result.content,
        result.extension,
        result.size_bytes,
        result.file_id,
        result.trailer_ok,
        result.fully_recovered,
        result.unrecoverable_chunks,
        reports,
        [rep["ambiguities"] for rep in reports],
    )


@pytest.mark.parametrize("channel", [None, "count:1", "count:2", "rate:0.002", "rate:0.02"])
def test_decode_file_reads_batches_and_record_lists_alike(codebook, channel):
    content = bytes(random.Random(3).randrange(256) for _ in range(1500))
    fd = FileDescriptor(content=content, extension="bin")
    records = encode_file(fd, codebook)
    if channel is not None:
        records = corrupt_records(records, ChannelSpec.parse(channel), np.random.default_rng(5))
    shuffled = list(records)
    random.Random(1).shuffle(shuffled)
    gapped = [rec for rec in shuffled if rec.chunk_index % 7 != 2]
    duplicated = shuffled + shuffled[:4]
    for case in (list(records), shuffled, gapped, duplicated):
        assert _outcome(ChunkBatch.of(case), codebook) == _outcome(case, codebook)
    parsed = parse_fasta(emit_fasta(records))
    assert _outcome(parsed, codebook) == _outcome(list(records), codebook)


def test_per_chunk_reports_are_read_only_columns(codebook):
    fd = FileDescriptor(content=bytes(range(120)), extension="bin")
    records = corrupt_records(
        encode_file(fd, codebook), ChannelSpec.parse("count:1"), np.random.default_rng(2)
    )
    result = decode_file(records, codebook)
    reports = result.per_chunk
    assert len(reports) == len(records) == len(list(reports))
    assert reports[-1].chunk_index == len(records) - 1
    assert reports[1:3] == [reports[1], reports[2]]
    assert list(reports[0].codeword_distances) == [1] * 9
    assert int(reports.codeword_distances.sum()) == sum(len(r.payload_dna) for r in records) // 11
    assert result.fully_recovered


def test_blocked_decode_and_iteration_match_one_block(codebook, monkeypatch):
    """Window keys, round-one lookups and the items of batches and
    reports, built in blocks of a few records or windows, come out as in
    one block; iterating builds the items that indexing does."""
    fd = FileDescriptor(content=bytes(random.Random(5).randrange(256) for _ in range(400)))
    records = corrupt_records(
        encode_file(fd, codebook), ChannelSpec.parse("count:1"), np.random.default_rng(6)
    )
    parsed = parse_fasta(emit_fasta(records))
    shuffled = ChunkBatch.of(list(parsed)[::-1])
    expected = [_outcome(batch, codebook) for batch in (parsed, shuffled)]
    monkeypatch.setattr(chunks, "_RECORD_BLOCK", 4)
    monkeypatch.setattr(mldecode, "_LOOKUP_BLOCK", 7)
    assert [_outcome(batch, codebook) for batch in (parsed, shuffled)] == expected
    reports = decode_file(parsed, codebook).per_chunk
    for items in (records, parsed, reports):
        assert len(items) > 3 * 4
        assert list(items) == [items[i] for i in range(len(items))]


def test_decode_file_sets_aside_a_record_with_no_header(codebook):
    """A header of no bases is not read, so its record has no index to
    take and is set aside; the file decodes from the others."""
    records = [*encode_file(FileDescriptor(b"abc", "x"), codebook), ChunkRecord("ACGTACGTACG", "")]
    result = decode_file(records, codebook)
    assert result.set_aside == [len(records) - 1]
    assert result.content == b"abc" and result.fully_recovered


def test_decode_outputs_are_pinned(codebook):
    """One digest of decode_file's outputs over 24 decodes: random 1,000 B
    and 64 KiB files under three count and three rate channels, at channel
    seeds 1 and 2. A change that alters decode outputs on purpose updates
    the digest and says why."""
    digest = hashlib.sha256()
    for size in (1000, 1 << 16):
        records = encode_file(FileDescriptor(np.random.default_rng(size).bytes(size), "bin"), codebook)
        for channel in ("count:1", "count:2", "count:3", "rate:1e-3", "rate:1e-2", "rate:0.1"):
            for seed in (1, 2):
                noisy = corrupt_records(records, ChannelSpec.parse(channel, seed))
                result = decode_file(noisy, codebook)
                fields = (result.content, result.extension, result.size_bytes, result.trailer_ok)
                fields += (result.set_aside, result.unrecoverable_chunks)
                reports = result.per_chunk
                fields += (reports.codeword_distances.tobytes(), reports.parity_ok.tobytes())
                digest.update(repr(fields).encode())
    assert digest.hexdigest() == "adecdff3f93d4ea766657d54d89f4994ed7773d0b3662530562d5f3685d84767"


def test_decode_file_empty_input(codebook):
    result = decode_file([], codebook)
    assert (result.content, result.size_bytes, result.trailer_ok) == (b"", None, False)
    assert (result.file_id, result.unrecoverable_chunks, result.set_aside) == (0, [], [])
    assert len(result.per_chunk) == 0 and not result.fully_recovered


def test_decode_result_report_is_json_ready(codebook):
    fd = FileDescriptor(content=b"js", extension="txt")
    result = decode_file(parse_fasta(emit_fasta(encode_file(fd, codebook))), codebook)
    payload = json.dumps(result.to_dict())
    parsed = json.loads(payload)
    assert parsed["fully_recovered"] is True
    assert parsed["chunks"][0]["parity_ok"] is True

    fd = FileDescriptor(content=bytes(range(60)), extension="bin")
    noisy = corrupt_records(
        encode_file(fd, codebook), ChannelSpec.parse("count:2"), np.random.default_rng(3)
    )
    parsed = json.loads(json.dumps(decode_file(noisy, codebook).to_dict()))
    assert any(any(chunk["codeword_distances"]) for chunk in parsed["chunks"])


def test_stream_decode_matches_per_window_reference(codebook):
    """The bulk path and the window-by-window rule must agree under
    corruption, from every starting context; heavy noise makes long
    chains of context repairs, and one flip in every window makes the
    table place most windows and defer the successors of those whose
    last base it corrects."""
    rng = random.Random(31)
    fd = FileDescriptor(content=bytes(rng.randrange(256) for _ in range(45)), extension="")
    record = encode_file(fd, codebook, chunk_bases=99)[0]
    clean = record.payload_dna

    def flip(pos, payload):
        payload[pos] = rng.choice([b for b in "ACGT" if b != payload[pos]])

    def six_flips():
        payload = list(clean)
        for _ in range(6):
            flip(rng.randrange(len(payload)), payload)
        return "".join(payload)

    def at_rate(rate):
        payload = list(clean)
        for pos in range(len(payload)):
            if rng.random() < rate:
                flip(pos, payload)
        return "".join(payload)

    def one_per_window():
        payload = list(clean)
        for lo in range(0, len(payload), 11):
            flip(lo + rng.randrange(11), payload)
        return "".join(payload)

    for corrupted in (six_flips(), at_rate(0.05), at_rate(0.3), one_per_window()):
        for start in "ACGT":
            data, report, last = decode_chunk(
                ChunkRecord(payload_dna=corrupted, header_dna=record.header_dna),
                codebook,
                start,
            )
            # reference: straight chained per-window ML decoding
            ctx = start
            expected = bytearray()
            expected_distances = []
            ambiguities = 0
            for lo in range(0, len(corrupted), 11):
                decoded = decode_codeword_ml(corrupted[lo : lo + 11], ctx, codebook)
                expected.append(decoded.byte_value)
                expected_distances.append(decoded.dna_distance)
                ambiguities += decoded.ambiguous
                ctx = decoded.corrected_window[-1]
            assert data == bytes(expected)
            assert list(report.codeword_distances) == expected_distances
            assert report.ambiguities == ambiguities
            assert last == ctx


@pytest.mark.parametrize("channel, share", [(None, 0), ("count:1", 0.05), ("count:2", 0.4)])
def test_stream_decode_sends_few_windows_to_kernel(codebook, monkeypatch, channel, share):
    """Windows within two substitutions of an image mostly decode by
    table: a clean file sends no window to the kernel, one flip per
    window only the few the table cannot place and those queued behind
    them, and two flips per window fewer kernel rows than windows."""
    rows = []

    def counted(keys, contexts, images):
        rows.append(len(keys))
        return _batched_min_stats(keys, contexts, images)

    monkeypatch.setattr(mldecode, "_batched_min_stats", counted)
    content = np.random.default_rng(8).integers(0, 256, 1 << 16, dtype=np.uint8).tobytes()
    records = encode_file(FileDescriptor(content=content, extension="bin"), codebook)
    if channel is not None:
        records = corrupt_records(records, ChannelSpec.parse(channel), np.random.default_rng(8))
    result = decode_file(records, codebook)
    if channel != "count:2":  # two substitutions may take a window nearer another image
        assert result.content == content
    windows = len(result.per_chunk.codeword_distances)
    assert sum(rows) <= share * windows


def test_lexicode_audit_pinned(lexicode):
    """Images two substitutions apart tie at distance 1 as well as 2, so
    the lexicode's audit takes the trit layer on single flips too."""
    assert audit_substitutions(lexicode, 1) == AuditResult(33792, 29912, 2768, 1112)
    assert audit_substitutions(lexicode, 2) == AuditResult(506880, 320148, 90516, 96216)


def test_audit_single_flip_smoke(codebook):
    result = audit_substitutions(codebook, 1)
    assert result.cases == 33792
    assert result.unique_correct == result.cases

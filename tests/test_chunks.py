import gc
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dnagolay import chunks
from dnagolay.chunks import (
    ChunkBatch,
    ChunkError,
    ChunkRecord,
    FastaError,
    FileDescriptor,
    build_payload_trits,
    decode_header,
    emit_fasta,
    encode_file,
    make_header_dna,
    mu_for_segments,
    parse_fasta,
)
from dnagolay.mldecode import decode_file
from dnagolay.ternary import AlphabetError
from dnagolay.transcode import BASE_INDEX, codes_to_dna, decode_rows, dna_codes, trits_to_dna
from batches import mixed_batches


def cw(codebook, char):
    return codebook.encode_byte(ord(char) if isinstance(char, str) else char)


def read_trits(dna):
    """The trits of DNA written after an 'A', with 3 for a repeated base."""
    return "".join(map(str, decode_rows(dna_codes(dna)[None], BASE_INDEX["A"])[0].tolist()))


def header_trits(file_id, chunk_index, mu):
    return read_trits(make_header_dna(file_id, chunk_index, mu))


def segments(codebook, size):
    """The payload DNA of a file of ``size`` zero bytes, and its chunks."""
    fd = FileDescriptor(content=bytes(size))
    stream = trits_to_dna(build_payload_trits(fd, codebook), "A")
    return stream, [record.payload_dna for record in encode_file(fd, codebook)]


# --- payload layout -----------------------------------------------------------

def test_payload_layout_for_two_byte_file(codebook):
    fd = FileDescriptor(content=b"DA", extension="txt")
    trits = build_payload_trits(fd, codebook)
    expected = (
        cw(codebook, "D") + cw(codebook, "A")
        + cw(codebook, ";") + cw(codebook, "2")
        + cw(codebook, ",")
        + cw(codebook, "t") + cw(codebook, "x") + cw(codebook, "t")
        + cw(codebook, ";")
    )
    assert trits == expected
    assert len(trits) % 11 == 0


def test_payload_layout_empty_file(codebook):
    fd = FileDescriptor(content=b"", extension="")
    expected = cw(codebook, ";") + cw(codebook, "0") + cw(codebook, ",") + cw(codebook, ";")
    assert build_payload_trits(fd, codebook) == expected


def test_payload_layout_single_zero_byte(codebook):
    fd = FileDescriptor(content=b"\x00", extension="")
    assert build_payload_trits(fd, codebook).startswith("00000000000")


def test_file_descriptor_validation():
    with pytest.raises(ChunkError, match="file_id"):
        FileDescriptor(content=b"", file_id=9)
    with pytest.raises(ChunkError, match="extension"):
        FileDescriptor(content=b"", extension="a;b")
    with pytest.raises(ChunkError, match="extension"):
        FileDescriptor(content=b"", extension="a,b")


# --- segmentation -------------------------------------------------------------

def test_segment_exact_chunk(codebook):
    stream, pieces = segments(codebook, 5)
    assert len(stream) == 99
    assert pieces == [stream]


def test_segment_with_remainder(codebook):
    stream, pieces = segments(codebook, 6)
    assert len(stream) == 110
    assert pieces == [stream[:99], stream[99:]]


def test_segment_short_single(codebook):
    stream, pieces = segments(codebook, 0)
    assert len(stream) == 44
    assert pieces == [stream]


def test_segment_rejects_bad_chunk_size(codebook):
    with pytest.raises(ChunkError, match="chunk size"):
        encode_file(FileDescriptor(content=b"DA"), codebook, chunk_bases=20)


def test_mu_for_segments():
    assert mu_for_segments(1) == 1
    assert mu_for_segments(3) == 1
    assert mu_for_segments(4) == 2
    assert mu_for_segments(9) == 2
    assert mu_for_segments(10) == 3
    with pytest.raises(ChunkError):
        mu_for_segments(0)


# --- headers ------------------------------------------------------------------

def test_parity_trit_rule():
    # the parity trit is the mod-3 sum of the id and index trits at odd
    # (1-based) positions: 000 -> 0, 001 -> 1, 1220 -> 0
    assert header_trits(0, 0, 1)[-1] == "0"
    assert header_trits(0, 1, 1)[-1] == "1"
    assert header_trits(5, 6, 2)[-1] == "0"


def test_header_trits_layout():
    assert header_trits(0, 0, 1) == "0000"
    assert header_trits(0, 1, 1) == "0011"
    assert header_trits(5, 7, 2) == "12" + "21" + str((1 + 2) % 3)


def test_make_header_dna_worked_examples():
    assert make_header_dna(0, 0, 1) == "CGTA"
    assert make_header_dna(0, 1, 1) == "CGAG"
    # trits 0,0,2,2 walked through the rotation from A
    assert make_header_dna(0, 2, 1) == "CGCA"


def test_make_header_dna_range_checks():
    with pytest.raises(ChunkError):
        make_header_dna(9, 0, 1)
    with pytest.raises(ChunkError):
        make_header_dna(0, 3, 1)


def test_decode_header_round_trip():
    for fid in (0, 4, 8):
        for index in (0, 1, 7):
            rec = ChunkRecord(payload_dna="", header_dna=make_header_dna(fid, index, 2))
            assert decode_header(rec) == (fid, index, True)


def test_decode_header_flags_parity_damage():
    header = make_header_dna(0, 1, 1)  # CGAG
    damaged = header[:3] + "C"  # parity base altered
    fid, index, ok = decode_header(ChunkRecord(payload_dna="", header_dna=damaged))
    assert (fid, index) == (0, 1)
    assert not ok


def test_decode_header_flags_unreadable_positions():
    # repeated base has no trit reading; decode falls back to 0 and flags
    rec = ChunkRecord(payload_dna="", header_dna="CCTA")
    _, _, ok = decode_header(rec)
    assert not ok


def test_decode_headers_matches_scalar_across_widths():
    headers = [
        make_header_dna(fid, index, mu)
        for mu in (1, 3, 2)
        for fid, index in ((0, 0), (8, 2), (4, 1))
    ]
    headers += ["CCTA", make_header_dna(0, 1, 1)[:3] + "C"]  # unreadable, parity damage
    file_ids, indices, parity_ok = ChunkBatch.of(
        [ChunkRecord("", header) for header in headers]
    ).decoded_headers()
    got = list(zip(file_ids.tolist(), indices.tolist(), parity_ok.tolist()))
    assert got == [decode_header(ChunkRecord(payload_dna="", header_dna=h)) for h in headers]


# --- whole-file encoding ------------------------------------------------------

def test_encode_file_demo_chunking(codebook):
    fd = FileDescriptor(content=b"DA", extension="txt")
    records = encode_file(fd, codebook, chunk_bases=11)
    # 9 codewords: D, A, ';', '2', ',', 't', 'x', 't', ';'
    assert len(records) == 9
    assert records[0].payload_dna == "CATGATGAGCG"
    assert records[1].payload_dna == "ACTCTACGACT"
    assert records[0].mu == 2
    stream = "".join(rec.payload_dna for rec in records)
    assert stream == trits_to_dna(build_payload_trits(fd, codebook), "A")


def test_encode_file_payload_is_continuous(codebook):
    fd = FileDescriptor(content=bytes(range(64)), extension="bin")
    records = encode_file(fd, codebook)
    stream = "".join(rec.payload_dna for rec in records)
    # continuous rotation stream: homopolymer-free across chunk boundaries
    chained = "A" + stream
    assert all(chained[i] != chained[i + 1] for i in range(len(stream)))
    assert read_trits(stream) == build_payload_trits(fd, codebook)


def test_encode_file_empty(codebook):
    records = encode_file(FileDescriptor(content=b"", extension=""), codebook)
    assert len(records) == 1
    assert len(records[0].payload_dna) == 44


def test_encode_file_chunk_count_and_mu(codebook):
    fd = FileDescriptor(content=bytes(1000), extension="bin")
    records = encode_file(fd, codebook)
    codewords = 1000 + 1 + 4 + 1 + 3 + 1
    expected_chunks = -(-codewords * 11 // 99)
    assert len(records) == expected_chunks
    assert records[0].mu == mu_for_segments(expected_chunks)
    assert len({rec.total_length for rec in records[:-1]}) == 1


def test_encode_file_headers_chain_fresh_from_a(codebook):
    records = encode_file(FileDescriptor(content=b"hello world", extension="txt"), codebook)
    for rec in records:
        assert decode_header(rec) == (0, rec.chunk_index, True)


def test_encode_file_batch_headers_match_scalar(codebook):
    # enough chunks to cross the batch threshold
    fd = FileDescriptor(content=bytes(700), extension="")
    records = encode_file(fd, codebook)
    assert len(records) > 64
    mu = records[0].mu
    for rec in list(records[:5]) + list(records[-5:]):
        assert rec.header_dna == make_header_dna(0, rec.chunk_index, mu)


def test_header_rows_match_scalar_at_wide_mu():
    # mu up to 20: headers of up to 23 trits, past any seven-trit grouping
    rng = np.random.default_rng(20)
    for mu in range(1, 21):
        indices = [0, 1, 3**mu - 1, *rng.integers(0, 3**mu, 300).tolist()]
        for file_id in (0, 8):
            rows = chunks._header_rows(file_id, indices, mu)
            assert rows.shape == (len(indices), 3 + mu)
            got = [codes_to_dna(row) for row in rows]
            assert got == [make_header_dna(file_id, index, mu) for index in indices]


# --- FASTA round trip ---------------------------------------------------------

def test_fasta_round_trip(codebook):
    fd = FileDescriptor(content=b"chunky bacon", extension="txt", file_id=3)
    records = encode_file(fd, codebook)
    text = emit_fasta(records)
    assert text.startswith(">f3_c0 len=")
    parsed = parse_fasta(text)
    assert [r.payload_dna for r in parsed] == [r.payload_dna for r in records]
    assert [r.header_dna for r in parsed] == [r.header_dna for r in records]


def test_fasta_wraps_at_80_columns(codebook):
    records = encode_file(FileDescriptor(content=bytes(100), extension=""), codebook)
    text = emit_fasta(records)
    assert all(len(line) <= 80 for line in text.splitlines())
    assert [r.sequence for r in parse_fasta(text)] == [r.sequence for r in records]


def test_fasta_interleaved_lengths_emit_like_single_records(codebook):
    """Records of two files with different header widths, alternating,
    come out exactly as each record emitted on its own."""
    small = encode_file(FileDescriptor(content=bytes(30), extension=""), codebook)
    large = encode_file(FileDescriptor(content=bytes(300), extension="", file_id=1), codebook)
    assert small[0].mu != large[0].mu
    mixed = [rec for pair in zip(small, large) for rec in pair] + list(large[len(small) :])
    assert emit_fasta(mixed) == "".join(emit_fasta([rec]) for rec in mixed)


def test_fasta_empty():
    assert emit_fasta([]) == ""
    assert parse_fasta("") == []


def test_fasta_accepts_blank_lines(codebook):
    records = encode_file(FileDescriptor(content=b"x", extension=""), codebook)
    parsed = parse_fasta(emit_fasta(records).replace("\n", "\n\n"))
    assert parsed[0].sequence == records[0].sequence


def test_fasta_accepts_lower_case(codebook):
    records = encode_file(FileDescriptor(content=b"x", extension=""), codebook)
    lowered = [
        line if line.startswith(">") else line.lower()
        for line in emit_fasta(records).splitlines()
    ]
    parsed = parse_fasta("\n".join(lowered))
    assert parsed[0].sequence == records[0].sequence


def test_fasta_accepts_crlf_and_stray_whitespace(codebook):
    records = encode_file(FileDescriptor(content=bytes(100), extension=""), codebook)
    text = emit_fasta(records)
    expect = [r.sequence for r in parse_fasta(text)]
    assert [r.sequence for r in parse_fasta(text.replace("\n", "\r\n"))] == expect
    padded = "\n".join(f"  {line}\t" for line in text.splitlines())
    assert [r.sequence for r in parse_fasta(padded)] == expect


def test_fasta_error_on_short_payload_reports_line(codebook):
    records = encode_file(FileDescriptor(content=bytes(100), extension=""), codebook)
    seqs = [r.sequence for r in records]
    text = f">a\n{seqs[0]}\n>b\n{seqs[1]}\n>c\n{seqs[2][:-3]}\n"
    with pytest.raises(FastaError, match="line 5: record length .* leaves a payload"):
        parse_fasta(text)


def test_fasta_error_on_headerless_sequence():
    with pytest.raises(FastaError, match="line 1"):
        parse_fasta("ACGT\n")


def test_fasta_error_on_bad_symbol_reports_line():
    with pytest.raises(FastaError, match="line 3"):
        parse_fasta(">f0_c0 len=4\nACGT\nAXGT\n" + ">f0_c1 len=4\nACGT\n")


def test_fasta_error_on_empty_record():
    with pytest.raises(FastaError, match="no sequence"):
        parse_fasta(">f0_c0 len=0\n>f0_c1 len=4\nACGTACGTACGTACG\n")


def test_fasta_error_on_inconsistent_lengths(codebook):
    records = encode_file(FileDescriptor(content=bytes(100), extension=""), codebook)
    seqs = [r.sequence for r in records]
    text = (
        f">a\n{seqs[0]}\n>b\n{seqs[1][:-11]}\n>c\n{seqs[2][:-22]}\n"
    )
    with pytest.raises(FastaError, match="inconsistent|non-full"):
        parse_fasta(text)


def test_fasta_error_on_two_short_records(codebook):
    full = encode_file(FileDescriptor(content=bytes(100), extension=""), codebook)
    short = full[0].sequence[:26]
    text = f">a\n{full[0].sequence}\n>b\n{short}\n>c\n{short}\n"
    with pytest.raises(FastaError, match="final chunk"):
        parse_fasta(text)


def test_fasta_mu_inference_single_short_record(codebook):
    fd = FileDescriptor(content=b"DA", extension="")
    records = encode_file(fd, codebook)
    assert len(records) == 1 and len(records[0].payload_dna) == 66
    parsed = parse_fasta(emit_fasta(records))
    assert parsed[0].mu == 1
    assert parsed[0].payload_dna == records[0].payload_dna


def test_fasta_mu_inference_single_full_record(codebook):
    fd = FileDescriptor(content=b"DA", extension="txt")  # exactly 9 codewords
    records = encode_file(fd, codebook)
    assert len(records) == 1 and len(records[0].payload_dna) == 99
    parsed = parse_fasta(emit_fasta(records))
    assert parsed[0].mu == 1


def test_fasta_mu_inference_full_plus_short(codebook):
    fd = FileDescriptor(content=bytes(200), extension="bin")
    records = encode_file(fd, codebook)
    assert len(records) > 1 and records[-1].total_length != records[0].total_length
    parsed = parse_fasta(emit_fasta(records))
    assert [r.mu for r in parsed] == [r.mu for r in records]


def test_fasta_mu_inference_lone_last_record(codebook):
    """The short last chunk alone has the header width that leaves whole
    windows: mu = 3 for a 12-chunk file, so it reads as chunk 11 and
    carries the declared size."""
    fd = FileDescriptor(content=bytes(range(100)), extension="")
    records = encode_file(fd, codebook)
    assert (len(records), records[-1].mu, records[-1].total_length) == (12, 3, 83)
    parsed = parse_fasta(emit_fasta(records[-1:]))
    assert parsed[0].sequence == records[-1].sequence and parsed[0].mu == 3
    result = decode_file(parsed, codebook)
    assert result.per_chunk[0].chunk_index == 11 and result.per_chunk[0].parity_ok
    assert result.unrecoverable_chunks == list(range(11))
    assert (result.size_bytes, result.trailer_ok) == (100, True)
    assert result.content[-1:] == fd.content[-1:]


@pytest.mark.parametrize("chunk_bases", [11, 44])
def test_fasta_written_at_a_smaller_chunk_size_parses_at_the_default(codebook, chunk_bases):
    fd = FileDescriptor(content=bytes(range(200)) * 2, extension="bin", file_id=3)
    records = encode_file(fd, codebook, chunk_bases=chunk_bases)
    assert records[0].mu > 1
    parsed = parse_fasta(emit_fasta(records))
    assert [r.sequence for r in parsed] == [r.sequence for r in records]
    assert [r.mu for r in parsed] == [r.mu for r in records]
    result = decode_file(parsed, codebook)
    assert result.fully_recovered and result.content == fd.content


def test_fasta_error_names_the_line_of_a_record_too_short_for_any_payload():
    with pytest.raises(FastaError, match="line 3: record length 12 leaves a payload of 8"):
        parse_fasta(">a\nACGTACGTACGTACG\n>b\nACGTACGTACGT\n")


def test_fasta_wire_format_is_pinned(codebook):
    # round trips cannot see a change made the same way on both sides;
    # this digest pins the exact FASTA bytes: 24 chunks, mu = 3, and a
    # short final chunk of two codewords
    content = np.random.default_rng(7).integers(0, 256, size=200, dtype=np.uint8).tobytes()
    records = encode_file(FileDescriptor(content=content, extension="bin", file_id=5), codebook)
    assert (len(records), records[0].mu, len(records[-1].payload_dna)) == (24, 3, 22)
    digest = hashlib.sha256(emit_fasta(records).encode("ascii")).hexdigest()
    assert digest == "d56e15d4a0958b848c3458da4b72cafee2240845da3c941f37dfb452076045ec"


def test_fasta_of_parsed_records_keeps_titles(codebook):
    """Parsed records do not know their ids; their titles come from
    their headers, so parsing and emitting again changes nothing."""
    fd = FileDescriptor(content=bytes(300), extension="", file_id=4)
    text = emit_fasta(encode_file(fd, codebook))
    assert emit_fasta(parse_fasta(text)) == text


# --- columnar batches ----------------------------------------------------------

def test_chunk_batch_is_a_sequence_of_records(codebook):
    fd = FileDescriptor(content=bytes(range(200)), extension="bin", file_id=6)
    batch = encode_file(fd, codebook, chunk_bases=44)
    # the records one by one, from the string-level helpers
    stream = trits_to_dna(build_payload_trits(fd, codebook), "A")
    payloads = [stream[i : i + 44] for i in range(0, len(stream), 44)]
    mu = mu_for_segments(len(payloads))
    expected = [
        ChunkRecord(payload, make_header_dna(6, k, mu), 6, k) for k, payload in enumerate(payloads)
    ]
    assert isinstance(batch, ChunkBatch) and len(batch) == len(expected) > 10
    assert list(batch) == expected and batch == expected
    assert batch[0] == expected[0] and batch[-1] == expected[-1] and batch[-3] == expected[-3]
    assert list(batch[2:9:3]) == expected[2:9:3] and list(batch[::-1]) == expected[::-1]
    assert ChunkBatch.of(expected) == batch and ChunkBatch.of(batch) is batch
    with pytest.raises(IndexError):
        batch[len(batch)]
    parsed = parse_fasta(emit_fasta(batch), 44)
    assert [(r.file_id, r.chunk_index) for r in parsed] == [(None, None)] * len(batch)
    assert [r.sequence for r in parsed] == [r.sequence for r in expected]
    with pytest.raises(ValueError):
        batch.codes[0] = 1


def test_chunk_batch_of_records_validates_and_upper_cases():
    batch = ChunkBatch.of([ChunkRecord("acgt", "CGta", 1, None)])
    assert batch[0] == ChunkRecord("ACGT", "CGTA", 1, None)
    with pytest.raises(AlphabetError, match="'N'"):
        ChunkBatch.of([ChunkRecord("ACNT", "CGTA")])


def test_emit_fasta_reads_batches_and_record_lists_alike(codebook):
    small = encode_file(FileDescriptor(content=bytes(30), extension=""), codebook)
    large = encode_file(FileDescriptor(content=bytes(3000), extension="x", file_id=2), codebook)
    parsed = parse_fasta(emit_fasta(large))
    mixed = ChunkBatch.of([rec for pair in zip(small, large) for rec in pair])
    for batch in (small, large, parsed, mixed):
        assert emit_fasta(batch) == emit_fasta(list(batch))


def test_encode_and_parse_keep_no_object_per_record(codebook):
    fd = FileDescriptor(content=bytes(range(256)) * 256, extension="bin")  # 64 KiB
    text = emit_fasta(encode_file(fd, codebook))
    for make in (lambda: encode_file(fd, codebook), lambda: parse_fasta(text)):
        make()  # warm any cache first
        gc.collect()
        before = len(gc.get_objects())
        kept = make()
        gc.collect()
        assert len(kept) > 6000
        assert len(gc.get_objects()) - before < 50
        del kept


# --- blocked FASTA passes -------------------------------------------------------

# block sizes below, at and above one record's text, so that cuts land
# inside records, between them and inside runs of blank lines
BLOCK_SIZES = [1, 7, 40, 81, 100, 139, 250, 1 << 18]


@pytest.fixture(scope="module")
def fasta(codebook):
    """A file of 30 records, its batch and its FASTA text."""
    batch = encode_file(FileDescriptor(content=bytes(range(256)), extension="bin"), codebook)
    return batch, emit_fasta(batch)


def sequences(batch):
    return [r.sequence for r in batch]


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_parse_blocks_cut_records_and_crlf(fasta, monkeypatch, block):
    batch, text = fasta
    monkeypatch.setattr(chunks, "_TEXT_BLOCK", block)
    assert sequences(parse_fasta(text)) == sequences(batch)
    assert sequences(parse_fasta(text.rstrip("\n"))) == sequences(batch)
    assert sequences(parse_fasta(text.replace("\n", "\r\n"))) == sequences(batch)


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_parse_blocks_skip_blank_lines_at_the_cut(fasta, monkeypatch, block):
    batch, text = fasta
    monkeypatch.setattr(chunks, "_TEXT_BLOCK", block)
    assert sequences(parse_fasta("\n\n" + text.replace("\n", "\n\n\n"))) == sequences(batch)
    assert sequences(parse_fasta(text.replace("\n", "\r\n\r\n"))) == sequences(batch)


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_parse_blocks_name_the_line_of_a_late_bad_symbol(fasta, monkeypatch, block):
    _, text = fasta
    monkeypatch.setattr(chunks, "_TEXT_BLOCK", block)
    at = text.rindex(">") + 30  # inside the last record's sequence
    line = text.count("\n", 0, at) + 1
    assert line > 80
    for bad in ("N", "\u00e9"):
        with pytest.raises(FastaError, match=f"^line {line}: invalid nucleotide"):
            parse_fasta(text[:at] + bad + text[at + 1 :])


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_parse_blocks_report_data_before_a_title_and_empty_records(fasta, monkeypatch, block):
    _, text = fasta
    monkeypatch.setattr(chunks, "_TEXT_BLOCK", block)
    with pytest.raises(FastaError, match="^line 1: sequence data before any '>' header"):
        parse_fasta("ACGT\n" + text)
    with pytest.raises(FastaError, match="^line 301: sequence data before any '>' header"):
        parse_fasta("\n" * 300 + "ACGT\n" + text)
    empty = text.count("\n") + 201
    with pytest.raises(FastaError, match=f"^line {empty}: record has no sequence data"):
        parse_fasta(text + "\n" * 200 + ">a\n" * 2)


def test_emit_blocks_write_the_same_text(codebook, monkeypatch):
    small = encode_file(FileDescriptor(content=bytes(30), extension=""), codebook)
    large = encode_file(FileDescriptor(content=bytes(3000), extension="x", file_id=2), codebook)
    mixed = ChunkBatch.of([rec for pair in zip(small, large) for rec in pair] + list(large[5:]))
    expected = [emit_fasta(batch) for batch in (large, mixed)]
    monkeypatch.setattr(chunks, "_TEXT_BLOCK", 100)
    monkeypatch.setattr(chunks, "_RECORD_BLOCK", 3)
    assert [emit_fasta(batch) for batch in (large, mixed)] == expected
    assert expected[1] == "".join(emit_fasta([rec]) for rec in mixed)


def test_encode_blocks_write_the_same_codes(codebook, monkeypatch):
    fds = [FileDescriptor(content=bytes(range(256)) * 3, extension="x", file_id=5)]
    fds.append(FileDescriptor(content=bytes(102), file_id=1))  # a whole last chunk
    expected = [encode_file(fd, codebook) for fd in fds]
    assert len(expected[0]) > 3 * 4 and expected[1].lengths[-1] == expected[1].lengths[0]
    for block in (1, 4):
        monkeypatch.setattr(chunks, "_RECORD_BLOCK", block)
        for fd, batch in zip(fds, expected):
            got = encode_file(fd, codebook)
            assert np.array_equal(got.codes, batch.codes)
            assert np.array_equal(got.ends, batch.ends)


# --- bulk forms against per-record references ---------------------------------

def literal_header_trits(file_id, index, mu):
    """Header trits by their definition: the file id and the index in
    base 3, then the mod-3 sum of the trits in even places."""
    digits = [file_id // 3, file_id % 3] + [index // 3**p % 3 for p in range(mu - 1, -1, -1)]
    return "".join(map(str, digits + [sum(digits[::2]) % 3]))


def base3(digits):
    """``digits`` in base 3, wrapped to a signed 64-bit integer."""
    value = sum(d * 3**p for p, d in enumerate(reversed(digits))) % 2**64
    return value - 2**64 * (value >= 2**63)


def literal_header_reading(header_dna):
    """(file id, index, parity ok) of a header read by definition: of
    the trits before the parity trit, the first two give the file id and
    the rest the index, each in base 3; a repeated base reads 0 and fails
    parity."""
    trits = read_trits(header_dna)
    digits = [int(t) % 3 for t in trits]
    ok = "3" not in trits and sum(digits[:-1:2]) % 3 == digits[-1]
    return base3(digits[:-1][:2]), base3(digits[2:-1]), ok


def test_decoded_headers_of_tiny_and_wide_headers():
    rng = np.random.default_rng(5)
    headers = [
        trits_to_dna("".join(map(str, rng.integers(0, 3, width))), "A")
        for width in (1, 2, 3, 40, 41, 42, 90)
        for _ in range(3)
    ]
    headers += ["AA", "CCTA"]
    file_ids, indices, parity_ok = ChunkBatch.of(
        [ChunkRecord("AC", header) for header in headers]
    ).decoded_headers()
    got = list(zip(file_ids.tolist(), indices.tolist(), parity_ok.tolist()))
    assert got == [literal_header_reading(header) for header in headers]


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_decoded_headers_match_per_record_decoding(codebook, seed):
    for batch in mixed_batches(codebook, seed):
        file_ids, indices, parity_ok = batch.decoded_headers()
        got = list(zip(file_ids.tolist(), indices.tolist(), parity_ok.tolist()))
        assert got == [decode_header(record) for record in batch]
        assert got == [literal_header_reading(record.header_dna) for record in batch]


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.sampled_from([11, 44, 99, 198]), st.integers(0, 8))
def test_encode_file_matches_stream_and_header_references(codebook, seed, chunk_bases, file_id):
    rng = np.random.default_rng(seed)
    content = rng.bytes(int(rng.integers(0, 1500)))
    fd = FileDescriptor(content, "bin"[: int(rng.integers(0, 4))], file_id)
    batch = encode_file(fd, codebook, chunk_bases)
    stream = trits_to_dna(build_payload_trits(fd, codebook), "A")
    starts = range(0, len(stream), chunk_bases)
    mu = mu_for_segments(len(starts))
    expected = [
        stream[lo : lo + chunk_bases] + make_header_dna(file_id, k, mu)
        for k, lo in enumerate(starts)
    ]
    assert codes_to_dna(batch.codes) == "".join(expected)
    assert batch.ends.tolist() == np.cumsum([len(r) for r in expected]).tolist()
    headers = [read_trits(record.header_dna) for record in batch]
    assert headers == [literal_header_trits(file_id, k, mu) for k in range(len(starts))]


# --- invariants ---------------------------------------------------------------

@settings(deadline=None, max_examples=30)
@given(st.binary(max_size=300), st.integers(min_value=0, max_value=8))
def test_fasta_pipeline_preserves_records(codebook, content, file_id):
    fd = FileDescriptor(content=content, extension="dat", file_id=file_id)
    records = encode_file(fd, codebook)
    parsed = parse_fasta(emit_fasta(records))
    assert [r.sequence for r in parsed] == [r.sequence for r in records]
    for original, parsed_rec in zip(records, parsed):
        assert decode_header(parsed_rec) == (file_id, original.chunk_index, True)
    lengths = [r.total_length for r in records]
    assert len(set(lengths[:-1])) <= 1

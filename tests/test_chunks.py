import gc
import hashlib
import os
import subprocess
import sys

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


def test_decode_sets_aside_a_record_with_a_short_payload(codebook):
    """A record three bases short parses; decode_file sets it aside and
    decodes the others."""
    records = encode_file(FileDescriptor(content=bytes(100), extension=""), codebook)
    seqs = [r.sequence for r in records]
    text = f">a\n{seqs[0]}\n>b\n{seqs[1]}\n>c\n{seqs[2][:-3]}\n"
    parsed = parse_fasta(text)
    assert parsed.lengths.tolist() == [len(seqs[0])] * 2 + [len(seqs[0]) - 3]
    assert parsed.whole_windows.tolist() == [True, True, False]
    result = decode_file(parsed, codebook)
    assert result.set_aside == [2]
    assert [rep.chunk_index for rep in result.per_chunk] == [0, 1]
    assert result.content == bytes(18) and not result.trailer_ok


def test_fasta_error_on_headerless_sequence():
    with pytest.raises(FastaError, match="line 1"):
        parse_fasta("ACGT\n")


def test_fasta_error_on_bad_symbol_reports_line():
    with pytest.raises(FastaError, match="line 3"):
        parse_fasta(">f0_c0 len=4\nACGT\nAXGT\n" + ">f0_c1 len=4\nACGT\n")


def test_fasta_error_on_empty_record():
    with pytest.raises(FastaError, match="no sequence"):
        parse_fasta(">f0_c0 len=0\n>f0_c1 len=4\nACGTACGTACGTACG\n")


def test_records_of_three_lengths_share_one_header_width(codebook):
    """Three records of three lengths, each in whole windows: the longest
    sets the header width (a tie of counts), and all three decode."""
    records = encode_file(FileDescriptor(content=bytes(100), extension=""), codebook)
    seqs = [r.sequence for r in records]
    text = (
        f">a\n{seqs[0]}\n>b\n{seqs[1][:-11]}\n>c\n{seqs[2][:-22]}\n"
    )
    parsed = parse_fasta(text)
    assert parsed.header_widths.tolist() == [len(records[0].header_dna)] * 3
    assert parsed.payload_lengths.tolist() == [99, 88, 77]
    result = decode_file(parsed, codebook)
    assert len(result.per_chunk) + len(result.set_aside) == 3
    assert result.per_chunk[0].chunk_index == 0 and result.per_chunk[0].parity_ok
    assert result.content[:9] == bytes(9)


def test_two_copies_of_a_short_record_keep_one(codebook):
    """Two copies of a 26-base record outnumber one full record: they set
    a 4-base header, under which the full record does not fit; one copy
    is kept and the other is set aside with it."""
    full = encode_file(FileDescriptor(content=bytes(100), extension=""), codebook)
    short = full[0].sequence[:26]
    text = f">a\n{full[0].sequence}\n>b\n{short}\n>c\n{short}\n"
    parsed = parse_fasta(text)
    assert parsed.header_widths.tolist() == [4] * 3
    assert parsed.whole_windows.tolist() == [False, True, True]
    result = decode_file(parsed, codebook)
    assert len(result.per_chunk) == 1 and result.set_aside == [0, 2]


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


@pytest.mark.parametrize("chunk_bases", [11, 44, 198, 990])
def test_fasta_written_at_any_chunk_size_parses(codebook, chunk_bases):
    """The header width comes from the records: no chunk size is given."""
    fd = FileDescriptor(content=bytes(range(200)) * 2, extension="bin", file_id=3)
    records = encode_file(fd, codebook, chunk_bases=chunk_bases)
    assert records[0].mu > 1
    parsed = parse_fasta(emit_fasta(records))
    assert [r.sequence for r in parsed] == [r.sequence for r in records]
    assert [r.mu for r in parsed] == [r.mu for r in records]
    result = decode_file(parsed, codebook)
    assert result.fully_recovered and result.content == fd.content


def test_a_file_of_mu_12_parses_from_its_records(codebook):
    """3**11 + 10 bytes at 11 bases a chunk take 177,166 chunks, so mu is
    12, not the 1 its lengths alone suggest: the record count settles it,
    for the whole file and for its first 800 records."""
    fd = FileDescriptor(np.random.default_rng(12).bytes(3**11 + 10), extension="")
    records = encode_file(fd, codebook, chunk_bases=11)
    assert records[0].mu == 12
    text = emit_fasta(records)
    parsed = parse_fasta(text)
    assert (parsed.header_widths == 15).all() and parsed.codes.tobytes() == records.codes.tobytes()
    assert decode_file(parsed, codebook).content == fd.content
    first = parse_fasta(">" + ">".join(text.split(">")[1:801]))
    assert len(first) == 800 and (first.header_widths == 15).all()


def test_repeated_reads_of_a_small_file_parse_at_its_width(codebook):
    """300 copies of a 1 KiB file's 115 records still parse at mu 5."""
    records = encode_file(FileDescriptor(np.random.default_rng(1).bytes(1024)), codebook)
    assert (len(records), records[0].mu) == (115, 5)
    parsed = parse_fasta(emit_fasta(records) * 300)
    assert len(parsed) == 300 * 115 and (parsed.header_widths == 8).all()


def test_decode_file_sets_aside_records_with_no_payload(codebook):
    """Records too short for any payload parse, and decode_file returns
    an empty file with every record set aside."""
    parsed = parse_fasta(">a\nACGTACGTACG\n>b\nACGTACGTACGT\n")
    assert parsed.lengths.tolist() == [11, 12] and parsed.header_widths.tolist() == [12, 12]
    result = decode_file(parsed, codebook)
    assert (result.content, result.size_bytes, result.trailer_ok) == (b"", None, False)
    assert (result.file_id, result.unrecoverable_chunks, result.set_aside) == (0, [], [0, 1])
    assert len(result.per_chunk) == 0 and not result.fully_recovered


@pytest.mark.parametrize("place", [0, 5])
def test_a_record_shorter_than_its_header_reads_no_header(codebook, place):
    """A 2-base record has no header to read: it reads as file 0, chunk
    0 with parity False, not from the bases of the record before it (or,
    first, from the end of the codes), and decode_file sets it aside."""
    fd = FileDescriptor(np.random.default_rng(0).bytes(1000), extension="bin")
    records = encode_file(fd, codebook)
    titles = emit_fasta(records).split(">")[1:]
    text = ">" + ">".join([*titles[:place], "short\nAC\n", *titles[place:]])
    parsed = parse_fasta(text)
    assert parsed.lengths[place] == 2 < parsed.header_widths[place]
    file_ids, indices, parity_ok = parsed.decoded_headers()
    assert (file_ids[place], indices[place], parity_ok[place]) == (0, 0, False)
    assert np.delete(parity_ok, place).all()
    assert f">f0_c0 len=2\nAC\n>f0_c{place} len=" in emit_fasta(parsed)
    result = decode_file(parsed, codebook)
    assert result.set_aside == [place] and result.content == fd.content
    # codes shorter than the header width
    assert [column.tolist() for column in parse_fasta(">a\nAC\n").decoded_headers()] == [
        [0], [0], [False]
    ]


def test_a_header_too_wide_for_int64_is_not_read(codebook, monkeypatch):
    """A 42-base header holds a 39-trit index, the most an int64 holds,
    and is read. A wider one is neither gathered nor walked: the header
    of one 2,000,000-base record reads as file 0, chunk -1, parity False,
    and decode_file sets the record aside."""
    walked = []
    horner = chunks._horner
    monkeypatch.setattr(chunks, "_horner", lambda trits: walked.append(len(trits)) or horner(trits))
    codes = dna_codes("ACGT" * 500_000)
    _, [index], _ = ChunkBatch(codes[:53], [53], [42]).decoded_headers()
    assert walked == [2, 39] and 0 <= index < 3**39
    batch = ChunkBatch(codes, [len(codes)], [len(codes) - 99])
    assert [column.tolist() for column in batch.decoded_headers()] == [[0], [-1], [False]]
    result = decode_file(batch, codebook)
    assert result.set_aside == [0] and result.content == b""
    assert walked == [2, 39]


def test_fasta_wire_format_is_pinned(codebook):
    # round trips cannot see a change made the same way on both sides;
    # this digest pins the exact FASTA bytes: 24 chunks, mu = 3, and a
    # short final chunk of two codewords
    content = np.random.default_rng(7).integers(0, 256, size=200, dtype=np.uint8).tobytes()
    records = encode_file(FileDescriptor(content=content, extension="bin", file_id=5), codebook)
    assert (len(records), records[0].mu, len(records[-1].payload_dna)) == (24, 3, 22)
    digest = hashlib.sha256(emit_fasta(records).encode("ascii")).hexdigest()
    assert digest == "d56e15d4a0958b848c3458da4b72cafee2240845da3c941f37dfb452076045ec"


def test_fasta_titles_an_unreadable_header_chunk_minus_1():
    """A 44-base header is too wide to read and decodes as chunk -1,
    which the title writes as it is."""
    assert emit_fasta([ChunkRecord("ACGTACGTACG", "ACGT" * 11)]) == (
        ">f0_c-1 len=55\nACGTACGTACG" + "ACGT" * 11 + "\n"
    )


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
    parsed = parse_fasta(emit_fasta(batch))
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
    # 335 records: titles widen at c9 -> c10 and c99 -> c100, and the last is short
    large = encode_file(FileDescriptor(content=bytes(3000), extension="x", file_id=2), codebook)
    assert len(large) > 100 and large.lengths[-1] < large.lengths[0]
    mixed = ChunkBatch.of([rec for pair in zip(small, large) for rec in pair] + list(large[5:]))
    order = np.random.default_rng(3).permutation(len(large))
    shuffled = ChunkBatch.of([large[i] for i in order])
    # parsed records know no id or index: titles come from their headers,
    # and in shuffled order no group of alike records lies back to back
    parsed = parse_fasta(emit_fasta(shuffled))
    batches = (large, mixed, shuffled, parsed)
    expected = [emit_fasta(batch) for batch in batches]
    monkeypatch.setattr(chunks, "_TEXT_BLOCK", 100)
    monkeypatch.setattr(chunks, "_RECORD_BLOCK", 3)
    assert [emit_fasta(batch) for batch in batches] == expected
    assert expected[1] == "".join(emit_fasta([rec]) for rec in mixed)
    assert expected[2] == expected[3] == "".join(emit_fasta([large[i]]) for i in order)


@pytest.mark.parametrize("block", [1, 3, 4096])
def test_parse_blocks_cross_runs_of_records(codebook, monkeypatch, block):
    """Rows of one title width run from c0 to c9, c10 to c99 and c100 on,
    and the short last record is a run of its own; blocks of rows cut the
    runs anywhere. Out of encode order (shuffled, so that titles narrow, or
    with a second short record) the line reader decides alone, and every
    text parses."""
    large = encode_file(FileDescriptor(content=bytes(3000), extension="x", file_id=2), codebook)
    order = np.random.default_rng(4).permutation(len(large))
    batches = [large, ChunkBatch.of([large[i] for i in order])]
    batches.append(ChunkBatch.of([*large[:20], large[-1], *large[20:30], large[-1]]))
    texts = [emit_fasta(batch) for batch in batches]
    expected = [reading(text) for text in texts]
    assert expected[2] == columns(batches[2])[:3] + [[-1] * 32] * 2
    monkeypatch.setattr(chunks, "_RECORD_BLOCK", block)
    assert [chunks._split_layout(text) is not None for text in texts] == [True, False, False]
    assert [reading(text) for text in texts] == expected
    monkeypatch.setattr(chunks, "_split_layout", lambda text: None)
    assert [reading(text) for text in texts] == expected


def columns(batch):
    return [col.tolist() for col in (batch.codes, batch.ends, batch.header_widths,
                                     batch.file_ids, batch.chunk_indices)]


def reading(text):
    """The columns parse_fasta returns for ``text``, or its error and line."""
    try:
        return columns(parse_fasta(text))
    except FastaError as exc:
        return str(exc), exc.line


def perturbations(text, rng):
    """Emitted ``text`` and the ways a FASTA file can leave its layout."""
    lines = text.split("\n")[:-1]
    titles = [i for i, line in enumerate(lines) if line.startswith(">")]
    long = [i for i in range(len(lines) - 1) if len(lines[i]) == 80 and lines[i + 1][:1] != ">"]
    def pick(items):
        return items[rng.integers(len(items))]

    def edit(i, line):
        return "\n".join(lines[:i] + [line] + lines[i + 1 :]) + "\n"

    def moved_break(i, shift):  # the 80-base line i holds 80 + shift bases
        joined = lines[i] + lines[i + 1]
        return "\n".join(lines[:i] + [joined[: 80 + shift], joined[80 + shift :]] + lines[i + 2 :]) + "\n"

    t, b, first, last = pick(titles), pick(titles[1:] or titles), titles[0] + 1, len(lines) - 1
    cases = {
        "as emitted": text,
        "newline inside a title": edit(t, lines[t][:4] + "\n" + lines[t][4:]),
        # same width, so that every newline the layout expects stays in place
        "title split before bases": edit(t, lines[t][:4] + "\n" + ("ACGT" * 9)[: len(lines[t]) - 5]),
        "blank line between records": edit(b, "\n" + lines[b]),
        "CRLF": text.replace("\n", "\r\n"),
        "trailing spaces": edit(last, lines[last] + "  "),
        "lower case": text.lower(),
        "N in the first record": edit(first, "N" + lines[first][1:]),
        "N in the last record": edit(last, lines[last][:-1] + "N"),
        "no final newline": text[:-1],
        "title without '>'": edit(t, lines[t][1:]),
        "title opened by another symbol": edit(t, ";" + lines[t][1:]),
        "first title opened by another symbol": ";" + text[1:],
        "title after a space": edit(t, " " + lines[t]),
        "record with no sequence": edit(t, ">empty\n" + lines[t]),
    }
    if long:
        i = pick(long)
        cases["line of 79 bases"] = moved_break(i, -1)
        cases["line of 81 bases"] = moved_break(i, 1)
    return cases


@pytest.mark.parametrize("seed", range(16))
def test_layout_reading_agrees_with_the_line_reader(codebook, monkeypatch, seed):
    """parse_fasta reads emitted text as rows; on any text, laid out or
    not, it returns what the line reader alone returns, or raises its
    error at its line."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, 350))  # 1 to 40 records
    fd = FileDescriptor(rng.bytes(size), "bin", file_id=int(rng.integers(9)))
    text = emit_fasta(encode_file(fd, codebook))
    assert 1 <= text.count(">") <= 40
    for name, case in perturbations(text, rng).items():
        got = reading(case)
        with monkeypatch.context() as patched:
            patched.setattr(chunks, "_split_layout", lambda text: None)
            assert got == reading(case), name
    assert chunks._split_layout(text) is not None


def test_header_widths_and_record_lengths_leave_numpy_ma_unloaded():
    """np.unique with no return arrays imports numpy.ma on its first call,
    in the middle of a bulk pass; decoded_headers on mixed header widths,
    parse_fasta's header width and decode_file on records that do not fit
    use forms that do not."""
    code = """if True:
        import sys
        import numpy as np
        from dnagolay import load_default_codebook
        from dnagolay.chunks import ChunkBatch, ChunkRecord, FileDescriptor
        from dnagolay.chunks import emit_fasta, encode_file, parse_fasta
        from dnagolay.mldecode import decode_file
        book = load_default_codebook()
        fd = FileDescriptor(np.random.default_rng(0).bytes(2000), "bin")
        text = emit_fasta(encode_file(fd, book))
        assert decode_file(parse_fasta(text), book).content == fd.content
        mixed = ChunkBatch.of([ChunkRecord("ACGTACGTACG", "ACGT"), ChunkRecord("ACGTACGTACG", "ACGTA")])
        mixed.decoded_headers()
        at = text.index("\\n", text.index(">f0_c4")) + 10  # a base of record 4's payload
        print(decode_file(parse_fasta(text[:at] + text[at + 1 :]), book).set_aside)
        print(decode_file(parse_fasta(">a\\nACGT\\n>b\\nACG\\n>c\\nAC\\n"), book).set_aside)
        print("numpy.ma" in sys.modules)
    """
    src = os.path.dirname(os.path.dirname(chunks.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[4]", "[0, 1, 2]", "False"]


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
    """``digits`` in base 3."""
    return sum(d * 3**p for p, d in enumerate(reversed(digits)))


def literal_header_reading(header_dna):
    """(file id, index, parity ok) of a header read by definition: of
    the trits before the parity trit, the first two give the file id and
    the rest the index, each in base 3; a repeated base reads 0 and fails
    parity. A header of no bases, or of more than 42, whose index of more
    than 39 trits int64 cannot hold, is not read: (0, -1, False)."""
    if not 0 < len(header_dna) <= 42:
        return 0, -1, False
    trits = read_trits(header_dna)
    digits = [int(t) % 3 for t in trits]
    ok = "3" not in trits and sum(digits[:-1:2]) % 3 == digits[-1]
    return base3(digits[:-1][:2]), base3(digits[2:-1]), ok


def test_decoded_headers_of_tiny_and_wide_headers():
    rng = np.random.default_rng(5)
    headers = [
        trits_to_dna("".join(map(str, rng.integers(0, 3, width))), "A")
        for width in (1, 2, 3, 40, 41, 42, 43, 90)
        for _ in range(3)
    ]
    headers += ["AA", "CCTA", ""]
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

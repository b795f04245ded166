"""Transient memory of the bulk passes, measured with tracemalloc.

Each pass works in blocks, so what it allocates beyond its input and its
output is bounded by its block sizes plus small per-line, per-record and
per-window arrays, and by at most one buffer the size of the text.
"""

import json
import tracemalloc

import numpy as np

from dnagolay.chunks import FileDescriptor, emit_fasta, encode_file, parse_fasta
from dnagolay.mldecode import CandidateImages, decode_file


def transient_peak(call) -> int:
    """Bytes allocated at the peak of ``call`` beyond what it returned."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - current


def test_bulk_passes_hold_no_copy_of_the_whole_text(codebook):
    data = np.random.default_rng(0).bytes(256 << 10)
    batch = encode_file(FileDescriptor(data, "bin"), codebook)
    text = emit_fasta(batch)
    parsed = parse_fasta(text)
    assert decode_file(parsed, codebook).content == data
    # emit_fasta fills one text-sized buffer before it makes the str, and
    # parse_fasta reads the text encoded once; neither holds a second
    # buffer of that size. Iterating builds records block by block and
    # holds no text at all
    bounds = {
        "emit_fasta": (lambda: emit_fasta(batch), 1.6),
        "parse_fasta": (lambda: parse_fasta(text), 1.6),
        "decode_file": (lambda: decode_file(parsed, codebook), 2.0),
        "list(batch)": (lambda: list(batch), 0.5),
    }
    peaks = {name: transient_peak(call) / len(text) for name, (call, _) in bounds.items()}
    assert all(peaks[name] < bound for name, (_, bound) in bounds.items()), peaks


def test_decode_report_scales_with_the_text(codebook):
    """The decode report is one list per column, so its JSON holds one
    number per window and per chunk: 0.40 times the FASTA text of a
    random 256 KiB file, where a dict per chunk took 0.95 times. Decoding
    and writing it peak at 2.2 times the text beyond the JSON (3.7 times
    with a dict per chunk)."""
    data = np.random.default_rng(0).bytes(256 << 10)
    text = emit_fasta(encode_file(FileDescriptor(data, "bin"), codebook))
    parsed = parse_fasta(text)

    def report():
        return json.dumps(decode_file(parsed, codebook).to_dict())

    assert len(report()) < 0.6 * len(text)
    peak = transient_peak(report) / len(text)
    assert peak < 3.0, peak


def test_encode_file_holds_no_copy_of_its_payload(codebook):
    """encode_file gathers each codeword straight into the record rows,
    block by block: beyond its output it holds the payload's byte values
    and one block's index and header arrays."""
    fd = FileDescriptor(np.random.default_rng(1).bytes(256 << 10), "bin")
    batch = encode_file(fd, codebook)
    peak = transient_peak(lambda: encode_file(fd, codebook)) / len(batch.codes)
    assert peak < 0.25, peak


def test_candidate_images_build_is_small(codebook):
    """The ball table is built from one sort of 256 x 529 uint32 keys.
    It keeps a 512 KiB block id per slot and the blocks' cells, at most
    1 MiB in all: the build retains it and the kernel's tables, and peaks
    at a few copies of the sorted keys, while the kernel's row path
    answers the tied keys, or while the slots are sorted into blocks."""
    tracemalloc.start()
    try:
        images = CandidateImages(codebook)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert images.ball_blocks.nbytes == 512 << 10
    assert images.ball_blocks.nbytes + images.ball_cells.nbytes <= 1 << 20
    assert retained <= 1.5 * (1 << 20), retained
    assert peak <= 3.5 * (1 << 20), peak

"""Transient memory of the bulk passes, measured with tracemalloc.

Each pass works in blocks, so what it allocates beyond its input and its
output is bounded by its block sizes plus small per-line, per-record and
per-window arrays, and by at most one buffer the size of the text.
"""

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


def test_encode_file_holds_no_copy_of_its_payload(codebook):
    """encode_file gathers each codeword straight into the record rows,
    block by block: beyond its output it holds the payload's byte values
    and one block's index and header arrays."""
    fd = FileDescriptor(np.random.default_rng(1).bytes(256 << 10), "bin")
    batch = encode_file(fd, codebook)
    peak = transient_peak(lambda: encode_file(fd, codebook)) / len(batch.codes)
    assert peak < 0.25, peak


def test_candidate_images_build_is_small(codebook):
    """The radius-2 table and the near table are built from one sort of
    256 x 529 uint32 keys. The radius-2 table is kept as 512 KiB, and the
    near table, the keys it leaves within two substitutions of an image
    with their answers, in at most 160 KiB: the build retains both and
    the kernel's tables, and peaks at a few copies of the sorted keys or
    while the kernel's row path answers the near table's tied keys."""
    tracemalloc.start()
    try:
        images = CandidateImages(codebook)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert images.table.nbytes == 512 << 10
    assert images.near_keys.nbytes + images.near_answers.nbytes <= 160 << 10
    assert retained <= 1.5 * (1 << 20), retained
    assert peak <= 3.5 * (1 << 20), peak

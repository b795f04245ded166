"""Batches of records that fall in several (length, header width)
groups, the inputs the bulk per-record passes are tested on."""

import numpy as np

from dnagolay.analysis import ChannelSpec, corrupt_records
from dnagolay.chunks import ChunkBatch, FileDescriptor, emit_fasta, encode_file, parse_fasta


def mixed_batches(codebook, seed):
    """Batches whose records fall in several (length, header width)
    groups, from ``seed``: a file's records; their FASTA parsed back with
    the short last record moved to the middle; and the records of that
    file and of a larger one, of a larger mu, interleaved and hit by rate
    noise, which reaches the headers."""
    rng = np.random.default_rng(seed)
    chunk_bases = int(rng.choice([11, 44, 99, 198]))
    small, large = (
        encode_file(
            FileDescriptor(rng.bytes(int(rng.integers(lo, hi))), file_id=int(rng.integers(0, 9))),
            codebook,
            chunk_bases,
        )
        for lo, hi in ((0, 50), (200, 600))
    )
    records = list(small)
    middle = len(records) // 2
    moved = records[:middle] + records[-1:] + records[middle:-1]
    pool = records + list(large)
    mixed = ChunkBatch.of([pool[i] for i in rng.permutation(len(pool))])
    noisy = corrupt_records(mixed, ChannelSpec.parse("rate:0.05"), rng)
    return [small, parse_fasta(emit_fasta(moved)), noisy]

"""Homopolymer-free DNA storage codec over a ternary Golay subcode.

Bytes map to length-11 ternary codewords (minimum pairwise distance 5),
codewords map to DNA through a rotation table that never repeats a base,
and the DNA splits into 99-base chunks carrying index headers. Decoding
is maximum-likelihood nearest-neighbor search in the DNA domain with a
trit-domain tie-break, correcting up to two substitutions per codeword
in almost all configurations.
"""

from .ternary import (
    AlphabetError,
    parse_dna,
    parse_trits,
    weight,
)
from .transcode import (
    BACKWARD,
    FORWARD,
    trits_to_dna,
)
from .codebook import (
    ByteCodebook,
    CodebookError,
    CodeFamilySpec,
    CodeReport,
    SubcodeReport,
    greedy_construct,
    load_codebook,
    load_codebook_file,
    load_default_codebook,
    verify_code,
    verify_subcode_243,
)
from .chunks import (
    ChunkBatch,
    ChunkError,
    ChunkRecord,
    FastaError,
    FileDescriptor,
    emit_fasta,
    encode_file,
    make_header_dna,
    parse_fasta,
)
from .mldecode import (
    DecodedCodeword,
    DecodeError,
    DecodeResult,
    audit_substitutions,
    decode_codeword_ml,
    decode_chunk,
    decode_file,
)
from .analysis import (
    CapacityParams,
    CapacityResult,
    ChannelSpec,
    code_rate,
    cost_curve,
    inject_substitutions,
    monte_carlo_decode,
    solve_capacity,
    synthesis_cost,
)

__version__ = "0.7.1"

__all__ = [
    "AlphabetError",
    "BACKWARD",
    "ByteCodebook",
    "CapacityParams",
    "CapacityResult",
    "ChannelSpec",
    "ChunkBatch",
    "ChunkError",
    "ChunkRecord",
    "CodebookError",
    "CodeFamilySpec",
    "CodeReport",
    "DecodedCodeword",
    "DecodeError",
    "DecodeResult",
    "FastaError",
    "FileDescriptor",
    "FORWARD",
    "SubcodeReport",
    "audit_substitutions",
    "code_rate",
    "cost_curve",
    "decode_chunk",
    "decode_codeword_ml",
    "decode_file",
    "emit_fasta",
    "encode_file",
    "greedy_construct",
    "inject_substitutions",
    "load_codebook",
    "load_codebook_file",
    "load_default_codebook",
    "make_header_dna",
    "monte_carlo_decode",
    "parse_dna",
    "parse_fasta",
    "parse_trits",
    "solve_capacity",
    "synthesis_cost",
    "trits_to_dna",
    "verify_code",
    "verify_subcode_243",
    "weight",
]

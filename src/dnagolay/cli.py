"""Command-line front end for the codec and its analysis tools.

Exit codes: 0 success, 1 partial or degraded decode, 2 usage error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    CapacityParams,
    ChannelSpec,
    ConvergenceError,
    CAPACITY_FORMULA,
    corrupt_records,
    cost_curve,
    monte_carlo_decode,
    rows_to_csv,
    solve_capacity,
    synthesis_cost,
)
from .chunks import (
    DEFAULT_CHUNK_BASES,
    FileDescriptor,
    emit_fasta,
    encode_file,
    parse_fasta,
)
from .codebook import (
    CodeFamilySpec,
    greedy_construct,
    load_codebook_file,
    load_default_codebook,
    verify_code,
    verify_subcode_243,
)
from .mldecode import decode_file
from .ternary import weight

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_IO = 3


def _load_codebook(path: str | None):
    if path is None:
        return load_default_codebook()
    return load_codebook_file(path)


@contextmanager
def _usage_errors():
    """Raise a ValueError from parsing or checking arguments as a UsageError."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write_report(path: str | None, payload: dict):
    if path:
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _cmd_encode(args) -> int:
    data = Path(args.infile).read_bytes()
    extension = args.extension
    if extension is None:
        extension = Path(args.infile).suffix.lstrip(".")
    codebook = _load_codebook(args.codebook)
    with _usage_errors():
        fd = FileDescriptor(content=data, extension=extension, file_id=args.file_id)
        records = encode_file(fd, codebook, args.chunk_bases)
    Path(args.outfile).write_text(emit_fasta(records), encoding="utf-8")
    total_bases = len(records.codes)
    mu = records[0].mu
    cost = synthesis_cost(total_bases)
    print(f"encoded {len(data)} bytes -> {len(records)} chunk(s), mu={mu}")
    print(f"total bases: {total_bases}")
    print(f"synthesis cost estimate: ${cost:,.2f}")
    _write_report(
        args.report,
        {
            "input_bytes": len(data),
            "chunks": len(records),
            "mu": mu,
            "total_bases": total_bases,
            "cost_usd": cost,
        },
    )
    return EXIT_OK


def _cmd_decode(args) -> int:
    codebook = _load_codebook(args.codebook)
    records = parse_fasta(Path(args.infile).read_text(encoding="utf-8"))
    result = decode_file(records, codebook)
    out = Path(args.outfile)
    if not result.fully_recovered:
        out = out.with_name(out.name + ".partial")
    out.write_bytes(result.content)
    if args.report:  # a list of every window's distance: built only when asked for
        _write_report(args.report, result.to_dict())
    corrected = int(result.per_chunk.codeword_distances.sum(dtype=np.int64))
    print(
        f"decoded {len(result.content)} bytes "
        f"(declared {result.size_bytes}, extension {result.extension!r})"
    )
    print(f"chunks: {len(result.per_chunk)}, substitutions corrected: {corrected}")
    if result.set_aside:
        misfits = int(np.count_nonzero(~records.whole_windows))
        print(
            f"records set aside: {misfits} not whole 11-base windows, "
            f"{len(result.set_aside) - misfits} chunk index taken or out of range"
        )
    if result.fully_recovered:
        print(f"wrote {out}")
        return EXIT_OK
    print(f"decode degraded; wrote {out}")
    missing = result.unrecoverable_chunks
    if missing:  # the first few; the report lists them all
        shown = ", ".join(map(str, missing[:10])) + (", ..." if len(missing) > 10 else "")
        print(f"missing chunk indices: [{shown}] ({len(missing)} missing)")
    return EXIT_PARTIAL


def _cmd_corrupt(args) -> int:
    with _usage_errors():
        if args.count is not None:
            spec = ChannelSpec.fixed_count(args.count, args.seed)
        else:
            spec = ChannelSpec.iid_rate(args.rate, args.seed)
    records = parse_fasta(Path(args.infile).read_text(encoding="utf-8"))
    damaged = corrupt_records(records, spec)
    Path(args.outfile).write_text(emit_fasta(damaged), encoding="utf-8")
    flipped = np.flatnonzero(records.codes != damaged.codes)
    changed = len(np.unique(np.searchsorted(records.ends, flipped, side="right")))
    print(f"channel {spec.label} seed={spec.seed}: {changed}/{len(records)} records altered")
    return EXIT_OK


def _cmd_verify_code(args) -> int:
    with _usage_errors():
        family = CodeFamilySpec.parse(args.family)
    codebook = _load_codebook(args.codebook)
    report = verify_code(codebook.codewords, family)
    subcode = verify_subcode_243(codebook)
    for line in codebook.load_report.describe():
        print(f"load: {line}")
    print(
        f"code {family}: size={report.size}, d_min={report.d_min}, "
        f"{'OK' if report.ok else 'FAILED'}"
    )
    if report.violations:
        for a, b, d in report.violations[:10]:
            print(f"  violation: d({a},{b}) = {d}")
    print(
        f"distance-6 subset: {subcode.subset_size} codewords "
        f"(subset d_min={subcode.subset_min_distance}, "
        f"leftover d_min={subcode.leftover_min_distance}), "
        f"{'OK' if subcode.ok else 'FAILED'}"
    )
    _write_report(
        args.report,
        {
            "family": str(family),
            "size": report.size,
            "d_min": report.d_min,
            "histogram": report.distance_histogram,
            "ok": report.ok,
            "load_repairs": codebook.load_report.describe(),
            "subset_size": subcode.subset_size,
            "subset_ok": subcode.ok,
        },
    )
    return EXIT_OK if report.ok and subcode.ok else EXIT_PARTIAL


def _cmd_construct(args) -> int:
    with _usage_errors():
        family = CodeFamilySpec.parse(args.family)
        words = greedy_construct(family, order=args.order, seed=args.seed)
    report = verify_code(words, family)
    if args.out:
        table = "".join(f"{index} {word} {weight(word)}\n" for index, word in enumerate(words))
        Path(args.out).write_text(table, encoding="utf-8")
        print(f"wrote {len(words)} codewords to {args.out}")
    print(
        f"constructed {len(words)} codeword(s) for {family} "
        f"(order={args.order}); achieved d_min={report.d_min}"
    )
    achieved = len(words) >= family.size
    print(f"target size {family.size}: {'reached' if achieved else 'NOT reached'}")
    return EXIT_OK if achieved else EXIT_PARTIAL


def _cmd_capacity(args) -> int:
    with _usage_errors():
        params = CapacityParams(
            chunk_payload_bases=args.chunk_payload,
            code_length=args.code_length,
            bases_per_gram=args.bases_per_gram,
            overhead_bytes=args.overhead,
        )
    result = solve_capacity(params)
    print(f"solving {CAPACITY_FORMULA}")
    print(
        f"l={params.chunk_payload_bases} N={params.code_length} "
        f"bases/gram={params.bases_per_gram:g} overhead={params.overhead_bytes:g}"
    )
    print(f"bytes per gram: {result.bytes_per_gram:.6e}")
    print(f"mu at fixed point: {result.mu:.4f}")
    print(f"residual: {result.residual:.3e} after {result.iterations} iterations")
    _write_report(args.report, result.to_dict())
    return EXIT_OK


def _cmd_simulate(args) -> int:
    codebook = _load_codebook(args.codebook)
    data = Path(args.infile).read_bytes()
    with _usage_errors():
        fd = FileDescriptor(data, Path(args.infile).suffix.lstrip("."), args.file_id)
        grid = [ChannelSpec.parse(item, args.seed) for item in args.grid.split(";")]
        rows = monte_carlo_decode(fd, codebook, grid, args.trials, args.chunk_bases)
    print(f"{'channel':>12} {'trials':>7} {'byte_acc':>9} {'parity_fail':>11} {'file_exact':>10}")
    for row in rows:
        print(
            f"{row.spec.label:>12} {row.trials:>7} {row.byte_accuracy:>9.4f} "
            f"{row.parity_failure_rate:>11.4f} {row.file_exact_rate:>10.4f}"
        )
    if args.csv:
        Path(args.csv).write_text(rows_to_csv(rows), encoding="utf-8")
    return EXIT_OK


def _cmd_cost_curve(args) -> int:
    with _usage_errors():
        sizes = [int(s) for s in args.sizes.split(",")]
        rows = cost_curve(sizes, extension=args.extension, chunk_bases=args.chunk_bases)
    print(f"{'size_bytes':>12} {'total_bases':>12} {'cost_usd':>14} {'cost_per_mb':>14}")
    for row in rows:
        print(
            f"{row.size_bytes:>12} {row.total_bases:>12} {row.cost_usd:>14,.2f} "
            f"{row.cost_per_mb_usd:>14,.2f}"
        )
    if args.csv:
        Path(args.csv).write_text(rows_to_csv(rows), encoding="utf-8")
    return EXIT_OK


class UsageError(ValueError):
    pass


def _add_codebook_flag(parser):
    parser.add_argument(
        "--codebook",
        metavar="PATH",
        default=None,
        help="codebook file to use instead of the packaged table",
    )


def _add_chunk_flag(parser):
    parser.add_argument(
        "--chunk-bases",
        type=int,
        default=DEFAULT_CHUNK_BASES,
        metavar="N",
        help="payload bases per chunk, multiple of 11 (default 99)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnagolay",
        description="Encode files as homopolymer-free DNA with 2-substitution "
        "error correction per byte, and decode them back.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="file -> FASTA chunks")
    enc.add_argument("--in", dest="infile", required=True)
    enc.add_argument("--out", dest="outfile", required=True)
    enc.add_argument("--file-id", type=int, default=0, dest="file_id")
    enc.add_argument("--extension", default=None, help="stored file extension")
    enc.add_argument("--report", default=None, help="write JSON report here")
    _add_chunk_flag(enc)
    _add_codebook_flag(enc)
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="FASTA chunks -> file")
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--out", dest="outfile", required=True)
    dec.add_argument("--report", default=None)
    _add_codebook_flag(dec)
    dec.set_defaults(func=_cmd_decode)

    cor = sub.add_parser("corrupt", help="apply a substitution channel to FASTA")
    cor.add_argument("--in", dest="infile", required=True)
    cor.add_argument("--out", dest="outfile", required=True)
    channel = cor.add_mutually_exclusive_group(required=True)
    channel.add_argument("--count", type=int, help="flips per codeword window")
    channel.add_argument("--rate", type=float, help="per-base flip probability")
    cor.add_argument("--seed", type=int, default=0)
    cor.set_defaults(func=_cmd_corrupt)

    ver = sub.add_parser("verify-code", help="check codebook distance claims")
    ver.add_argument("--family", default="11,256,5", help="target n,M,d")
    ver.add_argument("--report", default=None)
    _add_codebook_flag(ver)
    ver.set_defaults(func=_cmd_verify_code)

    con = sub.add_parser("construct", help="greedy-construct a code family")
    con.add_argument("--family", required=True, help="target n,M,d")
    con.add_argument("--order", choices=("lex", "random"), default="lex")
    con.add_argument("--seed", type=int, default=0)
    con.add_argument("--out", default=None, help="write the codeword table here")
    con.set_defaults(func=_cmd_construct)

    cap = sub.add_parser("capacity", help="solve the bytes-per-gram equation")
    cap.add_argument("--l", dest="chunk_payload", type=int, default=99)
    cap.add_argument("--N", dest="code_length", type=int, default=11)
    cap.add_argument("--bases-per-gram", type=float, default=1.82e21)
    cap.add_argument("--overhead", type=float, default=22)
    cap.add_argument("--report", default=None)
    cap.set_defaults(func=_cmd_capacity)

    sim = sub.add_parser("simulate", help="Monte Carlo corrupt/decode table")
    sim.add_argument("--in", dest="infile", required=True)
    sim.add_argument(
        "--grid",
        required=True,
        help="semicolon-separated channel specs, e.g. 'count:0;count:1;rate:0.01'",
    )
    sim.add_argument("--trials", type=int, default=10)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--file-id", type=int, default=0, dest="file_id")
    sim.add_argument("--csv", default=None, help="also write the table as CSV")
    _add_chunk_flag(sim)
    _add_codebook_flag(sim)
    sim.set_defaults(func=_cmd_simulate)

    cost = sub.add_parser("cost-curve", help="synthesis cost across file sizes")
    cost.add_argument("--sizes", required=True, help="comma-separated byte counts")
    cost.add_argument("--extension", default="")
    cost.add_argument("--csv", default=None)
    _add_chunk_flag(cost)
    cost.set_defaults(func=_cmd_cost_curve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

import dnagolay
from dnagolay.chunks import ChunkError, FastaError, decode_header, parse_fasta
from dnagolay.cli import build_parser, main
from dnagolay.codebook import CodebookError
from dnagolay.mldecode import DecodeError, DecodeResult
from dnagolay.ternary import AlphabetError


def run(argv):
    return main(argv)


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_bytes(b"DNA storage round trip sample \x00\xff payload")
    return path


def test_version_matches_pyproject(capsys):
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    [version] = re.findall(r'^version = "([^"]+)"$', pyproject, flags=re.MULTILINE)
    assert dnagolay.__version__ == version
    with pytest.raises(SystemExit):
        run(["--version"])
    assert capsys.readouterr().out.strip() == version


def test_encode_decode_round_trip(tmp_path, sample_file, capsys):
    fasta = tmp_path / "out.fasta"
    restored = tmp_path / "restored.txt"
    assert run(["encode", "--in", str(sample_file), "--out", str(fasta)]) == 0
    out = capsys.readouterr().out
    assert "chunk(s)" in out and "total bases:" in out and "cost estimate" in out
    assert run(["decode", "--in", str(fasta), "--out", str(restored)]) == 0
    assert restored.read_bytes() == sample_file.read_bytes()


def test_encode_report_and_extension_flag(tmp_path, sample_file):
    fasta = tmp_path / "out.fasta"
    report = tmp_path / "report.json"
    assert (
        run(
            [
                "encode", "--in", str(sample_file), "--out", str(fasta),
                "--extension", "dat", "--file-id", "4", "--report", str(report),
            ]
        )
        == 0
    )
    payload = json.loads(report.read_text())
    assert payload["chunks"] >= 1
    assert payload["total_bases"] > 0
    assert fasta.read_text().startswith(">f4_c0")


def test_decode_report(tmp_path, sample_file):
    fasta = tmp_path / "out.fasta"
    restored = tmp_path / "restored.bin"
    report = tmp_path / "decode.json"
    run(["encode", "--in", str(sample_file), "--out", str(fasta)])
    assert (
        run(["decode", "--in", str(fasta), "--out", str(restored), "--report", str(report)])
        == 0
    )
    payload = json.loads(report.read_text())
    assert payload["fully_recovered"] is True
    assert payload["extension"] == "txt"


def test_decode_builds_no_report_unless_asked(tmp_path, sample_file, monkeypatch):
    fasta = tmp_path / "out.fasta"
    restored = tmp_path / "restored.bin"
    run(["encode", "--in", str(sample_file), "--out", str(fasta)])

    def refuse(self):
        raise AssertionError("report built without --report")

    monkeypatch.setattr(DecodeResult, "to_dict", refuse)
    assert run(["decode", "--in", str(fasta), "--out", str(restored)]) == 0
    assert restored.read_bytes() == sample_file.read_bytes()


def test_file_id_out_of_range_is_usage_error(tmp_path, sample_file):
    with pytest.raises(SystemExit) as err:
        run(["encode", "--in", str(sample_file), "--out", str(tmp_path / "x"), "--file-id", "9"])
    assert err.value.code == 2


def test_bad_chunk_bases_is_usage_error(tmp_path, sample_file):
    with pytest.raises(SystemExit) as err:
        run(["encode", "--in", str(sample_file), "--out", str(tmp_path / "x"), "--chunk-bases", "100"])
    assert err.value.code == 2


def test_missing_input_is_io_error(tmp_path, capsys):
    code = run(["encode", "--in", str(tmp_path / "absent.bin"), "--out", str(tmp_path / "x")])
    assert code == 3
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error",
    [ChunkError, FastaError, CodebookError, DecodeError, AlphabetError],
    ids=lambda error: error.__name__,
)
def test_codec_errors_are_value_errors(error):
    # main turns each into exit code 1 by catching ValueError
    assert issubclass(error, ValueError)


def test_corrupt_zero_count_keeps_fasta_identical(tmp_path, sample_file):
    fasta = tmp_path / "clean.fasta"
    zeroed = tmp_path / "zeroed.fasta"
    run(["encode", "--in", str(sample_file), "--out", str(fasta)])
    assert run(["corrupt", "--in", str(fasta), "--out", str(zeroed), "--count", "0", "--seed", "5"]) == 0
    assert zeroed.read_text() == fasta.read_text()


def test_corrupt_then_decode_corrects_single_flips(tmp_path, sample_file):
    fasta = tmp_path / "clean.fasta"
    noisy = tmp_path / "noisy.fasta"
    restored = tmp_path / "restored.bin"
    run(["encode", "--in", str(sample_file), "--out", str(fasta)])
    assert run(["corrupt", "--in", str(fasta), "--out", str(noisy), "--count", "1", "--seed", "5"]) == 0
    assert noisy.read_text() != fasta.read_text()
    assert run(["decode", "--in", str(noisy), "--out", str(restored)]) == 0
    assert restored.read_bytes() == sample_file.read_bytes()


def test_corrupt_requires_exactly_one_mode(tmp_path, sample_file):
    """Neither --count nor --rate, or both, is a usage error."""
    fasta = tmp_path / "clean.fasta"
    run(["encode", "--in", str(sample_file), "--out", str(fasta)])
    for modes in ([], ["--count", "1", "--rate", "0.01"]):
        with pytest.raises(SystemExit) as err:
            run(["corrupt", "--in", str(fasta), "--out", str(tmp_path / "x.fasta"), *modes])
        assert err.value.code == 2
        assert not (tmp_path / "x.fasta").exists()


@pytest.mark.parametrize("argv", [["decode"], ["corrupt", "--count", "0"]], ids=lambda a: a[0])
def test_reading_commands_take_no_chunk_size(tmp_path, sample_file, capsys, argv):
    fasta = tmp_path / "clean.fasta"
    run(["encode", "--in", str(sample_file), "--out", str(fasta)])
    with pytest.raises(SystemExit) as err:
        run([*argv, "--in", str(fasta), "--out", str(tmp_path / "x"), "--chunk-bases", "99"])
    assert err.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_decode_reads_a_file_encoded_at_another_chunk_size(tmp_path, capsys):
    """The decoder takes the header width from the records, so a file
    encoded at 198 bases a chunk decodes with no chunk size given."""
    source, fasta, restored = tmp_path / "in.bin", tmp_path / "x.fasta", tmp_path / "out.bin"
    source.write_bytes(np.random.default_rng(5).bytes(5000))
    assert run(["encode", "--in", str(source), "--out", str(fasta), "--chunk-bases", "198"]) == 0
    assert run(["decode", "--in", str(fasta), "--out", str(restored)]) == 0
    assert restored.read_bytes() == source.read_bytes()
    assert "records set aside" not in capsys.readouterr().out


def test_corrupt_is_seed_deterministic(tmp_path, sample_file):
    fasta = tmp_path / "clean.fasta"
    a = tmp_path / "a.fasta"
    b = tmp_path / "b.fasta"
    run(["encode", "--in", str(sample_file), "--out", str(fasta)])
    run(["corrupt", "--in", str(fasta), "--out", str(a), "--rate", "0.05", "--seed", "9"])
    run(["corrupt", "--in", str(fasta), "--out", str(b), "--rate", "0.05", "--seed", "9"])
    assert a.read_text() == b.read_text()


def test_corrupt_titles_follow_damaged_headers(tmp_path):
    source = tmp_path / "multi.bin"
    source.write_bytes(bytes(range(256)) * 2)
    fasta = tmp_path / "clean.fasta"
    noisy = tmp_path / "noisy.fasta"
    run(["encode", "--in", str(source), "--out", str(fasta)])
    assert run(["corrupt", "--in", str(fasta), "--out", str(noisy), "--rate", "0.05", "--seed", "4"]) == 0

    def titles(path):
        return [line[1:].split()[0] for line in path.read_text().splitlines() if line.startswith(">")]

    damaged = parse_fasta(noisy.read_text())
    assert len(damaged) == len(titles(noisy)) > 1
    assert titles(noisy) != titles(fasta)
    for title, rec in zip(titles(noisy), damaged):
        file_id, index, _ = decode_header(rec)
        assert title == f"f{file_id}_c{index}"


def test_decode_partial_on_missing_chunk(tmp_path, capsys):
    source = tmp_path / "big.bin"
    source.write_bytes(bytes(range(256)) * 2)
    fasta = tmp_path / "full.fasta"
    run(["encode", "--in", str(source), "--out", str(fasta)])
    records = fasta.read_text().split(">")
    # drop the second record
    pruned = ">" + ">".join([r for r in records if r][:1] + [r for r in records if r][2:])
    damaged = tmp_path / "damaged.fasta"
    damaged.write_text(pruned)
    restored = tmp_path / "restored.bin"
    code = run(["decode", "--in", str(damaged), "--out", str(restored)])
    assert code == 1
    assert "missing chunk indices: [1]" in capsys.readouterr().out
    assert (tmp_path / "restored.bin.partial").exists()


def test_decode_prints_a_few_missing_indices_and_reports_all(tmp_path, capsys):
    source = tmp_path / "big.bin"
    source.write_bytes(bytes(range(256)) * 80)
    fasta = tmp_path / "full.fasta"
    run(["encode", "--in", str(source), "--out", str(fasta)])
    records = [r for r in fasta.read_text().split(">") if r]
    # drop chunks 5 to 1504, far more indices than a screen holds
    damaged = tmp_path / "damaged.fasta"
    damaged.write_text(">" + ">".join(records[:5] + records[1505:]))
    report = tmp_path / "decode.json"
    capsys.readouterr()
    argv = ["decode", "--in", str(damaged), "--out", str(tmp_path / "restored.bin")]
    assert run([*argv, "--report", str(report)]) == 1
    out = capsys.readouterr().out
    assert len(out.encode()) < 4096
    assert "missing chunk indices: [5, 6, 7, 8, 9, 10, 11, 12, 13, 14, ...] (1500 missing)" in out
    assert json.loads(report.read_text())["unrecoverable_chunks"] == list(range(5, 1505))


def test_decode_sets_aside_a_conflicting_record(tmp_path, sample_file, capsys):
    fasta = tmp_path / "out.fasta"
    run(["encode", "--in", str(sample_file), "--out", str(fasta)])
    text = fasta.read_text()
    first = parse_fasta(text)[0]
    assert decode_header(first)[1] == 0
    # chunk 0 again, its payload reversed under its own header
    noisy = tmp_path / "noisy.fasta"
    noisy.write_text(text + f">clone\n{first.payload_dna[::-1]}{first.header_dna}\n")
    restored = tmp_path / "restored.txt"
    report = tmp_path / "decode.json"
    capsys.readouterr()
    argv = ["decode", "--in", str(noisy), "--out", str(restored), "--report", str(report)]
    assert run(argv) == 0
    assert restored.read_bytes() == sample_file.read_bytes()
    out = capsys.readouterr().out
    assert "records set aside: 0 not whole 11-base windows, 1 chunk index taken" in out
    assert json.loads(report.read_text())["set_aside"] == [len(parse_fasta(text))]


def _delete_a_payload_base(text, record):
    """``text`` with the tenth base of record ``record``'s sequence deleted."""
    at = text.index("\n", text.index(f"_c{record} ")) + 10
    return text[:at] + text[at + 1 :]


def test_decode_sets_aside_a_record_with_a_base_deleted(tmp_path, capsys):
    source = tmp_path / "big.bin"
    source.write_bytes(bytes(range(256)) * 2)
    fasta = tmp_path / "full.fasta"
    run(["encode", "--in", str(source), "--out", str(fasta)])
    text = fasta.read_text()
    # record 3 loses a base; a second copy of record 5 takes an index already taken
    clone = text[text.index(">f0_c5 ") : text.index(">f0_c6 ")]
    damaged = tmp_path / "damaged.fasta"
    damaged.write_text(_delete_a_payload_base(text, 3) + clone)
    restored = tmp_path / "restored.bin"
    capsys.readouterr()
    assert run(["decode", "--in", str(damaged), "--out", str(restored)]) == 1
    out = capsys.readouterr().out
    assert "records set aside: 1 not whole 11-base windows, 1 chunk index taken" in out
    assert "missing chunk indices: [3] (1 missing)" in out
    partial = (tmp_path / "restored.bin.partial").read_bytes()
    assert not restored.exists() and len(partial) == 512
    assert partial[:27] + partial[36:] == source.read_bytes()[:27] + source.read_bytes()[36:]


@pytest.mark.parametrize("text, set_aside", [(">a\nACGT\n", [0]), ("", [])], ids=["short", "empty"])
def test_decode_of_records_that_do_not_fit_writes_an_empty_partial(tmp_path, capsys, text, set_aside):
    """Parseable text with no record that fits still decodes: to an empty
    ``.partial``, exit 1, with every record listed as set aside."""
    fasta = tmp_path / "in.fasta"
    fasta.write_text(text)
    restored, report = tmp_path / "restored.bin", tmp_path / "decode.json"
    argv = ["decode", "--in", str(fasta), "--out", str(restored), "--report", str(report)]
    assert run(argv) == 1
    assert "decode degraded" in capsys.readouterr().out
    assert not restored.exists() and (tmp_path / "restored.bin.partial").read_bytes() == b""
    payload = json.loads(report.read_text())
    assert (payload["set_aside"], payload["unrecoverable_chunks"]) == (set_aside, [])


def test_corrupt_count_mode_rejects_a_record_that_does_not_fit(tmp_path, sample_file, capsys):
    fasta = tmp_path / "clean.fasta"
    run(["encode", "--in", str(sample_file), "--out", str(fasta)])
    damaged = tmp_path / "damaged.fasta"
    damaged.write_text(_delete_a_payload_base(fasta.read_text(), 1))
    capsys.readouterr()
    argv = ["corrupt", "--in", str(damaged), "--out", str(tmp_path / "x.fasta"), "--count", "1"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: count mode needs payloads of whole 11-base windows\n"
    assert not (tmp_path / "x.fasta").exists()


def test_verify_code_reports_table_health(capsys):
    assert run(["verify-code"]) == 0
    out = capsys.readouterr().out
    assert "d_min=5" in out
    assert "distance-6 subset: 243" in out
    assert "byte 86 listed twice" in out


def test_verify_code_custom_family(capsys):
    assert run(["verify-code", "--family", "11,256,6"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_construct_family(tmp_path, capsys):
    out_file = tmp_path / "code.txt"
    assert run(["construct", "--family", "2,256,1", "--out", str(out_file)]) == 1
    assert "constructed 9 codeword(s)" in capsys.readouterr().out
    assert len(out_file.read_text().splitlines()) == 9


def test_construct_reaching_target_exits_zero(capsys):
    assert run(["construct", "--family", "2,3,2"]) == 0
    assert "target size 3: reached" in capsys.readouterr().out


def test_capacity_command(tmp_path, capsys):
    report = tmp_path / "capacity.json"
    assert run(["capacity", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "1.153133e+20" in out
    assert json.loads(report.read_text())["iterations"] > 0


def test_simulate_table_and_determinism(tmp_path, sample_file, capsys):
    args = [
        "simulate", "--in", str(sample_file),
        "--grid", "count:0;count:1", "--trials", "3", "--seed", "21",
    ]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "count=0" in first and "count=1" in first
    columns = ["channel", "trials", "byte_acc", "parity_fail", "file_exact"]
    assert first.splitlines()[0].split() == columns


def test_simulate_csv(tmp_path, sample_file):
    csv_path = tmp_path / "table.csv"
    assert (
        run(
            [
                "simulate", "--in", str(sample_file),
                "--grid", "count:0", "--trials", "2", "--csv", str(csv_path),
            ]
        )
        == 0
    )
    assert csv_path.read_text().startswith("channel,seed,trials")


def test_simulate_bad_grid_is_usage_error(sample_file):
    with pytest.raises(SystemExit) as err:
        run(["simulate", "--in", str(sample_file), "--grid", "bogus:1"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-code", "--family", "abc"],
        ["cost-curve", "--sizes", "1,abc"],
        ["cost-curve", "--sizes", "-5"],
        ["capacity", "--l", "0"],
        ["corrupt", "--in", "{fasta}", "--out", "{out}", "--count", "-1"],
        ["simulate", "--in", "{sample}", "--grid", "bogus"],
    ],
)
def test_malformed_arguments_are_usage_errors(tmp_path, sample_file, argv):
    fasta = tmp_path / "clean.fasta"
    run(["encode", "--in", str(sample_file), "--out", str(fasta)])
    paths = {"fasta": fasta, "out": tmp_path / "x.fasta", "sample": sample_file}
    with pytest.raises(SystemExit) as err:
        run([arg.format_map(paths) for arg in argv])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--in", "{sample}", "--grid", "count:12", "--csv", "{out}"], "[0, 11]"),
        (["corrupt", "--in", "{fasta}", "--out", "{out}", "--count", "12"], "[0, 11]"),
        (["encode", "--in", "{sample}", "--out", "{out}", "--extension", "a;b"], "';'"),
        (["simulate", "--in", "{odd}", "--grid", "count:1", "--trials", "1", "--csv", "{out}"], "';'"),
        (["simulate", "--in", "{sample}", "--grid", "count:1", "--trials", "0", "--csv", "{out}"], ">= 1"),
        (
            ["simulate", "--in", "{sample}", "--grid", "count:1", "--chunk-bases", "12", "--csv", "{out}"],
            "multiple of 11",
        ),
        (["construct", "--family", "27,2,1", "--out", "{out}"], "lengths above 26"),
        (["cost-curve", "--sizes", "10", "--extension", ";", "--csv", "{out}"], "';'"),
    ],
    ids=[
        "simulate",
        "corrupt",
        "encode",
        "simulate-extension",
        "trials",
        "chunk-bases",
        "construct",
        "cost-curve-extension",
    ],
)
def test_argument_errors_exit_2_before_any_output(tmp_path, sample_file, capsys, argv, message):
    """A count no window can take, an extension that holds a separator
    (given, or the suffix of the input), no trials, a chunk size that is
    not whole windows and a code too long to scan are usage errors (exit
    2) with the library's message, not degraded decodes (exit 1): each is
    caught before any encoding, and no output file is written."""
    fasta = tmp_path / "clean.fasta"
    run(["encode", "--in", str(sample_file), "--out", str(fasta)])
    capsys.readouterr()
    odd = tmp_path / "x.a;b"
    odd.write_bytes(sample_file.read_bytes())
    paths = {"fasta": fasta, "out": tmp_path / "out", "sample": sample_file, "odd": odd}
    with pytest.raises(SystemExit) as err:
        run([arg.format_map(paths) for arg in argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err.splitlines()[-1]
    assert not captured.out and not (tmp_path / "out").exists()


def test_cost_curve_command(tmp_path, capsys):
    csv_path = tmp_path / "cost.csv"
    assert run(["cost-curve", "--sizes", "1000,1000000", "--csv", str(csv_path)]) == 0
    assert "cost_per_mb" in capsys.readouterr().out
    assert len(csv_path.read_text().strip().splitlines()) == 3


def test_custom_codebook_flag(tmp_path, sample_file, codebook):
    from dnagolay.ternary import weight

    book_path = tmp_path / "book.codebook"
    book_path.write_text(
        "\n".join(f"{v} {cw} {weight(cw)}" for v, cw in enumerate(codebook.codewords))
    )
    fasta = tmp_path / "out.fasta"
    restored = tmp_path / "back.txt"
    assert run(["encode", "--in", str(sample_file), "--out", str(fasta), "--codebook", str(book_path)]) == 0
    assert run(["decode", "--in", str(fasta), "--out", str(restored), "--codebook", str(book_path)]) == 0
    assert restored.read_bytes() == sample_file.read_bytes()


def test_readme_usage_lists_every_option():
    """README's "Command line" block names every subcommand and, for
    each, exactly the options its parser takes."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    listed = {}
    for line in block.splitlines():
        if line.startswith("dnagolay "):
            command = line.split()[1]
        listed.setdefault(command, set()).update(re.findall(r"--[\w-]+", line))
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert listed == parsed

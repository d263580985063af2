"""End-to-end checks of the command-line front end."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusbraid
from torusbraid.cli import SCHEMA, main

SRC = os.path.dirname(os.path.dirname(torusbraid.__file__))


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PAIR4 = ["-m", "4", "-a", "1 2 2 2 3", "-b", "(1 2 3)^4"]
RIBBON22 = ["--block-size", "2", "--block-count", "2"]

# Every output branch of every subcommand, byte for byte: argv, exit code,
# text stdout, --json stdout, and stderr (the same in both modes).
GOLDEN = [
    pytest.param(
        ["group", "-m", "2", "-a", "1 1 1", "-b", ""], 0,
        "< x1, x2 | x2 x1 x2 x1^-1 x2^-1 x1^-1, x2^-1 x1 x2 x1 x2^-1 x1^-1 >\n",
        '{"command": "group", "degree": 2, "generators": ["x1", "x2"], '
        '"relators": ["x2 x1 x2 x1^-1 x2^-1 x1^-1", "x2^-1 x1 x2 x1 x2^-1 x1^-1"], '
        '"schema": "torusbraid.v1"}\n',
        "", id="group",
    ),
    pytest.param(
        ["group", "-m", "4", "-a", "1 3", "-b", "D^2", "--simplify"], 0,
        "< x1, x3 | x1 x3^2 x1 x3^-2 x1^-2, x3^-1 x1^2 x3 x1^-2 >\n",
        '{"command": "group", "degree": 4, "generators": ["x1", "x3"], '
        '"relators": ["x1 x2^2 x1 x2^-2 x1^-2", "x2^-1 x1^2 x2 x1^-2"], '
        '"schema": "torusbraid.v1"}\n',
        "", id="group-simplify",
    ),
    pytest.param(
        ["abelianization", "-m", "4", "-a", "1 3", "-b", "D^4"], 0,
        "Z^2\n",
        '{"command": "abelianization", "degree": 4, "quotient_center": false, '
        '"rank": 2, "schema": "torusbraid.v1", "torsion": []}\n',
        "", id="abelianization",
    ),
    pytest.param(
        ["abelianization", "-m", "4", "-a", "1 3", "-b", "D^4", "--quotient-center"], 0,
        "Z + Z/4\n",
        '{"command": "abelianization", "degree": 4, "quotient_center": true, '
        '"rank": 1, "schema": "torusbraid.v1", "torsion": [4]}\n',
        "", id="abelianization-quotient-center",
    ),
    pytest.param(
        ["quotients", "-m", "2", "-a", "1 1 1", "-b", "", "--group", "S3"], 0,
        "group: S3\nhomomorphisms: 12\nepimorphisms: 6\nabelian image: 6\n",
        '{"abelian_image": 6, "command": "quotients", "degree": 2, "epimorphisms": 6, '
        '"group": "S3", "homomorphisms": 12, "schema": "torusbraid.v1"}\n',
        "", id="quotients",
    ),
    pytest.param(
        ["colorings", *PAIR4], 0,
        "quandle: dihedral 3\ncolorings: 9\n0 0 0 0\n0 0 1 1\n0 0 2 2\n1 1 0 0\n"
        "1 1 1 1\n1 1 2 2\n2 2 0 0\n2 2 1 1\n2 2 2 2\n",
        '{"colorings": [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 2, 2], [1, 1, 0, 0], '
        '[1, 1, 1, 1], [1, 1, 2, 2], [2, 2, 0, 0], [2, 2, 1, 1], [2, 2, 2, 2]], '
        '"command": "colorings", "count": 9, "degree": 4, "quandle": 3, '
        '"schema": "torusbraid.v1"}\n',
        "", id="colorings",
    ),
    pytest.param(
        ["cocycle", *PAIR4], 0,
        "3 + 6t^2\ncoefficients: 3 0 6\n",
        '{"coefficients": [3, 0, 6], "command": "cocycle", "degree": 4, '
        '"schema": "torusbraid.v1"}\n',
        "", id="cocycle",
    ),
    pytest.param(
        ["cocycle", "-m", "4", "-a", "-1 -2 -2 -2 -3", "-b", "(-1 -2 -3)^4"], 0,
        "3 + 6t\ncoefficients: 3 6 0\n",
        '{"coefficients": [3, 6, 0], "command": "cocycle", "degree": 4, '
        '"schema": "torusbraid.v1"}\n',
        "", id="cocycle-mirror",
    ),
    pytest.param(
        ["cocycle", "-m", "4", "-a", "1 3", "-b", "D^3"], 0,
        "3\ncoefficients: 3 0 0\n",
        '{"coefficients": [3, 0, 0], "command": "cocycle", "degree": 4, '
        '"schema": "torusbraid.v1"}\n',
        "", id="cocycle-half-twist-odd",
    ),
    pytest.param(
        ["cocycle", "-m", "4", "-a", "1 3", "-b", "D^4"], 0,
        "9\ncoefficients: 9 0 0\n",
        '{"coefficients": [9, 0, 0], "command": "cocycle", "degree": 4, '
        '"schema": "torusbraid.v1"}\n',
        "", id="cocycle-half-twist-even",
    ),
    pytest.param(
        ["ribbon", "-m", "4", "-a", "1 3", "-b", "D^2", *RIBBON22], 0,
        "verdict: Ribbon\nblocks: 2 x 2\ntubular: 1 1\ninterior1: 1 1\ninterior2: 1 1\n"
        "vertical1: 1 (destabilizes to the braid on one strand)\n"
        "vertical2: 1 (destabilizes to the braid on one strand)\n",
        '{"cable_checks": [{"evidence": "destabilizes to the braid on one strand", '
        '"status": "Unknot"}, {"evidence": "destabilizes to the braid on one strand", '
        '"status": "Unknot"}], "certificate": {"block_count": 2, "block_size": 2, '
        '"interior": ["1 1", "1 1"], "tubular": "1 1", "vertical": ["1", "1"]}, '
        '"command": "ribbon", "schema": "torusbraid.v1", "verdict": "Ribbon"}\n',
        "", id="ribbon",
    ),
    pytest.param(
        ["ribbon", "-m", "4", "-a", "2 2", "-b", "D^2", *RIBBON22], 3,
        "verdict: Unknown\nreason: no cable decomposition found\n",
        '{"command": "ribbon", "reason": "no cable decomposition found", '
        '"schema": "torusbraid.v1", "verdict": "Unknown"}\n',
        "", id="ribbon-unknown",
    ),
    pytest.param(
        ["transform", "-m", "2", "-a", "1 1 1", "-b", "", "rho"], 0,
        "degree: 2\na: e\nb: 1 1 1\n",
        '{"a": "e", "b": "1 1 1", "command": "transform", "degree": 2, '
        '"operation": "rho", "schema": "torusbraid.v1"}\n',
        "", id="transform-rho",
    ),
    pytest.param(
        ["transform", "-m", "2", "-a", "1 1 1", "-b", "", "tau"], 0,
        "degree: 2\na: 1 1 1\nb: 1 1 1\n",
        '{"a": "1 1 1", "b": "1 1 1", "command": "transform", "degree": 2, '
        '"operation": "tau", "schema": "torusbraid.v1"}\n',
        "", id="transform-tau",
    ),
    pytest.param(
        ["h-member", "--matrix", "1 0 0 0 0 -1 0 1 0"], 0,
        "member\n",
        '{"command": "h-member", "matrix": [[1, 0, 0], [0, 0, -1], [0, 1, 0]], '
        '"member": true, "schema": "torusbraid.v1"}\n',
        "", id="h-member",
    ),
    pytest.param(
        ["h-member", "--matrix", "1 0 0 0 1 1 0 0 1"], 0,
        "non-member\n",
        '{"command": "h-member", "matrix": [[1, 0, 0], [0, 1, 1], [0, 0, 1]], '
        '"member": false, "schema": "torusbraid.v1"}\n',
        "", id="h-non-member",
    ),
    pytest.param(
        ["group", "-m", "3", "-a", "1", "-b", "2"], 2,
        "",
        "",
        "error: the two braids do not commute, so they do not define a link\n",
        id="noncommuting",
    ),
    pytest.param(
        ["colorings", "-m", "3", "-a", "1", "-b", "2"], 2,
        "",
        "",
        "error: the two braids do not commute, so they do not define a link\n",
        id="colorings-noncommuting",
    ),
    pytest.param(
        ["cocycle", "-m", "3", "-a", "1", "-b", "2"], 2,
        "",
        "",
        "error: the two braids do not commute, so they do not define a link\n",
        id="cocycle-noncommuting",
    ),
]


@pytest.mark.parametrize("argv, code, text, doc, err", GOLDEN)
def test_golden_output(capsys, argv, code, text, doc, err):
    assert run(capsys, *argv) == (code, text, err)
    assert run(capsys, *argv, "--json") == (code, doc, err)


def test_golden_output_in_reverse_order(capsys):
    # no call leaves state for the next
    for param in reversed(GOLDEN):
        argv, code, text, doc, err = param.values
        assert run(capsys, *argv, "--json") == (code, doc, err)
        assert run(capsys, *argv) == (code, text, err)


def test_plain_group_after_simplified_group_is_unsimplified(capsys):
    pair = ["-m", "4", "-a", "1 3", "-b", "D^2"]
    code, out, _ = run(capsys, "group", *pair, "--simplify")
    assert (code, out.split(" |")[0]) == (0, "< x1, x3")
    code, out, _ = run(capsys, "group", *pair)
    assert (code, out.split(" |")[0]) == (0, "< x1, x2, x3, x4")


def test_cocycle_example(capsys):
    code, out, _ = run(capsys, "cocycle", "-m", "4", "-a", "1 2 2 2 3", "-b", "(1 2 3)^4")
    assert code == 0
    assert out == "3 + 6t^2\ncoefficients: 3 0 6\n"


def test_abelianization_center_quotient_example(capsys):
    code, out, _ = run(
        capsys, "abelianization", "-m", "4", "-a", "1 3", "-b", "D^4",
        "--quotient-center",
    )
    assert code == 0
    assert out == "Z + Z/4\n"


def test_group_example(capsys):
    code, out, _ = run(capsys, "group", "-m", "2", "-a", "1 1 1", "-b", "")
    assert code == 0
    assert out == (
        "< x1, x2 | x2 x1 x2 x1^-1 x2^-1 x1^-1, "
        "x2^-1 x1 x2 x1 x2^-1 x1^-1 >\n"
    )


def test_group_simplify(capsys):
    code, out, _ = run(capsys, "group", "-m", "2", "-a", "1 1 1", "-b", "", "--simplify")
    assert code == 0
    assert out.startswith("< ")
    assert out.count("x") >= 2


def test_json_mode_carries_schema(capsys):
    code, out, _ = run(
        capsys, "cocycle", "-m", "4", "-a", "1 2 2 2 3", "-b", "(1 2 3)^4", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == SCHEMA
    assert doc["command"] == "cocycle"
    assert doc["coefficients"] == [3, 0, 6]
    # deterministic serialization
    code2, out2, _ = run(
        capsys, "cocycle", "-m", "4", "-a", "1 2 2 2 3", "-b", "(1 2 3)^4", "--json"
    )
    assert out2 == out


def test_noncommuting_pair_exits_2(capsys):
    code, _, err = run(capsys, "group", "-m", "3", "-a", "1", "-b", "2")
    assert code == 2
    assert "error:" in err


def test_bad_generator_index_exits_2(capsys):
    code, _, err = run(capsys, "colorings", "-m", "2", "-a", "3", "-b", "")
    assert code == 2
    assert "error:" in err


def test_missing_movie_file_exits_2(capsys):
    code, _, err = run(
        capsys, "cocycle", "-m", "4", "-a", "1 2 2 2 3", "-b", "(1 2 3)^4",
        "--movie", "/nonexistent/movie.txt",
    )
    assert code == 2
    assert "error:" in err


def test_colorings_output(capsys):
    code, out, _ = run(capsys, "colorings", "-m", "4", "-a", "1 2 2 2 3", "-b", "(1 2 3)^4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quandle: dihedral 3"
    assert lines[1] == "colorings: 9"
    assert len(lines) == 11


def test_group_json_relators_name_generators_by_position(capsys):
    argv = ["group", "-m", "4", "-a", "1 3", "-b", "D^2", "--simplify"]
    _, text, _ = run(capsys, *argv)
    _, out, _ = run(capsys, *argv, "--json")
    doc = json.loads(out)
    assert doc["generators"] == ["x1", "x3"]
    assert doc["relators"] == ["x1 x2^2 x1 x2^-2 x1^-2", "x2^-1 x1^2 x2 x1^-2"]
    # xk in a JSON relator is generators[k-1]; so renamed, they are the text relators
    named = [re.sub(r"x(\d+)", lambda t: doc["generators"][int(t[1]) - 1], r)
             for r in doc["relators"]]
    assert text == f"< x1, x3 | {', '.join(named)} >\n"


def test_workers_option_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quotients", "-m", "2", "-a", "1 1 1", "-b", "", "--group", "S3",
              "--workers", "3"])
    assert exc.value.code == 2


def test_word_past_the_cap_exits_3(capsys):
    code, out, err = run(capsys, "colorings", "-m", "2", "-a", "s1^10000000000", "-b", "")
    assert code == 3
    assert out == ""
    assert err == "undecided: braid word reaches 10000000000 letters, over the cap of 1000000\n"


def test_half_twist_past_the_cap_exits_3(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "group", "-m", "100000", "-a", "D", "-b", "")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == "undecided: braid word reaches 4999950000 letters, over the cap of 1000000\n"


def test_quotient_tuples_past_the_cap_exit_3(capsys):
    code, out, err = run(capsys, "quotients", "-m", "6", "-a", "", "-b", "", "--group", "S4")
    assert (code, out) == (3, "")
    assert err == "undecided: enumeration of 24^6 tuples exceeds the cap of 100000000\n"


def test_colorings_past_the_cap_exit_3(capsys):
    code, out, err = run(capsys, "colorings", "-m", "9", "-a", "e", "-b", "e", "--quandle", "7")
    assert (code, out) == (3, "")
    assert err == "undecided: coloring search over 7^9 vectors exceeds the cap\n"


@pytest.mark.parametrize("command", ["colorings", "cocycle"])
def test_coloring_matrix_past_the_cap_exits_3(capsys, command):
    start = time.perf_counter()
    for m, entries in (("1000", 2 * 10**6), ("100000", 2 * 10**10)):
        code, out, err = run(capsys, command, "-m", m, "-a", "e", "-b", "e")
        assert (code, out) == (3, "")
        assert err == (f"undecided: the coloring matrix reaches {entries} entries, "
                       "over the cap of 1000000\n")
    assert time.perf_counter() - start < 2.0


def test_coloring_matrix_cap_is_the_word_cap(capsys, monkeypatch):
    monkeypatch.setattr(torusbraid.braids, "WORD_CAP", 17)
    code, out, _ = run(capsys, "colorings", "-m", "2", "-a", "1", "-b", "1")
    assert (code, out.splitlines()[1]) == (0, "colorings: 3")
    code, out, err = run(capsys, "colorings", "-m", "3", "-a", "1", "-b", "1")
    assert (code, out) == (3, "")
    assert err == "undecided: the coloring matrix reaches 18 entries, over the cap of 17\n"


def test_colorings_cap_counts_colorings_not_vectors(capsys):
    # 7^10 vectors, but only the 7 constant ones are colorings
    code, out, _ = run(capsys, "colorings", "-m", "10", "-a", "1 2 3 4 5 6 7 8 9",
                       "-b", "D^2", "--quandle", "7")
    assert code == 0
    assert out.splitlines()[:2] == ["quandle: dihedral 7", "colorings: 7"]


def test_tietze_relators_past_the_cap_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(torusbraid.braids, "WORD_CAP", 100)  # the images stay under it
    code, out, err = run(capsys, "group", "--simplify", *PAIR4)
    assert (code, out) == (3, "")
    assert err.startswith("undecided: the Tietze relator total reaches ")


def test_pseudo_anosov_relators_past_the_cap_exit_3(capsys):
    # the images of (s1 s2^-1)^16 would reach about 28M letters
    start = time.perf_counter()
    code, out, err = run(capsys, "group", "-m", "3", "-a", "(1 -2)^16", "-b", "(1 -2)^16")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "")
    assert err.startswith("undecided: a bound on the Artin images reaches ")


def test_pseudo_anosov_abelianization_builds_no_relators(capsys):
    # H_1 is read off the permutations, so the relator cap does not apply
    start = time.perf_counter()
    code, out, _ = run(capsys, "abelianization", "-m", "3", "-a", "(1 -2)^16", "-b", "(1 -2)^16")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (0, "Z\n")


def test_abelianization_reads_orbits_at_high_degree(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "abelianization", "-m", "100000", "-a", "e", "-b", "e")
    assert (code, out) == (0, "Z^100000\n")
    cycle = " ".join(map(str, range(1, 600)))
    code, out, _ = run(capsys, "abelianization", "-m", "600", "-a", cycle, "-b", "e")
    assert (code, out) == (0, "Z\n")
    assert time.perf_counter() - start < 2.0


def test_quotients_rejects_unknown_group(capsys):
    code, _, err = run(
        capsys, "quotients", "-m", "2", "-a", "1 1 1", "-b", "", "--group", "Q8"
    )
    assert code == 2
    assert "unrecognized group" in err


def test_ribbon_family_and_witness_round_trip(capsys, tmp_path):
    path = str(tmp_path / "witness.txt")
    code, out, _ = run(
        capsys, "ribbon", "-m", "4", "-a", "1 3", "-b", "D^2",
        "--block-size", "2", "--block-count", "2", "--save-witness", path,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: Ribbon"
    assert lines[1] == "blocks: 2 x 2"
    assert lines[2] == "tubular: 1 1"
    # feed the saved witness back in
    code2, out2, _ = run(
        capsys, "ribbon", "-m", "4", "-a", "1 3", "-b", "D^2",
        "--block-size", "2", "--block-count", "2", "--witness", path,
    )
    assert code2 == 0
    assert out2.splitlines()[0] == "verdict: Ribbon"


def test_ribbon_unknown_exits_3(capsys):
    code, out, _ = run(
        capsys, "ribbon", "-m", "4", "-a", "2 2", "-b", "D^2",
        "--block-size", "2", "--block-count", "2",
    )
    assert code == 3
    assert "verdict: Unknown" in out
    assert "reason: no cable decomposition found" in out


@pytest.mark.parametrize("m, a, b, count", [
    ("6", "1 3 5", "D^3", "3"),
    ("8", "1 3 5 7", "D^2", "4"),
    ("4", "1 3", "D^17", "2"),
    ("4", "1 3", "D^32", "2"),
])
def test_ribbon_read_off_beyond_former_search_caps(capsys, m, a, b, count):
    code, out, _ = run(
        capsys, "ribbon", "-m", m, "-a", a, "-b", b,
        "--block-size", "2", "--block-count", count,
    )
    assert code == 0
    assert out.splitlines()[0] == "verdict: Ribbon"


def _bad_file_exits_2(capsys, *argv: str) -> None:
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_movie_directory_exits_2(capsys, tmp_path):
    _bad_file_exits_2(capsys, "cocycle", "-m", "4", "-a", "1", "-b", "e",
                      "--movie", str(tmp_path))


def test_movie_binary_file_exits_2(capsys, tmp_path):
    path = tmp_path / "movie.bin"
    path.write_bytes(bytes([0x80, 0xFF, 0xFE, 0x00, 0xC3]) * 13)
    _bad_file_exits_2(capsys, "cocycle", "-m", "4", "-a", "1", "-b", "e",
                      "--movie", str(path))


def test_witness_non_integer_blocks_exits_2(capsys, tmp_path):
    path = tmp_path / "witness.txt"
    path.write_text("blocks 2 x q\ntubular: 1 1\n", encoding="utf-8")
    _bad_file_exits_2(capsys, "ribbon", "-m", "4", "-a", "1 3", "-b", "D^2",
                      "--block-size", "2", "--block-count", "2", "--witness", str(path))


def test_unwritable_witness_path_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "witness.txt"
    _bad_file_exits_2(capsys, "ribbon", "-m", "4", "-a", "1 3", "-b", "D^2",
                      "--block-size", "2", "--block-count", "2", "--save-witness", str(path))


def test_transform_rho_output(capsys):
    code, out, _ = run(capsys, "transform", "-m", "2", "-a", "1 1 1", "-b", "", "rho")
    assert code == 0
    assert out == "degree: 2\na: e\nb: 1 1 1\n"


def test_transform_tau_output(capsys):
    code, out, _ = run(capsys, "transform", "-m", "2", "-a", "1 1 1", "-b", "", "tau")
    assert code == 0
    assert out == "degree: 2\na: 1 1 1\nb: 1 1 1\n"


def test_h_member_outputs(capsys):
    code, out, _ = run(capsys, "h-member", "--matrix", "1 0 0 0 0 -1 0 1 0")
    assert code == 0
    assert out == "member\n"
    code, out, _ = run(capsys, "h-member", "--matrix", "1 0 0 0 1 1 0 0 1")
    assert code == 0
    assert out == "non-member\n"


def test_h_member_rejects_short_matrix(capsys):
    code, _, err = run(capsys, "h-member", "--matrix", "1 0 0")
    assert code == 2
    assert "9 integers" in err


def test_help_states_scope():
    from torusbraid.cli import build_parser

    text = " ".join(build_parser().format_help().split())
    assert "does not decide link equivalence" in text


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _fresh_python(*args: str, **kwargs) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


def test_closed_pipe_exits_141_without_traceback():
    # one output line of about 390 KB, far more than a 64 KiB pipe buffer
    proc = _fresh_python(
        "-m", "torusbraid.cli", "group", "-m", "3",
        "-a", "(1 -2)^10", "-b", "(1 -2)^10",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(16).startswith(b"< x1")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert b"Traceback" not in err


def test_cli_import_starts_no_process_machinery():
    proc = _fresh_python(
        "-c",
        "import sys, torusbraid.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') "
        "if m in sys.modules])",
        stdout=subprocess.PIPE,
    )
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert out.decode().strip() == "[]"


# ---------------------------------------------------------------------------
# no input ends in a traceback
# ---------------------------------------------------------------------------

_TOKENS = st.one_of(
    st.integers(-6, 6).map(str),  # 0 and letters past the degree included
    st.integers(-2, 2).map(lambda k: f"D^{k}"),
    st.sampled_from(["x", "(", ")", "e", "s2^-1", "^2", "D^x"]),
    st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=3).flatmap(
        lambda g: st.integers(-2, 2).map(lambda k: f"({' '.join(map(str, g))})^{k}")),
)
_WORDS = st.lists(_TOKENS, max_size=4).map(" ".join)
_OPTIONS = {
    "group": st.sampled_from([[], ["--simplify"]]),
    "abelianization": st.sampled_from([[], ["--quotient-center"]]),
    "quotients": st.sampled_from(["Z2", "Z3", "S3", "D1", "Q8", "Zx"]).map(
        lambda g: ["--group", g]),
    "colorings": st.integers(-1, 7).map(lambda p: ["--quandle", str(p)]),
    "cocycle": st.just([]),
    "ribbon": st.tuples(st.integers(-1, 3), st.integers(-1, 3)).map(
        lambda nm: ["--block-size", str(nm[0]), "--block-count", str(nm[1])]),
    "transform": st.sampled_from([["rho"], ["tau"], ["spin"]]),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from([*_OPTIONS, "h-member"]))
    if command == "h-member":
        entries = draw(st.lists(st.sampled_from(["0", "1", "-1", "2", "x"]), max_size=10))
        return [command, "--matrix", " ".join(entries)]
    pair = ["-m", str(draw(st.integers(-1, 6))), "-a", draw(_WORDS), "-b", draw(_WORDS)]
    return [command, *pair, *draw(_OPTIONS[command]), *draw(st.sampled_from([[], ["--json"]]))]


@settings(deadline=None, max_examples=500)
@given(_argv())
def test_no_input_ends_in_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the usage
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()

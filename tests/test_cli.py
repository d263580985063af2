"""End-to-end checks of the command-line front end."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torusbraid
from torusbraid import cli
from torusbraid.cli import SCHEMA, main

from oracles import full_parser_oracle

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


@pytest.mark.parametrize("degree", ["100000000000000000000", "1000001"])
def test_degree_past_the_cap_exits_3(capsys, degree):
    code, out, err = run(capsys, "abelianization", "-m", degree, "-a", "e", "-b", "e")
    assert (code, out) == (3, "")
    assert err == f"undecided: braid degree reaches {degree} strands, over the cap of 1000000\n"


def test_file_degree_past_the_cap_exits_3(capsys, tmp_path):
    movie = tmp_path / "movie.txt"
    movie.write_text("degree 10000000\na 1\nb 1\n", encoding="utf-8")
    witness = tmp_path / "witness.txt"
    witness.write_text("blocks 10000000 x 2\ntubular: e\ninterior1: e\nvertical1: e\n"
                       "interior2: e\nvertical2: e\n", encoding="utf-8")
    for argv in (["cocycle", "-m", "2", "-a", "1", "-b", "1", "--movie", str(movie)],
                 ["ribbon", "-m", "4", "-a", "1 3", "-b", "D^2", *RIBBON22,
                  "--witness", str(witness)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == ("undecided: braid degree reaches 10000000 strands, "
                       "over the cap of 1000000\n")


def test_colorings_past_the_smith_cap_exit_3(capsys):
    # the 738 x 369 coloring matrix fits the entry cap, but its Smith form would
    # take 2 * 369^3 > 10^8 steps
    start = time.perf_counter()
    code, out, err = run(capsys, "colorings", "-m", "369", "-a", " ".join(map(str, range(1, 369))),
                         "-b", "e")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "")
    assert err == ("undecided: Smith form of a 738 x 369 matrix reaches 100486818 steps, "
                   "over the cap of 100000000\n")


@pytest.mark.parametrize("a, code, out, err", [
    ("(D)^0", 0, "degree: 100000\na: e\nb: e\n", ""),
    ("(D)^1", 3, "", "undecided: braid word reaches 4999950000 letters, over the cap of 1000000\n"),
    ("(D x)^0", 2, "", "error: unrecognized braid token 'x'\n"),
])
def test_half_twist_in_a_group_to_the_power_zero_is_not_built(capsys, a, code, out, err):
    start = time.perf_counter()
    assert run(capsys, "transform", "-m", "100000", "-a", a, "-b", "e", "tau") == (code, out, err)
    assert time.perf_counter() - start < 1.0


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
    assert err == ("undecided: coloring listing of 7^9 colorings of 9 entries each "
                   "exceeds the cap of 1000000 entries\n")


def test_colorings_of_a_large_quandle_build_no_table(capsys):
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "colorings", "-m", "3", "-a", "1 2", "-b", "1 2",
                           "--quandle", "2000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out.splitlines()[1]) == (0, "colorings: 2000")
    assert peak < 10 * 2**20


@pytest.mark.parametrize("argv, size", [
    (["-m", "3", "-a", "1 2", "-b", "1 2", "--quandle", "20000000"], "20000000^1"),
    (["-m", "13", "-a", "e", "-b", "e"], "3^13"),
])
def test_coloring_entries_past_the_cap_exit_3(capsys, argv, size):
    start = time.perf_counter()
    code, out, err = run(capsys, "colorings", *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (f"undecided: coloring listing of {size} colorings of {argv[1]} entries each "
                   "exceeds the cap of 1000000 entries\n")


def test_coloring_entries_cap_counts_colorings_times_degree(capsys, monkeypatch):
    argv = ["colorings", "-m", "2", "-a", "1", "-b", "1", "--quandle", "7"]
    monkeypatch.setattr(torusbraid.braids, "WORD_CAP", 14)  # 7 colorings of 2 entries
    code, out, _ = run(capsys, *argv)
    assert (code, out.splitlines()[1]) == (0, "colorings: 7")
    monkeypatch.setattr(torusbraid.braids, "WORD_CAP", 13)  # the 8-entry matrix still fits
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == ("undecided: coloring listing of 7^1 colorings of 2 entries each "
                   "exceeds the cap of 13 entries\n")


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


def test_normal_form_past_the_step_cap_exit_3(capsys):
    # a commuting pair whose first word's normal form takes over 10^6 left-weighting steps
    rng = random.Random(8)
    a = " ".join(str(rng.choice([1, -1]) * rng.randint(1, 7)) for _ in range(20000))
    code, out, err = run(capsys, "group", "-m", "8", "-a", a, "-b", "e")
    assert (code, out) == (3, "")
    assert re.fullmatch(r"undecided: normal form reaches \d+ left-weighting steps, "
                        r"over the cap of 1000000\n", err)


# runs one command in a child with 2 GB of address space and a 30 s limit, and
# prints its exit code, its peak RSS in kB, then its stdout and stderr
PEAK_RSS_PROBE = """
import resource, subprocess, sys
def limit():
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
p = subprocess.run([sys.executable, "-m", "torusbraid.cli", *sys.argv[1:]],
                   capture_output=True, text=True, timeout=30, preexec_fn=limit)
print(p.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.stdout.write(p.stdout + p.stderr)
"""


def test_normal_form_past_the_width_cap_exits_3():
    # 10^6 runs of one letter at degree 600 pass no step cap before 10^7
    # permutation entries; the budget stops them after 16,667 steps
    argv = ["abelianization", "-m", "600", "-a", "e", "-b", "(1 1)^500000"]
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", PEAK_RSS_PROBE, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC}, check=True)
    assert time.perf_counter() - start < 5.0
    head, err = done.stdout.split("\n", 1)
    code, peak_kb = map(int, head.split())
    assert code == 3
    assert err == ("undecided: normal form reaches 10000200 permutation entries, "
                   "over the cap of 10000000\n")
    assert peak_kb < 400 * 1024


def test_cable_lift_past_the_cap_exits_3(capsys):
    # the tubular braid s1^2000 would lift to 100^2 * 2000 letters
    b = f"{' '.join(map(str, range(1, 100)))} (100)^2000 {' '.join(map(str, range(-99, 0)))}"
    start = time.perf_counter()
    code, out, err = run(capsys, "ribbon", "-m", "200", "-a", "e", "-b", b,
                         "--block-size", "100", "--block-count", "2")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == "undecided: cable lift reaches 20000000 letters, over the cap of 1000000\n"


def test_ribbon_reads_off_many_blocks_in_linear_time(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "ribbon", "-m", "8000", "-a", "e", "-b", "e",
                       "--block-size", "1", "--block-count", "8000")
    assert time.perf_counter() - start < 1.0
    blocks = range(1, 8001)
    assert (code, out.splitlines()) == (0, [
        "verdict: Ribbon", "blocks: 1 x 8000", "tubular: e",
        *(f"interior{j}: e" for j in blocks),
        *(f"vertical{j}: e (destabilizes to the braid on one strand)" for j in blocks)])


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


def test_cyclic_group_table_past_the_cap_exits_3(capsys):
    argv = ["quotients", "-m", "2", "-a", "1", "-b", "e", "--group"]
    code, out, err = run(capsys, *argv, "Z1001")
    assert (code, out) == (3, "")
    assert err == ("undecided: the table of Z1001 reaches 1002001 entries, "
                   "over the cap of 1000000\n")
    code, out, _ = run(capsys, *argv, "Z1000")
    assert (code, out.splitlines()[:2]) == (0, ["group: Z1000", "homomorphisms: 1000"])


# pairs whose b is no literal power of delta or Delta: Delta spelled
# otherwise, a power of delta not divisible by the degree, and shears
# tau^2 = (a, b a^2) of two delta^4 pairs, of their mirrors and of
# (s1 s3, Delta^4)
@pytest.mark.parametrize("m, a, b, text", [
    pytest.param("4", "1 3", "1 3 2 1 3 2", "3\ncoefficients: 3 0 0\n",
                 id="half-twist-spelled-otherwise"),
    pytest.param("3", "1 2", "(1 2)^2", "3\ncoefficients: 3 0 0\n",
                 id="delta-squared-at-degree-3"),
    pytest.param("4", "1 2 2 2 3", "(1 2 3)^4 (1 2 2 2 3)^2",
                 "3 + 6t^2\ncoefficients: 3 0 6\n", id="acceptance-sheared-twice"),
    pytest.param("4", "1 3 1 1 3 3", "(1 2 3)^4 (1 3 1 1 3 3)^2",
                 "9 + 18t\ncoefficients: 9 18 0\n", id="delta-pair-sheared-twice"),
    pytest.param("4", "-1 -2 -2 -2 -3", "(-1 -2 -3)^4 (-1 -2 -2 -2 -3)^2",
                 "3 + 6t\ncoefficients: 3 6 0\n", id="acceptance-mirror-sheared-twice"),
    pytest.param("4", "-1 -3 -1 -1 -3 -3", "(-1 -2 -3)^4 (-1 -3 -1 -1 -3 -3)^2",
                 "9 + 18t^2\ncoefficients: 9 0 18\n", id="delta-pair-mirror-sheared-twice"),
    pytest.param("4", "1 3", "(1 3 2 1 3 2)^4", "9\ncoefficients: 9 0 0\n",
                 id="half-twist-spelled-otherwise-to-the-fourth"),
])
def test_cocycle_on_pairs_without_a_closed_form(capsys, m, a, b, text):
    start = time.perf_counter()
    assert run(capsys, "cocycle", "-m", m, "-a", a, "-b", b) == (0, text, "")
    assert time.perf_counter() - start < 1.0


def test_movie_past_the_step_cap_exits_3(capsys, monkeypatch):
    # the positive path for this pair takes 7 steps; the normal forms fewer
    monkeypatch.setattr(torusbraid.braids, "WORD_CAP", 6)
    code, out, err = run(capsys, "cocycle", "-m", "4", "-a", "1 3", "-b", "1 3 2 1 3 2")
    assert (code, out) == (3, "")
    assert err == "undecided: movie reaches 7 steps, over the cap of 6\n"
    # a power of delta takes the same path and the same cap: 30,100 steps
    monkeypatch.setattr(torusbraid.braids, "WORD_CAP", 10_000)
    code, out, err = run(capsys, "cocycle", "-m", "4", "-a", "1^100", "-b", "(1 2 3)^200")
    assert (code, out) == (3, "")
    assert err == "undecided: movie reaches 10001 steps, over the cap of 10000\n"


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


def test_ribbon_refuses_non_positive_blocks(capsys):
    assert run(capsys, "ribbon", "-m", "4", "-a", "e", "-b", "e",
               "--block-size", "-2", "--block-count", "-2") == (
        2, "", "error: block size and count must be positive\n")


def test_ribbon_refuses_a_witness_for_other_blocks(capsys, tmp_path):
    # the 1 x 4 witness verifies, but the requested blocks are 2 x 2, for
    # which the read-off finds a vertical braid that is not a knot
    path = tmp_path / "witness.txt"
    path.write_text("blocks 1 x 4\ntubular: D^2\n" + "".join(
        f"interior{j}: e\nvertical{j}: e\n" for j in range(1, 5)), encoding="utf-8")
    pair = ["ribbon", "-m", "4", "-a", "e", "-b", "D^2"]
    assert run(capsys, *pair, "--block-size", "1", "--block-count", "4",
               "--witness", str(path))[0] == 0
    assert run(capsys, *pair, *RIBBON22, "--witness", str(path)) == (
        2, "", "error: witness has 1 x 4 blocks, not 2 x 2\n")
    code, out, _ = run(capsys, *pair, *RIBBON22)
    assert (code, out.splitlines()[-1]) == (
        3, "reason: vertical braid 1 does not close to a knot")


def test_movie_errors_exit_2_with_one_line(capsys, tmp_path):
    path = tmp_path / "movie.txt"
    path.write_text("degree 2\na 1\nb 1\nfar 0\n", encoding="utf-8")
    assert run(capsys, "cocycle", "-m", "2", "-a", "1", "-b", "1",
               "--movie", str(path)) == (
        2, "", "error: illegal step 0: letters s1, s1 at 0 are not far commuting\n")
    assert run(capsys, "cocycle", "-m", "4", "-a", "1 -3", "-b", "D^2") == (
        2, "", "error: mixed-sign pairs are not supported by the slide generator\n")


@pytest.mark.parametrize("step", ["far 1 2", "r3 5", "insert 0 1 *", "cancel ١", "wobble 4"])
def test_bad_movie_step_lines_exit_2_with_one_line(capsys, tmp_path, step):
    path = tmp_path / "movie.txt"
    path.write_text(f"degree 2\na 1\nb 1\n{step}\n", encoding="utf-8")
    code, out, err = run(capsys, "cocycle", "-m", "2", "-a", "1", "-b", "1", "--movie", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}:4: bad movie line {step!r} (")
    assert err.count("\n") == 1


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


BIG = "9" * 5000  # more digits than int() converts by default since Python 3.11


@pytest.mark.parametrize("bad", ["1_000", "²", BIG])
def test_group_order_is_a_sign_free_ascii_integer(capsys, bad):
    for name in (f"Z{bad}", f"s{bad}"):
        assert run(capsys, "quotients", "-m", "3", "-a", "1", "-b", "1", "--group", name) == (
            2, "", f"error: unrecognized group {name!r}; expected S<k>, D<k> or Z<k>\n")


@pytest.mark.parametrize("name", ["S+3", "Z-2", "D 3", "Z"])
def test_group_order_keeps_refusing_signs_and_spaces(capsys, name):
    assert run(capsys, "quotients", "-m", "3", "-a", "1", "-b", "1", "--group", name)[0] == 2


@pytest.mark.parametrize("bad", ["1_000", "²", BIG])
def test_matrix_entries_are_ascii_integers(capsys, bad):
    assert run(capsys, "h-member", "--matrix", f"1 0 0 0 1 0 0 0 {bad}") == (
        2, "", f"error: --matrix entries must be integers, got {bad!r}\n")


@pytest.mark.parametrize("bad", ["1_000", "²", BIG])
def test_witness_blocks_are_ascii_integers(capsys, tmp_path, bad):
    path = tmp_path / "witness.txt"
    path.write_text(f"blocks 2 x {bad}\ntubular: 1 1\n", encoding="utf-8")
    assert run(capsys, "ribbon", "-m", "4", "-a", "1 3", "-b", "D^2", "--block-size", "2",
               "--block-count", "2", "--witness", str(path)) == (
        2, "", f"error: malformed blocks line: '2 x {bad}'\n")


def test_help_states_scope():
    from torusbraid.cli import build_parser

    text = " ".join(build_parser().format_help().split())
    assert "does not decide link equivalence" in text


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _exit(call, argv: list[str]) -> tuple[object, str, str]:
    """Exit code (returned or raised), stdout and stderr of ``call(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:  # argparse: help, or a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


COMMANDS = ["group", "abelianization", "quotients", "colorings", "cocycle", "ribbon",
            "transform", "h-member"]
PAIR3 = ["-m", "3", "-a", "1", "-b", "1"]


@pytest.mark.parametrize("argv", [
    ["--help"],
    *([command, "--help"] for command in COMMANDS),
    # one usage error per subcommand: a missing option, a bad int, a bad choice
    ["group", "-m", "3", "-a", "1"],
    ["abelianization", "-m", "x", "-a", "1", "-b", "1"],
    ["quotients", *PAIR3],
    ["colorings", *PAIR3, "--quandle", "x"],
    ["cocycle", "-m", "3", "-b", "1"],
    ["ribbon", *PAIR3, "--block-size", "x", "--block-count", "2"],
    ["transform", *PAIR3, "spin"],
    ["h-member"],
    ["abelianization", *PAIR3, "--nope"],
    ["h-member", "--matrix", "1 0 0 0 1 0 0 0 1", "extra"],
    ["frobnicate"],
    [],
], ids=" ".join)
def test_help_and_usage_errors_match_the_full_parser(monkeypatch, argv):
    # argparse lays help out differently across Python versions, so the
    # reference is the full parser on this interpreter, not a stored text
    monkeypatch.setenv("COLUMNS", "80")
    expected = _exit(lambda a: full_parser_oracle().parse_args(a), argv)
    assert expected[0] in (0, 2)
    assert _exit(main, argv) == expected


def test_main_builds_only_the_named_subcommand(monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert _exit(main, ["abelianization", "-m", "4", "-a", "1 3", "-b", "D^2"])[0] == 0
    assert built == ["abelianization"]
    for argv in (["--help"], ["--nope"]):
        built.clear()
        assert _exit(main, argv)[0] in (0, 2)
        assert built == COMMANDS
    # leftover arguments: the usage line that lists every subcommand
    built.clear()
    assert _exit(main, ["abelianization", *PAIR3, "--nope"])[0] == 2
    assert built == ["abelianization", *COMMANDS]


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
    st.sampled_from(["x", "(", ")", "e", "s2^-1", "^2", "D^x", "1_0", "s²", "1^١"]),
    st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=3).flatmap(
        lambda g: st.integers(-2, 2).map(lambda k: f"({' '.join(map(str, g))})^{k}")),
)
_WORDS = st.lists(_TOKENS, max_size=4).map(" ".join)
_OPTIONS = {
    "group": st.sampled_from([[], ["--simplify"]]),
    "abelianization": st.sampled_from([[], ["--quotient-center"]]),
    "quotients": st.sampled_from(["Z2", "Z3", "S3", "D1", "Q8", "Zx", "S²", "Z١", "D1_0", "Z" + BIG]).map(
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
        entries = draw(st.lists(st.sampled_from(["0", "1", "-1", "2", "x", "١", "1_0"]), max_size=10))
        return [command, "--matrix", " ".join(entries)]
    pair = ["-m", str(draw(st.integers(-1, 6))), "-a", draw(_WORDS), "-b", draw(_WORDS)]
    argv = [command, *pair, *draw(_OPTIONS[command]), *draw(st.sampled_from([[], ["--json"]]))]
    extra = draw(st.sampled_from([None, None, "--nope", "-h"]))  # unrecognized, or help
    if extra:
        argv.insert(draw(st.integers(1, len(argv))), extra)
    if draw(st.integers(0, 9)) == 0:
        argv[0] = draw(st.sampled_from(["--json", "bogus", ""]))  # not a command
    return argv


@settings(deadline=None, max_examples=500)
@given(_argv())
@example(["quotients", "-m", "3", "-a", "1", "-b", "1", "--group", "S²"])
@example(["quotients", "-m", "3", "-a", "1", "-b", "1", "--group", "Z" + BIG])
@example(["group", "-m", "3", "-a", "1^1_0", "-b", "1"])
@example(["h-member", "--matrix", "1 0 0 0 1 0 0 0 ١"])
def test_no_input_ends_in_a_traceback(argv):
    code, out, err = _exit(main, argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    # and main answers as it did when it called parse_args on every subcommand's parser
    full = mock.Mock(parse_known_args=lambda a: (full_parser_oracle().parse_args(a), []))
    with mock.patch.object(cli, "_parser", lambda rows: full):
        assert _exit(main, argv) == (code, out, err)

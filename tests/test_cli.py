"""End-to-end checks of the command-line front end."""

from __future__ import annotations

import json

import pytest

from torusbraid.cli import SCHEMA, main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_quotients_worker_independent(capsys):
    base = run(capsys, "quotients", "-m", "2", "-a", "1 1 1", "-b", "", "--group", "S3")
    multi = run(
        capsys, "quotients", "-m", "2", "-a", "1 1 1", "-b", "", "--group", "S3",
        "--workers", "3",
    )
    assert base[0] == 0 and multi[0] == 0
    assert base[1] == multi[1]
    assert "homomorphisms: 12" in base[1]
    assert "epimorphisms: 6" in base[1]


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

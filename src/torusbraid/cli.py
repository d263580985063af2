"""Command-line front end for the torus braid-pair toolkit.

Every subcommand reads braid words in the shared text grammar (signed
generator indices, ``s``-tokens, parenthesized powers, ``D`` for the
half twist, ``e`` for the empty word), prints deterministic text, and
offers ``--json`` for versioned machine-readable output.  In ``group --json``
the relators name generators by position: ``xk`` is the k-th entry of
``generators``, whereas the text form spells them with those names.  Exit
codes: 0 for a completed computation or ``--help``, 2 for a
``PreconditionError`` or a usage error that argparse reports, 3 for an
honest ``Unknown`` verdict, 141 when the reader of the output closes the
pipe early (as a shell reports a process killed by ``SIGPIPE``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .artin import format_free_word
from .braids import BraidWord, format_braid, parse_braid
from .errors import PreconditionError, SearchBudgetExceeded, read_int
from .movies import read_movie
from .presentations import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    finite_quotient_count,
    format_presentation,
    symmetric_group,
    tietze_eliminate,
    torus_abelianization,
    torus_covering_group,
)
from .quandles import cocycle_invariant, dihedral_quandle, torus_colorings
from .ribbon import RIBBON, read_witness, ribbon_verdict, write_witness
from .transforms import ChartData, h_membership, rho, tau

SCHEMA = "torusbraid.v1"

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_UNKNOWN = 3


# What a handler returns: exit code, JSON payload (tuples serialize as
# arrays), text lines.  ``main`` alone prints it.  A handler whose row reads
# the braid pair gets its two words, parsed, after the namespace.
Result = tuple[int, dict, list[str]]


def _fields(payload: dict, *keys: str) -> list[str]:
    """Text lines ``name: value`` for payload fields, ``_`` in a key read as a space."""
    return [f"{key.replace('_', ' ')}: {payload[key]}" for key in keys]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_group(args: argparse.Namespace, a: BraidWord, b: BraidWord) -> Result:
    p = torus_covering_group(a, b)
    if args.simplify:
        p = tietze_eliminate(p)
    payload = {
        "degree": args.degree,
        "generators": p.generators,
        "relators": [format_free_word(r) for r in p.relators],
    }
    return EXIT_OK, payload, [format_presentation(p)]


def _cmd_abelianization(args: argparse.Namespace, a: BraidWord, b: BraidWord) -> Result:
    inv = torus_abelianization(a, b, args.quotient_center)
    payload = {
        "degree": args.degree,
        "quotient_center": args.quotient_center,
        "rank": inv.rank,
        "torsion": inv.torsion,
    }
    return EXIT_OK, payload, [str(inv)]


def _parse_finite_group(name: str) -> FiniteGroup:
    tag = name.strip().upper()
    error = f"unrecognized group {name!r}; expected S<k>, D<k> or Z<k>"
    # an ASCII letter, then digits: upper() folds the long s 'ſ' to 'S'
    if not name.isascii() or tag[:1] not in ("S", "D", "Z") or tag[1:2] in ("+", "-"):
        raise PreconditionError(error)
    k = read_int(tag[1:], error)
    if tag[0] == "S":
        return symmetric_group(k)
    if tag[0] == "D":
        return dihedral_group(k)
    return cyclic_group(k)


def _cmd_quotients(args: argparse.Namespace, a: BraidWord, b: BraidWord) -> Result:
    group = _parse_finite_group(args.group)
    counts = finite_quotient_count(tietze_eliminate(torus_covering_group(a, b)), group)
    payload = {"degree": args.degree, "group": group.name, **asdict(counts)}
    lines = _fields(payload, "group", "homomorphisms", "epimorphisms", "abelian_image")
    return EXIT_OK, payload, lines


def _cmd_colorings(args: argparse.Namespace, a: BraidWord, b: BraidWord) -> Result:
    cols = torus_colorings(a, b, dihedral_quandle(args.quandle))
    payload = {
        "degree": args.degree,
        "quandle": args.quandle,
        "count": len(cols),
        "colorings": cols,
    }
    lines = [f"quandle: dihedral {args.quandle}", f"colorings: {len(cols)}"]
    lines.extend(" ".join(str(c) for c in v) for v in cols)
    return EXIT_OK, payload, lines


def _cmd_cocycle(args: argparse.Namespace, a: BraidWord, b: BraidWord) -> Result:
    movie = read_movie(args.movie) if args.movie else None
    phi = cocycle_invariant(a, b, movie=movie)
    payload = {"degree": args.degree, "coefficients": phi.coeffs}
    return EXIT_OK, payload, [str(phi), "coefficients: " + " ".join(map(str, phi.coeffs))]


def _cmd_ribbon(args: argparse.Namespace, a: BraidWord, b: BraidWord) -> Result:
    witness = read_witness(args.witness) if args.witness else None
    verdict = ribbon_verdict(a, b, args.block_size, args.block_count, witness)
    if verdict.status != RIBBON:
        payload = {"verdict": verdict.status, "reason": verdict.reason}
        return EXIT_UNKNOWN, payload, _fields(payload, "verdict", "reason")
    cd = verdict.certificate
    if args.save_witness:
        write_witness(cd, args.save_witness)
    cert = {
        "block_size": cd.block_size,
        "block_count": cd.block_count,
        "tubular": format_braid(cd.tubular),
        "interior": [format_braid(w) for w in cd.interior],
        "vertical": [format_braid(w) for w in cd.vertical],
    }
    checks = [{"status": c.status, "evidence": c.evidence} for c in verdict.cable_checks]
    payload = {"verdict": RIBBON, "certificate": cert, "cable_checks": checks}
    lines = [
        f"verdict: {RIBBON}",
        f"blocks: {cd.block_size} x {cd.block_count}",
        f"tubular: {cert['tubular']}",
    ]
    lines.extend(f"interior{j}: {w}" for j, w in enumerate(cert["interior"], 1))
    lines.extend(
        f"vertical{j}: {w} ({c['evidence']})"
        for j, (w, c) in enumerate(zip(cert["vertical"], checks), 1)
    )
    return EXIT_OK, payload, lines


def _cmd_transform(args: argparse.Namespace, a: BraidWord, b: BraidWord) -> Result:
    chart = ChartData(args.degree, a, b)
    out = rho(chart) if args.operation == "rho" else tau(chart)
    payload = {
        "operation": args.operation,
        "degree": out.degree,
        "a": format_braid(out.a),
        "b": format_braid(out.b),
    }
    return EXIT_OK, payload, _fields(payload, "degree", "a", "b")


def _cmd_h_member(args: argparse.Namespace) -> Result:
    entries = args.matrix.split()
    if len(entries) != 9:
        raise PreconditionError("--matrix expects 9 integers in row order")
    nums = [read_int(x, f"--matrix entries must be integers, got {x!r}") for x in entries]
    rows = tuple(tuple(nums[3 * i : 3 * i + 3]) for i in range(3))
    member = h_membership(rows)
    payload = {"matrix": rows, "member": member}
    return EXIT_OK, payload, ["member" if member else "non-member"]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _arg(*flags: str, **kwargs) -> tuple:
    """One ``add_argument`` call, made when a parser is built."""
    return flags, kwargs


_PAIR = [
    _arg("-m", "--degree", type=int, required=True, help="braid degree (number of strands)"),
    _arg("-a", required=True, metavar="WORD", help="vertical boundary braid word"),
    _arg("-b", required=True, metavar="WORD", help="horizontal boundary braid word"),
]
_JSON = [_arg("--json", action="store_true", help="machine-readable output (schema %s)" % SCHEMA)]

# One row per subcommand: name, handler, help, whether it reads the braid
# pair -m/-a/-b, and its own arguments.  A new subcommand is one row.  Rows
# hold the _cmd_* handlers, which look the library functions up when they run.
_COMMANDS = (
    ("group", _cmd_group, "link group presentation of the pair", True, [
        _arg("--simplify", action="store_true", help="eliminate redundant generators first")]),
    ("abelianization", _cmd_abelianization, "first homology of the link group", True, [
        _arg("--quotient-center", action="store_true",
             help="first quotient by the central half-twist power word")]),
    ("quotients", _cmd_quotients, "count homomorphisms onto a finite group", True, [
        _arg("--group", required=True, metavar="NAME", help="target group: S<k>, D<k> or Z<k>")]),
    ("colorings", _cmd_colorings, "quandle colorings fixed by both braids", True, [
        _arg("--quandle", type=int, default=3, metavar="P",
             help="dihedral quandle order (default 3)")]),
    ("cocycle", _cmd_cocycle, "cocycle state sum over three-element colorings", True, [
        _arg("--movie", metavar="FILE", help="movie file to use instead of generating one")]),
    ("ribbon", _cmd_ribbon, "ribbon certificate via cable decomposition", True, [
        _arg("--block-size", type=int, required=True, metavar="N", help="strands per cable"),
        _arg("--block-count", type=int, required=True, metavar="M",
             help="number of cables (degree = N*M)"),
        _arg("--witness", metavar="FILE",
             help="supply a cabling witness instead of reading one off"),
        _arg("--save-witness", metavar="FILE", help="write the verified certificate to FILE")]),
    ("transform", _cmd_transform, "rotate or shear the pair", True, [
        _arg("operation", choices=("rho", "tau"), help="rho: quarter turn; tau: shear b by a")]),
    ("h-member", _cmd_h_member, "framed basis-change subgroup membership", False, [
        _arg("--matrix", required=True, metavar="'9 INTS'",
             help="3x3 integer matrix, row-major, space separated")]),
)


def _parser(commands) -> argparse.ArgumentParser:
    """The ``torusbraid`` parser with a subparser for each given row."""
    parser = argparse.ArgumentParser(
        prog="torusbraid",
        description=(
            "Invariants of surface links braided over the torus, presented "
            "by a pair of commuting braids.  The toolkit computes link-group "
            "presentations, abelianizations, finite-quotient counts, quandle "
            "colorings, cocycle state sums, ribbon certificates and chart "
            "transforms; it does not decide link equivalence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, takes_pair, arguments in commands:
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in (_PAIR if takes_pair else []) + _JSON + arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand, as ``torusbraid --help`` shows it."""
    return _parser(_COMMANDS)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Build only the named subcommand's parser.  Its errors read as the full
    # parser's, save "unrecognized arguments": that usage line lists every
    # subcommand, so that parse is repeated on the full parser.
    rows = [row for row in _COMMANDS if argv[:1] == [row[0]]] or _COMMANDS
    args, rest = _parser(rows).parse_known_args(argv)
    if rest:
        build_parser().parse_args(argv)
    try:
        words = [parse_braid(w, args.degree) for w in (args.a, args.b)] if "a" in args else []
        code, payload, lines = args.func(args, *words)
        if args.json:
            doc = {"schema": SCHEMA, "command": args.command, **payload}
            lines = [json.dumps(doc, sort_keys=True)]
        for line in lines:
            print(line)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nobody reads the rest; send it to devnull so that the flush at
        # interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports it
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SearchBudgetExceeded as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())

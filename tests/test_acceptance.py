"""Acceptance gate: one test per headline requirement of the toolkit.

Each test prints a single ``ACCEPTANCE <n> PASS`` line on success so the
suite's transcript doubles as a checklist.  Runtime bounds are asserted
where the requirement pins one.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from torusbraid.artin import (
    artin_apply,
    boundary_word,
    free_reduce,
    free_word,
    generator,
)
from torusbraid.braids import (
    BraidWord,
    braids_equal,
    cable_lift,
    closure_components,
    garside_delta,
    normal_form,
    word,
)
from torusbraid.movies import mirror_chart, read_movie, slide_movie
from torusbraid.presentations import (
    abelianization,
    add_relator,
    central_twist_relator,
    tietze_eliminate,
    torus_covering_group,
)
from torusbraid.quandles import (
    cocycle_invariant,
    dihedral_quandle,
    mochizuki_theta,
    torus_colorings,
    triple_points,
)
from torusbraid.ribbon import (
    alexander_polynomial,
    read_witness,
    ribbon_verdict,
    verify_decomposition,
    write_witness,
)

from oracles import at_coloring, boltzmann_exponent, parse_free_word

DATA = Path(__file__).resolve().parent / "data"

A4 = word(4, [1, 2, 2, 2, 3])
B4 = word(4, [1, 2, 3]) ** 4


def test_criterion_01_cocycle_state_sum():
    start = time.perf_counter()
    phi = cocycle_invariant(A4, B4)
    elapsed = time.perf_counter() - start
    assert phi.coeffs == (3, 0, 6)
    assert str(phi) == "3 + 6t^2"
    assert elapsed < 5.0
    print("ACCEPTANCE 1 PASS: cocycle state sum is exactly 3 + 6t^2 "
          f"({elapsed:.2f}s)")


def test_criterion_02_mirror_state_sum():
    ma, mb = mirror_chart(A4, B4)
    phi = cocycle_invariant(ma, mb)
    assert phi.coeffs == (3, 6, 0)
    assert str(phi) == "3 + 6t"
    print("ACCEPTANCE 2 PASS: mirror state sum is exactly 3 + 6t")


def test_criterion_03_coloring_census():
    q = dihedral_quandle(3)
    cols = torus_colorings(A4, B4, q)
    assert len(cols) == 9
    points = triple_points(slide_movie(A4, B4), cols, q)
    distinct, constant = 0, 0
    for t, c in enumerate(cols):
        sheet_colors = set(c)
        for tp in points:  # colors[s][t]: sheet s under coloring t
            sheet_colors.update(x[t] for x in tp.colors)
        if len(set(c)) == 1:
            constant += 1
            assert sheet_colors == set(c)
        else:
            distinct += 1
            assert sheet_colors == {0, 1, 2}
    assert (distinct, constant) == (6, 3)
    print("ACCEPTANCE 3 PASS: 9 colorings; 6 use three sheet colors, "
          "3 are constant")


def test_criterion_04_triple_point_fixture():
    movie = slide_movie(A4, B4)
    assert movie.r3_count() == 12
    q = dihedral_quandle(3)
    a, b, c = 0, 1, 2  # the distinct coloring, base vector (a, a, c, c)
    pts = at_coloring(triple_points(movie, [(a, a, c, c)], q))
    assert len(pts) == 12
    exponent = boltzmann_exponent(pts)
    assert exponent == 2
    product = (
        mochizuki_theta(c, b, c)
        - mochizuki_theta(a, c, b)
        - mochizuki_theta(b, c, b)
        + mochizuki_theta(b, c, a)
    ) % 3
    assert exponent == product
    print("ACCEPTANCE 4 PASS: 12 triple points reduce to exponent 2, "
          "matching the four-factor weight product")


def _center_quotient_invariants(k: int):
    a = word(4, [1, 3])
    b = garside_delta(4) ** k
    p = torus_covering_group(a, b)
    p = add_relator(p, central_twist_relator(p, b))
    p = tietze_eliminate(p)
    return abelianization(p)


def test_criterion_05_even_family_abelianization():
    for n in range(1, 6):
        start = time.perf_counter()
        inv = _center_quotient_invariants(2 * n)
        elapsed = time.perf_counter() - start
        assert inv.rank == 1, f"n={n}: rank {inv.rank}"
        assert inv.torsion == (2 * n,), f"n={n}: torsion {inv.torsion}"
        assert elapsed < 10.0
    print("ACCEPTANCE 5 PASS: even-twist center quotients abelianize to "
          "Z + Z/2n for n=1..5")


def test_criterion_06_odd_family_abelianization():
    for n in range(1, 6):
        inv = _center_quotient_invariants(2 * n + 1)
        assert inv.rank == 0, f"n={n}: rank {inv.rank}"
        assert inv.torsion == (4 * (2 * n + 1),), f"n={n}: torsion {inv.torsion}"
    print("ACCEPTANCE 6 PASS: odd-twist quotients abelianize to Z/4(2n+1) "
          "for n=1..5")


def test_criterion_07_half_twist_conjugation_relations():
    rank = 4
    w_full = boundary_word(rank)
    odd_images = {
        1: "x1 x2 x3 x4 x3^-1 x2^-1 x1^-1",
        2: "x1 x2 x3 x2^-1 x1^-1",
        3: "x1 x2 x1^-1",
        4: "x1",
    }
    for n in (1, 2, 3):
        even = garside_delta(rank) ** (2 * n)
        odd = garside_delta(rank) ** (2 * n + 1)
        wn = w_full**n
        for j in range(1, rank + 1):
            xj = generator(rank, j)
            got = free_reduce(artin_apply(even, xj))
            expect = free_reduce(wn * xj * wn.inverse())
            assert got == expect, f"even twist n={n}, generator {j}"
            got = free_reduce(artin_apply(odd, xj))
            core = parse_free_word(odd_images[j], rank)
            expect = free_reduce(wn * core * wn.inverse())
            assert got == expect, f"odd twist n={n}, generator {j}"
    print("ACCEPTANCE 7 PASS: half-twist powers act by the eight displayed "
          "conjugation relations for n=1..3")


def test_criterion_08_ribbon_certificates(tmp_path):
    a = word(4, [1, 3])
    for k in (2, 3, 4, 5, 6, 7):
        b = garside_delta(4) ** k
        v = ribbon_verdict(a, b, 2, 2)
        assert v.status == "Ribbon", f"k={k}: {v.status}"
        path = str(tmp_path / f"witness{k}.txt")
        write_witness(v.certificate, path)
        assert verify_decomposition(a, b, read_witness(path))
    v = ribbon_verdict(a, garside_delta(4) ** 2, 2, 2)
    cd = v.certificate
    assert cd.tubular == word(2, [1, 1])
    assert cd.interior == (word(2, [1, 1]), word(2, [1, 1]))
    assert cd.vertical == (word(2, [1]), word(2, [1]))
    assert braids_equal(cable_lift(cd.tubular, 2), word(4, [2, 1, 3, 2, 2, 1, 3, 2]))
    print("ACCEPTANCE 8 PASS: ribbon certificates for six twist powers, "
          "with the two-cable witness recovered at n=1")


def _random_braid(rng: random.Random, degree: int, length: int) -> BraidWord:
    return word(
        degree,
        [rng.choice([1, -1]) * rng.randint(1, degree - 1) for _ in range(length)],
    )


def test_criterion_09_property_suites():
    rng = random.Random(90125)

    # Artin action: invertible, fixes the boundary word (1000 braids)
    for _ in range(1000):
        deg = rng.randint(2, 5)
        beta = _random_braid(rng, deg, rng.randint(1, 6))
        w = free_word(
            deg, [rng.choice([1, -1]) * rng.randint(1, deg) for _ in range(4)]
        )
        round_trip = artin_apply(beta.inverse(), artin_apply(beta, w))
        assert round_trip == free_reduce(w)
        assert artin_apply(beta, boundary_word(deg)) == boundary_word(deg)

    # quandle axioms, exhaustively checked for three dihedral orders
    for p in (3, 5, 7):
        q, xs = dihedral_quandle(p), range(p)
        assert all(q.op(x, x) == x for x in xs)
        assert all(sorted(q.op(x, y) for x in xs) == list(xs) for y in xs)
        assert all(q.op(q.op(x, y), z) == q.op(q.op(x, z), q.op(y, z))
                   for x in xs for y in xs for z in xs)

    # normal form is constant on 1000 random defining-relation insertions
    for _ in range(1000):
        deg = rng.randint(3, 5)
        base = _random_braid(rng, deg, rng.randint(0, 7))
        pos = rng.randint(0, len(base.letters))
        kind = rng.randrange(3)
        if kind == 0:
            i = rng.randint(1, deg - 1)
            ins = [(i, 1), (i, -1)] if rng.random() < 0.5 else [(i, -1), (i, 1)]
        elif kind == 1:
            i = rng.randint(1, deg - 2)
            s = rng.choice([1, -1])
            ins = [(i, s), (i + 1, s), (i, s), (i + 1, -s), (i, -s), (i + 1, -s)]
        else:
            choices = [
                (i, j)
                for i in range(1, deg - 1)
                for j in range(i + 2, deg)
            ]
            if not choices:
                continue
            i, j = rng.choice(choices)
            s, u = rng.choice([1, -1]), rng.choice([1, -1])
            ins = [(i, s), (j, u), (j, -u), (i, -s)]
        changed = BraidWord(
            deg, base.letters[:pos] + tuple(ins) + base.letters[pos:]
        )
        assert normal_form(changed) == normal_form(base)

    # Alexander polynomial is a Markov-move invariant (200 cases)
    done = 0
    while done < 200:
        deg = rng.randint(2, 4)
        w = _random_braid(rng, deg, rng.randint(1, 7))
        if closure_components(w) != 1:
            continue
        base = alexander_polynomial(w)
        g = _random_braid(rng, deg, 1)
        assert alexander_polynomial(g * w * g.inverse()) == base
        stab = BraidWord(deg + 1, w.letters + ((deg, rng.choice([1, -1])),))
        assert alexander_polynomial(stab) == base
        done += 1

    # state sum agrees between the generated movie and the stored fixture
    fixture = read_movie(str(DATA / "acceptance_movie.txt"))
    assert cocycle_invariant(A4, B4, movie=fixture) == cocycle_invariant(A4, B4)

    print("ACCEPTANCE 9 PASS: action, quandle, normal-form, Alexander and "
          "movie-independence property suites all green")


def test_criterion_10_scope_boundary_is_documented():
    from torusbraid.cli import build_parser

    help_text = " ".join(build_parser().format_help().split())
    assert "does not decide link equivalence" in help_text
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    assert "does not decide link equivalence" in " ".join(readme.split())
    print("ACCEPTANCE 10 PASS: equivalence questions are documented as out "
          "of scope in the CLI help and README")

"""Dihedral quandles, colorings, and the 3-cocycle state sum."""

from __future__ import annotations

import itertools
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbraid.braids import BraidWord, garside_delta, word
from torusbraid.errors import PreconditionError
from torusbraid.movies import (
    R3,
    CancelPair,
    InsertPair,
    apply_step,
    read_movie,
    slide_movie,
)
from torusbraid.quandles import (
    GroupRingElement,
    Quandle,
    TriplePoint,
    boltzmann_exponent,
    braid_monodromy,
    check_quandle,
    cocycle_invariant,
    dihedral_quandle,
    mirror_chart,
    mochizuki_theta,
    torus_colorings,
    triple_points,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "acceptance_movie.txt")

ACCEPT_A = word(4, [1, 2, 2, 2, 3])
ACCEPT_B = word(4, [1, 2, 3]) ** 4

# Triple points of the generated movie for the coloring (0, 0, 2, 2), in
# temporal order: sign and sheet colors bottom to top at each move.
EXPECTED_TRIPLES = (
    (-1, (0, 2, 2)),
    (-1, (0, 2, 2)),
    (1, (2, 2, 0)),
    (1, (1, 1, 0)),
    (-1, (0, 1, 0)),
    (1, (0, 2, 2)),
    (1, (1, 2, 0)),
    (-1, (1, 1, 0)),
    (-1, (0, 2, 1)),
    (1, (1, 0, 2)),
    (1, (0, 1, 0)),
    (-1, (1, 2, 1)),
    (-1, (0, 0, 2)),
    (1, (2, 1, 2)),
    (1, (2, 0, 0)),
    (-1, (1, 0, 2)),
    (1, (0, 0, 2)),
    (1, (1, 1, 2)),
    (-1, (2, 0, 0)),
    (-1, (2, 0, 0)),
)


def test_dihedral_axioms():
    for p in (2, 3, 5, 7, 9):
        check_quandle(dihedral_quandle(p))  # raises on any axiom violation


def test_check_quandle_rejects_broken_table():
    # constant rows break idempotency except on the fixed element
    broken = Quandle(3, ((0, 0, 0), (0, 0, 0), (0, 0, 0)), "broken")
    with pytest.raises(PreconditionError):
        check_quandle(broken)


def test_right_division_table_matches_column_scan():
    for p in range(2, 10):
        q = dihedral_quandle(p)
        for x in range(p):
            for y in range(p):
                assert q.op_inv(x, y) == [q.op(z, y) for z in range(p)].index(x)


def test_dihedral_operation_values():
    q = dihedral_quandle(3)
    assert q.op(0, 1) == 2  # 2*1 - 0 mod 3
    assert q.op(2, 2) == 2
    assert q.op_inv(q.op(1, 2), 2) == 1


def test_monodromy_positive_and_negative():
    q = dihedral_quandle(3)
    # (u, v) -> (v, u * v) under a positive crossing
    assert braid_monodromy(word(2, [1]), q, (0, 1)) == (1, 2)
    # and the negative crossing undoes it
    assert braid_monodromy(word(2, [-1]), q, (1, 2)) == (0, 1)


def test_coloring_census_frozen():
    q = dihedral_quandle(3)
    cols = torus_colorings(ACCEPT_A, ACCEPT_B, q)
    assert cols == [
        (0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 2, 2),
        (1, 1, 0, 0), (1, 1, 1, 1), (1, 1, 2, 2),
        (2, 2, 0, 0), (2, 2, 1, 1), (2, 2, 2, 2),
    ]
    constant = [v for v in cols if len(set(v)) == 1]
    assert len(constant) == 3 and len(cols) == 9


def test_coloring_requires_matching_degrees():
    q = dihedral_quandle(3)
    with pytest.raises(PreconditionError):
        torus_colorings(word(2, [1]), word(3, [1]), q)


def test_coloring_requires_a_commuting_pair():
    # (s1, s2) has colorings fixed by both, but defines no link
    with pytest.raises(PreconditionError, match="do not commute"):
        torus_colorings(word(3, [1]), word(3, [2]), dihedral_quandle(3))


def test_mochizuki_values():
    assert mochizuki_theta(2, 1, 2) == 1
    assert mochizuki_theta(1, 2, 0) == 0
    assert mochizuki_theta(0, 2, 1) == 1
    assert mochizuki_theta(1, 2, 1) == 1
    assert mochizuki_theta(0, 0, 0) == 0
    # degenerate whenever two adjacent arguments agree
    for x in range(3):
        for y in range(3):
            assert mochizuki_theta(x, x, y) == 0
            assert mochizuki_theta(x, y, y) == 0


def test_group_ring_algebra():
    one = GroupRingElement.monomial(0)
    t = GroupRingElement.monomial(1)
    s = one + t + t
    assert s.coeffs == (1, 2, 0)
    assert str(s) == "1 + 2t"
    assert s.conjugate().coeffs == (1, 0, 2)
    assert GroupRingElement.zero().coeffs == (0, 0, 0)
    assert GroupRingElement.monomial(5).coeffs == (0, 0, 1)  # exponents mod 3


def test_triple_points_frozen_sequence():
    q = dihedral_quandle(3)
    movie = slide_movie(ACCEPT_A, ACCEPT_B)
    tps = triple_points(movie, (0, 0, 2, 2), q)
    assert tuple((tp.sign, tp.colors) for tp in tps) == EXPECTED_TRIPLES


def test_boltzmann_exponent_distinguished_coloring():
    q = dihedral_quandle(3)
    movie = slide_movie(ACCEPT_A, ACCEPT_B)
    assert boltzmann_exponent(triple_points(movie, (0, 0, 2, 2), q)) == 2


def test_constant_colorings_contribute_zero():
    q = dihedral_quandle(3)
    movie = slide_movie(ACCEPT_A, ACCEPT_B)
    for c in range(3):
        tps = triple_points(movie, (c, c, c, c), q)
        assert boltzmann_exponent(tps) == 0


def test_cocycle_invariant_value():
    phi = cocycle_invariant(ACCEPT_A, ACCEPT_B)
    assert phi.coeffs == (3, 0, 6)
    assert str(phi) == "3 + 6t^2"


def test_cocycle_invariant_mirror():
    am, bm = mirror_chart(ACCEPT_A, ACCEPT_B)
    phi = cocycle_invariant(am, bm)
    assert phi.coeffs == (3, 6, 0)
    assert str(phi) == "3 + 6t"


def test_mirror_is_conjugate_elsewhere():
    pairs = [
        (word(3, [1]), word(3, [1, 2]) ** 3),
        (word(3, [1, 2]), word(3, [1, 2]) ** 3),
    ]
    for a, b in pairs:
        phi = cocycle_invariant(a, b)
        am, bm = mirror_chart(a, b)
        assert cocycle_invariant(am, bm) == phi.conjugate()


def test_cocycle_with_supplied_movie_matches():
    fixture = read_movie(FIXTURE)
    assert cocycle_invariant(ACCEPT_A, ACCEPT_B, movie=fixture).coeffs == (3, 0, 6)


def test_cocycle_rejects_foreign_movie():
    fixture = read_movie(FIXTURE)
    other = word(4, [1, 3])
    with pytest.raises(PreconditionError):
        cocycle_invariant(other, ACCEPT_B, movie=fixture)


def test_mirror_chart_letters():
    am, bm = mirror_chart(word(2, [1, 1]), word(2, [-1]))
    assert am == word(2, [-1, -1])
    assert bm == word(2, [1])


def test_negative_window_triples_cancel_in_pairs():
    """A negative R3 followed by its reverse contributes zero in total."""
    q = dihedral_quandle(3)
    am, bm = mirror_chart(ACCEPT_A, ACCEPT_B)
    movie = slide_movie(am, bm)
    for coloring in torus_colorings(am, bm, q):
        tps = triple_points(movie, coloring, q)
        assert len(tps) == 20
        total = boltzmann_exponent(tps)
        assert 0 <= total < 3


# ---------------------------------------------------------------------------
# the replaced brute-force paths, kept as oracles
# ---------------------------------------------------------------------------


def exhaustive_colorings(a, b, q):
    """Every vector of X^m fixed by both braid actions, in product order."""
    return [
        colors
        for colors in itertools.product(range(q.size), repeat=a.degree)
        if braid_monodromy(a, q, colors) == colors == braid_monodromy(b, q, colors)
    ]


def replayed_triple_points(movie, coloring, q):
    """Triple points with the coloring pushed through the whole prefix at
    every R3 step."""
    letters = list(movie.start_word)
    out = []
    for idx, step in enumerate(movie.steps):
        if isinstance(step, R3):
            prefix = BraidWord(movie.degree, tuple(letters[: step.pos]))
            cols = braid_monodromy(prefix, q, coloring)
            (i, s), (j, _) = letters[step.pos], letters[step.pos + 1]
            lo = min(i, j)
            if s > 0:
                tp = TriplePoint(step.sign, (cols[lo - 1], cols[lo], cols[lo + 1]))
            else:
                window = BraidWord(movie.degree, tuple(letters[step.pos : step.pos + 3]))
                after = braid_monodromy(window, q, cols)
                tp = TriplePoint(-step.sign, (after[lo - 1], after[lo], after[lo + 1]))
            out.append(tp)
        apply_step(letters, step, idx)
    return out


# ---------------------------------------------------------------------------
# colorings as a kernel mod p
# ---------------------------------------------------------------------------


def _random_letters(rng, m, n):
    return [rng.randrange(1, m) * rng.choice((1, -1)) for _ in range(n)] if m > 1 else []


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.just(m),
    # p^m stays small enough for the exhaustive oracle
    st.integers(2, max(k for k in range(2, 13) if k**m <= 5000 or k == 2)),
    st.lists(st.integers(1, max(m - 1, 1)).flatmap(lambda i: st.sampled_from([i, -i])),
             max_size=8 if m > 1 else 0),
    st.integers(-2, 3),
    st.booleans(),
)))
def test_colorings_match_exhaustive_oracle_property(case):
    m, p, letters, k, with_twist = case
    w = word(m, letters)
    b = garside_delta(m) ** 2 if with_twist else w ** k
    q = dihedral_quandle(p)
    assert torus_colorings(w, b, q) == exhaustive_colorings(w, b, q)


@pytest.mark.parametrize("p", [4, 6, 8, 9, 12])
def test_colorings_match_oracle_for_composite_p(p):
    rng = random.Random(p)
    q = dihedral_quandle(p)
    pairs = [(ACCEPT_A, ACCEPT_B), (word(4, [1, -3]), garside_delta(4) ** 2)]
    for m in (2, 3):
        w = word(m, _random_letters(rng, m, 6))
        pairs += [(w, w ** 2), (w, garside_delta(m) ** 2)]
    for a, b in pairs:
        assert torus_colorings(a, b, q) == exhaustive_colorings(a, b, q)


@pytest.mark.parametrize("letters, p", [([-2, 3], 5), ([-1, 2, 1, -1, -1, -1], 9)])
def test_colorings_with_divisors_not_dividing_p(letters, p):
    # Smith divisors 1, 1, 3, 15 (p = 5) and 1, 1, 6, 18 (p = 9): each d_t
    # gives gcd(d_t, p) choices of w_t, not min(d_t, p)
    a, b, q = word(4, letters), garside_delta(4) ** 2, dihedral_quandle(p)
    assert torus_colorings(a, b, q) == exhaustive_colorings(a, b, q)


def test_colorings_refuse_a_non_dihedral_quandle():
    trivial = Quandle(3, tuple(tuple(x for _ in range(3)) for x in range(3)), "T3")
    check_quandle(trivial)  # x * y = x is a quandle
    with pytest.raises(PreconditionError, match="not dihedral"):
        torus_colorings(ACCEPT_A, ACCEPT_B, trivial)


# ---------------------------------------------------------------------------
# triple points replayed incrementally
# ---------------------------------------------------------------------------


def _movie_pairs():
    rng = random.Random(7)
    pairs = [(ACCEPT_A, ACCEPT_B)]
    for k in (1, 2, 3):  # half-twist pairs, as in census
        pairs.append((word(4, [1, 3]), garside_delta(4) ** k))
    for m, k in ((5, 1), (6, 1), (5, 2)):  # delta pairs, as in invariants
        pairs.append((word(m, [rng.randrange(1, m) for _ in range(4)]),
                      word(m, list(range(1, m))) ** (m * k)))
    return pairs + [mirror_chart(a, b) for a, b in pairs]


@pytest.mark.parametrize("a, b", _movie_pairs())
def test_triple_points_match_prefix_replay(a, b):
    q = dihedral_quandle(3)
    movie = slide_movie(a, b)
    for coloring in torus_colorings(a, b, q):
        assert triple_points(movie, coloring, q) == replayed_triple_points(movie, coloring, q)


def test_triple_points_replay_insertions_and_cancellations():
    q = dihedral_quandle(3)
    for a, b in ((word(4, [1, 3]), garside_delta(4) ** 2),
                 (word(4, [-1, -3]), garside_delta(4) ** -2)):
        movie = slide_movie(a, b)
        kinds = {type(step) for step in movie.steps}
        assert {InsertPair, CancelPair, R3} <= kinds
        for coloring in itertools.product(range(3), repeat=4):  # colorings or not
            assert triple_points(movie, coloring, q) == replayed_triple_points(movie, coloring, q)

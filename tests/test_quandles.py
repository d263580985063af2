"""Dihedral quandles, colorings, and the 3-cocycle state sum."""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusbraid.braids
import torusbraid.movies
import torusbraid.quandles
from torusbraid.braids import BraidWord, garside_delta, word
from torusbraid.errors import PreconditionError
from torusbraid.movies import (
    R3,
    CancelPair,
    ChartMovie,
    InsertPair,
    apply_step,
    mirror_chart,
    read_movie,
    slide_movie,
    validate_movie,
)
from torusbraid.quandles import (
    GroupRingElement,
    TriplePoint,
    _coloring_generators,
    cocycle_invariant,
    dihedral_quandle,
    mochizuki_theta,
    torus_colorings,
    triple_points,
)

from oracles import (
    at_coloring,
    boltzmann_exponent,
    braid_monodromy,
    per_coloring_triple_points,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "acceptance_movie.txt")

ACCEPT_A = word(4, [1, 2, 2, 2, 3])
ACCEPT_B = word(4, [1, 2, 3]) ** 4

# Triple points of the generated movie for the coloring (0, 0, 2, 2), in
# temporal order: sign and sheet colors bottom to top at each move.
EXPECTED_TRIPLES = (
    (1, (0, 0, 2)),
    (1, (1, 0, 2)),
    (1, (2, 1, 2)),
    (-1, (1, 0, 1)),
    (-1, (1, 2, 0)),
    (-1, (0, 2, 2)),
    (1, (2, 2, 0)),
    (1, (1, 2, 0)),
    (1, (0, 1, 0)),
    (-1, (1, 2, 1)),
    (-1, (1, 0, 2)),
    (-1, (2, 0, 0)),
)


def assert_quandle_axioms(q):
    """Idempotent, right-invertible and self-distributive, checked exhaustively."""
    xs = range(q.size)
    assert all(q.op(x, x) == x for x in xs)
    assert all(sorted(q.op(x, y) for x in xs) == list(xs) for y in xs)
    assert all(q.op(q.op(x, y), z) == q.op(q.op(x, z), q.op(y, z))
               for x in xs for y in xs for z in xs)


def test_dihedral_axioms():
    for p in (2, 3, 5, 7, 9):
        assert_quandle_axioms(dihedral_quandle(p))


def test_dihedral_operation_is_its_own_right_division():
    # so a negative crossing pushes colors with the operation too
    for p in range(2, 10):
        q = dihedral_quandle(p)
        assert all(q.op(q.op(x, y), y) == x for x in range(p) for y in range(p))


def test_dihedral_quandle_needs_p_at_least_2():
    for p in (-1, 0, 1):
        with pytest.raises(PreconditionError, match="p >= 2"):
            dihedral_quandle(p)


def test_dihedral_operation_values():
    q = dihedral_quandle(3)
    assert q.op(0, 1) == 2  # 2*1 - 0 mod 3
    assert q.op(2, 2) == 2


def test_monodromy_positive_and_negative():
    q = dihedral_quandle(3)
    # (u, v) -> (v, u * v) under a positive crossing
    assert braid_monodromy(word(2, [1]), q, (0, 1)) == (1, 2)
    # and the negative crossing undoes it
    assert braid_monodromy(word(2, [-1]), q, (1, 2)) == (0, 1)
    # (u, v) -> (v * u, u) = (2u - v, u); R_3 cannot tell it from (u * v, u)
    assert braid_monodromy(word(2, [-1]), dihedral_quandle(5), (1, 2)) == (0, 1)
    for p in range(2, 10):
        q = dihedral_quandle(p)
        for c in itertools.product(range(p), repeat=2):
            assert braid_monodromy(word(2, [1, -1]), q, c) == c
            assert braid_monodromy(word(2, [-1, 1]), q, c) == c


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
    tps = at_coloring(triple_points(movie, [(0, 0, 2, 2)], q))
    assert tuple((tp.sign, tp.colors) for tp in tps) == EXPECTED_TRIPLES


def test_boltzmann_exponent_distinguished_coloring():
    q = dihedral_quandle(3)
    movie = slide_movie(ACCEPT_A, ACCEPT_B)
    assert boltzmann_exponent(at_coloring(triple_points(movie, [(0, 0, 2, 2)], q))) == 2


def test_constant_colorings_contribute_zero():
    q = dihedral_quandle(3)
    movie = slide_movie(ACCEPT_A, ACCEPT_B)
    tps = triple_points(movie, [(c, c, c, c) for c in range(3)], q)
    for c in range(3):
        assert boltzmann_exponent(at_coloring(tps, c)) == 0


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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a negative-window triple point enters the sum with the opposite of its "
    "step's sign, so a closed loop of one negative and one positive R3 move "
    "adds its two points instead of cancelling them"))
def test_state_sum_ignores_a_closed_loop_of_both_signs():
    # insert Delta_3^-1 Delta_3, one R3 in each half, cancel back: the loop
    # is a valid movie from a word to itself, and must add nothing to the sum
    a, b = word(4, [1, 3, 1, 1, 3, 3]), word(4, [1, 2, 3]) ** 4
    movie = slide_movie(a, b)
    loop = (InsertPair(0, 1, -1), InsertPair(1, 2, -1), InsertPair(2, 1, -1),
            R3(0, -1), R3(3, 1), CancelPair(2), CancelPair(1), CancelPair(0))
    looped = replace(movie, steps=loop + movie.steps)
    assert cocycle_invariant(a, b, movie=looped) == cocycle_invariant(a, b, movie=movie)


def _count_calls(monkeypatch, name, modules):
    """Count the calls of ``name`` made through the given modules."""
    calls = []
    original = getattr(modules[0], name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("a, b", [
    (ACCEPT_A, ACCEPT_B),
    mirror_chart(ACCEPT_A, ACCEPT_B),
    (word(4, [3, 2]), word(4, [3, 2, 1]) ** 4),  # b reversed is delta^4
])
def test_cocycle_checks_the_pair_and_validates_the_movie_once(monkeypatch, a, b):
    # each step is checked once, as the movie is made, and replayed once
    steps = len(slide_movie(a, b).steps)
    commutes = _count_calls(monkeypatch, "commute_check", [torusbraid.braids])
    checked = _count_calls(monkeypatch, "apply_step", [torusbraid.movies])
    replayed = _count_calls(monkeypatch, "apply_step", [torusbraid.quandles])
    cocycle_invariant(a, b)
    assert (len(commutes), len(checked), len(replayed)) == (1, steps, steps)


@pytest.mark.parametrize("a, b, colorings, generators", [
    (ACCEPT_A, ACCEPT_B, 9, 2),
    (word(8, [1, 3, 5, 7]), word(8, list(range(1, 8))) ** 8, 81, 4),
])
def test_cocycle_replays_the_movie_once_per_generator(monkeypatch, a, b, colorings, generators):
    # one replay carries every generator of the colorings
    assert len(torus_colorings(a, b, dihedral_quandle(3))) == colorings
    calls = _count_calls(monkeypatch, "triple_points", [torusbraid.quandles])
    cocycle_invariant(a, b)
    assert [len(colorings) for _, colorings, _ in calls] == [generators]


def test_cocycle_with_supplied_movie_matches(monkeypatch):
    fixture = read_movie(FIXTURE)
    commutes = _count_calls(monkeypatch, "commute_check", [torusbraid.braids])
    validations = _count_calls(monkeypatch, "validate_movie",
                               [torusbraid.movies, torusbraid.quandles])
    assert cocycle_invariant(ACCEPT_A, ACCEPT_B, movie=fixture).coeffs == (3, 0, 6)
    # the valid movie proves ab = ba, so the pair is not checked again
    assert (len(commutes), len(validations)) == (0, 1)


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
    colorings = torus_colorings(am, bm, q)
    tps = triple_points(movie, colorings, q)
    assert len(tps) == 12
    for t in range(len(colorings)):
        total = boltzmann_exponent(at_coloring(tps, t))
        assert 0 <= total < 3


# ---------------------------------------------------------------------------
# the replaced brute-force paths, kept as oracles
# ---------------------------------------------------------------------------


def per_coloring_state_sum(a, b, movie):
    """The state sum with the movie replayed once for every coloring."""
    q = dihedral_quandle(3)
    total = GroupRingElement.zero()
    for coloring in torus_colorings(a, b, q):
        total = total + GroupRingElement.monomial(
            boltzmann_exponent(per_coloring_triple_points(movie, coloring, q)))
    return total


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
    colorings = torus_colorings(a, b, q)
    points = triple_points(movie, colorings, q)
    for t, coloring in enumerate(colorings):
        assert at_coloring(points, t) == replayed_triple_points(movie, coloring, q)


def test_triple_points_replay_insertions_and_cancellations():
    # generated movies insert and cancel nothing, so the hand-written
    # acceptance movie and its mirror drive those branches
    q = dihedral_quandle(3)
    movie = read_movie(FIXTURE)
    mirror = ChartMovie(*mirror_chart(movie.braid_a, movie.braid_b), tuple(
        replace(st, sign=-st.sign) if isinstance(st, (R3, InsertPair)) else st
        for st in movie.steps))
    for movie in (movie, mirror):
        validate_movie(movie)
        kinds = [type(step) for step in movie.steps]
        assert kinds.count(InsertPair) == kinds.count(CancelPair) == 4
        vectors = list(itertools.product(range(3), repeat=4))  # colorings or not
        points = triple_points(movie, vectors, q)
        for t, vector in enumerate(vectors):
            assert at_coloring(points, t) == replayed_triple_points(movie, vector, q)


# ---------------------------------------------------------------------------
# state sums by linearity, against one replay per coloring
# ---------------------------------------------------------------------------


def _state_sum_pairs():
    rng = random.Random(13)
    pairs = [(ACCEPT_A, ACCEPT_B)]
    pairs += [(word(4, [1, 3]), garside_delta(4) ** k) for k in range(1, 7)]
    for m in (5, 6, 7, 8):  # delta pairs, as in invariants
        for k in (1, 2):
            pairs += [(word(m, [rng.randrange(1, m) for _ in range(4)]),
                       word(m, list(range(1, m))) ** (m * k)) for _ in range(2)]
    # state sums that are not constant, over three to five generators
    for m, k, a in ((4, 1, [1, 3, 1, 1, 3, 3]), (5, 2, [1, 3, 1, 4, 3, 3]),
                    (7, 2, [5, 3, 1, 1, 3, 3])):
        pairs.append((word(m, a), word(m, list(range(1, m))) ** (m * k)))
    return pairs + [mirror_chart(a, b) for a, b in pairs]


@pytest.mark.parametrize("a, b", _state_sum_pairs())
def test_state_sum_matches_per_coloring_replay(a, b):
    movie = slide_movie(a, b)
    assert cocycle_invariant(a, b) == per_coloring_state_sum(a, b, movie)


def test_state_sum_of_supplied_movie_matches_per_coloring_replay():
    fixture = read_movie(FIXTURE)
    phi = cocycle_invariant(ACCEPT_A, ACCEPT_B, movie=fixture)
    assert phi == per_coloring_state_sum(ACCEPT_A, ACCEPT_B, fixture)
    assert str(phi) == "3 + 6t^2"


# ---------------------------------------------------------------------------
# one replay on linear forms, against one replay per coloring
# ---------------------------------------------------------------------------


def assert_forms_match_per_coloring_replay(movie, a, b):
    """Evaluate the one-replay forms at every coloring ``sum k_t step_t`` and
    compare them with the movie replayed for that coloring alone."""
    q = dihedral_quandle(3)
    gens = _coloring_generators(a, b, q)
    steps = [step for step, _ in gens]
    points = triple_points(movie, steps, q)
    for k in itertools.product(*(range(n) for _, n in gens)):
        coloring = tuple(sum(x * y for x, y in zip(col, k)) % 3 for col in zip(*steps))
        evaluated = [TriplePoint(tp.sign, tuple(sum(x * y for x, y in zip(f, k)) % 3
                                                for f in tp.colors)) for tp in points]
        assert evaluated == per_coloring_triple_points(movie, coloring, q)
    return len(gens)


def test_forms_match_per_coloring_replay_on_generated_movies():
    generators = set()
    for a, b in _movie_pairs() + _state_sum_pairs():
        movie = slide_movie(a, b)
        validate_movie(movie)
        generators.add(assert_forms_match_per_coloring_replay(movie, a, b))
    assert generators == {1, 2, 3, 4, 5}


def test_forms_match_per_coloring_replay_on_insertions_and_cancellations():
    movie = read_movie(FIXTURE)
    mirror = ChartMovie(*mirror_chart(movie.braid_a, movie.braid_b), tuple(
        replace(st, sign=-st.sign) if isinstance(st, (R3, InsertPair)) else st
        for st in movie.steps))
    for movie in (movie, mirror):
        validate_movie(movie)
        assert_forms_match_per_coloring_replay(movie, movie.braid_a, movie.braid_b)

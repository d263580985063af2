"""Chart-data moves rho and tau, and the integral symmetry constraint."""

from __future__ import annotations

import random

import pytest

from torusbraid.braids import BraidWord, braids_equal, garside_delta, word
from torusbraid.errors import PreconditionError
from torusbraid.presentations import abelianization, smith_invariants, torus_covering_group
from torusbraid.quandles import dihedral_quandle, torus_colorings
from torusbraid.transforms import (
    ROTATION_BASIS_ACTION,
    TURNING_BASIS_ACTION,
    ChartData,
    h_membership,
    rho,
    tau,
)


def test_chart_data_requires_commuting():
    with pytest.raises(PreconditionError, match="do not commute"):
        ChartData(3, word(3, [1]), word(3, [2]))
    with pytest.raises(PreconditionError):
        ChartData(3, word(3, [1]), word(2, [1]))


def test_rho_swaps_and_reverses():
    c = ChartData(2, word(2, [1, 1, 1]), BraidWord(2, ()))
    r = rho(c)
    assert r.a == BraidWord(2, ())
    assert r.b == word(2, [1, 1, 1])
    # the moved word is reversed, not inverted
    r = rho(ChartData(3, BraidWord(3, ()), word(3, [1, 2])))
    assert r.a.letters == ((2, 1), (1, 1))
    assert r.b == BraidWord(3, ())


def test_rho_order_four_on_words():
    samples = [
        ChartData(2, word(2, [1, 1, 1]), word(2, [1, 1])),
        ChartData(4, word(4, [1, 3]), garside_delta(4) ** 2),
        ChartData(3, garside_delta(3), garside_delta(3) ** 2),
    ]
    for c in samples:
        out = c
        for _ in range(4):
            out = rho(out)
        assert out.a.letters == c.a.letters
        assert out.b.letters == c.b.letters


def test_rho_reverification_can_fail():
    # reversing one word of a commuting pair need not commute with the other;
    # the constructor check turns a silent convention bug into a loud error
    c = ChartData(3, word(3, [1, 2]), word(3, [1, 2]))
    with pytest.raises(PreconditionError):
        rho(c)


def test_tau_shears_second_braid():
    c = ChartData(2, word(2, [1, 1, 1]), BraidWord(2, ()))
    t1 = tau(c)
    assert t1.a == word(2, [1, 1, 1])
    assert braids_equal(t1.b, word(2, [1, 1, 1]))
    t2 = tau(t1)
    assert braids_equal(t2.b, word(2, [1] * 6))


def test_tau_fixes_trivial_first_braid():
    c = ChartData(3, BraidWord(3, ()), word(3, [1, 2]))
    t1 = tau(c)
    assert t1.a == c.a
    assert braids_equal(t1.b, c.b)


def test_moves_preserve_group_invariants():
    pairs = [
        ChartData(4, word(4, [1, 3]), garside_delta(4) ** 2),
        ChartData(4, word(4, [1, 3]), garside_delta(4) ** 3),
        ChartData(2, word(2, [1, 1, 1]), BraidWord(2, ())),
    ]
    for c in pairs:
        base = abelianization(torus_covering_group(c.a, c.b))
        for mv in (rho(c), tau(c), tau(tau(c))):
            assert abelianization(torus_covering_group(mv.a, mv.b)) == base


def test_moves_preserve_coloring_counts():
    q = dihedral_quandle(3)
    c = ChartData(4, word(4, [1, 3]), garside_delta(4) ** 2)
    base = len(torus_colorings(c.a, c.b, q))
    for mv in (rho(c), tau(c), tau(tau(c))):
        assert len(torus_colorings(mv.a, mv.b, q)) == base


# ---------------------------------------------------------------------------
# symmetry matrices
# ---------------------------------------------------------------------------

IDENTITY3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def mat_mul3(x, y):
    """Product of two 3x3 integer matrices."""
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def test_basis_action_anchors():
    assert h_membership(ROTATION_BASIS_ACTION)
    assert not h_membership(TURNING_BASIS_ACTION)
    squared = mat_mul3(TURNING_BASIS_ACTION, TURNING_BASIS_ACTION)
    assert h_membership(squared)


def test_h_membership_rejects_non_unimodular():
    assert not h_membership(((1, 0, 0), (0, 2, 0), (0, 0, 1)))
    assert not h_membership(((0, 1, 0), (1, 0, 0), (0, 0, 1)))  # first row not (+-1,0,0)


def test_h_membership_closed_under_products():
    rng = random.Random(77)
    gens = [
        IDENTITY3,
        ROTATION_BASIS_ACTION,
        mat_mul3(TURNING_BASIS_ACTION, TURNING_BASIS_ACTION),
        ((-1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 2), (0, 0, 1)),
        ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
    ]
    assert all(h_membership(g) for g in gens)
    for _ in range(200):
        m = IDENTITY3
        for _ in range(rng.randint(1, 6)):
            g = rng.choice(gens)
            if rng.random() < 0.5:
                m = mat_mul3(m, g)
            else:
                m = mat_mul3(g, m)
        assert h_membership(m)


def test_h_membership_parity_condition():
    # lower-right block with odd entry sum fails even when unimodular
    odd = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    assert smith_invariants(odd) == [1, 1, 1]  # unimodular
    assert not h_membership(odd)

"""Link-group presentations, abelianizations, and finite quotients."""

from __future__ import annotations

import random

import pytest

from torusbraid import braids
from torusbraid.artin import format_free_word, free_word, parse_free_word
from torusbraid.braids import BraidWord, garside_delta, word
from torusbraid.errors import PreconditionError, SearchBudgetExceeded
from torusbraid.presentations import (
    AbelianInvariants,
    abelianization,
    add_relator,
    central_twist_relator,
    cyclic_group,
    cyclic_hom_count,
    dihedral_group,
    finite_quotient_count,
    format_presentation,
    smith_form,
    smith_invariants,
    symmetric_group,
    tietze_eliminate,
    torus_abelianization,
    torus_covering_group,
)

SPUN_TREFOIL = (word(2, [1, 1, 1]), BraidWord(2, ()))


def test_group_of_spun_trefoil():
    p = torus_covering_group(*SPUN_TREFOIL)
    assert p.generators == ("x1", "x2")
    assert format_presentation(p) == (
        "< x1, x2 | x2 x1 x2 x1^-1 x2^-1 x1^-1, x2^-1 x1 x2 x1 x2^-1 x1^-1 >"
    )


def test_group_requires_commuting_braids():
    with pytest.raises(PreconditionError):
        torus_covering_group(word(3, [1]), word(3, [2]))


def test_vertical_identification_relators():
    # a = s1 s3 forces x1 = x2 and x3 = x4
    p = torus_covering_group(word(4, [1, 3]), garside_delta(4) ** 2)
    texts = [format_free_word(r) for r in p.relators]
    assert "x2 x1^-1" in texts or "x1 x2^-1" in texts or "x1^-1 x2" in texts


def test_tietze_eliminates_redundant_generators():
    p = torus_covering_group(word(4, [1, 3]), garside_delta(4) ** 2)
    q = tietze_eliminate(p)
    assert q.rank == 2
    assert q.marked["boundary"] == parse_free_word("x1^2 x2^2", 2)


def test_marked_boundary_starts_as_product():
    p = torus_covering_group(*SPUN_TREFOIL)
    assert p.marked["boundary"] == parse_free_word("x1 x2", 2)


def test_central_twist_relator_even_and_odd():
    a = word(4, [1, 3])
    for k, expected_power in ((2, 1), (4, 2), (3, 3), (5, 5)):
        b = garside_delta(4) ** k
        p = torus_covering_group(a, b)
        rel = central_twist_relator(p, b)
        boundary = p.marked["boundary"]
        assert rel == boundary ** expected_power


def test_central_twist_requires_half_twist_power():
    # degree 3: a single generator is not a power of the half twist
    p = torus_covering_group(BraidWord(3, ()), word(3, [1]))
    with pytest.raises(PreconditionError):
        central_twist_relator(p, word(3, [1]))


# ---------------------------------------------------------------------------
# Smith normal form and abelian invariants
# ---------------------------------------------------------------------------


def test_smith_invariants_frozen():
    assert smith_invariants([[2, 4], [6, 8]]) == [2, 4]
    assert smith_invariants([[0, 0], [0, 0]]) == []
    assert smith_invariants([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]


def test_smith_invariants_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(123)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        ours = smith_invariants([r[:] for r in mat])
        snf = smith_normal_form(sympy.Matrix(mat))
        theirs = [
            abs(snf[i, i])
            for i in range(min(rows, cols))
            if snf[i, i] != 0
        ]
        assert ours == theirs


def _int_det(a):
    if not a:
        return 1
    return sum((-1) ** r * a[r][0] * _int_det([row[1:] for k, row in enumerate(a) if k != r])
               for r in range(len(a)) if a[r][0])


def test_smith_form_column_transform():
    # U A V = D: the columns of A V past the rank vanish, and V is unimodular
    rng = random.Random(77)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        divisors, v = smith_form(mat)
        assert divisors == smith_invariants(mat)
        av = [[sum(row[k] * v[k][j] for k in range(cols)) for j in range(cols)] for row in mat]
        assert all(row[j] == 0 for row in av for j in range(len(divisors), cols))
        assert abs(_int_det(v)) == 1


def test_tietze_relators_past_the_cap_raise_budget_error(monkeypatch):
    p = torus_covering_group(word(4, [1, 2, 2, 2, 3]), word(4, [1, 2, 3]) ** 4)
    assert tietze_eliminate(p).rank == 2
    monkeypatch.setattr(braids, "WORD_CAP", 40)
    with pytest.raises(SearchBudgetExceeded, match="the Tietze relator total reaches"):
        tietze_eliminate(p)


def test_abelian_invariants_str():
    assert str(AbelianInvariants(1, (4,))) == "Z + Z/4"
    assert str(AbelianInvariants(2, ())) == "Z^2"
    assert str(AbelianInvariants(0, (12,))) == "Z/12"
    assert str(AbelianInvariants(0, ())) == "0"


def test_spun_trefoil_abelianization():
    p = tietze_eliminate(torus_covering_group(*SPUN_TREFOIL))
    assert abelianization(p) == AbelianInvariants(1, ())


def test_even_family_center_quotient_small():
    a = word(4, [1, 3])
    for n in (1, 2):
        b = garside_delta(4) ** (2 * n)
        p = torus_covering_group(a, b)
        p = add_relator(p, central_twist_relator(p, b))
        assert abelianization(tietze_eliminate(p)) == AbelianInvariants(1, (2 * n,))


def test_odd_family_center_quotient_small():
    a = word(4, [1, 3])
    for n in (1, 2):
        b = garside_delta(4) ** (2 * n + 1)
        p = torus_covering_group(a, b)
        p = add_relator(p, central_twist_relator(p, b))
        assert abelianization(tietze_eliminate(p)) == AbelianInvariants(
            0, (4 * (2 * n + 1),)
        )


def _word_path_abelianization(a, b, quotient_center):
    p = torus_covering_group(a, b)
    if quotient_center:
        p = add_relator(p, central_twist_relator(p, b))
    return abelianization(tietze_eliminate(p))


def _flip_invariant_word(rng, m):
    """A random braid fixed by conjugation with Delta (s_i <-> s_(m-i)), so it
    commutes with every power of Delta."""
    letters = []
    for _ in range(rng.randint(0, 3) if m > 1 else 0):
        i, e = rng.randint(1, m - 1), rng.choice([1, -1])
        block = [i] if 2 * i == m else [i, m - i] if abs(m - 2 * i) > 1 else [i, m - i, i]
        letters += [e * x for x in block]
    return word(m, letters)


def test_abelianization_from_permutations_matches_the_relators():
    rng = random.Random(31)
    cases = 0
    for m in range(1, 9):
        delta = garside_delta(m)
        for _ in range(20):
            w = word(m, [rng.choice([1, -1]) * rng.randint(1, m - 1)
                         for _ in range(rng.randint(0, 6) if m > 1 else 0)])
            j, k = rng.randint(-2, 3), rng.randint(-2, 3)
            pairs = [(w**j, w**k), (w, w**k), (w, delta ** (2 * k)), (w, delta**k),
                     (_flip_invariant_word(rng, m) ** j, delta**k), (delta**j, delta**k)]
            for a, b in pairs:
                for center in (False, True):
                    try:
                        want = _word_path_abelianization(a, b, center)
                    except PreconditionError as e:
                        with pytest.raises(PreconditionError, match=str(e)):
                            torus_abelianization(a, b, center)
                        continue
                    assert torus_abelianization(a, b, center) == want
                    cases += 1
    assert cases > 1200


# ---------------------------------------------------------------------------
# finite groups and quotient counts
# ---------------------------------------------------------------------------


def test_finite_group_tables():
    s3 = symmetric_group(3)
    assert s3.size == 6 and not s3.is_abelian()
    d4 = dihedral_group(4)
    assert d4.size == 8 and not d4.is_abelian()
    z5 = cyclic_group(5)
    assert z5.size == 5 and z5.is_abelian()
    d2 = dihedral_group(2)
    assert d2.size == 4 and d2.is_abelian()


def test_group_table_consistency():
    for g in (symmetric_group(3), dihedral_group(5), cyclic_group(6)):
        n = g.size
        e = g.identity
        for x in range(n):
            assert g.mult[x][e] == x and g.mult[e][x] == x
            assert g.mult[x][g.inverse[x]] == e
        # associativity spot check
        rng = random.Random(n)
        for _ in range(50):
            x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            assert g.mult[g.mult[x][y]][z] == g.mult[x][g.mult[y][z]]


def test_trefoil_quotient_counts_frozen():
    p = tietze_eliminate(torus_covering_group(*SPUN_TREFOIL))
    c = finite_quotient_count(p, symmetric_group(3))
    assert (c.homomorphisms, c.epimorphisms, c.abelian_image) == (12, 6, 6)
    c = finite_quotient_count(p, symmetric_group(4))
    assert (c.homomorphisms, c.epimorphisms, c.abelian_image) == (96, 24, 24)
    c = finite_quotient_count(p, dihedral_group(4))
    assert (c.homomorphisms, c.epimorphisms, c.abelian_image) == (8, 0, 8)
    c = finite_quotient_count(p, cyclic_group(5))
    assert (c.homomorphisms, c.epimorphisms, c.abelian_image) == (5, 4, 5)


def test_cyclic_hom_count_matches_enumeration():
    p = tietze_eliminate(torus_covering_group(*SPUN_TREFOIL))
    ab = abelianization(p)
    for k in (2, 3, 6):
        predicted = cyclic_hom_count(ab, k)
        actual = finite_quotient_count(p, cyclic_group(k)).homomorphisms
        assert predicted == actual


def test_abelian_image_counts_abelian_subgroup_homs():
    # for the abelian target the three counts collapse sensibly
    p = tietze_eliminate(torus_covering_group(*SPUN_TREFOIL))
    c = finite_quotient_count(p, cyclic_group(6))
    assert c.homomorphisms == c.abelian_image == 6


def test_add_relator_appends():
    p = torus_covering_group(*SPUN_TREFOIL)
    q = add_relator(p, free_word(2, [1, 1]))
    assert len(q.relators) == len(p.relators) + 1

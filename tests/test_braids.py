"""Braid words, the text grammar, and Garside normal forms."""

from __future__ import annotations

import random
import time

import pytest

from torusbraid.braids import (
    WORD_CAP,
    BraidWord,
    braids_equal,
    cable_lift,
    closure_components,
    commute_check,
    dual_generator,
    format_braid,
    garside_delta,
    iota_embed,
    is_trivial,
    n_prime_sigma1,
    normal_form,
    parse_braid,
    permutation,
    word,
)
from torusbraid.errors import PreconditionError, SearchBudgetExceeded


def test_word_validation():
    with pytest.raises(PreconditionError):
        word(2, [2])
    with pytest.raises(PreconditionError):
        word(3, [0])
    with pytest.raises(PreconditionError):
        BraidWord(1, ((1, 1),))
    assert word(3, [1, -2]).letters == ((1, 1), (2, -1))


def test_multiplication_and_inverse():
    u = word(3, [1, 2])
    v = word(3, [-1])
    assert (u * v).letters == ((1, 1), (2, 1), (1, -1))
    assert u.inverse().letters == ((2, -1), (1, -1))
    assert (u ** 0).letters == ()
    assert (u ** -2) == (u.inverse() * u.inverse())
    assert u.reverse().letters == ((2, 1), (1, 1))
    assert u.exponent_sum() == 2 and v.exponent_sum() == -1


def test_parse_signed_integers():
    assert parse_braid("1 2 -1", 3) == word(3, [1, 2, -1])
    assert parse_braid("", 3) == BraidWord(3, ())
    assert parse_braid("e", 2) == BraidWord(2, ())


def test_parse_sigma_tokens():
    assert parse_braid("s1 s2^3 s1^-2", 3) == word(3, [1, 2, 2, 2, -1, -1])


def test_parse_powers_and_half_twist():
    assert parse_braid("(1 2 3)^4", 4) == word(4, [1, 2, 3]) ** 4
    assert parse_braid("(1 2)^-1", 3) == word(3, [-2, -1])
    assert parse_braid("D", 4) == garside_delta(4)
    assert parse_braid("D^2", 4) == garside_delta(4) ** 2
    assert parse_braid("D^-1 1", 3) == garside_delta(3).inverse() * word(3, [1])


@pytest.mark.parametrize("text, degree, size", [
    ("s1^10000000000", 2, 10**10),
    ("1 -1^-10000000000", 2, 10**10 + 1),
    ("D^10000000000", 4, 6 * 10**10),
    ("((1 2)^1000)^10000000", 3, 2 * 10**10),
    ("(1)^600000 (2)^600000", 3, 1_200_000),
])
def test_parse_rejects_words_past_the_cap_before_building_them(text, degree, size):
    start = time.perf_counter()
    with pytest.raises(SearchBudgetExceeded, match=f"reaches {size} letters"):
        parse_braid(text, degree)
    assert time.perf_counter() - start < 1.0


def test_parse_accepts_a_word_at_the_cap():
    assert len(parse_braid(f"s1^{WORD_CAP}", 2).letters) == WORD_CAP


def test_format_round_trip():
    w = word(4, [1, -3, 2, 2, -1])
    assert parse_braid(format_braid(w), 4) == w
    assert format_braid(BraidWord(5, ())) == "e"


def test_garside_delta_letters():
    assert garside_delta(4) == word(4, [1, 2, 3, 1, 2, 1])
    assert garside_delta(2) == word(2, [1])
    assert permutation(garside_delta(4)) == (4, 3, 2, 1)


def test_dual_generator_cycles():
    # delta = s1 s2 ... s_{m-1} satisfies delta^m = Delta^2
    for m in (2, 3, 4):
        assert braids_equal(dual_generator(m) ** m, garside_delta(m) ** 2)
    assert dual_generator(3) == word(3, [1, 2])


def test_permutation_and_closure():
    assert permutation(word(3, [1, 2])) == (3, 1, 2)
    assert closure_components(word(3, [1, 2])) == 1
    assert closure_components(BraidWord(3, ())) == 3
    assert closure_components(garside_delta(4)) == 2
    assert closure_components(garside_delta(4) ** 2) == 4


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------


def test_normal_form_half_twist_powers():
    nf = normal_form(garside_delta(4))
    assert (nf.infimum, nf.factors) == (1, ())
    assert nf.is_half_twist_power()
    nf = normal_form(garside_delta(4) ** 2)
    assert (nf.infimum, nf.factors) == (2, ())
    nf = normal_form(garside_delta(3).inverse())
    assert (nf.infimum, nf.factors) == (-1, ())


def test_normal_form_frozen_examples():
    nf = normal_form(word(3, [-1]))
    assert (nf.infimum, nf.factors) == (-1, ((3, 1, 2),))
    nf = normal_form(word(4, [1, 3, 2, 1]))
    assert (nf.infimum, nf.factors) == (0, ((3, 2, 4, 1),))
    assert nf.canonical_length == 1
    assert nf.supremum == 1


def test_trivial_and_equality():
    assert is_trivial(BraidWord(4, ()))
    w = word(4, [1, -3, 2, 2, -1])
    assert is_trivial(w * w.inverse())
    assert braids_equal(word(3, [1, 2, 1]), word(3, [2, 1, 2]))
    assert braids_equal(word(4, [1, 3]), word(4, [3, 1]))
    assert not braids_equal(word(3, [1]), word(3, [2]))
    assert not braids_equal(word(3, [1]), word(3, [-1]))


def test_delta_conjugation_identity():
    # Delta sigma_i Delta^-1 = sigma_(m-i)
    for m in (3, 4, 5):
        d = garside_delta(m)
        for i in range(1, m):
            lhs = d * word(m, [i]) * d.inverse()
            assert braids_equal(lhs, word(m, [m - i]))


def test_central_square():
    # Delta^2 commutes with every generator
    for m in (2, 3, 4):
        d2 = garside_delta(m) ** 2
        for i in range(1, m):
            assert commute_check(d2, word(m, [i]))


def test_commute_check():
    assert commute_check(word(4, [1]), word(4, [3]))
    assert not commute_check(word(3, [1]), word(3, [2]))
    with pytest.raises(PreconditionError):
        commute_check(word(3, [1]), word(4, [1]))


def test_normal_form_random_relation_insertions():
    """Inserting defining relations never changes the normal form."""
    rng = random.Random(20240817)
    for _ in range(300):
        m = rng.randint(2, 5)
        base = [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(rng.randint(0, 6))]
        w = word(m, base)
        mutated = list(base)
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["inv", "comm", "braid"])
            pos = rng.randint(0, len(mutated))
            if kind == "inv":
                i = rng.randint(1, m - 1)
                mutated[pos:pos] = [i, -i]
            elif kind == "comm" and m >= 4:
                i, j = 1, 3
                mutated[pos:pos] = [i, j, -i, -j]
            elif m >= 3:
                i = rng.randint(1, m - 2)
                mutated[pos:pos] = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
        assert braids_equal(w, word(m, mutated))


def test_normal_form_speed():
    rng = random.Random(5)
    letters = [rng.choice([1, -1]) * rng.randint(1, 7) for _ in range(200)]
    t0 = time.perf_counter()
    normal_form(word(8, letters))
    assert time.perf_counter() - t0 < 2.0


# ---------------------------------------------------------------------------
# embeddings and cables
# ---------------------------------------------------------------------------


def test_iota_embed():
    assert iota_embed(word(2, [1]), 0, 2) == word(4, [1])
    assert iota_embed(word(2, [1]), 2, 0) == word(4, [3])
    assert iota_embed(word(2, [1, -1]), 1, 1) == word(4, [2, -2])
    with pytest.raises(PreconditionError):
        iota_embed(word(2, [1]), -1, 0)


def test_n_prime_sigma1_frozen():
    assert n_prime_sigma1(2).letters == ((2, 1), (1, 1), (3, 1), (2, 1))
    assert n_prime_sigma1(3).letters == (
        (3, 1), (2, 1), (1, 1), (4, 1), (5, 1), (3, 1), (2, 1), (4, 1), (3, 1),
    )


def test_cable_lift_frozen():
    assert cable_lift(word(2, [1, 1]), 2) == word(4, [2, 1, 3, 2, 2, 1, 3, 2])
    assert cable_lift(word(2, [1]), 1) == word(2, [1])


def test_cable_lift_against_half_twist():
    # Delta^k in B4 equals the 2-cable lift of sigma1^k times (sigma1 sigma3)^k
    for k in (1, 2, 3, 5):
        lhs = garside_delta(4) ** k
        rhs = cable_lift(word(2, [1] * k), 2) * (word(4, [1, 3]) ** k)
        assert braids_equal(lhs, rhs)


def test_cable_lift_negative_letters():
    w = word(2, [1, -1])
    assert is_trivial(cable_lift(w, 2))


def test_cable_lift_is_multiplicative():
    rng = random.Random(11)
    for _ in range(25):
        u = word(2, [rng.choice([1, -1]) for _ in range(rng.randint(0, 4))])
        v = word(2, [rng.choice([1, -1]) for _ in range(rng.randint(0, 4))])
        assert braids_equal(cable_lift(u * v, 2), cable_lift(u, 2) * cable_lift(v, 2))

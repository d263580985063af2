"""Braid words, the text grammar, and Garside normal forms."""

from __future__ import annotations

import itertools
import os
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbraid import braids
from torusbraid.braids import (
    WORD_CAP,
    BraidWord,
    NormalForm,
    _left_weight_pair,
    _product,
    braids_equal,
    cable_lift,
    check_pair,
    closure_components,
    commute_check,
    dual_generator,
    format_braid,
    garside_delta,
    iota_embed,
    is_trivial,
    n_prime_sigma1,
    normal_form,
    orbit_sizes,
    parse_braid,
    permutation,
    word,
)
from torusbraid.errors import PreconditionError, SearchBudgetExceeded, read_int

from oracles import _transposition, per_letter_normal_form, prepass_parse_braid

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


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
    ("D", 100_000, 4_999_950_000),
    ("1 D^-2", 100_000, 9_999_900_000),
    ("(D)^1", 100_000, 4_999_950_000),
])
def test_parse_rejects_words_past_the_cap_before_building_them(text, degree, size):
    start = time.perf_counter()
    with pytest.raises(SearchBudgetExceeded, match=f"reaches {size} letters"):
        parse_braid(text, degree)
    assert time.perf_counter() - start < 1.0


def test_parse_does_not_build_delta_to_the_power_zero():
    start = time.perf_counter()
    assert parse_braid("D^0 1", 100_000) == word(100_000, [1])
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text", ["(D)^0", "(D D)^0", "((D)^3)^0", "(D (s1^2000000)^1)^0"])
def test_parse_builds_nothing_in_a_group_to_the_power_zero(text):
    start = time.perf_counter()
    assert parse_braid(f"1 {text} 2", 100_000) == word(100_000, [1, 2])
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text, message", [
    ("(D x)^0", "unrecognized braid token 'x'"),
    ("((1)^y)^0", "bad power suffix '^y'"),
    ("(0)^0", "0 is not a valid braid letter"),
    ("(1)^0 )", "unbalanced ')' in braid word"),
    ("( (1)^0", "unbalanced '(' in braid word"),
    ("(x)^y", "unrecognized braid token 'x'"),  # a group's tokens before its power
    ("(1 ) ^z", "bad power suffix '^z'"),
])
def test_parse_checks_every_token_of_a_group_to_the_power_zero(text, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        parse_braid(text, 100_000)


BIG = "9" * 5000  # more digits than int() converts by default since Python 3.11


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("7", 7), ("-12", -12), ("+3", 3), ("007", 7), ("-0", 0)])
def test_read_int_reads_a_sign_and_ascii_digits(text, value):
    assert read_int(text, "no") == value


@pytest.mark.parametrize("text", [
    "", "+", "-", "1_000", "²", "١", "３", "1.0", "0x1", " 1", "1 ", "--1", "+-1", BIG])
def test_read_int_refuses_everything_else_with_the_given_message(text):
    with pytest.raises(PreconditionError, match="^no$"):
        read_int(text, "no")


@pytest.mark.parametrize("bad", ["1_000", "²", BIG])
@pytest.mark.parametrize("template, message", [
    ("{}", "unrecognized braid token '{}'"),
    ("s{}", "unrecognized braid token 's{}'"),
    ("s1^{}", "bad power in token 's1^{}'"),
    ("(1 2)^{}", "bad power suffix '^{}'"),
])
def test_parse_refuses_integers_other_than_a_sign_and_ascii_digits(bad, template, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message.format(bad))}$"):
        parse_braid(template.format(bad), 3)


def _random_word(rng: random.Random, depth: int = 0) -> str:
    """ASCII text in and around the word grammar: letters, s-tokens, half
    twists, ``e``, nested groups to small powers of either sign, and now and
    then a bad power, a bad token or a stray parenthesis."""
    def power(bad: list[str]) -> str:
        return rng.choice(bad) if rng.random() < 0.05 else rng.choice(
            ["", "", "^0", "^-0", "^1", "^2", "^-1", "^-2", "^+1"])

    parts = []
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.3:
            parts.append(str(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])))
        elif roll < 0.45:
            parts.append(rng.choice(["s", "s", "s+", "s-"]) + str(rng.randint(1, 4))
                         + power(["^x", "^", "^1^2"]))
        elif roll < 0.55:
            parts.append(rng.choice(["D", "d", "e", "E"]) + power(["^y", "^-"]))
        elif roll < 0.95 and depth < 3:
            parts.append(f"({_random_word(rng, depth + 1)})"
                         + rng.choice(["", " "]) + power(["^z", "^", "^2^"]))
        else:
            parts.append(rng.choice(["x", "(", ")", "^2", "--1", "1^", "007", "Ds", "0", "s0",
                                     "ss1", "x^y", "0^x", "s^"]))
    return rng.choice([" ", "  ", "\t"]).join(parts)


def _outcome(parse, text: str, degree: int):
    try:
        return parse(text, degree)
    except (PreconditionError, SearchBudgetExceeded) as exc:
        return type(exc), str(exc)


def test_parse_matches_the_prepass_parser_on_random_words():
    rng = random.Random(20261021)
    for _ in range(4000):
        text, degree = _random_word(rng), rng.randint(2, 6)
        assert _outcome(parse_braid, text, degree) == _outcome(prepass_parse_braid, text, degree), text


@pytest.mark.parametrize("text", [
    "D", "(D)^1", "1 D^-2", "(D)^0", "((D)^3)^0", "D^0 1", "(D x)^0", "(D (s1^2000000)^1)^0",
    "(1)^600000 (2)^600000", "((1 2)^1000)^10000000", "s1^1000000", "1 s1^999999", "s1^1000001",
])
def test_parse_matches_the_prepass_parser_at_the_cap(text):
    assert _outcome(parse_braid, text, 100_000) == _outcome(prepass_parse_braid, text, 100_000)


def test_parse_reads_groups_nested_past_the_recursion_limit():
    assert parse_braid("(" * 5000 + "1 -2" + ")" * 5000 + "^2", 3) == word(3, [1, -2, 1, -2])


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


def test_orbit_sizes_join_the_cycles_of_every_permutation():
    assert orbit_sizes((1, 2, 3)) == [1, 1, 1]
    assert orbit_sizes((2, 1, 3, 4), (1, 2, 4, 3)) == [2, 2]
    assert orbit_sizes((2, 1, 3, 4), (1, 3, 2, 4)) == [3, 1]
    assert orbit_sizes((1, 3, 2), (3, 2, 1)) == [3]
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(1, 9)
        perms = [tuple(rng.sample(range(1, m + 1), m)) for _ in range(rng.randint(1, 3))]
        # orbit of 1: the points reachable from 1, found by closing up one set
        orbit = {1}
        while (grown := orbit | {p[x - 1] for p in perms for x in orbit}) != orbit:
            orbit = grown
        sizes = orbit_sizes(*perms)
        assert sizes[0] == len(orbit) and sum(sizes) == m


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


def test_normal_form_on_one_strand():
    assert normal_form(BraidWord(1, ())) == NormalForm(1, 0, ())


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


def test_check_pair_refuses_what_defines_no_link():
    check_pair(word(4, [1]), word(4, [3]))
    with pytest.raises(PreconditionError, match="braid degrees differ: 3 vs 4"):
        check_pair(word(3, [1]), word(4, [1]))
    with pytest.raises(PreconditionError, match="do not commute, so they do not define a link"):
        check_pair(word(3, [1]), word(3, [2]))


def test_commute_check():
    assert commute_check(word(4, [1]), word(4, [3]))
    assert not commute_check(word(3, [1]), word(3, [2]))
    with pytest.raises(PreconditionError, match="^cannot concatenate words of degrees 3 and 4$"):
        commute_check(word(3, [1]), word(4, [1]))
    with pytest.raises(PreconditionError, match="^cannot compare words of degrees 3 and 4$"):
        braids_equal(word(3, [1]), word(4, [1]))


def _relation_insertions():
    """Random words, each with a copy that has defining relations inserted."""
    rng = random.Random(20240817)
    for _ in range(300):
        m = rng.randint(2, 5)
        base = [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(rng.randint(0, 6))]
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
        yield word(m, base), word(m, mutated)


def test_normal_form_random_relation_insertions():
    """Inserting defining relations never changes the normal form."""
    for w, mutated in _relation_insertions():
        assert braids_equal(w, mutated)


def test_normal_form_speed():
    rng = random.Random(5)
    letters = [rng.choice([1, -1]) * rng.randint(1, 7) for _ in range(200)]
    t0 = time.perf_counter()
    normal_form(word(8, letters))
    assert time.perf_counter() - t0 < 2.0


def test_normal_form_speed_long_mixed_word():
    rng = random.Random(8)
    letters = [rng.choice([1, -1]) * rng.randint(1, 7) for _ in range(2000)]
    t0 = time.perf_counter()
    normal_form(word(8, letters))
    assert time.perf_counter() - t0 < 1.5


def _long_mixed_word(seed, n, m=8):
    rng = random.Random(seed)
    return word(m, [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(n)])


STEP_CAP_MESSAGE = r"^normal form reaches \d+ left-weighting steps, over the cap of 1000000$"


def test_normal_form_past_the_step_cap_raises_budget_error():
    w = _long_mixed_word(8, 20000)
    t0 = time.perf_counter()
    with pytest.raises(SearchBudgetExceeded, match=STEP_CAP_MESSAGE):
        normal_form(w)
    with pytest.raises(SearchBudgetExceeded, match=STEP_CAP_MESSAGE):
        commute_check(w, BraidWord(8, ()))
    assert time.perf_counter() - t0 < 10.0


def test_step_cap_counts_memo_hits_and_products(monkeypatch):
    w = _long_mixed_word(3, 40)
    memo = {}
    nf = normal_form(w, memo)
    monkeypatch.setattr(braids, "WORD_CAP", 5)
    with pytest.raises(SearchBudgetExceeded, match="normal form reaches 6 left-weighting steps"):
        normal_form(w, memo)  # every pair is a memo hit now
    with pytest.raises(SearchBudgetExceeded, match="over the cap of 5$"):
        _product(nf, nf, memo)


# ---------------------------------------------------------------------------
# commutation and equality from products of normal forms, against fresh
# normal forms of the concatenated words
# ---------------------------------------------------------------------------


def _commute_oracle(a, b):
    return normal_form(a * b) == normal_form(b * a)


def _check_commute(a, b):
    verdict = commute_check(a, b)
    assert verdict == commute_check(b, a) == _commute_oracle(a, b)
    return verdict


def _check_equal(u, v):
    verdict = braids_equal(u, v)
    assert verdict == (normal_form(u) == normal_form(v))
    return verdict


def _random_letters(rng, m, n, sign):
    if m == 1:
        return []
    return [rng.randint(1, m - 1) * (sign or rng.choice([1, -1])) for _ in range(n)]


def test_commute_check_matches_oracle_on_random_pairs():
    rng = random.Random(20261019)
    verdicts = []
    for m in range(1, 11):
        for sign in (1, 0):
            for _ in range(3):
                w = _random_letters(rng, m, rng.randint(0, 30), sign)
                c = _random_letters(rng, m, rng.randint(0, 8), sign)
                a, cw = word(m, w), word(m, c)
                verdicts.append(_check_commute(a, a ** rng.randint(-2, 3)))
                verdicts.append(_check_commute(cw * a * cw.inverse(), cw * a ** 2 * cw.inverse()))
                verdicts.append(_check_commute(a, word(m, _random_letters(rng, m, 20, sign))))
                if m > 1:
                    full_twist = garside_delta(m) ** 2
                    verdicts.append(_check_commute(a * full_twist, a ** 2))
    assert verdicts.count(True) > verdicts.count(False) > 0


def test_commute_check_matches_oracle_on_families():
    for m in range(1, 11):
        d, dual = garside_delta(m), dual_generator(m)
        for j in range(-2, 4):
            for k in range(-3, 3):
                assert _check_commute(d ** j, d ** k)
                assert _check_commute(dual ** j, dual ** k)
                _check_commute(d ** j, dual ** k)
        for i in range(1, m):
            # Delta conjugates s_i s_(m-i) to s_(m-i) s_i, which is the same braid
            # unless s_i and s_(m-i) are adjacent generators
            assert _check_commute(d ** 3, word(m, [i, m - i])) == (abs(m - 2 * i) != 1)
            assert _check_commute(d, word(m, [i])) == (2 * i == m)
            assert _check_commute(dual ** m, word(m, [-i, i, i]))


def test_commute_and_equal_match_oracle_on_relation_insertions():
    for w, mutated in _relation_insertions():
        assert _check_equal(w, mutated)
        assert _check_commute(w, mutated)
        _check_commute(w, mutated * word(w.degree, [1]) if w.degree > 1 else w)


def test_non_commuting_controls_with_commuting_permutations():
    # pure braids: equal (trivial) permutations, so only the products decide
    for m in range(3, 8):
        for i in range(1, m - 1):
            a, b = word(m, [i, i]), word(m, [i + 1, i + 1])
            assert not _check_commute(a, b)
            assert not _check_equal(a * b, b * a)
            assert not _check_commute(a * garside_delta(m) ** 2, b)
            assert _check_commute(a, a ** -3)


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 8).flatmap(lambda m: st.tuples(
    st.just(m),
    st.integers(-3, 3),
    st.lists(st.integers(1, max(m - 1, 1)).flatmap(lambda i: st.sampled_from([i, -i])),
             max_size=25 if m > 1 else 0),
    st.lists(st.integers(1, max(m - 1, 1)).flatmap(lambda i: st.sampled_from([i, -i])),
             max_size=25 if m > 1 else 0),
)))
def test_product_of_normal_forms_is_the_normal_form_of_the_product(case):
    m, k, xs, ys = case
    x = word(m, xs)
    y = garside_delta(m) ** k * word(m, ys)  # odd k: tau acts on x's factors
    assert _product(normal_form(x), normal_form(y), {}) == normal_form(x * y)
    assert _product(normal_form(y), normal_form(x), {}) == normal_form(y * x)


def test_product_conjugates_by_odd_infima():
    m = 4
    x, y = word(m, [1, 2]), garside_delta(m) * word(m, [3])
    assert normal_form(y).infimum == 1
    assert _product(normal_form(x), normal_form(y), {}) == normal_form(x * y)
    assert normal_form(x * y) == normal_form(garside_delta(m) * word(m, [3, 2, 3]))
    for deg in (1, 2):
        e = BraidWord(deg, ())
        assert _product(normal_form(e), normal_form(e), {}) == NormalForm(deg, 0, ())
    assert _product(normal_form(word(2, [-1])), normal_form(word(2, [1, 1])), {}) == \
        NormalForm(2, 1, ())


def _spy_on_normal_form(monkeypatch):
    letters = []
    real = braids.normal_form

    def spy(w, *args):
        letters.append(len(w))
        return real(w, *args)

    monkeypatch.setattr(braids, "normal_form", spy)
    return letters


def test_commute_check_normalizes_each_word_once(monkeypatch):
    letters = _spy_on_normal_form(monkeypatch)
    c, w = word(6, [2, -5, 1]), word(6, [1, -3, 4, 4, -2, 5])
    a, b = c * w * c.inverse(), c * w ** 3 * c.inverse()
    assert commute_check(a, b)
    assert (len(letters), sum(letters)) == (2, len(a) + len(b))


def test_refuted_decisions_make_no_normal_form(monkeypatch):
    letters = _spy_on_normal_form(monkeypatch)
    assert not commute_check(word(3, [1]), word(3, [2]))
    assert not commute_check(word(5, [1, -2, 3]), word(5, [4, 2]))
    # same permutations, different exponent sums
    assert not braids_equal(word(3, [1]), word(3, [-1]))
    assert not braids_equal(word(4, [1, -3]), word(4, [-1, 3, 3, 3]))
    assert letters == []
    assert not braids_equal(word(3, [1, 2]), word(3, [2, 1]))  # same sum: permutations
    assert letters == []


# ---------------------------------------------------------------------------
# the fixpoint sweep, kept as the oracle for the incremental normal form
# ---------------------------------------------------------------------------


def _invert(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x - 1] = i + 1
    return tuple(out)


def _flip(p, m):
    """Conjugation by the half twist: tau(w)(i) = m+1 - w(m+1-i)."""
    return tuple(m + 1 - p[m - 1 - i] for i in range(m))


def _sweep_left_weight_pair(A, B, m):
    """Slide generators from B into A until (A, B) is left-weighted."""
    moved = False
    while True:
        invA = _invert(A)
        target = 0
        for i in range(1, m):
            if B[i - 1] > B[i] and invA[i - 1] < invA[i]:
                target = i
                break
        if not target:
            return A, B, moved
        i = target
        # A := A * sigma_i  (swap the values i, i+1 inside A)
        a = list(A)
        qa, qb = a.index(i), a.index(i + 1)
        a[qa], a[qb] = i + 1, i
        A = tuple(a)
        # B := sigma_i^-1 * B  (swap positions i, i+1 of B)
        b = list(B)
        b[i - 1], b[i] = b[i], b[i - 1]
        B = tuple(b)
        moved = True


def _sweep_normal_form(w):
    """Every letter a factor, every Delta^-1 flips the prefix, then adjacent
    pairs are left-weighted until nothing moves."""
    m = w.degree
    if m == 1:
        return NormalForm(1, 0, ())
    ident = tuple(range(1, m + 1))
    w0 = tuple(range(m, 0, -1))
    inf = 0
    factors = []
    for i, s in w.letters:
        t = _transposition(m, i)
        if s > 0:
            factors.append(t)
        else:
            inf -= 1
            factors = [_flip(f, m) for f in factors]
            factors.append(tuple(t[x - 1] for x in w0))
    factors = [f for f in factors if f != ident]
    changed = True
    while changed:
        changed = False
        j = 0
        while j < len(factors) - 1:
            A, B, moved = _sweep_left_weight_pair(factors[j], factors[j + 1], m)
            if moved:
                changed = True
                if B == ident:
                    factors[j] = A
                    del factors[j + 1]
                else:
                    factors[j], factors[j + 1] = A, B
            j += 1
    while factors and factors[0] == w0:
        del factors[0]
        inf += 1
    return NormalForm(m, inf, tuple(factors))


def _inversions(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def _then(u, v):
    return tuple(v[x - 1] for x in u)


def _assert_left_greedy(nf):
    """No factor trivial or Delta, and every adjacent pair left-weighted: a
    generator that divides the right factor on the left cannot be appended
    to the left factor without a repeated crossing."""
    m = nf.degree
    top = m * (m - 1) // 2
    for f in nf.factors:
        assert 0 < _inversions(f) < top
    for A, B in zip(nf.factors, nf.factors[1:]):
        for i in range(1, m):
            t = _transposition(m, i)
            if _inversions(_then(t, B)) < _inversions(B):
                assert _inversions(_then(A, t)) < _inversions(A)


def _check_against_sweep(w):
    """Against the sweep and the per-letter normal form, which share no code."""
    nf = normal_form(w)
    assert nf == _sweep_normal_form(w)
    assert nf == per_letter_normal_form(w)
    _assert_left_greedy(nf)


def test_left_weight_pair_matches_sweep_on_all_pairs():
    for m in range(2, 6):
        perms = list(itertools.permutations(range(1, m + 1)))
        for A in perms:
            for B in perms:
                assert _left_weight_pair(A, B) == _sweep_left_weight_pair(A, B, m)[:2]


def test_normal_form_matches_sweep_on_random_words():
    rng = random.Random(20261018)
    for sign in (1, -1, 0):
        for _ in range(12):
            m = rng.randint(1, 16)
            n = rng.randint(0, 300) if m > 1 else 0
            letters = [rng.randint(1, m - 1) * (sign or rng.choice([1, -1])) for _ in range(n)]
            _check_against_sweep(word(m, letters))


def test_normal_form_matches_sweep_on_families():
    for m in range(3, 11):
        for k in range(-3, 4):
            _check_against_sweep(garside_delta(m) ** k)
        for k in range(-m - 1, 2 * m + 2):
            _check_against_sweep(dual_generator(m) ** k)
    for k in range(0, 25):
        _check_against_sweep(word(3, [1, -2]) ** k)


def test_normal_form_matches_sweep_on_relation_insertions():
    for w, mutated in _relation_insertions():
        _check_against_sweep(w)
        _check_against_sweep(mutated)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 8).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.integers(1, m - 1).flatmap(lambda i: st.sampled_from([i, -i])), max_size=40),
)))
def test_normal_form_matches_sweep_property(case):
    m, letters = case
    _check_against_sweep(word(m, letters))


# ---------------------------------------------------------------------------
# one factor per simple run; the sweep tests above also compare it with the
# per-letter normal form
# ---------------------------------------------------------------------------


def test_normal_form_matches_per_letter_on_random_words():
    # many more words than the sweep can take: the per-letter oracle is linear
    rng = random.Random(20261020)
    for sign in (1, -1, 0):
        for _ in range(500):
            m = rng.randint(2, 9)
            w = word(m, _random_letters(rng, m, rng.randint(0, 60), sign))
            assert normal_form(w) == per_letter_normal_form(w), format_braid(w)


def test_normal_form_matches_per_letter_on_the_long_words_workload(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    words = {x for seed in (1, 2, 3) for job in workloads.make_jobs("long-words", seed)
             for x in job.args if isinstance(x, BraidWord)}
    assert len(words) > 1000
    for w in words:
        assert normal_form(w) == per_letter_normal_form(w), format_braid(w)


@pytest.mark.parametrize("m, letters", [
    (4, [-1, -2, -3, -1, -2, -1]),  # one negative run, Delta^-1, skipped
    (4, [2, -1, -2, -3, -1, -2, -1, 3]),
    (2, [1, 1, -1, 1, -1, -1, -1]),
    (2, [-1]),
    (3, [1, 2, 1, 2]),  # the run is cut where strands 1 and 2 would cross again
    (4, [1, -2, 3, -1, 2, -3, 1, -2]),  # the sign alternates letter by letter
    (5, [-4, 3, -2, 1, -4, 3, -2, 1]),
])
def test_normal_form_matches_oracles_on_edge_cases(m, letters):
    _check_against_sweep(word(m, letters))


def test_negative_half_twist_run_adds_no_factor():
    nf = normal_form(word(4, [-1, -2, -3, -1, -2, -1]))
    assert (nf.infimum, nf.factors) == (-1, ())


def test_normal_form_appends_once_per_simple_run(monkeypatch):
    # 1 2 3 1 2 | 3 1 2 3 1 2 | 3: each cut is where two strands would cross again
    calls = []
    append = braids._append

    def counting_append(factors, y, memo):
        calls.append(y)
        return append(factors, y, memo)

    w = word(4, [1, 2, 3]) ** 4
    expected = per_letter_normal_form(w)  # 12 appends, one per letter
    monkeypatch.setattr(braids, "_append", counting_append)
    assert normal_form(w) == expected
    assert calls == [(4, 3, 1, 2), (4, 3, 2, 1), (1, 2, 4, 3)]  # the middle run is Delta


def test_normal_form_past_the_width_cap_raises_budget_error(monkeypatch):
    # 12 factors of s1 at degree 4: 11 left-weighting steps of 4 entries each
    w = word(4, [1] * 12)
    nf = normal_form(w)
    assert nf.canonical_length == 12
    monkeypatch.setattr(braids, "WIDTH_CAP", 40)
    message = r"^normal form reaches 44 permutation entries, over the cap of 40$"
    with pytest.raises(SearchBudgetExceeded, match=message):
        normal_form(w)
    with pytest.raises(SearchBudgetExceeded, match=message):
        _product(nf, nf, {})


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

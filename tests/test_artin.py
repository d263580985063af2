"""Free-group words and the braid action on meridian generators."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbraid.artin import (
    FreeWord,
    artin_apply,
    artin_images,
    boundary_word,
    format_free_word,
    free_reduce,
    free_word,
    generator,
)
from torusbraid.braids import WORD_CAP, BraidWord, garside_delta, parse_braid, word
from torusbraid.errors import PreconditionError, SearchBudgetExceeded

from oracles import parse_free_word


def test_free_word_algebra():
    x = generator(3, 1)
    y = generator(3, 2)
    assert (x * y).letters == ((1, 1), (2, 1))
    assert (x ** -2).letters == ((1, -1), (1, -1))
    assert (x * x.inverse()).letters != ()  # concatenation does not reduce
    assert (x * x.inverse()).is_identity()  # identity is tested up to reduction
    assert free_reduce(x * x.inverse()).letters == ()


def test_free_reduce_nested():
    w = free_word(2, [1, 2, -2, -1, 2])
    assert free_reduce(w).letters == ((2, 1),)


def test_format_and_parse():
    w = free_word(4, [1, 2, 2, -3])
    assert format_free_word(w) == "x1 x2^2 x3^-1"
    assert parse_free_word("x1 x2^2 x3^-1", 4) == w
    assert parse_free_word("1 2 2 -3", 4) == w
    assert format_free_word(free_word(3, [])) == "1"
    assert parse_free_word("1", 3).is_identity()
    assert parse_free_word("e", 3).is_identity()


def test_boundary_word():
    assert format_free_word(boundary_word(3)) == "x1 x2 x3"


def test_generator_images():
    # s_i sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i
    images = [format_free_word(w) for w in artin_images(word(3, [1]))]
    assert images == ["x1 x2 x1^-1", "x1", "x3"]
    # the inverse letter sends x_i to x_{i+1}
    images = [format_free_word(w) for w in artin_images(word(3, [-1]))]
    assert images == ["x2", "x2^-1 x1 x2", "x3"]


def test_apply_single_letter():
    out = artin_apply(word(2, [1]), generator(2, 1))
    assert format_free_word(out) == "x1 x2 x1^-1"


def test_half_twist_images_frozen():
    d = garside_delta(4)
    expected = {
        1: "x1 x2 x3 x4 x3^-1 x2^-1 x1^-1",
        2: "x1 x2 x3 x2^-1 x1^-1",
        3: "x1 x2 x1^-1",
        4: "x1",
    }
    for j, text in expected.items():
        assert format_free_word(artin_apply(d, generator(4, j))) == text


def test_full_twist_is_conjugation_by_boundary():
    for m in (2, 3, 4, 5):
        d2 = garside_delta(m) ** 2
        w = boundary_word(m)
        for j in range(1, m + 1):
            image = artin_apply(d2, generator(m, j))
            conj = free_reduce(w * generator(m, j) * w.inverse())
            assert image == conj


def test_action_is_anti_homomorphism():
    # applying u then v equals applying the product u * v
    rng = random.Random(99)
    for _ in range(50):
        m = rng.randint(2, 4)
        u = word(m, [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(3)])
        v = word(m, [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(3)])
        for j in range(1, m + 1):
            two_step = artin_apply(v, artin_apply(u, generator(m, j)))
            one_step = artin_apply(u * v, generator(m, j))
            assert two_step == one_step


def test_inverse_braid_inverts_action():
    rng = random.Random(5)
    for _ in range(100):
        m = rng.randint(2, 5)
        w = word(m, [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(rng.randint(1, 8))])
        for j in range(1, m + 1):
            back = artin_apply(w.inverse(), artin_apply(w, generator(m, j)))
            assert back == generator(m, j)


def test_boundary_word_is_fixed():
    rng = random.Random(17)
    for _ in range(100):
        m = rng.randint(2, 5)
        w = word(m, [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(rng.randint(0, 8))])
        assert artin_apply(w, boundary_word(m)) == boundary_word(m)


def test_degree_mismatch_rejected():
    with pytest.raises(PreconditionError):
        artin_apply(word(3, [1]), generator(4, 1))
    with pytest.raises(PreconditionError):
        generator(3, 4)
    with pytest.raises(PreconditionError):
        artin_apply(BraidWord(2, ()), free_word(3, [3]))


# ---------------------------------------------------------------------------
# the one-pass kernel against the per-letter action
# ---------------------------------------------------------------------------


def _letter_images(m: int, i: int, sign: int) -> list[FreeWord]:
    """The Artin rules for one letter, written out."""
    images = [generator(m, j) for j in range(1, m + 1)]
    if sign > 0:
        images[i - 1], images[i] = free_word(m, [i, i + 1, -i]), generator(m, i)
    else:
        images[i - 1], images[i] = generator(m, i + 1), free_word(m, [-(i + 1), i, i + 1])
    return images


def _apply_letter(m: int, i: int, sign: int, w: FreeWord) -> FreeWord:
    images = _letter_images(m, i, sign)
    out = []
    for j, s in w.letters:
        img = images[j - 1]
        out.extend(img.letters if s > 0 else img.inverse().letters)
    return free_reduce(FreeWord(m, tuple(out)))


def _oracle_images(beta: BraidWord) -> tuple[FreeWord, ...]:
    """Each generator pushed through the braid letter by letter, left to right."""
    m = beta.degree
    out = []
    for j in range(1, m + 1):
        w = generator(m, j)
        for i, s in beta.letters:
            w = _apply_letter(m, i, s, w)
        out.append(w)
    return tuple(out)


def _check_against_oracle(beta: BraidWord) -> None:
    assert artin_images(beta) == _oracle_images(beta)


def test_images_match_oracle_on_random_words():
    rng = random.Random(2024)
    for _ in range(150):
        m = rng.randint(2, 8)
        n = rng.randint(0, 30)
        _check_against_oracle(word(m, [rng.choice([1, -1]) * rng.randint(1, m - 1)
                                       for _ in range(n)]))


def test_images_match_oracle_on_twist_powers():
    for m in range(3, 9):
        delta = word(m, range(1, m))
        for k in (-2, -1, 1, 2, 3):
            _check_against_oracle(garside_delta(m) ** k)
            _check_against_oracle(delta ** k)
        _check_against_oracle(delta ** m)


def test_images_match_oracle_on_pseudo_anosov_family():
    for k in range(0, 11):
        _check_against_oracle(word(3, [1, -2]) ** k)


def test_images_match_oracle_on_acceptance_pair_and_a_long_power():
    _check_against_oracle(parse_braid("1 2 2 2 3", 4))
    _check_against_oracle(parse_braid("(1 2 3)^48", 4))
    _check_against_oracle(parse_braid("s1^47", 3))


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 8).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.integers(1, m - 1).flatmap(lambda i: st.sampled_from([i, -i])), max_size=30),
)))
def test_images_match_oracle_property(case):
    m, letters = case
    _check_against_oracle(word(m, letters))


def test_images_past_the_cap_raise_budget_error():
    with pytest.raises(SearchBudgetExceeded, match="a bound on the Artin images reaches"):
        artin_images(parse_braid("(1 -2)^16", 3))


def test_images_past_the_cap_are_never_built(monkeypatch):
    # the pass stops before a letter that could take its images past the cap
    import torusbraid.artin as artin

    for text, m in (("(1 -2)^16", 3), ("(1 2 -3)^12", 4), ("(-2 -1 3)^12", 4)):
        beta = parse_braid(text, m)
        totals = []  # of the images of the last k letters, until one passes 1000
        while not totals or totals[-1] <= 1000:
            suffix = BraidWord(m, beta.letters[len(beta) - len(totals):])
            totals.append(sum(map(len, artin_images(suffix))))
        calls = []
        times = artin._times
        monkeypatch.setattr(artin, "_times", lambda u, v: calls.append(1) or times(u, v))
        monkeypatch.setattr("torusbraid.braids.WORD_CAP", 1000)
        with pytest.raises(SearchBudgetExceeded):
            artin_images(beta)
        monkeypatch.undo()
        # each letter rewrites its images with two calls of _times
        assert totals[len(calls) // 2] <= 1000


def test_pseudo_anosov_images_at_k10_stay_under_the_cap():
    # the closed-pipe CLI test needs this pair's full output of about 390 KB
    total = sum(len(w) for w in artin_images(parse_braid("(1 -2)^10", 3)))
    assert 40_000 < total < WORD_CAP


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-3, 3).filter(bool), max_size=6), st.integers(-3, 3))
def test_braid_and_free_word_powers_agree_with_products(signed, k):
    # one rule for both kinds of word: the inverse reverses and flips, and a
    # power is a product of copies of the word or of its inverse
    bw, fw = word(4, signed), free_word(3, signed)
    inv = tuple((i, -s) for i, s in reversed(bw.letters))
    assert bw.inverse().letters == fw.inverse().letters == inv
    expect = (bw.letters if k >= 0 else inv) * abs(k)
    assert (bw ** k).letters == (fw ** k).letters == expect
    assert type((bw ** k).letters) is type((fw ** k).letters) is tuple

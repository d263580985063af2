"""Word movies: step legality, generation, validation, serialization."""

from __future__ import annotations

import os
import time

import pytest

from torusbraid import movies
from torusbraid.braids import BraidWord, garside_delta, word
from torusbraid.errors import (
    MovieGenerationError,
    MovieValidationError,
    PreconditionError,
)
from torusbraid.movies import (
    CancelPair,
    ChartMovie,
    FarSwap,
    InsertPair,
    R3,
    apply_step,
    mirror_chart,
    r3_window_sign,
    read_movie,
    slide_movie,
    validate_movie,
    write_movie,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "acceptance_movie.txt")

ACCEPT_A = word(4, [1, 2, 2, 2, 3])
ACCEPT_B = word(4, [1, 2, 3]) ** 4


def test_window_signs():
    # sign is positive when the outer letter index exceeds the inner one
    # for positive letters, and the rule flips for negative letters
    assert r3_window_sign(1, 2, 1) == 1
    assert r3_window_sign(2, 1, 1) == -1
    assert r3_window_sign(1, 2, -1) == -1
    assert r3_window_sign(2, 1, -1) == 1


def test_apply_far_swap():
    letters = [(1, 1), (3, 1)]
    apply_step(letters, FarSwap(0), 0)
    assert letters == [(3, 1), (1, 1)]


def test_far_swap_requires_gap():
    with pytest.raises(MovieValidationError):
        apply_step([(1, 1), (2, 1)], FarSwap(0), 0)


def test_apply_r3():
    letters = [(1, 1), (2, 1), (1, 1)]
    apply_step(letters, R3(0, 1), 0)
    assert letters == [(2, 1), (1, 1), (2, 1)]


def test_r3_rejects_wrong_stored_sign():
    with pytest.raises(MovieValidationError):
        apply_step([(1, 1), (2, 1), (1, 1)], R3(0, -1), 0)


def test_r3_rejects_mixed_window():
    with pytest.raises(MovieValidationError):
        apply_step([(1, 1), (2, -1), (1, 1)], R3(0, 1), 0)


def test_cancel_and_insert():
    letters = [(2, 1), (2, -1)]
    apply_step(letters, CancelPair(0), 0)
    assert letters == []
    apply_step(letters, InsertPair(0, 2, -1), 0)
    assert letters == [(2, -1), (2, 1)]


def test_cancel_requires_inverse_pair():
    with pytest.raises(MovieValidationError):
        apply_step([(2, 1), (2, 1)], CancelPair(0), 0)


def test_slide_movie_single_letter():
    a = word(3, [1])
    b = word(3, [1, 2]) ** 3
    movie = slide_movie(a, b)
    validate_movie(movie)
    assert movie.start_word == (a * b).letters
    assert movie.end_word == (b * a).letters


def test_slide_movie_acceptance_pair_shape():
    movie = slide_movie(ACCEPT_A, ACCEPT_B)
    validate_movie(movie)
    assert len(movie.steps) == 50
    assert movie.r3_count() == 20


def test_slide_movie_uniform_power_route():
    # b a power of a single generator: sliding uses reconnects only
    a = word(3, [1, 1])
    b = word(3, [1, 1, 1])
    movie = slide_movie(a, b)
    validate_movie(movie)
    assert movie.r3_count() == 0


def _commutes(a, b):
    from torusbraid.braids import commute_check

    return commute_check(a, b)


def test_slide_movie_degree_five_climb():
    a = word(5, [2])
    b = word(5, [1, 2, 3, 4]) ** 5
    movie = slide_movie(a, b)
    validate_movie(movie)
    assert movie.r3_count() == 6
    assert len(movie.steps) == 20


def test_slide_movie_low_degree_climbs_pinned():
    # s1 through delta^m climbs two periods, then descends: at degrees 3 and
    # 4 these are the whole step lists, climb included
    movie = slide_movie(word(3, [1]), word(3, [1, 2]) ** 3)
    assert movie.steps == (
        InsertPair(1, 1, -1), CancelPair(0), R3(1, 1), R3(4, -1),
    )
    movie = slide_movie(word(4, [1]), word(4, [1, 2, 3]) ** 4)
    assert movie.steps == (
        InsertPair(1, 1, -1), CancelPair(0),
        FarSwap(3), R3(1, 1), R3(3, 1), FarSwap(2),
        FarSwap(6), R3(7, -1), R3(9, -1), FarSwap(11),
    )


@pytest.mark.parametrize("m", range(3, 11))
def test_closed_form_climb_is_minimal(m, monkeypatch):
    # s1 delta delta -> delta delta s_{m-1}, and through the two periods of
    # lengths m and m-1 that a slide through Delta climbs
    delta = [(i, 1) for i in range(1, m)]
    for second in (delta, delta[:-1]):
        start = [(1, 1)] + delta + second
        goal = delta + second + [(m - 1, 1)]
        steps = movies._climb(0, m)
        letters = list(start)
        for idx, step in enumerate(steps):
            apply_step(letters, step, idx)
        assert letters == goal
        assert sum(isinstance(st, R3) for st in steps) == m - 2
        assert sum(isinstance(st, FarSwap) for st in steps) == (m - 2) * (m - 3)
    # the fewest triple points of any far-swap/R3 path through delta delta
    monkeypatch.setattr(movies, "WORD_PATH_STATES", 200_000)
    oracle = movies._word_path([(1, 1)] + delta * 2, delta * 2 + [(m - 1, 1)])
    assert sum(isinstance(st, R3) for st in oracle) == m - 2


# cocycle state sums of (a, delta^(2m)) at m = 5 and 7, computed by the
# searched climb that the closed form replaced
DELTA_FAMILY_SUMS = [
    (5, [1, 2, 2, 2, 3, 3, 3, 4], (3, 12, 12), (3, 12, 12)),
    (5, [2, 2, 2, 1], (27, 0, 54), (27, 54, 0)),
    (7, [5, 6, 4, 5, 1, 5, 1], (27, 54, 0), None),
]


@pytest.mark.parametrize("m, a, value, mirror_value", DELTA_FAMILY_SUMS)
def test_delta_family_state_sums_pinned(m, a, value, mirror_value):
    from torusbraid.quandles import cocycle_invariant

    pair = (word(m, a), word(m, list(range(1, m))) ** (2 * m))
    assert cocycle_invariant(*pair).coeffs == value
    if mirror_value is not None:
        assert cocycle_invariant(*mirror_chart(*pair)).coeffs == mirror_value


@pytest.mark.parametrize("m", [13, 16])
def test_slide_movie_high_degree_climb(m):
    start = time.perf_counter()
    movie = slide_movie(word(m, [1]), word(m, list(range(1, m))) ** m)
    validate_movie(movie)
    assert time.perf_counter() - start < 1.0
    assert movie.r3_count() == 2 * (m - 2)


def test_slide_movie_half_twist_mirror_in_place():
    # the ribbon tests slide (a, Delta^k) and (a^-1, Delta^-k); here every
    # crossing is reversed in place, so Delta's letters keep their order
    for k in range(1, 17):
        pair = mirror_chart(word(4, [1, 3]), garside_delta(4) ** k)
        validate_movie(slide_movie(*pair))


def test_per_letter_rule_needs_no_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("search reached")

    monkeypatch.setattr(movies, "_word_path", no_search)
    for a, b in (([1], [1, 3, 3]), ([1, 1], [3, 1, 3])):
        movie = slide_movie(word(4, a), word(4, b))
        validate_movie(movie)
        assert movie.r3_count() == 0


def test_slide_movie_rejects_label_one_on_the_last_period():
    # s2 descends to s1 in the first period of delta^2 and cannot climb alone
    with pytest.raises(MovieGenerationError):
        slide_movie(word(3, [1, 2]), word(3, [1, 2]) ** 2)


def test_slide_movie_search_fallback(monkeypatch):
    calls = []
    search = movies._word_path

    def spy(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(movies, "_word_path", spy)
    validate_movie(slide_movie(word(3, [2]), word(3, [1, 2, 2, 1])))
    assert calls


def test_slide_movie_mirror_pair():
    am = word(4, [-1, -2, -2, -2, -3])
    bm = (word(4, [-3, -2, -1])) ** 4
    movie = slide_movie(am, bm)
    validate_movie(movie)
    assert movie.r3_count() == 20


def test_slide_movie_rejects_noncommuting():
    with pytest.raises(PreconditionError, match="do not commute"):
        slide_movie(word(3, [1]), word(3, [2]))


def test_slide_movie_rejects_mixed_signs():
    a = word(4, [1, 3])
    b = garside_delta(4) ** 2
    mixed_a = word(4, [1, -3])
    if _commutes(mixed_a, b):
        with pytest.raises(MovieGenerationError):
            slide_movie(mixed_a, b)


def test_validate_catches_tampered_movie():
    movie = slide_movie(ACCEPT_A, ACCEPT_B)
    bad = ChartMovie(
        movie.degree, movie.braid_a, movie.braid_b, movie.steps[:-1]
    )
    with pytest.raises(MovieValidationError):
        validate_movie(bad)


def test_write_read_round_trip(tmp_path):
    movie = slide_movie(word(3, [1]), word(3, [1, 2]) ** 3)
    path = str(tmp_path / "movie.txt")
    write_movie(movie, path)
    assert read_movie(path) == movie


def test_fixture_movie_validates():
    movie = read_movie(FIXTURE)
    assert movie.degree == 4
    assert movie.braid_a == ACCEPT_A
    assert movie.braid_b == ACCEPT_B
    validate_movie(movie)
    # deliberately different from the generated movie
    generated = slide_movie(ACCEPT_A, ACCEPT_B)
    assert movie.steps != generated.steps
    assert movie.r3_count() == 22


def test_read_movie_rejects_garbage(tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("degree 3\na 1\nb 1 2\nwobble 4\n")
    with pytest.raises((PreconditionError, MovieValidationError)):
        read_movie(path)

"""Word movies: step legality, generation, validation, serialization."""

from __future__ import annotations

import os

import pytest

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


def test_slide_movie_mirror_pair():
    am = word(4, [-1, -2, -2, -2, -3])
    bm = (word(4, [-3, -2, -1])) ** 4
    movie = slide_movie(am, bm)
    validate_movie(movie)
    assert movie.r3_count() == 20


def test_slide_movie_rejects_noncommuting():
    with pytest.raises((MovieGenerationError, PreconditionError)):
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

"""Word movies: step legality, generation, validation, serialization."""

from __future__ import annotations

import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbraid import braids, movies
from torusbraid.braids import BraidWord, garside_delta, word
from torusbraid.errors import (
    MovieGenerationError,
    MovieValidationError,
    PreconditionError,
    SearchBudgetExceeded,
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
from torusbraid.quandles import cocycle_invariant

from oracles import climb, closed_form_movie, word_path

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
    assert len(movie.steps) == 20
    assert movie.r3_count() == 12


def test_slide_movie_uniform_power_route():
    # b a power of a single generator: a b and b a are one word
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
    assert len(movie.steps) == 18


def test_slide_movie_low_degree_climbs_pinned():
    # s1 through delta^m: at degrees 3 and 4 these are the whole step lists
    movie = slide_movie(word(3, [1]), word(3, [1, 2]) ** 3)
    assert movie.steps == (R3(1, 1), R3(4, -1))
    movie = slide_movie(word(4, [1]), word(4, [1, 2, 3]) ** 4)
    assert movie.steps == (
        FarSwap(3), R3(1, 1), R3(3, 1), FarSwap(2),
        FarSwap(6), R3(7, -1), R3(9, -1), FarSwap(11),
    )


@pytest.mark.parametrize("m", range(3, 11))
def test_closed_form_climb_is_minimal(m):
    # s1 delta delta -> delta delta s_{m-1}, and through the two periods of
    # lengths m and m-1 that a slide through Delta climbs: the positive path
    # makes as few triple points as the closed-form climb
    delta = [(i, 1) for i in range(1, m)]
    for second in (delta, delta[:-1]):
        start = [(1, 1)] + delta + second
        goal = delta + second + [(m - 1, 1)]
        for steps in (list(movies._positive_path(start, goal)), climb(0, m)):
            letters = list(start)
            for idx, step in enumerate(steps):
                apply_step(letters, step, idx)
            assert letters == goal
            assert sum(isinstance(st, R3) for st in steps) == m - 2
    # the fewest triple points of any far-swap/R3 path through delta delta
    oracle = word_path([(1, 1)] + delta * 2, delta * 2 + [(m - 1, 1)], states=200_000)
    assert sum(isinstance(st, R3) for st in oracle) == m - 2


# cocycle state sums of (a, delta^(2m)) at m = 5 and 7, computed from a
# searched movie, not from the positive path
DELTA_FAMILY_SUMS = [
    (5, [1, 2, 2, 2, 3, 3, 3, 4], (3, 12, 12), (3, 12, 12)),
    (5, [2, 2, 2, 1], (27, 0, 54), (27, 54, 0)),
    (7, [5, 6, 4, 5, 1, 5, 1], (27, 54, 0), None),
]


@pytest.mark.parametrize("m, a, value, mirror_value", DELTA_FAMILY_SUMS)
def test_delta_family_state_sums_pinned(m, a, value, mirror_value):
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


def test_slide_movie_label_one_on_the_last_period():
    # a is delta at degree 3 and b its square: ab and ba are one word
    a, b = word(3, [1, 2]), word(3, [1, 2]) ** 2
    assert slide_movie(a, b).steps == ()
    assert str(cocycle_invariant(a, b)) == "3"


def test_slide_movie_positive_path_fallback(monkeypatch):
    # every pair, a power of delta or not and of either sign, takes one path
    # on its own words
    calls = []
    path = movies._positive_path

    def spy(start, goal):
        calls.append((tuple(start), tuple(goal)))
        return path(start, goal)

    monkeypatch.setattr(movies, "_positive_path", spy)
    for a, b in ((word(3, [2]), word(3, [1, 2, 2, 1])), (ACCEPT_A, ACCEPT_B),
                 mirror_chart(ACCEPT_A, ACCEPT_B)):
        calls.clear()
        validate_movie(slide_movie(a, b))
        assert calls == [((a * b).letters, (b * a).letters)]


def test_slide_movie_checks_each_step_once_as_it_is_made(monkeypatch):
    # every step goes through apply_step once, in order, and the finished
    # movie is not replayed by validate_movie
    pairs = [(ACCEPT_A, ACCEPT_B), mirror_chart(ACCEPT_A, ACCEPT_B),
             (word(4, [1, 3]), garside_delta(4) ** 3)]
    applied = []
    apply = movies.apply_step

    def spy(letters, step, step_index=-1):
        applied.append(step)
        return apply(letters, step, step_index)

    def no_validation(movie):
        raise AssertionError("the generated movie was replayed")

    monkeypatch.setattr(movies, "apply_step", spy)
    monkeypatch.setattr(movies, "validate_movie", no_validation)
    for a, b in pairs:
        applied.clear()
        movie = slide_movie(a, b)
        assert movie.steps and tuple(applied) == movie.steps


def test_generated_movies_pass_validation():
    for a, b in _one_sign_pairs() + _closed_form_pairs():
        for pair in ((a, b), mirror_chart(a, b)):
            validate_movie(slide_movie(*pair))


def _closed_form_pairs() -> list[tuple[BraidWord, BraidWord]]:
    """Positive pairs that the closed forms slide: powers of delta, Delta
    and their reversals, and letters equal to or far from every letter of b."""
    rng = random.Random(16)
    pairs = [(ACCEPT_A, ACCEPT_B), (ACCEPT_A, ACCEPT_B ** 2)]
    pairs += [(word(4, [1, 3]), garside_delta(4) ** k) for k in range(1, 5)]
    for m in (3, 4, 5):
        delta = word(m, list(range(1, m)))
        for b in (delta ** m, delta.reverse() ** m, garside_delta(m) ** 2):
            for _ in range(6):
                a = word(m, [rng.randint(1, m - 1) for _ in range(rng.randint(1, 5))])
                pairs.append((a, b))
    for m, far in ((4, [1, 3]), (6, [1, 3, 5])):
        for _ in range(8):
            pairs.append(tuple(word(m, rng.choices(far, k=rng.randint(1, 5))) for _ in "ab"))
    return pairs


def test_positive_path_state_sums_match_the_closed_forms():
    # the closed-form slides that the positive path replaced, as the oracle:
    # equal state sums, and the path is never the longer movie
    for a, b in _closed_form_pairs():
        for pair in ((a, b), mirror_chart(a, b)):
            oracle = closed_form_movie(*pair)
            assert oracle is not None, pair
            # a supplied movie is validated before it is replayed
            assert cocycle_invariant(*pair, movie=oracle) == cocycle_invariant(*pair), pair
            assert len(slide_movie(*pair).steps) <= len(oracle.steps), pair


def _one_sign_pairs() -> list[tuple[BraidWord, BraidWord]]:
    """Seeded pairs at degrees 3-7 of the forms ``(w, w^k)``, ``(w, Delta^2k)``
    and ``(s_i, delta^mk)``, every other one mirrored."""
    rng = random.Random(23)
    pairs = []
    for m in range(3, 8):
        delta, d2 = word(m, list(range(1, m))), garside_delta(m) ** 2
        for _ in range(4):
            w = word(m, [rng.randint(1, m - 1) for _ in range(rng.randint(1, 6))])
            k = rng.randint(1, 2)
            pairs += [(w, w ** (k + 1)), (w, d2 ** k),
                      (word(m, [rng.randint(1, m - 1)]), delta ** (m * k))]
    return [mirror_chart(*pair) if n % 2 else pair for n, pair in enumerate(pairs)]


def test_negative_pairs_take_the_mirror_path_with_negated_signs():
    # oracle: slide the mirror pair and negate every triple point's sign
    for a, b in _one_sign_pairs() + _closed_form_pairs():
        expected = tuple(R3(st.pos, -st.sign) if isinstance(st, R3) else st
                         for st in slide_movie(a, b).steps)
        assert slide_movie(*mirror_chart(a, b)).steps == expected, (a, b)


@st.composite
def _positive_pairs(draw):
    m = draw(st.integers(3, 6))
    w = word(m, draw(st.lists(st.integers(1, m - 1), min_size=1, max_size=8)))
    k, j = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    d2 = garside_delta(m) ** 2
    return draw(st.sampled_from([(w, w ** k), (w * d2 ** j, w ** k), (d2, w)]))


@settings(deadline=None, max_examples=80)
@given(_positive_pairs())
def test_positive_pairs_and_mirrors_get_valid_movies(pair):
    for a, b in (pair, mirror_chart(*pair)):
        validate_movie(slide_movie(a, b))


def test_positive_path_on_a_long_word_needs_no_recursion():
    rng = random.Random(6)
    w = word(6, [rng.randint(1, 5) for _ in range(1500)])
    d2 = garside_delta(6) ** 2
    validate_movie(slide_movie(w, d2))
    validate_movie(slide_movie(d2, w))


def test_positive_path_stops_past_the_step_cap(monkeypatch):
    # b is Delta spelled otherwise: the path takes 7 steps
    pair = (word(4, [1, 3]), word(4, [1, 3, 2, 1, 3, 2]))
    monkeypatch.setattr(braids, "WORD_CAP", 7)
    assert len(slide_movie(*pair).steps) == 7
    monkeypatch.setattr(braids, "WORD_CAP", 6)
    with pytest.raises(SearchBudgetExceeded, match="^movie reaches 7 steps, over the cap of 6$"):
        slide_movie(*pair)
    # a power of delta takes 30,100 steps, and the cap stops it too
    monkeypatch.setattr(braids, "WORD_CAP", 10_000)
    with pytest.raises(SearchBudgetExceeded,
                       match="^movie reaches 10001 steps, over the cap of 10000$"):
        slide_movie(word(4, [1]) ** 100, word(4, [1, 2, 3]) ** 200)


def test_slide_movie_mirror_pair():
    am = word(4, [-1, -2, -2, -2, -3])
    bm = (word(4, [-3, -2, -1])) ** 4
    movie = slide_movie(am, bm)
    validate_movie(movie)
    assert movie.r3_count() == 20
    # every crossing of the acceptance pair reversed in place
    assert slide_movie(*mirror_chart(ACCEPT_A, ACCEPT_B)).r3_count() == 12


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


def test_movie_errors_are_precondition_errors():
    # one class, so one CLI exit code
    assert issubclass(MovieValidationError, PreconditionError)
    assert issubclass(MovieGenerationError, PreconditionError)


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


def test_write_read_round_trip_of_every_step_kind_and_sign(tmp_path):
    steps = (FarSwap(0), R3(1, 1), R3(2, -1), CancelPair(3),
             InsertPair(0, 2, 1), InsertPair(5, 1, -1))
    movie = ChartMovie(3, word(3, [1, -2]), word(3, [2]), steps)
    path = tmp_path / "movie.txt"
    write_movie(movie, str(path))
    assert path.read_text(encoding="utf-8") == (
        "degree 3\na 1 -2\nb 2\nfar 0\nr3 1 +\nr3 2 -\ncancel 3\n"
        "insert 0 2 +\ninsert 5 1 -\n")
    assert read_movie(str(path)) == movie


def _movie_file(tmp_path, step: str) -> str:
    path = tmp_path / "movie.txt"
    path.write_text(f"degree 3\na 1\nb 1\n{step}\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("step, reason", [
    ("far 1 2", "expected far POS"),
    ("r3 5", "expected r3 POS SIGN"),
    ("insert 0 1 *", "bad sign '*'"),
    ("cancel ١", "bad integer '١'"),
    ("wobble 4", "unknown directive 'wobble'"),
])
def test_read_movie_refuses_bad_step_lines(tmp_path, step, reason):
    path = _movie_file(tmp_path, step)
    with pytest.raises(PreconditionError) as exc:
        read_movie(path)
    assert str(exc.value) == f"{path}:4: bad movie line {step!r} ({reason})"


@pytest.mark.parametrize("bad", ["1_000", "²", "9" * 5000])
@pytest.mark.parametrize("line", ["degree {}", "far {}", "r3 {} +", "insert 0 {} -"])
def test_read_movie_reads_ascii_integers_only(tmp_path, bad, line):
    path = tmp_path / "movie.txt"
    text = line.format(bad)
    path.write_text(f"{text}\na 1\nb 1\n" if line.startswith("degree")
                    else f"degree 3\na 1\nb 1\n{text}\n", encoding="utf-8")
    lineno = 1 if line.startswith("degree") else 4
    with pytest.raises(PreconditionError) as exc:
        read_movie(str(path))
    assert str(exc.value) == f"{path}:{lineno}: bad movie line {text!r} (bad integer {bad!r})"


def test_write_movie_to_an_unwritable_path_is_a_precondition_error(tmp_path):
    movie = slide_movie(word(3, [1]), word(3, [1, 2]) ** 3)
    path = str(tmp_path / "missing" / "movie.txt")
    with pytest.raises(PreconditionError, match="^cannot write movie file "):
        write_movie(movie, path)


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

"""Word-rewriting movies between ``a * b`` and ``b * a`` for commuting pairs.

A *movie* is a finite sequence of elementary rewriting steps transforming the
concatenated word ``a b`` into ``b a``:

* ``FarSwap(p)``      -- exchange the commuting letters at positions p, p+1
                         (their indices differ by at least 2; any signs),
* ``R3(p, sign)``     -- rewrite the window ``s_i s_j s_i -> s_j s_i s_j`` at
                         positions p..p+2, where |i-j| = 1 and all three
                         letters carry the same crossing sign.  Each such step
                         is a triple point of the swept surface; ``sign`` is
                         its sign (positive iff j > i for positive windows and
                         iff j < i for negative ones) and is validated,
* ``CancelPair(p)``   -- delete the mutually inverse letters at p, p+1,
* ``InsertPair(p, i, sign)`` -- insert ``s_i^sign s_i^-sign`` at position p.

Any valid movie between ``a b`` and ``b a`` describes the same embedded
surface; its number of R3 steps bounds the triple point number from above.
Weights computed from movies should depend only on the pair, but the cocycle
state sum still depends on the movie once it has triple points of both
crossing signs (see :func:`torusbraid.quandles.cocycle_invariant`).

:func:`slide_movie` generates a movie for every commuting pair whose letters
all carry one crossing sign.  ``a b`` and ``b a`` are then two words of one
sign for one braid, and Garside's word property made constructive joins them
by far swaps and R3 moves alone, built letter by letter in at most
``WORD_CAP`` steps; the path reads only letter indices, so either sign takes
it, checking each step through :func:`apply_step` as it is made.  Generated
movies insert and cancel nothing; those steps come from movie files.
Mixed-sign pairs are not supported.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Sequence, Union

from .braids import (
    BraidWord,
    Letter,
    check_cap,
    check_pair,
    format_braid,
    parse_braid,
)
from .errors import MovieGenerationError, MovieValidationError, PreconditionError
from .errors import read_int, read_lines, write_lines


@dataclass(frozen=True, slots=True)
class FarSwap:
    pos: int


@dataclass(frozen=True, slots=True)
class R3:
    pos: int
    sign: int


@dataclass(frozen=True, slots=True)
class CancelPair:
    pos: int


@dataclass(frozen=True, slots=True)
class InsertPair:
    pos: int
    index: int
    sign: int


Step = Union[FarSwap, R3, CancelPair, InsertPair]


@dataclass(frozen=True, slots=True)
class ChartMovie:
    degree: int
    braid_a: BraidWord
    braid_b: BraidWord
    steps: tuple[Step, ...]

    @property
    def start_word(self) -> tuple[Letter, ...]:
        return (self.braid_a * self.braid_b).letters

    @property
    def end_word(self) -> tuple[Letter, ...]:
        return (self.braid_b * self.braid_a).letters

    def r3_count(self) -> int:
        return sum(1 for s in self.steps if isinstance(s, R3))


def r3_window_sign(i: int, j: int, crossing_sign: int) -> int:
    """Sign of the triple point created by ``s_i s_j s_i -> s_j s_i s_j``."""
    return 1 if (j > i) == (crossing_sign > 0) else -1


def apply_step(letters: list[Letter], step: Step, step_index: int = -1) -> None:
    """Apply one step in place, raising MovieValidationError if illegal."""

    def bad(reason: str) -> MovieValidationError:
        return MovieValidationError(step_index, reason)

    n = len(letters)
    if isinstance(step, FarSwap):
        p = step.pos
        if not 0 <= p <= n - 2:
            raise bad(f"far swap at {p} out of range for word of length {n}")
        (i, si), (j, sj) = letters[p], letters[p + 1]
        if abs(i - j) < 2:
            raise bad(f"letters s{i}, s{j} at {p} are not far commuting")
        letters[p], letters[p + 1] = (j, sj), (i, si)
    elif isinstance(step, R3):
        p = step.pos
        if not 0 <= p <= n - 3:
            raise bad(f"R3 window at {p} out of range for word of length {n}")
        (i, s1), (j, s2), (k, s3) = letters[p : p + 3]
        if not (i == k and abs(i - j) == 1 and s1 == s2 == s3):
            raise bad(
                f"window at {p} is not s_i s_j s_i with one sign "
                f"(got {letters[p:p+3]})"
            )
        expected = r3_window_sign(i, j, s1)
        if step.sign != expected:
            raise bad(
                f"stored triple-point sign {step.sign:+d} contradicts the "
                f"window (expected {expected:+d})"
            )
        letters[p : p + 3] = [(j, s1), (i, s1), (j, s1)]
    elif isinstance(step, CancelPair):
        p = step.pos
        if not 0 <= p <= n - 2:
            raise bad(f"cancellation at {p} out of range for word of length {n}")
        (i, si), (j, sj) = letters[p], letters[p + 1]
        if i != j or si != -sj:
            raise bad(f"letters at {p} are not an inverse pair")
        del letters[p : p + 2]
    elif isinstance(step, InsertPair):
        p = step.pos
        if not 0 <= p <= n:
            raise bad(f"insertion at {p} out of range for word of length {n}")
        if step.sign not in (1, -1):
            raise bad("insertion sign must be +1 or -1")
        letters[p:p] = [(step.index, step.sign), (step.index, -step.sign)]
    else:  # pragma: no cover - exhaustive by construction
        raise bad(f"unknown step {step!r}")


def validate_movie(movie: ChartMovie) -> None:
    """Replay the movie; raise MovieValidationError at the first illegal step.

    Checks every step's side conditions (positions, far commutation, window
    shape, stored triple-point signs) and that the final word is exactly
    ``b a``.  Letter indices are range-checked against the degree on the way.
    Generated movies need no replay: their steps are checked as they are made.
    """
    letters = list(movie.start_word)
    for idx, step in enumerate(movie.steps):
        if isinstance(step, InsertPair) and not (
            1 <= step.index <= movie.degree - 1
        ):
            raise MovieValidationError(
                idx, f"inserted index {step.index} out of range"
            )
        apply_step(letters, step, idx)
    if tuple(letters) != movie.end_word:
        raise MovieValidationError(
            len(movie.steps),
            "movie ends at a word different from b a",
        )


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _positive_path(start: Sequence[Letter], goal: Sequence[Letter]) -> Iterator[Step]:
    """Far swaps and R3 moves from ``start`` to ``goal``, two words of one
    sign for one braid (Garside's word property, made constructive).

    Each letter of ``goal``, left to right, is brought to its place q in the
    current word.  The suffixes from q on are one braid, so the letter
    ``s_i`` left-divides the suffix ``s_j W``, and so does the lcm of ``s_i``
    and ``s_j``: for far j, ``s_i`` is brought to the front of ``W`` and
    far-swapped; for adjacent j, ``s_i`` and then ``s_j`` are brought to the
    front of ``W`` and the window ``s_j s_i s_j`` becomes ``s_i s_j s_i`` in
    one triple point, signed by the window's letters.  Each step goes through
    :func:`apply_step`, so it is checked as it is made.  The path inserts
    nothing, puts goal letter q at q and never touches a position below q
    again, so it ends at ``goal``.  Raises SearchBudgetExceeded past
    ``WORD_CAP`` steps.
    """
    cur = list(start)
    count = 0
    for q, letter in enumerate(goal):
        # (index, position) pairs to bring and steps to make, on a stack
        # rather than the call stack: the nesting grows with the word
        todo: list = [(letter[0], q)]
        while todo:
            task = todo.pop()
            if isinstance(task, tuple):
                i, p = task
                j = cur[p][0]
                if abs(i - j) >= 2:
                    todo += [FarSwap(p), (i, p + 1)]
                elif i != j:
                    todo += [R3(p, r3_window_sign(j, i, cur[p][1])), (j, p + 2), (i, p + 1)]
            else:
                check_cap(count + 1, "movie", "steps")
                apply_step(cur, task, count)
                count += 1
                yield task


def slide_movie(a: BraidWord, b: BraidWord) -> ChartMovie:
    """Movie from ``a b`` to ``b a`` made of far swaps and triple points.

    Preconditions: equal degrees and ``ab = ba``.  All letters of both words
    must carry the same crossing sign (a pair and its mirror are supported;
    mixed signs raise MovieGenerationError).  Each step is checked as it is
    made, and the path ends at ``b a``, so the movie is valid as returned.
    """
    check_pair(a, b)
    if len({s for _, s in a.letters + b.letters}) > 1:
        raise MovieGenerationError(
            "mixed-sign pairs are not supported by the slide generator"
        )
    steps = tuple(_positive_path((a * b).letters, (b * a).letters))
    return ChartMovie(a.degree, a, b, steps)


def mirror_chart(a: BraidWord, b: BraidWord) -> tuple[BraidWord, BraidWord]:
    """The mirror pair: every crossing of both words reversed in place."""
    return (
        BraidWord(a.degree, tuple((i, -s) for i, s in a.letters)),
        BraidWord(b.degree, tuple((i, -s) for i, s in b.letters)),
    )


# ---------------------------------------------------------------------------
# movie files
# ---------------------------------------------------------------------------


# The file keyword of each step kind.  A step line is the keyword, then the
# step's fields in their order; signs are written ``+`` or ``-``.
_KEYWORDS = {FarSwap: "far", R3: "r3", CancelPair: "cancel", InsertPair: "insert"}
_STEPS = {key: kind for kind, key in _KEYWORDS.items()}


def write_movie(movie: ChartMovie, path: str) -> None:
    """Write the plain-text movie format (see :func:`read_movie`)."""
    lines = [
        f"degree {movie.degree}",
        f"a {format_braid(movie.braid_a)}",
        f"b {format_braid(movie.braid_b)}",
    ]
    for st in movie.steps:
        line = [_KEYWORDS[type(st)]]
        for f in fields(st):
            v = getattr(st, f.name)
            line.append(("+" if v > 0 else "-") if f.name == "sign" else str(v))
        lines.append(" ".join(line))
    write_lines(path, "movie", lines)


def read_movie(path: str) -> ChartMovie:
    """Read a movie file.

    Format: ``degree m`` then ``a <letters>`` and ``b <letters>`` (the braid
    grammar of :func:`torusbraid.braids.parse_braid`), then one step per line:
    ``far P`` | ``r3 P +`` | ``r3 P -`` | ``cancel P`` | ``insert P I +-``.
    :func:`torusbraid.errors.read_lines` drops blank lines and ``#`` comments,
    integers are read by :func:`torusbraid.errors.read_int`, and
    ``parse_braid`` caps the degree.  The movie is not validated here; run
    :func:`validate_movie`.
    """
    degree: int | None = None
    words: dict[str, BraidWord] = {}
    steps: list[Step] = []
    for lineno, line in read_lines(path, "movie"):
        parts = line.split(None, 1)
        key, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        try:
            if key == "degree":
                degree = read_int(rest, f"bad integer {rest!r}")
            elif key in ("a", "b"):
                if degree is None:
                    raise ValueError("degree must come first")
                words[key] = parse_braid(rest, degree)
            elif key in _STEPS:
                kind, values = _STEPS[key], rest.split()
                names = [f.name for f in fields(kind)]
                if len(values) != len(names):
                    raise ValueError(f"expected {key} {' '.join(names).upper()}")
                steps.append(kind(*(
                    _parse_sign(v) if name == "sign" else read_int(v, f"bad integer {v!r}")
                    for name, v in zip(names, values))))
            else:
                raise ValueError(f"unknown directive {key!r}")
        except ValueError as exc:
            raise PreconditionError(
                f"{path}:{lineno}: bad movie line {line!r} ({exc})"
            ) from None
    if degree is None or len(words) < 2:
        raise PreconditionError(
            f"{path}: movie file must declare degree, a and b"
        )
    return ChartMovie(degree, words["a"], words["b"], tuple(steps))


def _parse_sign(tok: str) -> int:
    if tok in ("+", "+1", "1"):
        return 1
    if tok in ("-", "-1"):
        return -1
    raise ValueError(f"bad sign {tok!r}")

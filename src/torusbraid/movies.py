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
surface, so downstream weights computed from movies do not depend on which
movie is used -- only on the pair.  Reconnections (two strands with equal
letters meeting) leave the word unchanged; generated movies record them as an
InsertPair immediately followed by the CancelPair that undoes it, purely as a
bookkeeping trace of the event.

:func:`slide_movie` generates a movie by sliding the letters of ``a`` through
``b`` one at a time, rightmost first.  The generator is exact for the families
where such movies are known: ``b`` a literal power of the cycling word
``delta = s1 s2 .. s_{m-1}``, or of a single generator, or empty; otherwise it
falls back to a budgeted breadth-first search per letter and reports failure
honestly.  A letter of ``a`` that does not commute with ``b`` admits no
per-letter slide at all and raises a generation error naming the letter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache
from typing import Union

from .braids import BraidWord, Letter, commute_check, word
from .errors import (
    MovieGenerationError,
    MovieValidationError,
    PreconditionError,
    SearchBudgetExceeded,
)


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


def _delta_power(letters: tuple[Letter, ...], m: int) -> int | None:
    """If ``letters`` is literally (s1 .. s_{m-1})^r with r >= 1, return r."""
    period = [(i, 1) for i in range(1, m)]
    if m < 2 or not letters or len(letters) % len(period):
        return None
    r = len(letters) // len(period)
    return r if list(letters) == period * r else None


def _uniform_power(letters: tuple[Letter, ...]) -> tuple[int, int, int] | None:
    """If all letters equal (j, s), return (j, s, count)."""
    if not letters:
        return None
    j, s = letters[0]
    if all(let == (j, s) for let in letters):
        return j, s, len(letters)
    return None


def _reconnect(s: int, index: int, sign: int) -> list[Step]:
    """Bookkeeping trace of two same-letter strands meeting at position s."""
    return [InsertPair(s + 1, index, -sign), CancelPair(s)]


def _descend(s: int, cur: int, m: int) -> list[Step]:
    """Slide ``s_cur`` (cur >= 2) through one delta period; slider index s.

    The slider far-swaps past s1 .. s_{cur-2}, crosses the period's own
    ``s_{cur-1} s_cur`` in a single negative triple point, and the freed
    ``s_{cur-1}`` far-swaps out past s_{cur+1} .. s_{m-1}.  Net effect:
    ``s_cur delta = delta s_{cur-1}``, slider advances m-1 positions.
    """
    steps: list[Step] = [FarSwap(s + t) for t in range(cur - 2)]
    steps.append(R3(s + cur - 2, -1))
    steps.extend(FarSwap(s + cur + t) for t in range(m - 1 - cur))
    return steps


def _climb(s: int, m: int) -> list[Step]:
    """Slide ``s1`` through two delta periods, emerging as ``s_{m-1}``.

    Starts with a reconnection against the first period's own s1, then climbs
    one index per positive triple point.  Exact recipes for degrees 3 and 4;
    larger degrees search for a minimal-triple-point path.
    """
    if m == 3:
        return _reconnect(s, 1, 1) + [R3(s + 1, 1)]
    if m == 4:
        return _reconnect(s, 1, 1) + [
            FarSwap(s + 3),
            R3(s + 1, 1),
            R3(s + 3, 1),
            FarSwap(s + 2),
        ]
    return _reconnect(s, 1, 1) + [_shift_step(st, s) for st in _climb_path(m)]


@cache
def _climb_path(m: int) -> tuple[Step, ...]:
    """The searched part of :func:`_climb` at offset 0; it depends on m alone."""
    start = [(1, 1)] + [(i, 1) for i in range(1, m)] * 2
    goal = [(i, 1) for i in range(1, m)] * 2 + [(m - 1, 1)]
    path = _word_path(start, goal, budget=200_000)
    if path is None:
        raise MovieGenerationError(
            f"no rewriting found for s1 through delta^2 at degree {m}"
        )
    return tuple(path)


def _shift_step(step: Step, offset: int) -> Step:
    if isinstance(step, FarSwap):
        return FarSwap(step.pos + offset)
    if isinstance(step, R3):
        return R3(step.pos + offset, step.sign)
    if isinstance(step, CancelPair):
        return CancelPair(step.pos + offset)
    return InsertPair(step.pos + offset, step.index, step.sign)


def _word_path(
    start: list[Letter], goal: list[Letter], budget: int
) -> list[Step] | None:
    """Shortest FarSwap/R3 path between equal-length words, fewest R3 first.

    Deterministic 0--1 breadth-first search (far swaps are free, triple
    points cost 1).  Returns None if the goal is unreachable; raises
    SearchBudgetExceeded if the state budget runs out first.
    """
    src, dst = tuple(start), tuple(goal)
    if src == dst:
        return []
    dist: dict[tuple, tuple] = {src: (0, None, None)}  # cost, parent, step
    queue: deque[tuple] = deque([src])
    done: set[tuple] = set()
    while queue:
        state = queue.popleft()
        if state in done:
            continue
        done.add(state)
        if state == dst:
            break
        if len(done) > budget:
            raise SearchBudgetExceeded(
                f"word-rewriting search exceeded {budget} states"
            )
        cost = dist[state][0]
        n = len(state)
        moves: list[tuple[Step, tuple, int]] = []
        for p in range(n - 1):
            (i, _), (j, _) = state[p], state[p + 1]
            if abs(i - j) >= 2:
                nxt = state[:p] + (state[p + 1], state[p]) + state[p + 2 :]
                moves.append((FarSwap(p), nxt, 0))
        for p in range(n - 2):
            (i, s1), (j, s2), (k, s3) = state[p : p + 3]
            if i == k and abs(i - j) == 1 and s1 == s2 == s3:
                nxt = (
                    state[:p]
                    + ((j, s1), (i, s1), (j, s1))
                    + state[p + 3 :]
                )
                moves.append((R3(p, r3_window_sign(i, j, s1)), nxt, 1))
        for step, nxt, w in moves:
            if nxt in done:
                continue
            new_cost = cost + w
            if nxt not in dist or new_cost < dist[nxt][0]:
                dist[nxt] = (new_cost, state, step)
                if w:
                    queue.append(nxt)
                else:
                    queue.appendleft(nxt)
    if dst not in dist:
        return None
    path: list[Step] = []
    cur = dst
    while cur != src:
        _, parent, step = dist[cur]
        path.append(step)
        cur = parent
    path.reverse()
    return path


def _slide_one_letter(
    c: int, b: BraidWord, m: int, offset: int
) -> list[Step]:
    """Steps turning ``s_c b`` into ``b s_c`` (positive letters), at offset."""
    letters = b.letters
    if not letters:
        return []
    r = _delta_power(letters, m)
    if r is not None and m >= 3:
        if r % m:
            raise MovieGenerationError(
                f"s{c} does not commute with delta^{r} at degree {m} "
                f"(power must be a multiple of {m})"
            )
        steps: list[Step] = []
        s = offset
        cur = c
        periods = r
        while periods:
            if cur >= 2:
                steps.extend(_descend(s, cur, m))
                s += m - 1
                cur -= 1
                periods -= 1
            else:
                if periods < 2:
                    raise MovieGenerationError(
                        f"slide of s{c} cannot close its journey "
                        f"(one delta period left at label 1)"
                    )
                steps.extend(_climb(s, m))
                s += 2 * (m - 1)
                cur = m - 1
                periods -= 2
        if cur != c:  # pragma: no cover - impossible when r % m == 0
            raise MovieGenerationError("slide journey ended on a wrong label")
        return steps
    uni = _uniform_power(letters)
    if uni is not None:
        j, sgn, r = uni
        if c == j:
            steps = []
            s = offset
            for _ in range(r):
                steps.extend(_reconnect(s, c, sgn))
                s += 1
            return steps
        if abs(c - j) >= 2:
            return [FarSwap(offset + t) for t in range(r)]
        raise MovieGenerationError(
            f"s{c} does not commute with a power of s{j}"
        )
    # general fallback: bounded search for this letter alone
    if not commute_check(word(m, [c]), b):
        raise MovieGenerationError(
            f"letter s{c} does not commute with the second word; "
            f"per-letter sliding does not apply to this pair"
        )
    start = [(c, 1)] + list(letters)
    goal = list(letters) + [(c, 1)]
    path = _word_path(start, goal, budget=50_000)
    if path is None:
        raise MovieGenerationError(
            f"no far-swap/triple-point rewriting found for s{c} through "
            f"the second word (insertions would be required)"
        )
    return [_shift_step(st, offset) for st in path]


def slide_movie(a: BraidWord, b: BraidWord) -> ChartMovie:
    """Movie from ``a b`` to ``b a`` sliding a's letters rightmost-first.

    Preconditions: equal degrees and ``ab = ba``.  All letters of both words
    must carry the same crossing sign (a pair and its mirror are supported;
    mixed signs are not).  Raises MovieGenerationError with a diagnostic when
    the pair is outside the generator's reach; the movie returned otherwise is
    validated before being handed back.
    """
    if a.degree != b.degree:
        raise PreconditionError(
            f"braid degrees differ: {a.degree} vs {b.degree}"
        )
    if not commute_check(a, b):
        raise PreconditionError(
            "the braids do not commute; no movie from ab to ba exists"
        )
    signs = {s for _, s in a.letters} | {s for _, s in b.letters}
    if signs == {1, -1}:
        raise MovieGenerationError(
            "mixed-sign pairs are not supported by the slide generator"
        )
    if signs == {-1}:
        positive = slide_movie(_negate(a), _negate(b))
        steps = tuple(_mirror_step(st) for st in positive.steps)
        movie = ChartMovie(a.degree, a, b, steps)
        validate_movie(movie)
        return movie
    steps = []
    for k in range(len(a.letters) - 1, -1, -1):
        c = a.letters[k][0]
        steps.extend(_slide_one_letter(c, b, a.degree, offset=k))
    movie = ChartMovie(a.degree, a, b, tuple(steps))
    validate_movie(movie)
    return movie


def _negate(w: BraidWord) -> BraidWord:
    return BraidWord(w.degree, tuple((i, -s) for i, s in w.letters))


def _mirror_step(step: Step) -> Step:
    if isinstance(step, R3):
        return R3(step.pos, -step.sign)
    if isinstance(step, InsertPair):
        return InsertPair(step.pos, step.index, -step.sign)
    return step


# ---------------------------------------------------------------------------
# movie files
# ---------------------------------------------------------------------------


def write_movie(movie: ChartMovie, path: str) -> None:
    """Write the plain-text movie format (see :func:`read_movie`)."""
    lines = [
        f"degree {movie.degree}",
        "a " + (" ".join(str(i * s) for i, s in movie.braid_a.letters) or "e"),
        "b " + (" ".join(str(i * s) for i, s in movie.braid_b.letters) or "e"),
    ]
    for st in movie.steps:
        if isinstance(st, FarSwap):
            lines.append(f"far {st.pos}")
        elif isinstance(st, R3):
            lines.append(f"r3 {st.pos} {'+' if st.sign > 0 else '-'}")
        elif isinstance(st, CancelPair):
            lines.append(f"cancel {st.pos}")
        else:
            lines.append(
                f"insert {st.pos} {st.index} {'+' if st.sign > 0 else '-'}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_movie(path: str) -> ChartMovie:
    """Read a movie file.

    Format: ``degree m`` then ``a <letters>`` and ``b <letters>`` (the braid
    grammar of :func:`torusbraid.braids.parse_braid`), then one step per line:
    ``far P`` | ``r3 P +`` | ``r3 P -`` | ``cancel P`` | ``insert P I +-``.
    Blank lines and ``#`` comments are ignored.  The movie is not validated
    here; run :func:`validate_movie`.
    """
    from .braids import parse_braid

    degree: int | None = None
    a: BraidWord | None = None
    b: BraidWord | None = None
    steps: list[Step] = []
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read movie file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        key, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        try:
            if key == "degree":
                degree = int(rest)
            elif key in ("a", "b"):
                if degree is None:
                    raise ValueError("degree must come first")
                braid = parse_braid(rest, degree)
                if key == "a":
                    a = braid
                else:
                    b = braid
            elif key == "far":
                steps.append(FarSwap(int(rest)))
            elif key == "r3":
                pos, sign = rest.split()
                steps.append(R3(int(pos), _parse_sign(sign)))
            elif key == "cancel":
                steps.append(CancelPair(int(rest)))
            elif key == "insert":
                pos, index, sign = rest.split()
                steps.append(
                    InsertPair(int(pos), int(index), _parse_sign(sign))
                )
            else:
                raise ValueError(f"unknown directive {key!r}")
        except ValueError as exc:
            raise PreconditionError(
                f"{path}:{lineno}: bad movie line {line!r} ({exc})"
            ) from None
    if degree is None or a is None or b is None:
        raise PreconditionError(
            f"{path}: movie file must declare degree, a and b"
        )
    return ChartMovie(degree, a, b, tuple(steps))


def _parse_sign(tok: str) -> int:
    if tok in ("+", "+1", "1"):
        return 1
    if tok in ("-", "-1"):
        return -1
    raise ValueError(f"bad sign {tok!r}")

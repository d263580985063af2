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

:func:`slide_movie` slides the letters of ``a`` through ``b`` one at a time,
rightmost first, in closed form when each letter of ``b`` equals the slider (a
reconnection) or is far from it (a far swap), or when ``b`` or its reversal is
a literal power of ``delta = s1 s2 .. s_{m-1}`` or of the half twist ``Delta``.
Letters that emerge changed, as through an odd power of Delta, are put back in
order by a bounded search.  Any other letter gets a bounded search of its own,
and a letter that does not commute with ``b`` raises a generation error.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Union

from .braids import (
    BraidWord,
    Letter,
    check_pair,
    commute_check,
    format_braid,
    garside_delta,
    parse_braid,
    word,
)
from .errors import (
    MovieGenerationError,
    MovieValidationError,
    PreconditionError,
    SearchBudgetExceeded,
)

# States a word-rewriting search may settle before it gives up.
WORD_PATH_STATES = 50_000


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


def _power_of(letters: tuple[Letter, ...], period: tuple[Letter, ...]) -> int:
    """The r with ``letters == period * r``, or 0 if there is none."""
    r = len(letters) // len(period) if period else 0
    return r if r and letters == period * r else 0


def _periods(letters: tuple[Letter, ...], m: int) -> list[int]:
    """Lengths p of the periods ``s1 .. s_{p-1}`` of a literal power of
    ``delta = s1 .. s_{m-1}`` (p = m) or of ``Delta = delta_m delta_{m-1} ..
    delta_1`` (p = m, m-1, .., 1); empty for any other word."""
    r = _power_of(letters, tuple((i, 1) for i in range(1, m)))
    # Delta has m(m-1)/2 letters: build it only if the word can be a power of it
    fits = 0 < m * (m - 1) // 2 <= len(letters)
    k = _power_of(letters, garside_delta(m).letters) if fits else 0
    return [m] * r or list(range(m, 0, -1)) * k


def _reconnect(s: int, index: int) -> list[Step]:
    """Bookkeeping trace of two same-letter strands meeting at position s."""
    return [InsertPair(s + 1, index, -1), CancelPair(s)]


def _descend(s: int, cur: int, p: int) -> list[Step]:
    """Slide ``s_cur`` (2 <= cur < p) through one period ``s1 .. s_{p-1}``.

    The slider far-swaps past s1 .. s_{cur-2}, crosses the period's own
    ``s_{cur-1} s_cur`` in a single negative triple point, and the freed
    ``s_{cur-1}`` far-swaps out past s_{cur+1} .. s_{p-1}.  Net effect:
    ``s_cur delta_p = delta_p s_{cur-1}``, slider advances p-1 positions.
    """
    steps: list[Step] = [FarSwap(s + t) for t in range(cur - 2)]
    steps.append(R3(s + cur - 2, -1))
    steps.extend(FarSwap(s + cur + t) for t in range(p - 1 - cur))
    return steps


def _climb(s: int, p: int) -> list[Step]:
    """Slide ``s1`` through ``s1 .. s_{p-1}`` and ``s1 .. s_{q-1}`` (q = p or
    p-1), emerging as ``s_{p-1}``.

    After the reconnection with the first period's s1, each s_j of the second
    period (j = 1 .. p-2) far-swaps left to follow the first period's
    s_{j+1}; the slider then climbs one index per positive triple point, and
    the second period's letters far-swap back out: p-2 triple points and
    (p-2)(p-3) far swaps.
    """
    steps = _reconnect(s, 1)
    for j in range(1, p - 1):
        steps.extend(FarSwap(s + x) for x in range(p - 2 + j, 2 * j, -1))
    steps.extend(R3(s + 2 * j - 1, 1) for j in range(1, p - 1))
    for j in range(p - 2, 0, -1):
        steps.extend(FarSwap(s + x) for x in range(2 * j, p - 2 + j))
    return steps


def _through_periods(s: int, c: int, periods: list[int]) -> tuple[list[Step], int]:
    """Slide ``s_c`` through consecutive periods ``s1 .. s_{p-1}``, one per p.

    Returns the steps and the index e of the emerging letter.  Below a period
    the slider descends, at label 1 it climbs this period and the next, and
    above a period (c > p) it far-swaps past it.  So ``s_c delta^m = delta^m
    s_c`` and ``s_c Delta = Delta s_{m-c}``.
    """
    steps: list[Step] = []
    t = 0
    while t < len(periods):
        p = periods[t]
        if c == 1:
            if t + 1 == len(periods):
                raise MovieGenerationError(
                    f"s1 reaches the last period s1 .. s{p - 1} of the second "
                    f"word alone and cannot cross it"
                )
            steps.extend(_climb(s, p))
            s, c, t = s + p + periods[t + 1] - 2, p - 1, t + 2
        elif c < p:
            steps.extend(_descend(s, c, p))
            s, c, t = s + p - 1, c - 1, t + 1
        else:
            steps.extend(FarSwap(s + x) for x in range(p - 1))
            s, t = s + p - 1, t + 1
    return steps, c


def _word_path(start: list[Letter], goal: list[Letter]) -> list[Step] | None:
    """Shortest FarSwap/R3 path between equal-length words, fewest R3 first.

    Deterministic 0--1 breadth-first search (far swaps are free, triple
    points cost 1).  Returns None if the goal is unreachable; raises
    SearchBudgetExceeded past ``WORD_PATH_STATES`` settled states.
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
        if len(done) > WORD_PATH_STATES:
            raise SearchBudgetExceeded(
                f"word-rewriting search exceeded {WORD_PATH_STATES} states"
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
    c: int, b: BraidWord, periods: list[int], s: int
) -> tuple[list[Step], int]:
    """Steps turning ``s_c b`` into ``b s_e`` at offset s (positive letters).

    Returns the steps and e, the index the letter emerges with: c, except
    through periods that do not return it (an odd power of Delta gives m-c).
    """
    letters = b.letters
    if all(i == c or abs(i - c) >= 2 for i, _ in letters):
        steps: list[Step] = []
        for t, (i, _) in enumerate(letters):
            steps.extend(_reconnect(s + t, c) if i == c else [FarSwap(s + t)])
        return steps, c
    if periods:
        return _through_periods(s, c, periods)
    # general fallback: bounded search for this letter alone
    if not commute_check(word(b.degree, [c]), b):
        raise MovieGenerationError(
            f"letter s{c} does not commute with the second word; "
            f"per-letter sliding does not apply to this pair"
        )
    path = _word_path([(c, 1), *letters], [*letters, (c, 1)])
    if path is None:
        raise MovieGenerationError(
            f"no far-swap/triple-point rewriting found for s{c} through "
            f"the second word (insertions would be required)"
        )
    return [replace(st, pos=st.pos + s) for st in path], c


def _reversed(movie: ChartMovie) -> list[Step]:
    """The movie of ``(rev(a), rev(b))``: ``movie`` on reversed words, read
    backwards.  Triple points change sign, and insertions and cancellations
    trade places."""
    letters = list(movie.start_word)
    out: list[Step] = []
    for st in movie.steps:
        n = len(letters)
        if isinstance(st, FarSwap):
            out.append(FarSwap(n - 2 - st.pos))
        elif isinstance(st, R3):
            out.append(R3(n - 3 - st.pos, -st.sign))
        elif isinstance(st, InsertPair):
            out.append(CancelPair(n - st.pos))
        else:
            i, sign = letters[st.pos]
            out.append(InsertPair(n - 2 - st.pos, i, -sign))
        apply_step(letters, st)
    return out[::-1]


def slide_movie(a: BraidWord, b: BraidWord) -> ChartMovie:
    """Movie from ``a b`` to ``b a`` sliding a's letters rightmost-first.

    Preconditions: equal degrees and ``ab = ba``.  All letters of both words
    must carry the same crossing sign (a pair and its mirror are supported;
    mixed signs are not).  Raises MovieGenerationError with a diagnostic when
    the pair is outside the generator's reach; the movie returned otherwise is
    validated before being handed back.
    """
    check_pair(a, b)
    signs = {s for _, s in a.letters} | {s for _, s in b.letters}
    if signs == {1, -1}:
        raise MovieGenerationError(
            "mixed-sign pairs are not supported by the slide generator"
        )
    m = a.degree
    periods = _periods(b.letters, m)
    if signs == {-1}:
        positive = slide_movie(*mirror_chart(a, b))
        steps = [
            st if isinstance(st, (FarSwap, CancelPair)) else replace(st, sign=-st.sign)
            for st in positive.steps
        ]
    elif not periods and _periods(b.letters[::-1], m):
        steps = _reversed(slide_movie(a.reverse(), b.reverse()))
    else:
        steps, emerged = [], list(a.letters)
        for k in range(len(a.letters) - 1, -1, -1):
            st, e = _slide_one_letter(a.letters[k][0], b, periods, k)
            steps.extend(st)
            emerged[k] = (e, 1)
        if emerged != list(a.letters):
            # b (emerged) = a b = b a, so the emerged word equals a as a
            # positive braid and far swaps and triple points join the two
            path = _word_path(emerged, list(a.letters)) or []
            steps.extend(replace(st, pos=st.pos + len(b.letters)) for st in path)
    movie = ChartMovie(m, a, b, tuple(steps))
    validate_movie(movie)
    return movie


def mirror_chart(a: BraidWord, b: BraidWord) -> tuple[BraidWord, BraidWord]:
    """The mirror pair: every crossing of both words reversed in place."""
    return (
        BraidWord(a.degree, tuple((i, -s) for i, s in a.letters)),
        BraidWord(b.degree, tuple((i, -s) for i, s in b.letters)),
    )


# ---------------------------------------------------------------------------
# movie files
# ---------------------------------------------------------------------------


def write_movie(movie: ChartMovie, path: str) -> None:
    """Write the plain-text movie format (see :func:`read_movie`)."""
    lines = [
        f"degree {movie.degree}",
        f"a {format_braid(movie.braid_a)}",
        f"b {format_braid(movie.braid_b)}",
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

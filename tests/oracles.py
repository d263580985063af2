"""Reference implementations and helpers that only the tests use.

None of these is on a command's path: the library answers each question
another way (the word search and the closed-form slides by
``movies._positive_path``, the Boltzmann exponent by the linear sum in
``cocycle_invariant``, the color pushes and the per-coloring replay by the
linear forms of ``quandles._coloring_generators`` and ``triple_points``, the
per-letter normal form by one factor per simple run in
``braids.normal_form``, the per-block strand deletion by the one-pass
``ribbon._induced``, the parser of every subcommand by ``cli._parser`` of
the one being run, the braid parser's pre-pass over parentheses by reading
the word before expanding it).
"""

from __future__ import annotations

import argparse
from collections import deque
from contextlib import suppress
from dataclasses import replace
from math import gcd

from torusbraid.artin import FreeLetter, FreeWord
from torusbraid.braids import (
    BraidWord,
    Letter,
    NormalForm,
    Perm,
    _append,
    _gather_deltas,
    _word_power,
    check_cap,
    garside_delta,
)
from torusbraid.cli import (
    SCHEMA,
    _cmd_abelianization,
    _cmd_cocycle,
    _cmd_colorings,
    _cmd_group,
    _cmd_h_member,
    _cmd_quotients,
    _cmd_ribbon,
    _cmd_transform,
)
from torusbraid.errors import PreconditionError, SearchBudgetExceeded
from torusbraid.movies import (
    R3,
    CancelPair,
    ChartMovie,
    FarSwap,
    InsertPair,
    Step,
    _positive_path,
    apply_step,
    mirror_chart,
    r3_window_sign,
)
from torusbraid.presentations import AbelianInvariants
from torusbraid.quandles import Quandle, TriplePoint, mochizuki_theta


def word_path(start: list, goal: list, states: int = 50_000) -> list[Step] | None:
    """Shortest FarSwap/R3 path between equal-length words, fewest R3 first.

    Deterministic 0--1 breadth-first search (far swaps are free, triple
    points cost 1).  Returns None if the goal is unreachable; raises
    SearchBudgetExceeded past ``states`` settled states.
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
        if len(done) > states:
            raise SearchBudgetExceeded(f"word-rewriting search exceeded {states} states")
        cost = dist[state][0]
        moves: list[tuple[Step, tuple, int]] = []
        for p in range(len(state) - 1):
            (i, _), (j, _) = state[p], state[p + 1]
            if abs(i - j) >= 2:
                nxt = state[:p] + (state[p + 1], state[p]) + state[p + 2 :]
                moves.append((FarSwap(p), nxt, 0))
        for p in range(len(state) - 2):
            (i, s1), (j, s2), (k, s3) = state[p : p + 3]
            if i == k and abs(i - j) == 1 and s1 == s2 == s3:
                nxt = state[:p] + ((j, s1), (i, s1), (j, s1)) + state[p + 3 :]
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


# ---------------------------------------------------------------------------
# closed-form slides: a's letters slid through b one at a time, rightmost
# first, when b or its reversal is a literal power of delta or Delta, or when
# every letter of b equals the slider or is far from it
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
    fits = 0 < m * (m - 1) // 2 <= len(letters)
    k = _power_of(letters, garside_delta(m).letters) if fits else 0
    return [m] * r or list(range(m, 0, -1)) * k


def _reconnect(s: int, index: int) -> list[Step]:
    """Bookkeeping trace of two same-letter strands meeting at position s."""
    return [InsertPair(s + 1, index, -1), CancelPair(s)]


def _descend(s: int, cur: int, p: int) -> list[Step]:
    """Slide ``s_cur`` (2 <= cur < p) through one period ``s1 .. s_{p-1}``:
    ``s_cur delta_p = delta_p s_{cur-1}`` in one negative triple point."""
    steps: list[Step] = [FarSwap(s + t) for t in range(cur - 2)]
    steps.append(R3(s + cur - 2, -1))
    steps.extend(FarSwap(s + cur + t) for t in range(p - 1 - cur))
    return steps


def climb(s: int, p: int) -> list[Step]:
    """Slide ``s1`` through ``s1 .. s_{p-1}`` and ``s1 .. s_{q-1}`` (q = p or
    p-1), emerging as ``s_{p-1}``: a reconnection, p-2 positive triple points
    and (p-2)(p-3) far swaps."""
    steps = _reconnect(s, 1)
    for j in range(1, p - 1):
        steps.extend(FarSwap(s + x) for x in range(p - 2 + j, 2 * j, -1))
    steps.extend(R3(s + 2 * j - 1, 1) for j in range(1, p - 1))
    for j in range(p - 2, 0, -1):
        steps.extend(FarSwap(s + x) for x in range(2 * j, p - 2 + j))
    return steps


def _through_periods(s: int, c: int, periods: list[int]) -> tuple[list[Step], int] | None:
    """Slide ``s_c`` through consecutive periods, one per p; the steps and
    the index of the emerging letter, or None if s1 reaches the last period."""
    steps: list[Step] = []
    t = 0
    while t < len(periods):
        p = periods[t]
        if c == 1:
            if t + 1 == len(periods):
                return None
            steps.extend(climb(s, p))
            s, c, t = s + p + periods[t + 1] - 2, p - 1, t + 2
        elif c < p:
            steps.extend(_descend(s, c, p))
            s, c, t = s + p - 1, c - 1, t + 1
        else:
            steps.extend(FarSwap(s + x) for x in range(p - 1))
            s, t = s + p - 1, t + 1
    return steps, c


def _slide_one_letter(c: int, b: BraidWord, periods: list[int], s: int) -> tuple[list[Step], int] | None:
    """Steps turning ``s_c b`` into ``b s_e`` at offset s, and e; or None."""
    if all(i == c or abs(i - c) >= 2 for i, _ in b.letters):
        steps: list[Step] = []
        for t, (i, _) in enumerate(b.letters):
            steps.extend(_reconnect(s + t, c) if i == c else [FarSwap(s + t)])
        return steps, c
    return _through_periods(s, c, periods) if periods else None


def _reversed(start: tuple[Letter, ...], steps: list[Step]) -> list[Step]:
    """The steps of ``(rev(a), rev(b))`` from those taking ``start = a b`` to
    ``b a``: the same steps on reversed words, read backwards."""
    letters = list(start)
    out: list[Step] = []
    for st in steps:
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


def _closed_form_steps(a: BraidWord, b: BraidWord) -> list[Step] | None:
    """The closed-form steps from ``a b`` to ``b a`` for a positive
    commuting pair, or None where no closed form applies."""
    m = a.degree
    periods = _periods(b.letters, m)
    if not periods and _periods(b.letters[::-1], m):
        ar, br = a.reverse(), b.reverse()
        steps = _closed_form_steps(ar, br)
        return None if steps is None else _reversed((ar * br).letters, steps)
    steps: list[Step] = []
    emerged = list(a.letters)
    for k in range(len(a.letters) - 1, -1, -1):
        slid = _slide_one_letter(a.letters[k][0], b, periods, k)
        if slid is None:
            return None
        steps.extend(slid[0])
        emerged[k] = (slid[1], 1)
    if emerged != list(a.letters):
        # an odd power of Delta flips the letters' indices: put them back
        path = _positive_path(emerged, a.letters)
        steps.extend(replace(st, pos=st.pos + len(b.letters)) for st in path)
    return steps


def closed_form_movie(a: BraidWord, b: BraidWord) -> ChartMovie | None:
    """The closed-form movie of a one-sign commuting pair, mirrored for an
    all-negative pair, or None where no closed form applies.  Not validated."""
    negative = any(s < 0 for _, s in a.letters + b.letters)
    steps = _closed_form_steps(*(mirror_chart(a, b) if negative else (a, b)))
    if steps is None:
        return None
    if negative:
        steps = [st if isinstance(st, (FarSwap, CancelPair)) else replace(st, sign=-st.sign)
                 for st in steps]
    return ChartMovie(a, b, tuple(steps))


def _push(c: tuple[int, ...], letter: Letter, q: Quandle) -> tuple[int, ...]:
    i, s = letter
    u, v = c[i - 1], c[i]
    return c[: i - 1] + ((v, q.op(u, v)) if s > 0 else (q.op(v, u), u)) + c[i + 1 :]


def braid_monodromy(beta: BraidWord, q: Quandle, colors: tuple[int, ...]) -> tuple[int, ...]:
    """Push a color vector through a braid word, letter by letter."""
    if len(colors) != beta.degree:
        raise PreconditionError(f"coloring has {len(colors)} entries for degree {beta.degree}")
    c = tuple(colors)
    for x in beta.letters:
        c = _push(c, x, q)
    return c


def per_coloring_triple_points(movie: ChartMovie, coloring: tuple[int, ...],
                               q: Quandle) -> list[TriplePoint]:
    """The movie's triple points under one coloring, with integer colors.

    The movie is replayed for this coloring alone, keeping the color vector
    before every word position and recomputing only the positions a step
    rewrites; signs and sheet order follow ``quandles.triple_points``.
    """
    if len(coloring) != movie.degree:
        raise PreconditionError(f"coloring has {len(coloring)} entries for degree {movie.degree}")
    letters: list[Letter] = list(movie.start_word)
    before = [tuple(coloring)]  # before[k]: the colors entering letter k
    for x in letters:
        before.append(_push(before[-1], x, q))
    out: list[TriplePoint] = []
    for idx, step in enumerate(movie.steps):
        apply_step(letters, step, idx)
        p, kind = step.pos, type(step)
        if kind is CancelPair:
            del before[p + 1 : p + 3]  # the colors after the pair were before[p]
            continue
        if kind is InsertPair:
            before[p + 1 : p + 1] = [before[p], before[p]]  # the pair ends where it began
        before[p + 1] = _push(before[p], letters[p], q)
        if kind is R3:
            before[p + 2] = _push(before[p + 1], letters[p + 1], q)
            (i, s), (j, _) = letters[p], letters[p + 1]
            lo = min(i, j)
            cols = before[p] if s > 0 else before[p + 3]
            out.append(TriplePoint(step.sign * s, cols[lo - 1 : lo + 2]))
    return out


def at_coloring(points: list[TriplePoint], t: int = 0) -> list[TriplePoint]:
    """The points of one ``triple_points`` replay under its t-th coloring,
    with integer colors."""
    return [TriplePoint(tp.sign, tuple(c[t] for c in tp.colors)) for tp in points]


def boltzmann_exponent(points: list[TriplePoint]) -> int:
    """Sign-weighted sum of cocycle values, an exponent in Z/3."""
    total = 0
    for tp in points:
        total += tp.sign * mochizuki_theta(*tp.colors)
    return total % 3


def cyclic_hom_count(ab: AbelianInvariants, k: int) -> int:
    """Number of homomorphisms to Z/k predicted by the abelianization."""
    if k < 1:
        raise PreconditionError("cyclic order must be >= 1")
    n = k**ab.rank
    for d in ab.torsion:
        n *= gcd(d, k)
    return n


def parse_free_word(text: str, rank: int) -> FreeWord:
    """Parse ``x1 x2^-1 x1`` or signed integers ``2 -3``.

    A bare signed integer ``j`` is ``x_j`` (so the single token ``1`` is x1);
    the whole-input placeholders ``e`` or ``1`` alone denote the identity.
    """
    if text.strip() in ("", "e", "1"):
        return FreeWord(rank, ())
    letters: list[FreeLetter] = []
    for tok in text.split():
        if tok == "e":
            continue
        base, caret, exp = tok.partition("^")
        power = int(exp) if caret else 1
        if base.startswith("x"):
            j = int(base[1:])
            s = 1
        else:
            v = int(base)
            if v == 0:
                raise PreconditionError("0 is not a valid free-group letter")
            j, s = abs(v), (1 if v > 0 else -1)
        total = s * power
        if total >= 0:
            letters.extend([(j, 1)] * total)
        else:
            letters.extend([(j, -1)] * (-total))
    return FreeWord(rank, tuple(letters))


def _transposition(m: int, i: int) -> Perm:
    p = list(range(1, m + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def per_letter_normal_form(w: BraidWord, memo: dict | None = None) -> NormalForm:
    """The normal form appended one letter at a time: ``w`` is read as
    ``Delta^-r Y_1 ... Y_n`` with the factor ``sigma_i``, or ``Delta
    sigma_i^-1`` for a negative letter, conjugated by ``Delta`` once for each
    negative letter to its right."""
    m = w.degree
    ident = tuple(range(1, m + 1))
    w0: Perm = tuple(range(m, 0, -1))  # the half-twist permutation i -> m+1-i
    r = sum(1 for _, s in w.letters if s < 0)
    right = r  # negative letters from the current one to the end
    factors: list[Perm] = []
    memo = {} if memo is None else memo
    steps = 0
    for i, s in w.letters:
        if s < 0:
            right -= 1
        y = _transposition(m, m - i if right % 2 else i)
        if s < 0:
            y = tuple(y[x - 1] for x in w0)  # w0 then y
            if y == ident:  # Delta*sigma_1^-1 at degree 2
                continue
        steps += _append(factors, y, memo)
        check_cap(steps, "normal form", "left-weighting steps")
    return _gather_deltas(m, -r, factors)


def _extract_block(w: BraidWord, keep: frozenset[int]) -> BraidWord:
    """The braid induced on a subset of strands, deleting the others, with
    the kept strands left of each crossing counted again."""
    cur = list(range(1, w.degree + 1))
    out: list[Letter] = []
    for i, s in w.letters:
        u, v = cur[i - 1], cur[i]
        if u in keep and v in keep:
            pos = sum(1 for p in range(i - 1) if cur[p] in keep) + 1
            out.append((pos, s))
        cur[i - 1], cur[i] = v, u
    return BraidWord(len(keep), tuple(out))


def full_parser_oracle() -> argparse.ArgumentParser:
    """Every subcommand's parser built in one go, as ``cli.main`` once did
    on each call."""
    parser = argparse.ArgumentParser(
        prog="torusbraid",
        description=(
            "Invariants of surface links braided over the torus, presented "
            "by a pair of commuting braids.  The toolkit computes link-group "
            "presentations, abelianizations, finite-quotient counts, quandle "
            "colorings, cocycle state sums, ribbon certificates and chart "
            "transforms; it does not decide link equivalence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("-m", "--degree", type=int, required=True,
                      help="braid degree (number of strands)")
    pair.add_argument("-a", required=True, metavar="WORD",
                      help="vertical boundary braid word")
    pair.add_argument("-b", required=True, metavar="WORD",
                      help="horizontal boundary braid word")
    js = argparse.ArgumentParser(add_help=False)
    js.add_argument("--json", action="store_true",
                    help="machine-readable output (schema %s)" % SCHEMA)

    p = sub.add_parser("group", parents=[pair, js],
                       help="link group presentation of the pair")
    p.add_argument("--simplify", action="store_true",
                   help="eliminate redundant generators first")
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("abelianization", parents=[pair, js],
                       help="first homology of the link group")
    p.add_argument("--quotient-center", action="store_true",
                   help="first quotient by the central half-twist power word")
    p.set_defaults(func=_cmd_abelianization)

    p = sub.add_parser("quotients", parents=[pair, js],
                       help="count homomorphisms onto a finite group")
    p.add_argument("--group", required=True, metavar="NAME",
                   help="target group: S<k>, D<k> or Z<k>")
    p.set_defaults(func=_cmd_quotients)

    p = sub.add_parser("colorings", parents=[pair, js],
                       help="quandle colorings fixed by both braids")
    p.add_argument("--quandle", type=int, default=3, metavar="P",
                   help="dihedral quandle order (default 3)")
    p.set_defaults(func=_cmd_colorings)

    p = sub.add_parser("cocycle", parents=[pair, js],
                       help="cocycle state sum over three-element colorings")
    p.add_argument("--movie", metavar="FILE",
                   help="movie file to use instead of generating one")
    p.set_defaults(func=_cmd_cocycle)

    p = sub.add_parser("ribbon", parents=[pair, js],
                       help="ribbon certificate via cable decomposition")
    p.add_argument("--block-size", type=int, required=True, metavar="N",
                   help="strands per cable")
    p.add_argument("--block-count", type=int, required=True, metavar="M",
                   help="number of cables (degree = N*M)")
    p.add_argument("--witness", metavar="FILE",
                   help="supply a cabling witness instead of reading one off")
    p.add_argument("--save-witness", metavar="FILE",
                   help="write the verified certificate to FILE")
    p.set_defaults(func=_cmd_ribbon)

    p = sub.add_parser("transform", parents=[pair, js],
                       help="rotate or shear the pair")
    p.add_argument("operation", choices=("rho", "tau"),
                   help="rho: quarter turn; tau: shear b by a")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("h-member", parents=[js],
                       help="framed basis-change subgroup membership")
    p.add_argument("--matrix", required=True, metavar="'9 INTS'",
                   help="3x3 integer matrix, row-major, space separated")
    p.set_defaults(func=_cmd_h_member)

    return parser


def prepass_parse_braid(text: str, degree: int) -> BraidWord:
    """``braids.parse_braid`` as it was before it read a word in full
    before expanding it: a pre-pass over the parentheses finds the groups to
    the power zero, then each group is built as its tokens are read unless
    it is one of them.  Integers are read by ``int()``."""
    check_cap(degree, "braid degree", "strands")
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    # a group's power follows its ')': read it before the group's tokens
    zero: set[int] = set()  # where groups to the power zero open
    opened: list[int] = []
    for i, tok in enumerate(tokens):
        if tok == "(":
            opened.append(i)
        elif tok == ")" and opened:
            start, suffix = opened.pop(), "".join(tokens[i + 1 : i + 2])
            with suppress(PreconditionError):  # a bad power is refused after its group
                if suffix.startswith("^") and _prepass_parse_power(suffix) == 0:
                    zero.add(start)
    pos = 0

    def parse_seq(depth: int, build: bool) -> list[Letter]:
        nonlocal pos
        out: list[Letter] = []
        while pos < len(tokens):
            tok = tokens[pos]
            pos += 1
            if tok == ")":
                if depth == 0:
                    raise PreconditionError("unbalanced ')' in braid word")
                return out
            if tok == "(":
                base = parse_seq(depth + 1, build and pos - 1 not in zero)
                power = 1
                if pos < len(tokens) and tokens[pos].startswith("^"):
                    power = _prepass_parse_power(tokens[pos])
                    pos += 1
            else:
                base, power = _prepass_parse_token(tok, degree, build)
            if build:
                check_cap(len(out) + len(base) * abs(power))
                out.extend(_word_power(base, power))
        if depth != 0:
            raise PreconditionError("unbalanced '(' in braid word")
        return out

    letters = parse_seq(0, True)
    return BraidWord(degree, tuple(letters))


def _prepass_parse_power(tok: str) -> int:
    body = tok[1:]
    try:
        return int(body)
    except ValueError:
        raise PreconditionError(f"bad power suffix {tok!r}") from None


def _prepass_parse_token(tok: str, degree: int, build: bool) -> tuple[list[Letter], int]:
    """A token's letters and its power, not yet expanded; a half twist is
    built only under ``build``, in a group whose power is not zero."""
    base, caret, exp = tok.partition("^")
    power = 1
    if caret:
        try:
            power = int(exp)
        except ValueError:
            raise PreconditionError(f"bad power in token {tok!r}") from None
    if base in ("D", "d"):
        if not (build and power):
            return [], power
        # Delta has m(m-1)/2 letters: check before building it
        check_cap(degree * (degree - 1) // 2 * abs(power))
        return list(garside_delta(degree).letters), power
    if base in ("e", "E"):
        return [], power
    if base.startswith("s"):
        base = base[1:]
    try:
        v = int(base)
    except ValueError:
        raise PreconditionError(f"unrecognized braid token {tok!r}") from None
    if v == 0:
        raise PreconditionError("0 is not a valid braid letter")
    return [(abs(v), 1 if v > 0 else -1)], power

"""Reference implementations and helpers that only the tests use.

None of these is on a command's path: the library answers each question
another way (the word search by ``movies._positive_path``, the Boltzmann
exponent by the linear sum in ``cocycle_invariant``).
"""

from __future__ import annotations

from collections import deque
from math import gcd

from torusbraid.artin import FreeLetter, FreeWord
from torusbraid.errors import PreconditionError, SearchBudgetExceeded
from torusbraid.movies import R3, FarSwap, Step, r3_window_sign
from torusbraid.presentations import AbelianInvariants
from torusbraid.quandles import TriplePoint, mochizuki_theta


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

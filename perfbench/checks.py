"""Output checks that share no code with the package under test.

Every helper here works on plain letter lists (signed generator indices as
``(i, s)`` pairs) and is written from the definitions: permutations of braid
words, the Artin action on free groups, the dihedral-quandle action as an
integer matrix, ranks mod a prime, Smith invariants, and integer polynomial
division.  The benchmark calls them after the timed pass, one per job.
"""

from __future__ import annotations

import itertools
from math import gcd


class CheckFailed(AssertionError):
    """A program output disagrees with its independent check."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def letters_of(ints) -> list[tuple[int, int]]:
    return [(abs(v), 1 if v > 0 else -1) for v in ints]


def parse_ints(text: str) -> list[tuple[int, int]]:
    """Letters of a word printed as signed integers (``e`` for empty)."""
    return [] if text.strip() == "e" else letters_of(int(t) for t in text.split())


# ---------------------------------------------------------------------------
# permutations: entry k-1 is the final position of the strand starting at k
# ---------------------------------------------------------------------------


def perm(m: int, letters) -> tuple[int, ...]:
    at = list(range(1, m + 1))  # at[q] = strand now at position q + 1
    for i, _ in letters:
        at[i - 1], at[i] = at[i], at[i - 1]
    out = [0] * m
    for q, strand in enumerate(at):
        out[strand - 1] = q + 1
    return tuple(out)


def then(u, v) -> tuple[int, ...]:
    """The permutation ``u`` followed by ``v``."""
    return tuple(v[x - 1] for x in u)


def orbit_sizes(m: int, perms) -> list[int]:
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for k in range(m):
            parent[find(k)] = find(p[k] - 1)
    sizes: dict[int, int] = {}
    for k in range(m):
        sizes[find(k)] = sizes.get(find(k), 0) + 1
    return sorted(sizes.values())


def inversions(p) -> int:
    return sum(1 for x, y in itertools.combinations(p, 2) if x > y)


def expected_h1(m: int, a, b, center_power: int | None = None):
    """H_1 as ``(rank, torsion)`` from the orbits of the strand permutations.

    Each relator ``x_j = beta(x_j)`` abelianizes to ``x_j = x_{pi(j)}``, so
    H_1 is free on the orbits.  Killing ``W^e`` with ``W = x_1 .. x_m``
    (``e = k/2`` for ``b = Delta^k`` with k even, else ``k``) adds the row
    ``e * (orbit sizes)``.
    """
    sizes = orbit_sizes(m, [perm(m, a), perm(m, b)])
    if center_power is None:
        return len(sizes), ()
    k = center_power
    e = k // 2 if k % 2 == 0 else k
    d = abs(e) * gcd(*sizes) if e else 0
    if d == 0:
        return len(sizes), ()
    return len(sizes) - 1, ((d,) if d > 1 else ())


# ---------------------------------------------------------------------------
# free groups and the Artin action
# ---------------------------------------------------------------------------


def free_reduce(word) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for j, s in word:
        if out and out[-1] == (j, -s):
            out.pop()
        else:
            out.append((j, s))
    return out


def _image(i: int, s: int, j: int) -> list[tuple[int, int]]:
    if s > 0:
        if j == i:
            return [(i, 1), (i + 1, 1), (i, -1)]
        if j == i + 1:
            return [(i, 1)]
    else:
        if j == i:
            return [(i + 1, 1)]
        if j == i + 1:
            return [(i + 1, -1), (i, 1), (i + 1, 1)]
    return [(j, 1)]


def artin(braid, word) -> list[tuple[int, int]]:
    """Apply the braid letters in order: sigma_i sends x_i to x_i x_{i+1} x_i^-1."""
    w = free_reduce(word)
    for i, s in braid:
        out: list[tuple[int, int]] = []
        for j, e in w:
            img = _image(i, s, j)
            out.extend(img if e > 0 else [(g, -t) for g, t in reversed(img)])
        w = free_reduce(out)
    return w


def same_braid(m: int, u, v) -> bool:
    """Equal braids act equally on every free generator (Artin is faithful)."""
    return all(artin(u, [(j, 1)]) == artin(v, [(j, 1)]) for j in range(1, m + 1))


def relators(m: int, a, b) -> list[list[tuple[int, int]]]:
    """The meridian relators ``x_j^-1 beta(x_j)``, empty ones dropped."""
    out = []
    for braid in (a, b):
        for j in range(1, m + 1):
            rel = free_reduce([(j, -1)] + artin(braid, [(j, 1)]))
            if rel:
                out.append(rel)
    return out


def parse_free(text: str) -> list[tuple[int, int]]:
    """Letters of ``x1 x2^-3`` as printed by the CLI (``1`` is the identity)."""
    if text.strip() == "1":
        return []
    out = []
    for tok in text.split():
        name, _, exp = tok.partition("^")
        k = int(exp) if exp else 1
        j = int(name[1:])
        out.extend([(j, 1 if k > 0 else -1)] * abs(k))
    return out


# ---------------------------------------------------------------------------
# integer and modular linear algebra
# ---------------------------------------------------------------------------


def smith(rows: list[list[int]]) -> list[int]:
    """Nonzero Smith invariants of an integer matrix."""
    a = [list(r) for r in rows if any(r)]
    out: list[int] = []
    while a and a[0]:
        entries = [(abs(x), i, j) for i, r in enumerate(a) for j, x in enumerate(r) if x]
        if not entries:
            break
        _, pi, pj = min(entries)
        a[0], a[pi] = a[pi], a[0]
        for r in a:
            r[0], r[pj] = r[pj], r[0]
        p = a[0][0]
        clean = True
        for r in a[1:]:
            q = r[0] // p
            for j in range(len(r)):
                r[j] -= q * a[0][j]
            clean &= r[0] == 0
        for j in range(1, len(a[0])):
            q = a[0][j] // p
            for r in a:
                r[j] -= q * r[0]
            clean &= a[0][j] == 0
        if not clean:
            continue
        bad = next((r for r in a[1:] if any(x % p for x in r[1:])), None)
        if bad is not None:
            a[0] = [x + y for x, y in zip(a[0], bad)]
            continue
        out.append(abs(p))
        a = [r[1:] for r in a[1:] if any(r[1:])]
    ds = sorted(out)
    # fold to a divisor chain
    for t in range(len(ds)):
        for u in range(t + 1, len(ds)):
            g = gcd(ds[t], ds[u])
            ds[t], ds[u] = g, ds[t] * ds[u] // g
    return ds


def abelian_invariants(rank: int, rels) -> tuple[int, tuple[int, ...]]:
    rows = []
    for rel in rels:
        row = [0] * rank
        for j, s in rel:
            row[j - 1] += s
        rows.append(row)
    ds = smith(rows) if rows else []
    return rank - len(ds), tuple(d for d in ds if d > 1)


def rank_mod(rows: list[list[int]], p: int) -> int:
    a = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][c]:
                f = a[r][c]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def quandle_act(letters, p: int, colors) -> tuple[int, ...]:
    """R_p action: sigma_i sends (u, v) to (v, 2v - u); the inverse to (2u - v, u)."""
    c = list(colors)
    for i, s in letters:
        u, v = c[i - 1], c[i]
        c[i - 1], c[i] = ((v, (2 * v - u) % p) if s > 0 else ((2 * u - v) % p, u))
    return tuple(c)


def coloring_count(m: int, a, b, p: int) -> int:
    """``p^(m - rank)`` of the stacked (M_a - I; M_b - I) mod a prime p."""
    rows = []
    for w in (a, b):
        cols = []
        for k in range(m):
            unit = [0] * m
            unit[k] = 1
            cols.append(quandle_act(w, p, unit))
        rows.extend(
            [cols[k][r] - (1 if r == k else 0) for k in range(m)] for r in range(m)
        )
    return p ** (m - rank_mod(rows, p))


# ---------------------------------------------------------------------------
# finite groups, for homomorphism counts by fixed points (Joyce)
# ---------------------------------------------------------------------------


def group_elements(name: str):
    """Elements, product ``x then y`` and inverse of S<k> or D<k>."""
    kind, k = name[0], int(name[1:])
    if kind == "S":
        elems = list(itertools.permutations(range(k)))
        return elems, (lambda x, y: tuple(y[x[i]] for i in range(k))), (
            lambda x: tuple(sorted(range(k), key=lambda i: x[i]))
        )
    elems = [(r, f) for f in (0, 1) for r in range(k)]

    def mul(x, y):
        return ((x[0] + (y[0] if x[1] == 0 else -y[0])) % k, (x[1] + y[1]) % 2)

    def inv(x):
        return ((-x[0]) % k, 0) if x[1] == 0 else x

    return elems, mul, inv


def hom_count(m: int, a, b, name: str) -> int:
    """Tuples in G^m fixed by both braids' Artin action on G^m."""
    elems, mul, inv = group_elements(name)
    idx = {g: n for n, g in enumerate(elems)}
    size = len(elems)
    table = [[idx[mul(x, y)] for y in elems] for x in elems]
    invs = [idx[inv(x)] for x in elems]

    def act(letters, g):
        # beta(x_j) substitutes letter by letter, so evaluated at a tuple the
        # letters act from the right end of the word.
        g = list(g)
        for i, s in reversed(letters):
            u, v = g[i - 1], g[i]
            if s > 0:  # (u, v) -> (u v u^-1, u)
                g[i - 1], g[i] = table[table[u][v]][invs[u]], u
            else:  # (u, v) -> (v, v^-1 u v)
                g[i - 1], g[i] = v, table[table[invs[v]][u]][v]
        return tuple(g)

    return sum(
        1
        for g in itertools.product(range(size), repeat=m)
        if act(a, g) == g and act(b, g) == g
    )


# ---------------------------------------------------------------------------
# integer polynomials (coefficient lists, lowest degree first)
# ---------------------------------------------------------------------------


def poly_mul(x: list[int], y: list[int]) -> list[int]:
    out = [0] * (len(x) + len(y) - 1)
    for i, c in enumerate(x):
        for j, d in enumerate(y):
            out[i + j] += c * d
    return out


def poly_div(x: list[int], y: list[int]) -> list[int]:
    """Exact quotient of x by a monic-up-to-sign y; raises on a remainder."""
    x = list(x)
    q = [0] * (len(x) - len(y) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(x[k + len(y) - 1], y[-1])
        expect(r == 0, "polynomial division is not exact")
        q[k] = c
        for j, d in enumerate(y):
            x[k + j] -= c * d
    expect(not any(x), "polynomial division left a remainder")
    return q


def torus_knot_alexander(m: int, n: int) -> dict[int, int]:
    """``(t^mn - 1)(t - 1) / ((t^m - 1)(t^n - 1))`` as exponent -> coefficient."""

    def tk(k: int) -> list[int]:
        return [-1] + [0] * (k - 1) + [1]

    q = poly_div(poly_mul(tk(m * n), tk(1)), poly_mul(tk(m), tk(n)))
    return {e: c for e, c in enumerate(q) if c}

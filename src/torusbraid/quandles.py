"""Dihedral-quandle colorings, triple points, and the degree-3 cocycle invariant.

A quandle is a set with a binary operation ``x * y`` ("x pushed through y")
that is idempotent, right-invertible, and self-distributive.  The only
quandles here are the dihedral ones: R_p lives on Z/p with ``x * y = 2y - x``
and is given by p alone.  R_p is involutory, ``(x * y) * y = x``, so the right
division is the operation itself.

Colorings.  A braid of degree m acts on color vectors ``(c_1 .. c_m)`` one
letter at a time:

    sigma_i:     (.., c_i, c_{i+1}, ..) -> (.., c_{i+1}, c_i * c_{i+1}, ..)
    sigma_i^-1:  (.., u, v, ..)         -> (.., v * u, u, ..)

A coloring of a commuting pair ``(a, b)`` is a vector fixed by both actions.
The action is linear, so :func:`torus_colorings` lists the colorings as the
kernel mod p of an integer matrix, from its Smith normal form, after counting
them: a listing past ``braids.WORD_CAP`` entries (colorings times m) is refused.

Weights.  Every triple point of a movie (an R3 step) picks up the Mochizuki
3-cocycle value ``theta(x, y, z) = (x-y)(y-z)z(x+z)`` over Z/3 at the colors
of the three strands involved, read bottom to top just before the move; the
Boltzmann exponent of a coloring is the sign-weighted sum.  The cocycle
invariant :func:`cocycle_invariant` is the sum of ``t^exponent`` over all
colorings, an element of the group ring Z[Z/3], meant to depend on the pair
alone; a movie with triple points of both crossing signs can change it.  The
triple points' order and signs do not depend on the coloring, and their
colors are linear in it, so one replay carries them as linear forms in the
generators of the colorings, tuples mod p that R_p acts on entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, prod

from . import braids
from .braids import BraidWord, Letter, check_cap, check_pair
from .errors import PreconditionError, SearchBudgetExceeded
from .movies import R3, CancelPair, ChartMovie, InsertPair, apply_step
from .movies import slide_movie, validate_movie
from .presentations import smith_form


@dataclass(frozen=True, slots=True)
class Quandle:
    """The dihedral quandle R_p on ``{0 .. size-1}``, given by its order p."""

    size: int

    def op(self, x: int, y: int) -> int:
        """``x * y = 2y - x``, which is also the z with ``z * y = x``."""
        return (2 * y - x) % self.size


def dihedral_quandle(p: int) -> Quandle:
    """R_p on Z/p with ``x * y = 2y - x`` (any p >= 2, primes or not)."""
    if p < 2:
        raise PreconditionError("dihedral quandle needs p >= 2")
    return Quandle(p)


def _push(c: tuple[tuple[int, ...], ...], letter: Letter, q: Quandle) -> tuple:
    i, s = letter
    u, v = c[i - 1], c[i]
    pair = (v, tuple(map(q.op, u, v))) if s > 0 else (tuple(map(q.op, v, u)), u)
    return c[: i - 1] + pair + c[i + 1 :]


def torus_colorings(
    a: BraidWord, b: BraidWord, q: Quandle
) -> list[tuple[int, ...]]:
    """All colorings by a dihedral quandle R_p, lexicographically sorted.

    R_p acts linearly, ``sigma_i`` by ``(u, v) -> (v, 2v - u)`` and
    ``sigma_i^-1`` by ``(u, v) -> (2u - v, u)``, so the colorings solve
    ``[M_a - I; M_b - I] c = 0 (mod p)``.  With the Smith form ``U A V = D``
    they are ``c = V w`` with ``d_t w_t = 0 (mod p)`` and ``w_t`` free past the
    rank: ``p^(m-r) prod gcd(d_t, p)`` of them for any p >= 2.  A matrix past
    ``braids.WORD_CAP`` entries is refused before it is built, and a listing
    past that many entries (colorings times m) before any coloring is listed.
    """
    check_pair(a, b)
    out = [(0,) * a.degree]
    for step, n in _coloring_generators(a, b, q):
        out = [tuple((x + k * y) % q.size for x, y in zip(c, step))
               for c in out for k in range(n)]
    return sorted(out)


def _coloring_generators(
    a: BraidWord, b: BraidWord, q: Quandle
) -> list[tuple[tuple[int, ...], int]]:
    """Pairs ``(step_t, n_t)``, ``n_t > 1``, whose sums ``sum k_t step_t``
    with ``0 <= k_t < n_t`` are the colorings, each once; the caps of
    :func:`torus_colorings` are checked here.  Each braid is walked once, on
    the identity forms: the form ending at position r is row r of ``M_beta``."""
    p, m = q.size, a.degree
    check_cap(2 * m * m, "the coloring matrix", "entries")
    rows: list[list[int]] = []
    for beta in (a, b):
        forms = tuple(tuple(int(r == j) for j in range(m)) for r in range(m))
        for x in beta.letters:
            forms = _push(forms, x, q)
        rows += [[c - (r == j) for j, c in enumerate(f)] for r, f in enumerate(forms)]
    divisors, v = smith_form(rows)
    counts = [gcd(d, p) for d in divisors] + [p] * (m - len(divisors))
    if prod(counts) * m > braids.WORD_CAP:
        rest = prod(n for n in counts if n < p)
        size = f"{p}^{counts.count(p)}" + (f" * {rest}" if rest > 1 else "")
        raise SearchBudgetExceeded(
            f"coloring listing of {size} colorings of {m} entries each "
            f"exceeds the cap of {braids.WORD_CAP} entries"
        )
    # w_t runs over the multiples of p / n_t
    return [(tuple(row[t] * (p // n) % p for row in v), n)
            for t, n in enumerate(counts) if n > 1]


# ---------------------------------------------------------------------------
# the 3-cocycle and its Boltzmann weights
# ---------------------------------------------------------------------------


def mochizuki_theta(x: int, y: int, z: int) -> int:
    """Exponent of the degree-3 cocycle on R_3: ``(x-y)(y-z)z(x+z) mod 3``.

    >>> mochizuki_theta(2, 1, 2)
    1
    >>> mochizuki_theta(1, 2, 0)
    0
    """
    return ((x - y) * (y - z) * z * (x + z)) % 3


@dataclass(frozen=True, slots=True)
class TriplePoint:
    """A triple point: sheet colors bottom to top, and its state-sum sign.

    ``colors[s]`` holds sheet s's color under each replayed coloring, in
    order.  ``sign`` is the sign with which the cocycle value enters the
    Boltzmann exponent: the R3 step's sign for windows of positive letters,
    inverted for negative ones (see :func:`triple_points`).
    """

    sign: int
    colors: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class GroupRingElement:
    """An element ``c0 + c1 t + c2 t^2`` of Z[Z/3] (t of order three)."""

    coeffs: tuple[int, int, int]

    @staticmethod
    def zero() -> "GroupRingElement":
        return GroupRingElement((0, 0, 0))

    @staticmethod
    def monomial(exponent: int, coeff: int = 1) -> "GroupRingElement":
        c = [0, 0, 0]
        c[exponent % 3] = coeff
        return GroupRingElement(tuple(c))

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        a, b = self.coeffs, other.coeffs
        return GroupRingElement((a[0] + b[0], a[1] + b[1], a[2] + b[2]))

    def conjugate(self) -> "GroupRingElement":
        """The involution t -> t^-1 (mirror images swap t and t^2)."""
        c = self.coeffs
        return GroupRingElement((c[0], c[2], c[1]))

    def __str__(self) -> str:
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                t = "t" if e == 1 else f"t^{e}"
                parts.append(t if c == 1 else f"{c}{t}")
        return " + ".join(parts) if parts else "0"


def triple_points(
    movie: ChartMovie, colorings: list[tuple[int, ...]], q: Quandle
) -> list[TriplePoint]:
    """The movie's triple points with sheet colors under every coloring given.

    One replay keeps, before every word position, each strand's colors as a
    tuple with one entry per coloring (linear forms, under the generators of
    the colorings); a step recomputes only the positions it rewrites (two for
    R3, one for a far swap or an inserted pair).  At each R3 step the colors
    at the three strand positions the window occupies (min(i, j) and the two
    above) are read in bottom-to-top sheet order.  For a window of positive
    letters the strands enter bottom sheet first, so the entering colors are
    recorded with the step's sign.  For a window of negative letters the
    sheet hierarchy is the reverse and the source region sits on the exit
    side, so the colors *leaving* the window are recorded and the
    contribution sign is opposite to the window sign; this is the convention
    under which mirror pairs give conjugate state sums.
    """
    for c in colorings:
        if len(c) != movie.degree:
            raise PreconditionError(f"coloring has {len(c)} entries for degree {movie.degree}")
    letters: list[Letter] = list(movie.start_word)
    before = [tuple(tuple(c[r] for c in colorings) for r in range(movie.degree))]
    for x in letters:  # before[k]: the colors entering letter k
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


def cocycle_invariant(
    a: BraidWord,
    b: BraidWord,
    movie: ChartMovie | None = None,
) -> GroupRingElement:
    """State sum ``sum_colorings t^(Boltzmann exponent)`` over R_3 colorings.

    A movie may be supplied (it is validated and must belong to the pair);
    otherwise :func:`slide_movie` generates one, checked as it is made.  The
    value is meant not to depend on the movie, but a supplied movie with
    triple points of both crossing signs can change it.  Either way the pair
    is checked once: a generated movie checks it, and a valid movie proves
    ``ab = ba``, since every step is a braid relation or a free cancellation.

    The colorings are the sums ``sum k_t step_t`` of :func:`_coloring_generators`
    and the triple points' colors are linear in them, so the movie is replayed
    once, on the generators: each point's colors are three linear forms in
    ``k``.  Points with equal forms merge by summing their signs mod 3, and
    each distinct form is evaluated once per coloring.
    """
    q = dihedral_quandle(3)
    if movie is None:
        movie = slide_movie(a, b)
    else:
        if movie.braid_a != a or movie.braid_b != b:
            raise PreconditionError("movie belongs to a different pair")
        validate_movie(movie)
    gens = _coloring_generators(a, b, q)
    signs: dict[tuple[tuple[int, ...], ...], int] = {}
    for tp in triple_points(movie, [step for step, _ in gens], q):
        signs[tp.colors] = (signs.get(tp.colors, 0) + tp.sign) % 3
    terms = [(sign, forms) for forms, sign in signs.items() if sign]
    distinct = {f for _, forms in terms for f in forms}
    counts = [0, 0, 0]
    for k in product(*(range(n) for _, n in gens)):  # the coloring sum k_t step_t
        value = {f: sum(x * y for x, y in zip(f, k)) % 3 for f in distinct}
        exponent = sum(sign * mochizuki_theta(*map(value.get, forms)) for sign, forms in terms)
        counts[exponent % 3] += 1
    return GroupRingElement(tuple(counts))

"""Quandle colorings, triple points, and the degree-3 cocycle invariant.

A quandle is a set with a binary operation ``x * y`` ("x pushed through y")
that is idempotent, right-invertible, and self-distributive.  The dihedral
quandle R_p lives on Z/p with ``x * y = 2y - x``.

Colorings.  A braid of degree m acts on color vectors ``(c_1 .. c_m)`` one
letter at a time:

    sigma_i:     (.., c_i, c_{i+1}, ..) -> (.., c_{i+1}, c_i * c_{i+1}, ..)
    sigma_i^-1:  (.., u, v, ..)         -> (.., v *~ u, u, ..)

where ``*~`` is the right division (in dihedral quandles ``*~`` equals ``*``).
A coloring of a commuting pair ``(a, b)`` is a vector fixed by both actions.
In R_p the action is linear, so :func:`torus_colorings` lists the colorings
as the kernel mod p of an integer matrix, from its Smith normal form.

Weights.  Every triple point of a movie (an R3 step) picks up the Mochizuki
3-cocycle value ``theta(x, y, z) = (x-y)(y-z)z(x+z)`` over Z/3 at the colors
of the three strands involved, read bottom to top just before the move; the
Boltzmann exponent of a coloring is the sign-weighted sum.  The cocycle
invariant :func:`cocycle_invariant` is the sum of ``t^exponent`` over all
colorings, an element of the group ring Z[Z/3] -- and it does not depend on
which movie realizes the pair, only on the pair itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod

from .braids import BraidWord, Letter, check_cap, check_pair
from .errors import PreconditionError, SearchBudgetExceeded
from .movies import R3, CancelPair, ChartMovie, InsertPair, apply_step, slide_movie
from .movies import mirror_chart, validate_movie  # noqa: F401  mirror_chart re-exported
from .presentations import smith_form

COLORING_CAP = 10**7


@dataclass(frozen=True, slots=True)
class Quandle:
    """Finite quandle on ``{0 .. size-1}`` given by its operation table."""

    size: int
    table: tuple[tuple[int, ...], ...]
    name: str = ""
    _right_div: tuple[dict[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:  # check_quandle, not this, judges the table
        right_div = tuple({x: z for z, x in enumerate(col)} for col in zip(*self.table))
        object.__setattr__(self, "_right_div", right_div)  # [y][x]: the z with z * y = x

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    def op_inv(self, x: int, y: int) -> int:
        """The unique z with ``z * y = x``."""
        return self._right_div[y][x]


def check_quandle(q: Quandle) -> None:
    """Raise a precondition error unless the three quandle axioms hold."""
    n = q.size
    if len(q.table) != n or any(len(row) != n for row in q.table):
        raise PreconditionError("quandle table is not square")
    for x in range(n):
        if q.op(x, x) != x:
            raise PreconditionError(f"not idempotent at {x}")
    for y in range(n):
        seen = {q.op(x, y) for x in range(n)}
        if len(seen) != n:
            raise PreconditionError(f"right translation by {y} not bijective")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if q.op(q.op(x, y), z) != q.op(q.op(x, z), q.op(y, z)):
                    raise PreconditionError(
                        f"self-distributivity fails at ({x}, {y}, {z})"
                    )


def dihedral_quandle(p: int) -> Quandle:
    """R_p on Z/p with ``x * y = 2y - x`` (any p >= 2, primes or not)."""
    if p < 2:
        raise PreconditionError("dihedral quandle needs p >= 2")
    table = tuple(
        tuple((2 * y - x) % p for y in range(p)) for x in range(p)
    )
    return Quandle(p, table, f"R{p}")


def braid_monodromy(
    beta: BraidWord, q: Quandle, colors: tuple[int, ...]
) -> tuple[int, ...]:
    """Push a color vector through a braid word, letter by letter."""
    if len(colors) != beta.degree:
        raise PreconditionError(
            f"coloring has {len(colors)} entries for degree {beta.degree}"
        )
    c = tuple(colors)
    for x in beta.letters:
        c = _push(c, x, q)
    return c


def _push(c: tuple[int, ...], letter: Letter, q: Quandle) -> tuple[int, ...]:
    i, s = letter
    u, v = c[i - 1], c[i]
    return c[: i - 1] + ((v, q.op(u, v)) if s > 0 else (q.op_inv(v, u), u)) + c[i + 1 :]


def torus_colorings(
    a: BraidWord, b: BraidWord, q: Quandle
) -> list[tuple[int, ...]]:
    """All colorings by a dihedral quandle R_p, lexicographically sorted.

    R_p acts linearly, ``sigma_i`` by ``(u, v) -> (v, 2v - u)`` and
    ``sigma_i^-1`` by ``(u, v) -> (2u - v, u)``, so the colorings solve
    ``[M_a - I; M_b - I] c = 0 (mod p)``.  With the Smith form ``U A V = D``
    they are ``c = V w`` with ``d_t w_t = 0 (mod p)`` and ``w_t`` free past the
    rank: ``p^(m-r) prod gcd(d_t, p)`` of them for any p >= 2, counted against
    ``COLORING_CAP`` before any is listed.  A quandle other than R_p and a
    matrix past ``braids.WORD_CAP`` entries are refused before it is built.
    """
    check_pair(a, b)
    p, m = q.size, a.degree
    if q.table != dihedral_quandle(p).table:
        raise PreconditionError(f"quandle {q.name or '?'} is not dihedral")
    check_cap(2 * m * m, "the coloring matrix", "entries")
    rows: list[list[int]] = []
    for beta in (a, b):  # column j of M_beta is the image of e_j
        cols = [braid_monodromy(beta, q, tuple(int(r == j) for r in range(m)))
                for j in range(m)]
        rows += [[c[r] - (r == j) for j, c in enumerate(cols)] for r in range(m)]
    divisors, v = smith_form(rows)
    counts = [gcd(d, p) for d in divisors] + [p] * (m - len(divisors))
    if prod(counts) > COLORING_CAP:
        rest = prod(n for n in counts if n < p)
        size = f"{p}^{counts.count(p)}" + (f" * {rest}" if rest > 1 else "")
        raise SearchBudgetExceeded(f"coloring search over {size} vectors exceeds the cap")
    out = [(0,) * m]
    for t, n in enumerate(counts):  # w_t runs over the multiples of p / n
        step = [row[t] * (p // n) for row in v]
        out = [tuple((x + k * y) % p for x, y in zip(c, step))
               for c in out for k in range(n)]
    return sorted(out)


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

    ``sign`` is the sign with which the cocycle value enters the Boltzmann
    exponent.  For windows of positive letters it equals the R3 step's sign;
    for windows of negative letters the conventions invert it (see
    :func:`triple_points`).
    """

    sign: int
    colors: tuple[int, int, int]


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
    movie: ChartMovie, coloring: tuple[int, ...], q: Quandle
) -> list[TriplePoint]:
    """The movie's triple points with sheet colors under one coloring.

    Replays the movie keeping the color vector before every word position;
    a step recomputes only the positions it rewrites (two for R3, one for a
    far swap or an inserted pair).  At each R3 step the colors at the three
    strand positions the window occupies (min(i, j) and the two above) are
    read in bottom-to-top sheet order.  For a window of positive letters the
    strands enter bottom sheet first, so the entering colors are recorded
    with the step's sign.  For a window of negative letters the sheet
    hierarchy is the reverse and the source region sits on the exit side, so
    the colors *leaving* the window are recorded and the contribution sign is
    opposite to the window sign; this is the convention under which mirror
    pairs give conjugate state sums.
    """
    if len(coloring) != movie.degree:
        raise PreconditionError(
            f"coloring has {len(coloring)} entries for degree {movie.degree}"
        )
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


def boltzmann_exponent(points: list[TriplePoint]) -> int:
    """Sign-weighted sum of cocycle values, an exponent in Z/3."""
    total = 0
    for tp in points:
        total += tp.sign * mochizuki_theta(*tp.colors)
    return total % 3


def cocycle_invariant(
    a: BraidWord,
    b: BraidWord,
    movie: ChartMovie | None = None,
) -> GroupRingElement:
    """State sum ``sum_colorings t^(Boltzmann exponent)`` over R_3 colorings.

    A movie may be supplied (it is validated and must belong to the pair);
    otherwise :func:`slide_movie` generates one.  The value is independent of
    the choice of movie.
    """
    q = dihedral_quandle(3)
    if movie is None:
        movie = slide_movie(a, b)
    else:
        if movie.braid_a != a or movie.braid_b != b or movie.degree != a.degree:
            raise PreconditionError("movie belongs to a different pair")
        validate_movie(movie)
    total = GroupRingElement.zero()
    for coloring in torus_colorings(a, b, q):
        w = boltzmann_exponent(triple_points(movie, coloring, q))
        total = total + GroupRingElement.monomial(w)
    return total


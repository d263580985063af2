"""Group presentations of the links built from commuting braid pairs.

For a commuting pair ``(a, b)`` of degree-``m`` braids, the fundamental group
of the associated link complement is generated by the strand meridians
``x1 .. xm`` subject to the relations ``x_j = a.x_j`` and ``x_j = b.x_j``
(Artin action), one pair per strand.  :func:`torus_covering_group` builds that
presentation; :func:`tietze_eliminate` shrinks it by eliminating generators
that occur exactly once in some relator; :func:`abelianization` computes the
integral invariants of a presentation via Smith normal form over exact
integers, while :func:`torus_abelianization` builds no matrix: H_1 of a pair's
link group is free on the orbits of its strand permutations; and
:func:`finite_quotient_count` counts homomorphisms onto small finite groups by
exhaustive enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .artin import (
    FreeWord,
    artin_images,
    boundary_word,
    format_free_word,
    free_reduce,
)
from .braids import BraidWord, check_cap, check_pair, normal_form, orbit_sizes, permutation
from .errors import PreconditionError, SearchBudgetExceeded

# The module's work budget, in time and memory alike: image tuples of one
# quotient count, and steps, rows * cols * min(rows, cols), of one Smith form.
TUPLE_CAP = 10**8


@dataclass
class GroupPresentation:
    """``< generators | relators >``.

    ``generators[k]`` is the display name of free-group index ``k+1``.
    Relators are reduced free words.
    """

    generators: tuple[str, ...]
    relators: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        for w in self.relators:
            if w.rank != self.rank:
                raise PreconditionError(
                    f"relator rank {w.rank} does not match presentation rank {self.rank}"
                )

    @property
    def rank(self) -> int:
        return len(self.generators)

    def __str__(self) -> str:
        return format_presentation(self)


def format_presentation(p: GroupPresentation) -> str:
    rels = ", ".join(format_free_word(r, p.generators) for r in p.relators)
    gens = ", ".join(p.generators)
    return f"< {gens} | {rels} >"


def torus_covering_group(a: BraidWord, b: BraidWord) -> GroupPresentation:
    """Meridian presentation of the link group of the pair ``(a, b)``.

    Raises a precondition error if the degrees differ or the braids do not
    commute (the pair does not define a surface in that case).
    """
    check_pair(a, b)
    m = a.degree
    names = tuple(f"x{j}" for j in range(1, m + 1))
    relators: list[FreeWord] = []
    for braid in (a, b):
        for j, image in enumerate(artin_images(braid), 1):
            letters = image.letters
            # x_j^-1 can cancel only the first letter of the reduced image
            rel = letters[1:] if letters[:1] == ((j, 1),) else ((j, -1),) + letters
            if rel:
                relators.append(FreeWord(m, rel))
    return GroupPresentation(names, tuple(relators))


# ---------------------------------------------------------------------------
# Tietze elimination
# ---------------------------------------------------------------------------


def _substitute(w: FreeWord, gi: int, replacement: FreeWord) -> FreeWord:
    """``w`` with ``x_gi`` replaced and the generators above it renumbered down
    by one, free-reduced; ``replacement`` is already renumbered."""
    out: list[tuple[int, int]] = []
    inv = replacement.inverse()
    for j, s in w.letters:
        if j == gi:
            out.extend(replacement.letters if s > 0 else inv.letters)
        else:
            out.append((j - 1 if j > gi else j, s))
    return free_reduce(FreeWord(w.rank - 1, tuple(out)))


def _clean(relators: list[FreeWord]) -> list[FreeWord]:
    """Drop empty relators and exact duplicates, keeping first occurrences."""
    seen: set[tuple] = set()
    out: list[FreeWord] = []
    for r in relators:
        if not r.letters or r.letters in seen:
            continue
        seen.add(r.letters)
        out.append(r)
    return out


def tietze_eliminate(p: GroupPresentation) -> GroupPresentation:
    """Eliminate generators occurring exactly once in some relator.

    Repeatedly: find the first relator containing a generator with exactly one
    occurrence (counting both signs), solve the relator for that generator,
    substitute everywhere, and drop the relator and the generator.  Only free
    reduction and removal of empty/duplicate relators are applied besides
    that, so the group is unchanged and the procedure is deterministic.
    Relators past ``braids.WORD_CAP`` letters in total after a substitution
    raise :class:`SearchBudgetExceeded`.
    """
    names = list(p.generators)
    relators = _clean([free_reduce(r) for r in p.relators])

    while True:
        target: tuple[int, int] | None = None  # (relator index, generator)
        for ri, rel in enumerate(relators):
            counts: dict[int, int] = {}
            for j, _ in rel.letters:
                counts[j] = counts.get(j, 0) + 1
            for j, _ in rel.letters:
                if counts[j] == 1:
                    target = (ri, j)
                    break
            if target:
                break
        if target is None:
            break
        ri, gi = target
        rel = relators.pop(ri)
        pos = next(k for k, (j, _) in enumerate(rel.letters) if j == gi)
        # u g^s v = 1  =>  g = (v u)^-s; v u has no g, so substituting only
        # renumbers it
        vu = FreeWord(rel.rank, rel.letters[pos + 1 :] + rel.letters[:pos])
        solved = _substitute(vu, gi, FreeWord(rel.rank - 1, ()))
        replacement = solved.inverse() if rel.letters[pos][1] > 0 else solved
        relators = [_substitute(r, gi, replacement) for r in relators]
        check_cap(sum(len(r.letters) for r in relators), "the Tietze relator total")
        del names[gi - 1]
        relators = _clean(relators)

    return GroupPresentation(tuple(names), tuple(relators))


def add_relator(p: GroupPresentation, w: FreeWord) -> GroupPresentation:
    """The quotient presentation with one extra relator."""
    w = free_reduce(w)
    relators = p.relators + ((w,) if w.letters else ())
    return GroupPresentation(p.generators, relators)


def central_twist_relator(p: GroupPresentation, b: BraidWord) -> FreeWord:
    """The central word to kill when the second braid is a half-twist power.

    If ``b = Delta^k``, the relators of the meridian presentation ``p`` of
    :func:`torus_covering_group` force the boundary word ``W = x1 .. xm``, the
    image of the braid-axis meridian: for even ``k``, the second family of
    relations says exactly that ``W^(k/2)`` is central; for odd ``k`` they
    imply ``W^k`` central (apply the braid relation twice).  The returned word
    is ``W^(k/2)`` resp. ``W^k``.  Raises a precondition error if ``b`` is not
    a half-twist power or ``p`` is not on ``x1 .. xm``, as after a Tietze
    elimination.
    """
    exponent = _central_exponent(b)
    if p.generators != tuple(f"x{j}" for j in range(1, b.degree + 1)):
        raise PreconditionError(
            "central quotient requires the meridian presentation on x1 .. xm"
        )
    return free_reduce(boundary_word(b.degree) ** exponent)


def _central_exponent(b: BraidWord) -> int:
    nf = normal_form(b)
    if not nf.is_half_twist_power():
        raise PreconditionError(
            "central quotient requires the second braid to equal a power "
            "of the half twist"
        )
    k = nf.infimum
    return k // 2 if k % 2 == 0 else k


# ---------------------------------------------------------------------------
# abelianization
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AbelianInvariants:
    """H_1 as ``Z^rank + Z/d1 + ... + Z/dk`` with ``d1 | d2 | ... | dk``."""

    rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts: list[str] = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def smith_invariants(rows: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form (exact, over Z).

    Returns ``[d1, .., dr]`` with each ``d_t > 0`` and ``d_t | d_{t+1}``;
    ``r`` is the rank of the matrix.
    """
    return smith_form(rows)[0]


def smith_form(rows: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """:func:`smith_invariants` and the column transform ``V``: unimodular, with
    ``U A V = diag(+-d1, .., +-dr, 0, ..)`` for some unimodular ``U``.  Work
    past ``TUPLE_CAP`` steps raises :class:`SearchBudgetExceeded` before any."""
    a = [list(map(int, row)) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    check_cap(nrows * ncols * min(nrows, ncols),
              f"Smith form of a {nrows} x {ncols} matrix", "steps", TUPLE_CAP)
    transform = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    out: list[int] = []
    t = 0
    while True:
        pivot: tuple[int, int] | None = None
        best = 0
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(a[i][j])
                if v and (pivot is None or v < best):
                    pivot, best = (i, j), v
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a + transform:
            row[t], row[pj] = row[pj], row[t]
        p = a[t][t]
        dirty = False
        for i in range(t + 1, nrows):
            q = a[i][t] // p
            if q:
                for j in range(t, ncols):
                    a[i][j] -= q * a[t][j]
            if a[i][t]:
                dirty = True
        for j in range(t + 1, ncols):
            q = a[t][j] // p
            if q:
                for row in a[t:] + transform:
                    row[j] -= q * row[t]
            if a[t][j]:
                dirty = True
        if dirty:
            continue  # smaller remainders appeared; pick a new pivot
        # pivot must divide the rest of the submatrix
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, ncols):
                a[t][j] += a[offender][j]
            continue
        out.append(abs(p))
        t += 1
    return out, transform


def abelianization(p: GroupPresentation) -> AbelianInvariants:
    """Invariants of the abelianized group (exponent-sum matrix, SNF)."""
    rows = []
    for rel in p.relators:
        row = [0] * p.rank
        for j, s in rel.letters:
            row[j - 1] += s
        rows.append(row)
    divisors = smith_invariants(rows)
    return AbelianInvariants(p.rank - len(divisors), tuple(d for d in divisors if d > 1))


def torus_abelianization(
    a: BraidWord, b: BraidWord, quotient_center: bool = False
) -> AbelianInvariants:
    """H_1 of :func:`torus_covering_group`, or of its central quotient, from
    the strand orbits: a braid sends ``x_j`` to a conjugate of ``x_pi(j)``, so
    H_1 is free on the ``c`` orbits of ``<pi_a, pi_b>`` (Kamada, 2002).  The word
    ``W^e`` of :func:`central_twist_relator` counts ``e`` times an orbit's size
    on its generator: ``Z^(c-1) + Z/g`` with ``g = |e| gcd(orbit sizes)``."""
    check_pair(a, b)
    sizes = orbit_sizes(permutation(a), permutation(b))
    g = abs(_central_exponent(b)) * gcd(*sizes) if quotient_center else 0
    if g == 0:
        return AbelianInvariants(len(sizes), ())
    return AbelianInvariants(len(sizes) - 1, (g,) if g > 1 else ())


# ---------------------------------------------------------------------------
# finite quotients by enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FiniteGroup:
    """A small finite group as an index-based multiplication table."""

    name: str
    mult: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    identity: int = 0

    @property
    def size(self) -> int:
        return len(self.mult)

    def is_abelian(self) -> bool:
        n = self.size
        return all(
            self.mult[x][y] == self.mult[y][x] for x in range(n) for y in range(x)
        )


def _tabulate(name: str, elements: list, compose, unit) -> FiniteGroup:
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    mult = tuple(
        tuple(index[compose(elements[x], elements[y])] for y in range(n))
        for x in range(n)
    )
    inverse = tuple(row.index(index[unit]) for row in mult)
    return FiniteGroup(name, mult, inverse, index[unit])


def cyclic_group(k: int) -> FiniteGroup:
    """Z/k as a table of k^2 entries, at most ``WORD_CAP`` of them."""
    if k < 1:
        raise PreconditionError("cyclic order must be >= 1")
    check_cap(k * k, f"the table of Z{k}", "entries")
    return _tabulate(
        f"Z{k}", list(range(k)), lambda x, y: (x + y) % k, 0
    )


def dihedral_group(k: int) -> FiniteGroup:
    """Symmetries of the k-gon, order 2k; elements (rotation, is_reflection)."""
    if not 2 <= k <= 12:
        raise PreconditionError("dihedral parameter must be in 2..12")
    elements = [(i, e) for e in (0, 1) for i in range(k)]

    def compose(x, y):
        i, e = x
        j, d = y
        return ((i + (j if e == 0 else -j)) % k, (e + d) % 2)

    return _tabulate(f"D{k}", elements, compose, (0, 0))


def symmetric_group(k: int) -> FiniteGroup:
    if not 1 <= k <= 5:
        raise PreconditionError("symmetric-group parameter must be in 1..5")
    elements = list(itertools.permutations(range(k)))

    def compose(x, y):
        return tuple(y[x[i]] for i in range(k))  # x then y, like braid words

    return _tabulate(f"S{k}", elements, compose, tuple(range(k)))


@dataclass(frozen=True, slots=True)
class QuotientCounts:
    homomorphisms: int
    epimorphisms: int
    abelian_image: int


def _relator_holds(rel, images, mult, inv, identity) -> bool:
    acc = identity
    for j, s in rel:
        x = images[j - 1] if s > 0 else inv[images[j - 1]]
        acc = mult[acc][x]
    return acc == identity


def _generates(images, mult, identity, n) -> bool:
    seen = {identity}
    stack = [identity]
    while stack:
        x = stack.pop()
        for g in images:
            y = mult[x][g]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def finite_quotient_count(p: GroupPresentation, group: FiniteGroup) -> QuotientCounts:
    """Count homomorphisms, epimorphisms, and abelian-image homomorphisms.

    Exhaustive over all ``size**rank`` generator-image tuples, in one
    process.  More than ``TUPLE_CAP`` tuples raises
    :class:`SearchBudgetExceeded` before any is tried.
    """
    g = p.rank
    mult, inv, identity, n = group.mult, group.inverse, group.identity, group.size
    if n**g > TUPLE_CAP:
        raise SearchBudgetExceeded(
            f"enumeration of {n}^{g} tuples exceeds the cap of {TUPLE_CAP}"
        )
    relators = tuple(r.letters for r in p.relators)
    homs = epis = abelian = 0
    for images in itertools.product(range(n), repeat=g):
        if not all(_relator_holds(r, images, mult, inv, identity) for r in relators):
            continue
        homs += 1
        if all(
            mult[images[u]][images[v]] == mult[images[v]][images[u]]
            for u in range(g)
            for v in range(u)
        ):
            abelian += 1
        if _generates(images, mult, identity, n):
            epis += 1
    return QuotientCounts(homs, epis, abelian)

"""Ribbon certificates via cable decompositions of commuting braid pairs.

A commuting pair ``(a, b)`` of degree ``n*m`` is certified ribbon by
exhibiting a cable structure: ``b`` factors as a tubular braid on ``m``
cables of ``n`` strands followed by braids interior to the cables, while
``a`` must be a product of interior braids alone (trivial tubular part),
each of which closes to an unknot.  The tubular braid is not searched for:
it is read off ``b`` by deleting all but the first strand of every cable, so
"no cable decomposition" is exact for the given blocks, not a spent budget.
Unknottedness is decided by a three-valued check backed by the Alexander
polynomial, so the overall verdict is ``Ribbon`` or an honest ``Unknown`` --
never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass

from .artin import FreeWord, free_reduce
from .braids import (
    BraidWord,
    Letter,
    braids_equal,
    cable_lift,
    check_pair,
    closure_components,
    format_braid,
    parse_braid,
    permutation,
)
from .errors import PreconditionError, read_int, read_lines, write_lines

# ---------------------------------------------------------------------------
# integer Laurent polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Laurent:
    """An integer Laurent polynomial as sorted ``(exponent, coefficient)`` pairs."""

    terms: tuple[tuple[int, int], ...]

    @staticmethod
    def from_dict(d: dict[int, int]) -> "Laurent":
        return Laurent(tuple(sorted((e, c) for e, c in d.items() if c)))

    @staticmethod
    def const(c: int) -> "Laurent":
        return Laurent.from_dict({0: c})

    @staticmethod
    def t_power(e: int, c: int = 1) -> "Laurent":
        return Laurent.from_dict({e: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Laurent") -> "Laurent":
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return Laurent.from_dict(d)

    def __neg__(self) -> "Laurent":
        return Laurent(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        d: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return Laurent.from_dict(d)

    def shift(self, k: int) -> "Laurent":
        """Multiply by ``t^k``."""
        return Laurent(tuple((e + k, c) for e, c in self.terms))

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return self.terms[0][0]

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return self.terms[-1][0]

    def exact_div(self, other: "Laurent") -> "Laurent":
        """Exact division in the Laurent ring; raises if a remainder is left."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        rem = dict(self.terms)
        out: dict[int, int] = {}
        lead_e, lead_c = other.terms[-1]
        # Units t^k are invertible, so inexact divisions do not terminate by
        # running out of degree: cap the quotient at the exponent any exact
        # quotient must have, namely min_exp(self) - min_exp(other).
        floor_e = self.min_exp() - other.terms[0][0]
        while rem:
            e_r = max(rem)
            c_r = rem[e_r]
            e_q = e_r - lead_e
            if c_r % lead_c or e_q < floor_e:
                raise ValueError("division is not exact")
            q = c_r // lead_c
            out[e_q] = out.get(e_q, 0) + q
            for e, c in other.terms:
                k = e + e_q
                v = rem.get(k, 0) - q * c
                if v:
                    rem[k] = v
                elif k in rem:
                    del rem[k]
        return Laurent.from_dict(out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for e, c in reversed(self.terms):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                t = "t" if e == 1 else f"t^{e}"
                body = t if mag == 1 else f"{mag}{t}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


_ONE = Laurent.const(1)
_T = Laurent.t_power(1)

# ---------------------------------------------------------------------------
# reduced Burau representation and the Alexander polynomial
# ---------------------------------------------------------------------------

Matrix = tuple[tuple[Laurent, ...], ...]


def _identity_matrix(k: int) -> Matrix:
    return tuple(
        tuple(_ONE if i == j else Laurent(()) for j in range(k)) for i in range(k)
    )


_T_INV = Laurent.t_power(-1)
# row i - 1 of the crossing matrix of s_i^+-1 at columns i - 2, i - 1, i; the rest is I
_CROSSING_ROW = {1: (_T, -_T, _ONE), -1: (_ONE, -_T_INV, _T_INV)}


def reduced_burau(w: BraidWord) -> Matrix:
    """Product of the ``(m-1) x (m-1)`` crossing matrices of ``w``, left to right.

    A crossing matrix differs from the identity only in row ``r``, so the
    product gains it by adding multiples of column ``r`` to columns ``r - 1``
    and ``r + 1`` and scaling column ``r``: O(m) Laurent operations a letter.
    """
    k = w.degree - 1
    out = [list(row) for row in _identity_matrix(k)]
    for i, s in w.letters:
        r = i - 1
        left, diag, right = _CROSSING_ROW[s]
        for row in out:
            x = row[r]
            if x.terms:
                if r >= 1:
                    row[r - 1] = row[r - 1] + x * left
                if r + 1 < k:
                    row[r + 1] = row[r + 1] + x * right
                row[r] = x * diag
    return tuple(map(tuple, out))


def _det(a: Matrix) -> Laurent:
    """Determinant by fraction-free elimination (Bareiss, Math. Comp. 1968):
    every update divides exactly by the previous pivot."""
    m = [list(row) for row in a]
    n, sign, prev = len(m), 1, _ONE
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k].terms), None)
        if pivot is None:
            return Laurent(())
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]).exact_div(prev)
        prev = m[k][k]
    det = m[-1][-1] if n else _ONE
    return det if sign > 0 else -det


def alexander_polynomial(beta: BraidWord) -> Laurent:
    """Alexander polynomial of the closure, a knot, from the reduced Burau matrix.

    The determinant of ``burau(beta) - identity``, taken by Bareiss
    elimination over ``Z[t^+-1]``, is rescaled by ``(1 - t) / (1 - t^degree)``
    and normalized so the lowest term is the positive constant; the result is
    the palindromic representative.
    """
    if closure_components(beta) != 1:
        raise PreconditionError("closure is not a knot (multiple components)")
    m = beta.degree
    mat = reduced_burau(beta)
    ident = _identity_matrix(m - 1)
    diff = tuple(
        tuple(mat[i][j] - ident[i][j] for j in range(m - 1)) for i in range(m - 1)
    )
    numerator = _det(diff) * (_ONE - _T)
    poly = numerator.exact_div(_ONE - Laurent.t_power(m))
    if poly.is_zero():
        raise ValueError("degenerate determinant for a knot closure")
    poly = poly.shift(-poly.min_exp())
    if poly.terms[0][1] < 0:
        poly = -poly
    return poly


# ---------------------------------------------------------------------------
# three-valued unknot detection
# ---------------------------------------------------------------------------

UNKNOT = "Unknot"
NOT_UNKNOT = "NotUnknot"
UNKNOWN = "Unknown"


@dataclass(frozen=True, slots=True)
class UnknotVerdict:
    """Outcome of the unknot check together with its supporting evidence."""

    status: str
    evidence: str


def _cyclic_reduce(letters: list[Letter]) -> bool:
    changed = False
    while len(letters) >= 2 and (
        letters[0][0] == letters[-1][0] and letters[0][1] == -letters[-1][1]
    ):
        letters.pop()
        letters.pop(0)
        changed = True
    return changed


def _commute_cancel(letters: list[Letter]) -> bool:
    """Cancel an inverse pair separated only by letters two or more apart."""
    for k, (i, s) in enumerate(letters):
        for j in range(k + 1, len(letters)):
            i2, s2 = letters[j]
            if i2 == i:
                if s2 == -s:
                    del letters[j]
                    del letters[k]
                    return True
                break
            if abs(i2 - i) < 2:
                break
    return False


def _destabilize(degree: int, letters: list[Letter]) -> int:
    """Remove a top or bottom generator occurring exactly once (none on one strand)."""
    top = [k for k, (i, _) in enumerate(letters) if i == degree - 1]
    if len(top) == 1:
        del letters[top[0]]
        return degree - 1
    bottom = [k for k, (i, _) in enumerate(letters) if i == 1]
    if len(bottom) == 1:
        del letters[bottom[0]]
        letters[:] = [(i - 1, s) for i, s in letters]
        return degree - 1
    return degree


def _simplify_closure(degree: int, letters: list[Letter]) -> int:
    """Shrink a braid word by moves that preserve its closure."""
    while True:
        reduced = free_reduce(FreeWord(degree, tuple(letters))).letters
        if len(reduced) < len(letters):
            letters[:] = reduced
            continue
        if _cyclic_reduce(letters):
            continue
        if _commute_cancel(letters):
            continue
        new_degree = _destabilize(degree, letters)
        if new_degree != degree:
            degree = new_degree
            continue
        return degree


def unknot_check(beta: BraidWord) -> UnknotVerdict:
    """Three-valued unknot detection for a braid whose closure is a knot.

    ``Unknot`` when conjugation-and-destabilization moves shrink the braid
    to a single strand; ``NotUnknot`` when the Alexander polynomial of the
    reduced braid (same closure, so a link is refused there) is nontrivial;
    ``Unknown`` otherwise.
    """
    letters = list(beta.letters)
    degree = _simplify_closure(beta.degree, letters)
    if degree == 1:
        return UnknotVerdict(UNKNOT, "destabilizes to the braid on one strand")
    poly = alexander_polynomial(BraidWord(degree, tuple(letters)))
    if poly != _ONE:
        return UnknotVerdict(NOT_UNKNOT, f"alexander polynomial {poly}")
    return UnknotVerdict(
        UNKNOWN, "alexander polynomial trivial but no reduction to one strand"
    )


# ---------------------------------------------------------------------------
# cable decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CableDecomposition:
    """A cabling witness: tubular braid plus per-cable interior braids.

    ``tubular`` has degree ``block_count`` and describes how the cables of
    ``block_size`` strands weave; ``interior[j]`` acts inside cable ``j``
    after the tubular part; ``vertical[j]`` is the braid inside cable ``j``
    in the other torus direction, whose tubular part must be trivial.
    """

    block_size: int
    block_count: int
    tubular: BraidWord
    interior: tuple[BraidWord, ...]
    vertical: tuple[BraidWord, ...]

    def __post_init__(self) -> None:
        n, m = self.block_size, self.block_count
        if n < 1 or m < 1:
            raise PreconditionError("block size and count must be positive")
        if self.tubular.degree != m:
            raise PreconditionError(
                f"tubular braid degree {self.tubular.degree} != block count {m}"
            )
        if len(self.interior) != m or len(self.vertical) != m:
            raise PreconditionError("one interior and one vertical braid per block")
        for w in (*self.interior, *self.vertical):
            if w.degree != n:
                raise PreconditionError(
                    f"interior braid degree {w.degree} != block size {n}"
                )

    @property
    def degree(self) -> int:
        return self.block_size * self.block_count


def _check_blocks(a: BraidWord, b: BraidWord, n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise PreconditionError("block size and count must be positive")
    if a.degree != n * m or b.degree != n * m:
        raise PreconditionError(
            f"braid degrees ({a.degree}, {b.degree}) do not match {n} x {m} blocks"
        )


def _assemble(start: BraidWord, blocks: tuple[BraidWord, ...]) -> BraidWord:
    """``start`` followed by each ``blocks[j]`` acting inside cable ``j``."""
    n = start.degree // len(blocks)
    letters = list(start.letters)
    for j, w in enumerate(blocks):
        letters.extend((i + n * j, s) for i, s in w.letters)
    return BraidWord(start.degree, tuple(letters))


def verify_decomposition(
    a: BraidWord, b: BraidWord, witness: CableDecomposition
) -> bool:
    """Check both reconstruction identities of a cabling witness exactly.

    ``b`` must equal the tubular lift times the embedded interior braids,
    and ``a`` must equal the embedded vertical braids alone (so its tubular
    part is trivial), both as elements of the braid group.  Both
    permutations and exponent sums are compared before either normal form.
    """
    n = witness.block_size
    _check_blocks(a, b, n, witness.block_count)
    pairs = ((b, _assemble(cable_lift(witness.tubular, n), witness.interior)),
             (a, _assemble(BraidWord(witness.degree, ()), witness.vertical)))
    return all(u.exponent_sum() == v.exponent_sum() and permutation(u) == permutation(v)
               for u, v in pairs) and all(braids_equal(u, v) for u, v in pairs)


def _induced(w: BraidWord, group: list[int]) -> list[BraidWord]:
    """The braid ``w`` induces on each group of strands, deleting the others:
    strand ``k+1`` belongs to group ``group[k]``, or to none if it is -1.

    One pass keeps each strand's rank within its group.  A crossing inside a
    group is that group's letter at the left strand's rank and swaps the two
    ranks; a crossing between groups changes no rank.
    """
    sizes = [0] * (max(group) + 1)
    rank = [0] * w.degree
    for k, g in enumerate(group):
        if g >= 0:
            rank[k], sizes[g] = sizes[g], sizes[g] + 1
    cur = list(range(w.degree))  # cur[p]: the strand at position p+1, from 0
    out: list[list[Letter]] = [[] for _ in sizes]
    for i, s in w.letters:
        u, v = cur[i - 1], cur[i]
        g = group[u]
        if g >= 0 and g == group[v]:
            out[g].append((rank[u] + 1, s))
            rank[u], rank[v] = rank[v], rank[u]
        cur[i - 1], cur[i] = v, u
    return [BraidWord(size, tuple(letters)) for size, letters in zip(sizes, out)]


def search_decomposition(
    a: BraidWord, b: BraidWord, n: int, m: int
) -> CableDecomposition | None:
    """The cabling witness on ``m`` blocks of ``n`` strands, or ``None``.

    Deleting all but the first strand of each block is well defined on
    braids; it sends ``cable_lift(r, n)`` to ``r`` and braids inside the
    cables to the identity.  So the braid ``b`` induces on those strands is
    the tubular braid of any witness.  The interiors are read off
    ``cable_lift(tubular)^-1 * b``, the verticals off ``a``, each in one pass
    over its word, and :func:`verify_decomposition` alone decides, refuting a
    wrong block permutation before any normal form: ``None`` means no witness
    exists.  A tubular braid whose lift would pass ``WORD_CAP`` letters
    raises :class:`SearchBudgetExceeded`.
    """
    _check_blocks(a, b, n, m)
    (strands,) = _induced(b, [0 if k % n == 0 else -1 for k in range(n * m)])
    tubular = BraidWord(m, free_reduce(FreeWord(m, strands.letters)).letters)
    rem = cable_lift(tubular, n).inverse() * b
    blocks = [k // n for k in range(n * m)]
    witness = CableDecomposition(n, m, tubular, tuple(_induced(rem, blocks)),
                                 tuple(_induced(a, blocks)))
    return witness if verify_decomposition(a, b, witness) else None


# ---------------------------------------------------------------------------
# the ribbon verdict
# ---------------------------------------------------------------------------

RIBBON = "Ribbon"


@dataclass(frozen=True, slots=True)
class RibbonVerdict:
    """``Ribbon`` with a re-verifiable certificate, or ``Unknown`` with a reason."""

    status: str
    certificate: CableDecomposition | None
    cable_checks: tuple[UnknotVerdict, ...]
    reason: str | None


def ribbon_verdict(
    a: BraidWord,
    b: BraidWord,
    n: int,
    m: int,
    witness: CableDecomposition | None = None,
) -> RibbonVerdict:
    """Certify a commuting pair ribbon via a cabling witness, or say ``Unknown``.

    A supplied witness must have ``n x m`` blocks and is then verified;
    otherwise it is read off by :func:`search_decomposition`, which returns
    only a verified one, and ``Unknown`` with "no cable decomposition found"
    means none exists for these blocks.  ``Ribbon`` requires the witness to verify and every
    vertical cable braid to close to an unknot; any undecided sub-check
    yields ``Unknown``.  A cable lift past ``WORD_CAP`` letters raises
    :class:`SearchBudgetExceeded`.
    """
    _check_blocks(a, b, n, m)
    check_pair(a, b)
    if witness is None:
        witness = search_decomposition(a, b, n, m)
        if witness is None:
            return RibbonVerdict(UNKNOWN, None, (), "no cable decomposition found")
    elif (witness.block_size, witness.block_count) != (n, m):
        size = f"{witness.block_size} x {witness.block_count}"
        raise PreconditionError(f"witness has {size} blocks, not {n} x {m}")
    elif not verify_decomposition(a, b, witness):
        return RibbonVerdict(
            UNKNOWN, None, (), "witness fails the reconstruction identities"
        )
    checks = []
    for j, w in enumerate(witness.vertical, 1):
        try:
            verdict = unknot_check(w)
        except PreconditionError:
            return RibbonVerdict(
                UNKNOWN,
                None,
                (),
                f"vertical braid {j} does not close to a knot",
            )
        checks.append(verdict)
        if verdict.status != UNKNOT:
            return RibbonVerdict(
                UNKNOWN,
                None,
                tuple(checks),
                f"vertical braid {j} not certified unknotted ({verdict.status})",
            )
    return RibbonVerdict(RIBBON, witness, tuple(checks), None)


# ---------------------------------------------------------------------------
# witness files
# ---------------------------------------------------------------------------


def write_witness(cd: CableDecomposition, path: str) -> None:
    """Serialize a cabling witness as structured text."""
    lines = [
        f"blocks {cd.block_size} x {cd.block_count}",
        f"tubular: {format_braid(cd.tubular)}",
    ]
    for j, w in enumerate(cd.interior, 1):
        lines.append(f"interior{j}: {format_braid(w)}")
    for j, w in enumerate(cd.vertical, 1):
        lines.append(f"vertical{j}: {format_braid(w)}")
    write_lines(path, "witness", lines)


def read_witness(path: str) -> CableDecomposition:
    """Parse a witness file written by :func:`write_witness`, read through
    :func:`torusbraid.errors.read_lines`; ``parse_braid`` caps both blocks."""
    fields: dict[str, str] = {}
    for _, line in read_lines(path, "witness"):
        if line.startswith("blocks"):
            fields["blocks"] = line[len("blocks") :].strip()
            continue
        if ":" not in line:
            raise PreconditionError(f"unrecognized witness line: {line!r}")
        key, val = line.split(":", 1)
        fields[key.strip()] = val.strip()
    if "blocks" not in fields:
        raise PreconditionError("witness file is missing the blocks line")
    error = f"malformed blocks line: {fields['blocks']!r}"
    sizes = fields["blocks"].replace("x", " ").split()
    if len(sizes) != 2:
        raise PreconditionError(error)
    n, m = (read_int(k, error) for k in sizes)
    if "tubular" not in fields:
        raise PreconditionError("witness file is missing the tubular braid")
    tubular = parse_braid(fields["tubular"], m)
    interior = []
    vertical = []
    for j in range(1, m + 1):
        for name, dest in ((f"interior{j}", interior), (f"vertical{j}", vertical)):
            if name not in fields:
                raise PreconditionError(f"witness file is missing {name}")
            dest.append(parse_braid(fields[name], n))
    return CableDecomposition(n, m, tubular, tuple(interior), tuple(vertical))

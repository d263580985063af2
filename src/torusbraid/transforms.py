"""Symmetry operations on commuting boundary-braid pairs.

A surface braided over the torus is described by a pair of commuting
braids read along the two torus directions.  Rotating the torus a quarter
turn or shearing it along one direction acts on such pairs at the word
level; this module implements those actions together with a membership
test for the subgroup of basis changes realized by torus homeomorphisms
fixing the reference framing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braids import BraidWord, check_pair
from .errors import PreconditionError
from .presentations import smith_invariants


@dataclass(frozen=True, slots=True)
class ChartData:
    """A pair of commuting braids: vertical braid ``a`` and horizontal ``b``."""

    degree: int
    a: BraidWord
    b: BraidWord

    def __post_init__(self) -> None:
        if self.a.degree != self.degree or self.b.degree != self.degree:
            raise PreconditionError(
                f"braid degrees ({self.a.degree}, {self.b.degree}) do not "
                f"match the chart degree {self.degree}"
            )
        check_pair(self.a, self.b)


def rho(c: ChartData) -> ChartData:
    """Quarter-turn rotation: ``(a, b) -> (reverse(b), a)``.

    The word written along one torus direction becomes, after rotating a
    quarter turn, the other direction's word read backwards.  Reversal (not
    inversion) is the convention under which four applications restore the
    original words exactly.  The commuting invariant is re-verified on
    construction; a failure would indicate a convention bug.
    """
    return ChartData(c.degree, c.b.reverse(), c.a)


def tau(c: ChartData) -> ChartData:
    """Shear along the vertical direction: ``(a, b) -> (a, b * a)``.

    Cutting the torus open and regluing with a twist leaves the vertical
    braid alone and composes the horizontal braid with it.  Commutativity
    of the pair makes the result a valid chart again.
    """
    return ChartData(c.degree, c.a, c.b * c.a)


# ---------------------------------------------------------------------------
# the subgroup H of framed basis changes
# ---------------------------------------------------------------------------

Matrix3 = tuple[tuple[int, int, int], ...]

# Induced actions on the reference basis (longitude, section, fiber):
# the quarter-turn rotation and the single shear.
ROTATION_BASIS_ACTION: Matrix3 = ((1, 0, 0), (0, 0, -1), (0, 1, 0))
TURNING_BASIS_ACTION: Matrix3 = ((1, 0, 0), (0, 1, 1), (0, 0, 1))


def _as_matrix3(m) -> Matrix3:
    rows = tuple(tuple(row) for row in m)
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise PreconditionError("expected a 3x3 matrix")
    for r in rows:
        for x in r:
            if not isinstance(x, int):
                raise PreconditionError("matrix entries must be integers")
    return rows


def h_membership(m) -> bool:
    """Whether a basis change preserves the first basis vector and framing parity.

    True iff the matrix is in GL(3, Z) (its Smith form is the identity, which
    for a square integer matrix means determinant ``+-1``), its first row is
    ``(+-1, 0, 0)``, and the four lower-right entries sum to an even number.

    >>> h_membership(((1, 0, 0), (0, 0, -1), (0, 1, 0)))
    True
    >>> h_membership(((1, 0, 0), (0, 1, 1), (0, 0, 1)))
    False
    >>> h_membership(((1, 0, 0), (0, 1, 2), (0, 0, 1)))
    True
    """
    mm = _as_matrix3(m)
    if smith_invariants(mm) != [1, 1, 1]:
        return False
    if mm[0] not in ((1, 0, 0), (-1, 0, 0)):
        return False
    return (mm[1][1] + mm[1][2] + mm[2][1] + mm[2][2]) % 2 == 0

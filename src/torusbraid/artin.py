"""Free-group words and the Artin action of braids on the free group.

The free group F_m has generators ``x1 .. xm``, one meridian per strand.  A
word is a sequence of letters ``(j, s)`` with ``1 <= j <= m`` and ``s = +-1``;
:func:`free_reduce` cancels adjacent inverse pairs.

The braid group acts by the Artin rules

    sigma_i:      x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i
    sigma_i^-1:   x_i -> x_{i+1},              x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}

with all other generators fixed.  Applying a braid *word* processes its
letters left to right, so the action composes anti-homomorphically (the last
letter of the braid acts last).  The product x1 x2 .. xm is fixed by every
braid -- it is the meridian of the braid axis -- and :func:`artin_apply` of a
word followed by its inverse word is the identity on any input.

:func:`artin_images` builds all the images ``I_j`` in one pass over the braid,
from its last letter to its first; each letter rewrites two of them:

    sigma_i:      (I_i, I_{i+1}) <- (I_i I_{i+1} I_i^-1, I_i)
    sigma_i^-1:   (I_i, I_{i+1}) <- (I_{i+1}, I_{i+1}^-1 I_i I_{i+1})

Reduced images cancel only at the seams.  Before each letter the pass bounds
the new images of one braid, cancellation aside; past ``braids.WORD_CAP``
letters in all, it raises :class:`SearchBudgetExceeded` without building them.
:func:`artin_apply` substitutes the images into a word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .braids import BraidWord, _word_power, check_cap, word
from .errors import PreconditionError

FreeLetter = tuple[int, int]


@dataclass(frozen=True, slots=True)
class FreeWord:
    """A (not necessarily reduced) word in the free group on ``rank`` letters."""

    rank: int
    letters: tuple[FreeLetter, ...]

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise PreconditionError("free-group rank must be >= 0")
        for j, s in self.letters:
            if not 1 <= j <= self.rank:
                raise PreconditionError(
                    f"letter x{j} out of range for rank {self.rank}"
                )
            if s not in (1, -1):
                raise PreconditionError(f"letter sign must be +1 or -1, got {s}")

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise PreconditionError("cannot multiply words of different ranks")
        return FreeWord(self.rank, self.letters + other.letters)

    def __pow__(self, k: int) -> "FreeWord":
        return FreeWord(self.rank, _word_power(self.letters, k))

    def inverse(self) -> "FreeWord":
        return FreeWord(self.rank, _word_power(self.letters, -1))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[FreeLetter]:
        return iter(self.letters)

    def is_identity(self) -> bool:
        return not free_reduce(self).letters

    def __str__(self) -> str:
        return format_free_word(self)


def free_word(rank: int, letters: Iterable[int]) -> FreeWord:
    """Build a word from signed generator numbers: ``free_word(4, [1, -2])``.

    ``x1 .. x_rank`` are spelled like the generators of the braid group on
    ``rank + 1`` strands, so :func:`torusbraid.braids.word` reads them.
    """
    return FreeWord(rank, word(rank + 1, letters).letters)


def generator(rank: int, j: int) -> FreeWord:
    return FreeWord(rank, ((j, 1),))


def free_reduce(w: FreeWord) -> FreeWord:
    """Cancel adjacent inverse pairs until none remain (unique reduced form)."""
    stack: list[FreeLetter] = []
    for let in w.letters:
        if stack and stack[-1][0] == let[0] and stack[-1][1] == -let[1]:
            stack.pop()
        else:
            stack.append(let)
    return FreeWord(w.rank, tuple(stack))


def format_free_word(w: FreeWord, names: tuple[str, ...] | None = None) -> str:
    """Render with powers collected: ``x1 x2^-1`` , ``x3^2`` ; identity is ``1``."""
    if names is None:
        names = tuple(f"x{j}" for j in range(1, w.rank + 1))
    if not w.letters:
        return "1"
    parts: list[str] = []
    run_gen, run_exp = w.letters[0][0], w.letters[0][1]
    for j, s in w.letters[1:]:
        if j == run_gen and (run_exp > 0) == (s > 0):
            run_exp += s
        else:
            parts.append(_power_token(names[run_gen - 1], run_exp))
            run_gen, run_exp = j, s
    parts.append(_power_token(names[run_gen - 1], run_exp))
    return " ".join(parts)


def _power_token(name: str, exp: int) -> str:
    return name if exp == 1 else f"{name}^{exp}"


def boundary_word(rank: int) -> FreeWord:
    """The meridian product ``x1 x2 .. xm``, fixed by the whole braid group."""
    return FreeWord(rank, tuple((j, 1) for j in range(1, rank + 1)))


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------


def _times(u: list[int], v: list[int]) -> list[int]:
    """The reduced product of reduced words of signed generator numbers."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == -v[k]:
        k += 1
    return u[: len(u) - k] + v[k:]


def artin_images(beta: BraidWord) -> tuple[FreeWord, ...]:
    """The reduced images of ``x1 .. xm`` under the braid word ``beta``."""
    m = beta.degree
    images = [[j] for j in range(1, m + 1)]  # signed generator numbers
    total = m
    for i, s in reversed(beta.letters):
        u, v = images[i - 1], images[i]
        # the letter adds at most 2|u| (2|v| for sigma_i^-1) letters in all
        check_cap(total + 2 * len(u if s > 0 else v), "a bound on the Artin images")
        if s > 0:
            images[i - 1], images[i] = _times(_times(u, v), [-x for x in u[::-1]]), u
        else:
            images[i - 1], images[i] = v, _times(_times([-x for x in v[::-1]], u), v)
        total += len(images[i - 1]) + len(images[i]) - len(u) - len(v)
    letter = {s * j: (j, s) for j in range(1, m + 1) for s in (1, -1)}
    return tuple(FreeWord(m, tuple(map(letter.__getitem__, w))) for w in images)


def artin_apply(beta: BraidWord, w: FreeWord) -> FreeWord:
    """Apply the Artin action of the braid word ``beta`` to ``w`` (reduced)."""
    if w.rank != beta.degree:
        raise PreconditionError(
            f"word rank {w.rank} does not match braid degree {beta.degree}"
        )
    images = artin_images(beta)
    parts = (images[j - 1] if s > 0 else images[j - 1].inverse() for j, s in w.letters)
    return free_reduce(FreeWord(w.rank, tuple(x for part in parts for x in part)))

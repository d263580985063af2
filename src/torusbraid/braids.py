"""Braid words, Garside normal form, and cabling.

Conventions
-----------
A braid of degree ``m`` lives in the braid group B_m on ``m`` strands.  A word
is a sequence of letters ``(i, s)`` with ``1 <= i <= m-1`` and ``s = +1`` or
``-1``, standing for the Artin generator ``sigma_i`` or its inverse.  Words are
read left to right and are never reduced implicitly: ``sigma_1 sigma_1^-1`` is
a perfectly good word of length 2.  Equality of the group elements they
represent is decided by :func:`braids_equal` via normal forms.

Permutations are stored as tuples ``p`` of length ``m`` with 1-based values:
``p[i-1]`` is the final position of the strand that starts at position ``i``.
Composition follows word order, i.e. ``compose(u, v)`` is "u then v".

The positive half twist ``Delta_m`` is the lift of the order-reversing
permutation in which every pair of strands crosses exactly once, with word
``(s1 .. s_{m-1})(s1 .. s_{m-2}) ... (s1)``.  The normal form of a word is the
unique expression ``Delta^p F_1 ... F_k`` where each ``F_t`` is a nontrivial
permutation braid, no ``F_t`` is ``Delta``, and each adjacent pair is
left-weighted (every generator dividing ``F_{t+1}`` on the left already divides
``F_t`` on the right).  Two words are equal in B_m iff their normal forms
coincide, which makes the word problem at degree <= 8 and length <= 200 a
millisecond affair without tabulating symmetric groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import PreconditionError, SearchBudgetExceeded

Letter = tuple[int, int]
Perm = tuple[int, ...]

# Most letters parse_braid expands a word to: powers are typed by the user,
# and ``s1^10000000000`` would otherwise ask for 10^10 letters.
WORD_CAP = 10**6


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BraidWord:
    """A word in the Artin generators of B_degree (not reduced, not a coset)."""

    degree: int
    letters: tuple[Letter, ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise PreconditionError(f"braid degree must be >= 1, got {self.degree}")
        for i, s in self.letters:
            if not 1 <= i <= self.degree - 1:
                raise PreconditionError(
                    f"letter index {i} out of range for degree {self.degree}"
                )
            if s not in (1, -1):
                raise PreconditionError(f"letter sign must be +1 or -1, got {s}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.degree != other.degree:
            raise PreconditionError(
                f"cannot concatenate words of degrees {self.degree} and {other.degree}"
            )
        return BraidWord(self.degree, self.letters + other.letters)

    def __pow__(self, k: int) -> "BraidWord":
        if k < 0:
            return self.inverse() ** (-k)
        return BraidWord(self.degree, self.letters * k)

    def inverse(self) -> "BraidWord":
        """The letterwise inverse word (reversed order, flipped signs)."""
        return BraidWord(
            self.degree, tuple((i, -s) for i, s in reversed(self.letters))
        )

    def reverse(self) -> "BraidWord":
        """The reversed word (same signs) -- the braid read back to front.

        This is *not* the inverse; it is the image under the anti-automorphism
        that reverses words, used by the pair transform ``rho``.
        """
        return BraidWord(self.degree, tuple(reversed(self.letters)))

    def exponent_sum(self) -> int:
        return sum(s for _, s in self.letters)

    def __str__(self) -> str:
        return format_braid(self)


def word(degree: int, letters: Iterable[int]) -> BraidWord:
    """Build a word from signed integers: ``word(4, [1, -2, 3])``."""
    out: list[Letter] = []
    for v in letters:
        if v == 0:
            raise PreconditionError("0 is not a valid signed letter")
        out.append((abs(v), 1 if v > 0 else -1))
    return BraidWord(degree, tuple(out))


def format_braid(w: BraidWord) -> str:
    """Render a word as whitespace-separated signed integers ('e' if empty)."""
    if not w.letters:
        return "e"
    return " ".join(str(i * s) for i, s in w.letters)


def parse_braid(text: str, degree: int) -> BraidWord:
    """Parse a braid word.

    Accepted tokens, separated by whitespace:

    * signed integers: ``1 -2 3`` (sign is the crossing sign),
    * generator tokens with optional power: ``s1``, ``s2^3``, ``s1^-2``,
    * ``D`` or ``D^k``: the positive half twist ``Delta`` (``k`` may be
      negative),
    * parenthesized groups with a power: ``(1 2 3)^4`` -- parentheses must be
      whitespace-delimited except for the trailing ``^k``,
    * ``e``: the empty word (handy as a whole-input placeholder).

    A word that would expand to more than ``WORD_CAP`` letters, in a group or
    in total, raises :class:`SearchBudgetExceeded` before it is built.

    >>> parse_braid("1 2 2 2 3", 4).letters
    ((1, 1), (2, 1), (2, 1), (2, 1), (3, 1))
    >>> parse_braid("s1^3", 2) == word(2, [1, 1, 1])
    True
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse_seq(depth: int) -> list[Letter]:
        nonlocal pos
        out: list[Letter] = []
        while pos < len(tokens):
            tok = tokens[pos]
            if tok == ")":
                if depth == 0:
                    raise PreconditionError("unbalanced ')' in braid word")
                return out
            pos += 1
            if tok == "(":
                base = parse_seq(depth + 1)
                if pos >= len(tokens) or tokens[pos] != ")":
                    raise PreconditionError("unbalanced '(' in braid word")
                pos += 1
                power = 1
                if pos < len(tokens) and tokens[pos].startswith("^"):
                    power = _parse_power(tokens[pos])
                    pos += 1
            else:
                base, power = _parse_token(tok, degree)
            size = len(out) + len(base) * abs(power)
            if size > WORD_CAP:
                raise SearchBudgetExceeded(
                    f"braid word reaches {size} letters, over the cap of {WORD_CAP}"
                )
            out.extend(_word_power(base, power))
        if depth != 0:
            raise PreconditionError("unbalanced '(' in braid word")
        return out

    letters = parse_seq(0)
    return BraidWord(degree, tuple(letters))


def _parse_power(tok: str) -> int:
    body = tok[1:]
    try:
        return int(body)
    except ValueError:
        raise PreconditionError(f"bad power suffix {tok!r}") from None


def _word_power(letters: list[Letter], k: int) -> list[Letter]:
    if k >= 0:
        return letters * k
    inv = [(i, -s) for i, s in reversed(letters)]
    return inv * (-k)


def _parse_token(tok: str, degree: int) -> tuple[list[Letter], int]:
    """A token's letters and its power, not yet expanded."""
    base, caret, exp = tok.partition("^")
    power = 1
    if caret:
        try:
            power = int(exp)
        except ValueError:
            raise PreconditionError(f"bad power in token {tok!r}") from None
    if base in ("D", "d"):
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


def garside_delta(degree: int) -> BraidWord:
    """The positive half twist Delta as a word:
    ``(s1..s_{m-1})(s1..s_{m-2})...(s1)``.

    >>> format_braid(garside_delta(3))
    '1 2 1'
    >>> format_braid(garside_delta(4))
    '1 2 3 1 2 1'
    """
    letters: list[Letter] = []
    for top in range(degree - 1, 0, -1):
        letters.extend((i, 1) for i in range(1, top + 1))
    return BraidWord(degree, tuple(letters))


def dual_generator(degree: int) -> BraidWord:
    """The cycling braid ``delta = s1 s2 .. s_{m-1}`` (so ``delta^m = Delta^2``)."""
    return BraidWord(degree, tuple((i, 1) for i in range(1, degree)))


# ---------------------------------------------------------------------------
# permutations (1-based values in 0-based tuples)
# ---------------------------------------------------------------------------


def identity_perm(m: int) -> Perm:
    return tuple(range(1, m + 1))


def _transposition(m: int, i: int) -> Perm:
    p = list(range(1, m + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _compose(u: Perm, v: Perm) -> Perm:
    """u then v: the strand starting at i ends at v(u(i))."""
    return tuple(v[x - 1] for x in u)


def _invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x - 1] = i + 1
    return tuple(out)


def _flip(p: Perm, m: int) -> Perm:
    """Conjugation by the half twist: tau(w)(i) = m+1 - w(m+1-i)."""
    return tuple(m + 1 - p[m - 1 - i] for i in range(m))


def permutation(w: BraidWord) -> Perm:
    """The underlying permutation: entry ``i-1`` is where strand ``i`` ends up."""
    p = identity_perm(w.degree)
    for i, _ in w.letters:
        p = _compose(p, _transposition(w.degree, i))
    return p


def closure_components(w: BraidWord) -> int:
    """Number of link components of the closure = cycles of the permutation."""
    p = permutation(w)
    seen = [False] * w.degree
    n = 0
    for i in range(w.degree):
        if not seen[i]:
            n += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j] - 1
    return n


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NormalForm:
    """``Delta^infimum * factors`` with left-weighted permutation-braid factors.

    ``factors`` are the permutations of the canonical factors, none trivial and
    none equal to the half twist.  Equal braids have equal normal forms.
    """

    degree: int
    infimum: int
    factors: tuple[Perm, ...]

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    @property
    def supremum(self) -> int:
        return self.infimum + len(self.factors)

    def is_trivial(self) -> bool:
        return self.infimum == 0 and not self.factors

    def is_half_twist_power(self) -> bool:
        """True iff the braid equals Delta^infimum exactly."""
        return not self.factors


def _left_weight_pair(A: Perm, B: Perm, m: int) -> tuple[Perm, Perm, bool]:
    """Slide generators from B into A until (A, B) is left-weighted."""
    moved = False
    while True:
        invA = _invert(A)
        target = 0
        for i in range(1, m):
            if B[i - 1] > B[i] and invA[i - 1] < invA[i]:
                target = i
                break
        if not target:
            return A, B, moved
        i = target
        # A := A * sigma_i  (swap the values i, i+1 inside A)
        a = list(A)
        qa, qb = a.index(i), a.index(i + 1)
        a[qa], a[qb] = i + 1, i
        A = tuple(a)
        # B := sigma_i^-1 * B  (swap positions i, i+1 of B)
        b = list(B)
        b[i - 1], b[i] = b[i], b[i - 1]
        B = tuple(b)
        moved = True


def normal_form(w: BraidWord) -> NormalForm:
    """Left-greedy normal form of the braid represented by ``w``."""
    m = w.degree
    if m == 1:
        return NormalForm(1, 0, ())
    ident = identity_perm(m)
    w0: Perm = tuple(range(m, 0, -1))  # the half-twist permutation i -> m+1-i
    inf = 0
    factors: list[Perm] = []
    for i, s in w.letters:
        if s > 0:
            factors.append(_transposition(m, i))
        else:
            # w * sigma_i^-1 = (w Delta^-1) * (Delta sigma_i^-1); pushing the
            # Delta^-1 through the factors conjugates each by the half twist.
            inf -= 1
            factors = [_flip(f, m) for f in factors]
            factors.append(_compose(w0, _transposition(m, i)))
    # identity factors arise from Delta*sigma_i^-1 at degree 2; drop them
    factors = [f for f in factors if f != ident]
    # sweep adjacent pairs to the left-weighted fixpoint
    changed = True
    while changed:
        changed = False
        j = 0
        while j < len(factors) - 1:
            A, B, moved = _left_weight_pair(factors[j], factors[j + 1], m)
            if moved:
                changed = True
                if B == ident:
                    factors[j] = A
                    del factors[j + 1]
                else:
                    factors[j], factors[j + 1] = A, B
            j += 1
    while factors and factors[0] == w0:
        del factors[0]
        inf += 1
    return NormalForm(m, inf, tuple(factors))


def braids_equal(u: BraidWord, v: BraidWord) -> bool:
    """Word-problem solution: do ``u`` and ``v`` represent the same braid?"""
    if u.degree != v.degree:
        raise PreconditionError(
            f"cannot compare words of degrees {u.degree} and {v.degree}"
        )
    return normal_form(u) == normal_form(v)


def is_trivial(w: BraidWord) -> bool:
    return normal_form(w).is_trivial()


def commute_check(a: BraidWord, b: BraidWord) -> bool:
    """True iff ``ab = ba`` in the braid group."""
    return braids_equal(a * b, b * a)


# ---------------------------------------------------------------------------
# cabling
# ---------------------------------------------------------------------------


def iota_embed(w: BraidWord, below: int, above: int) -> BraidWord:
    """Include B_m into B_{below+m+above}: add parallel strands on both sides.

    Letter indices shift up by ``below``; the added strands are never crossed.
    """
    if below < 0 or above < 0:
        raise PreconditionError("strand padding must be nonnegative")
    return BraidWord(
        w.degree + below + above, tuple((i + below, s) for i, s in w.letters)
    )


def n_prime_sigma1(n: int) -> BraidWord:
    """The n-cable of a single positive crossing, as a word in B_{2n}.

    The two groups of ``n`` parallel strands trade places; every strand of the
    first group crosses every strand of the second exactly once, positively,
    and strands within a group do not cross.  Row ``k`` (for k = 1..n-1) is
    ``s_n (s_{n-1} .. s_k) (s_{n+1} .. s_{2n-k})`` and the last row is ``s_n``.

    >>> format_braid(n_prime_sigma1(1))
    '1'
    >>> format_braid(n_prime_sigma1(2))
    '2 1 3 2'
    """
    if n < 1:
        raise PreconditionError("cable width must be >= 1")
    letters: list[Letter] = []
    for k in range(1, n):
        letters.append((n, 1))
        letters.extend((i, 1) for i in range(n - 1, k - 1, -1))
        letters.extend((i, 1) for i in range(n + 1, 2 * n - k + 1))
    letters.append((n, 1))
    return BraidWord(2 * n, tuple(letters))


def cable_lift(w: BraidWord, n: int) -> BraidWord:
    """Replace every strand of ``w`` by ``n`` parallel strands.

    Letterwise: ``sigma_j^s`` becomes the embedded ``n``-cabled crossing
    ``iota(n_prime_sigma1(n))^s`` on the strand blocks ``j`` and ``j+1``; the
    map extends multiplicatively, with negative letters using block inverses.

    >>> format_braid(cable_lift(word(2, [1, 1]), 2))
    '2 1 3 2 2 1 3 2'
    """
    if n < 1:
        raise PreconditionError("cable width must be >= 1")
    m = w.degree
    blocks: dict[int, BraidWord] = {}
    out: list[Letter] = []
    for j, s in w.letters:
        if j not in blocks:
            blocks[j] = iota_embed(n_prime_sigma1(n), n * (j - 1), n * (m - j - 1))
        block = blocks[j] if s > 0 else blocks[j].inverse()
        out.extend(block.letters)
    return BraidWord(n * m, tuple(out))

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
coincide.

The normal form is built incrementally (Epstein et al., *Word Processing in
Groups*, 1992, ch. 9; El-Rifai and Morton, *Algorithms for positive braids*,
1994).  The word is read as ``Delta^-r Y_1 ... Y_n`` with one
permutation-braid factor per letter: ``sigma_i``, or ``Delta sigma_i^-1`` for
a negative letter, conjugated by ``Delta`` once for each negative letter to
its right.  Each ``Y_j`` is appended to the left-weighted normal form of
``Y_1 ... Y_{j-1}`` by a single right-to-left pass of left-weighting adjacent
pairs, which stops at the first pair that does not move.  Pairs repeat within
one word, so a call memoizes them.
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
            check_cap(len(out) + len(base) * abs(power))
            out.extend(_word_power(base, power))
        if depth != 0:
            raise PreconditionError("unbalanced '(' in braid word")
        return out

    letters = parse_seq(0)
    return BraidWord(degree, tuple(letters))


def check_cap(size: int, what: str = "braid word", unit: str = "letters") -> None:
    if size > WORD_CAP:
        raise SearchBudgetExceeded(
            f"{what} reaches {size} {unit}, over the cap of {WORD_CAP}"
        )


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
        # Delta has m(m-1)/2 letters: check before building it
        check_cap(degree * (degree - 1) // 2 * abs(power))
        return (list(garside_delta(degree).letters) if power else []), power
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


def _transposition(m: int, i: int) -> Perm:
    p = list(range(1, m + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def permutation(w: BraidWord) -> Perm:
    """The underlying permutation: entry ``i-1`` is where strand ``i`` ends up."""
    at = list(range(1, w.degree + 1))  # at[k]: the strand at position k+1
    for i, _ in w.letters:
        at[i - 1], at[i] = at[i], at[i - 1]
    p = [0] * w.degree
    for pos, strand in enumerate(at, 1):
        p[strand - 1] = pos
    return tuple(p)


def orbit_sizes(*perms: Perm) -> list[int]:
    """Sizes of the orbits of the group that permutations of one degree
    generate, in the order of their least points.

    >>> orbit_sizes((2, 1, 3, 4), (1, 2, 4, 3))
    [2, 2]
    """
    seen: set[int] = set()
    sizes: list[int] = []
    for start in range(1, len(perms[0]) + 1):
        if start not in seen:
            orbit, stack = {start}, [start]
            while stack:
                x = stack.pop()
                for y in {p[x - 1] for p in perms} - orbit:
                    orbit.add(y)
                    stack.append(y)
            seen |= orbit
            sizes.append(len(orbit))
    return sizes


def closure_components(w: BraidWord) -> int:
    """Number of link components of the closure = cycles of the permutation."""
    return len(orbit_sizes(permutation(w)))


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


def _left_weight_pair(A: Perm, B: Perm) -> tuple[Perm, Perm]:
    """``(A*C, C^-1*B)`` with ``C`` the left gcd of ``A``'s right complement
    and ``B``: the left-weighted pair with the same product.

    ``sigma_i`` moves from ``B`` into ``A`` while it divides ``B`` on the left
    (a descent of ``B`` at ``i``) but not ``A`` on the right (no descent of
    ``A``'s inverse at ``i``).  A move swaps two entries of each list, which
    can only make ``i-1`` or ``i+1`` movable.  Positions are scanned from
    ``m-1`` down, so ``i-1`` is still to come, and after moves at ``i`` and
    ``i+1`` position ``i`` could move again only if ``i+1`` could have moved
    before them, which the scan has already ruled out.  So each scan step
    follows its moves upward only, and a call costs O(m + moves).
    """
    m = len(A)
    inv = [0] * m
    for pos, x in enumerate(A):
        inv[x - 1] = pos + 1
    b = list(B)
    moved = False
    for start in range(m - 1, 0, -1):
        i = start
        while i < m and b[i - 1] > b[i] and inv[i - 1] < inv[i]:
            inv[i - 1], inv[i] = inv[i], inv[i - 1]
            b[i - 1], b[i] = b[i], b[i - 1]
            moved = True
            i += 1
    if not moved:
        return A, B
    a = [0] * m
    for x, pos in enumerate(inv):
        a[pos - 1] = x + 1
    return tuple(a), tuple(b)


def normal_form(w: BraidWord) -> NormalForm:
    """Left-greedy normal form of the braid represented by ``w``."""
    m = w.degree
    if m == 1:
        return NormalForm(1, 0, ())
    ident = tuple(range(1, m + 1))
    w0: Perm = tuple(range(m, 0, -1))  # the half-twist permutation i -> m+1-i
    # w = Delta^-r Y_1 ... Y_n: sigma_i^-1 = Delta^-1 (Delta sigma_i^-1), and
    # moving that Delta^-1 to the front conjugates every factor to its left by
    # the half twist, which sends sigma_i to sigma_(m-i).
    r = sum(1 for _, s in w.letters if s < 0)
    right = r  # negative letters from the current one to the end
    factors: list[Perm] = []
    memo: dict[tuple[Perm, Perm], tuple[Perm, Perm]] = {}
    for i, s in w.letters:
        if s < 0:
            right -= 1
        y = _transposition(m, m - i if right % 2 else i)
        if s < 0:
            y = tuple(y[x - 1] for x in w0)  # w0 then y
            if y == ident:  # Delta*sigma_1^-1 at degree 2
                continue
        # append Y_j to the left-weighted prefix with one right-to-left pass,
        # which stops at the first pair that does not move
        factors.append(y)
        j = len(factors) - 1
        while j:
            pair = (factors[j - 1], factors[j])
            out = memo.get(pair)
            if out is None:
                out = memo[pair] = _left_weight_pair(*pair)
            A, B = out
            if A == pair[0]:
                break
            factors[j - 1] = A
            if B == ident:  # only the last factor can be absorbed
                del factors[j]
            else:
                factors[j] = B
            j -= 1
    # Delta factors gather at the front of a left-weighted sequence
    lead = 0
    while lead < len(factors) and factors[lead] == w0:
        lead += 1
    return NormalForm(m, lead - r, tuple(factors[lead:]))


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


def check_pair(a: BraidWord, b: BraidWord) -> None:
    """Raise :class:`PreconditionError` unless ``(a, b)`` is a commuting pair of
    one degree, the data of a torus-covering link."""
    if a.degree != b.degree:
        raise PreconditionError(f"braid degrees differ: {a.degree} vs {b.degree}")
    if not commute_check(a, b):
        raise PreconditionError(
            "the two braids do not commute, so they do not define a link"
        )


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

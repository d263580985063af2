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
Permutations compose in word order: that of ``u v`` is u's, then v's.

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
1994), one factor per simple run: a maximal one-sign run of letters that, read
as positive letters, spell a permutation braid.  A positive run ``P`` is one
factor; a negative run ``P^-1 = Delta^-1 (Delta P^-1)`` is one ``Delta^-1``
and one factor, skipped when ``P = Delta``.  Moving each ``Delta^-1`` to the
front conjugates the factors to its left by ``Delta``, so the ``Delta`` parity
counts negative runs.  Each factor is appended to the left-weighted normal
form of those before it by a single right-to-left pass of left-weighting
adjacent pairs, which stops at the first pair that does not move.  Normal
forms multiply the same way: ``Delta^p F Delta^q G = Delta^(p+q) tau^q(F) G``,
where ``tau``, conjugation by ``Delta``, keeps ``F`` left-weighted, and each
factor of ``G`` is appended by that pass.  So :func:`commute_check` builds
``NF(ab)`` and ``NF(ba)`` from ``NF(a)`` and ``NF(b)``.  Pairs repeat, so one
memo serves the normal forms of one decision.  Equal braids have equal
permutations and exponent sums, which refutes most unequal pairs before any
normal form.  A normal form past ``WORD_CAP`` left-weighting steps, or past
``WIDTH_CAP`` permutation entries (steps times degree), raises
:class:`SearchBudgetExceeded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import PreconditionError, SearchBudgetExceeded, read_int

Letter = tuple[int, int]
Perm = tuple[int, ...]

# Most letters parse_braid expands a word to: powers are typed by the user,
# and ``s1^10000000000`` would otherwise ask for 10^10 letters.  Also the most
# strands of a parsed word, and the most left-weighting steps of one normal
# form, whose cost grows with the square of a mixed-sign word's length.
WORD_CAP = 10**6
# Most permutation entries of one normal form: left-weighting steps times
# degree.  Each step keeps at most one factor and one memo pair of ``degree``
# entries, so this bounds memory where the step cap does not (10^6 steps at
# degree 600 would keep 6 * 10^8 entries or more).
WIDTH_CAP = 10**7


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
        return BraidWord(self.degree, _word_power(self.letters, k))

    def inverse(self) -> "BraidWord":
        """The letterwise inverse word (reversed order, flipped signs)."""
        return BraidWord(self.degree, _word_power(self.letters, -1))

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

    An integer is an optional sign and ASCII digits.  The text is read
    first, every token checked in reading order, and then expanded; a group to
    the power zero is dropped as it is read, so it builds nothing.  A degree
    past ``WORD_CAP`` strands, or a group or word past ``WORD_CAP`` letters,
    raises :class:`SearchBudgetExceeded` before it is built.

    >>> parse_braid("1 2 2 2 3", 4).letters
    ((1, 1), (2, 1), (2, 1), (2, 1), (3, 1))
    >>> parse_braid("s1^3", 2) == word(2, [1, 1, 1])
    True
    """
    check_cap(degree, "braid degree", "strands")
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    # (base, power) in reading order: a group is its '(' item, its content's
    # items, then its ')' item, which holds the group's power
    items: list[tuple] = []
    starts: list[int] = []  # where the items of each open group start
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            starts.append(len(items))
            items.append((_OPEN, 1))
        elif tok == ")":
            if not starts:
                raise PreconditionError("unbalanced ')' in braid word")
            power = 1
            if pos < len(tokens) and tokens[pos].startswith("^"):
                power = read_int(tokens[pos][1:], f"bad power suffix {tokens[pos]!r}")
                pos += 1
            start = starts.pop()
            if power:
                items.append((_CLOSE, power))
            else:  # its tokens are checked, and it builds nothing
                del items[start:]
        else:
            base, power = _parse_token(tok)
            if power:
                items.append((base, power))
    if starts:
        raise PreconditionError("unbalanced '(' in braid word")
    return BraidWord(degree, tuple(_expand(items, degree)))


def check_cap(size: int, what: str = "braid word", unit: str = "letters",
              cap: int | None = None) -> None:
    """Refuse ``size`` past ``cap``, by default ``WORD_CAP`` as read at the call."""
    cap = WORD_CAP if cap is None else cap
    if size > cap:
        raise SearchBudgetExceeded(f"{what} reaches {size} {unit}, over the cap of {cap}")


_OPEN, _CLOSE, _DELTA = "(", ")", "D"  # the bases of read items that are not letters


def _parse_token(tok: str) -> tuple:
    """A token's base, its letters or ``_DELTA``, and its power."""
    base, caret, exp = tok.partition("^")
    power = read_int(exp, f"bad power in token {tok!r}") if caret else 1
    if base in ("D", "d"):
        return _DELTA, power
    if base in ("e", "E"):
        return (), power
    v = read_int(base[1:] if base.startswith("s") else base,
                 f"unrecognized braid token {tok!r}")
    if v == 0:
        raise PreconditionError("0 is not a valid braid letter")
    return ((abs(v), 1 if v > 0 else -1),), power


def _expand(items: list[tuple], degree: int) -> list[Letter]:
    """The letters of read items.  A cap error reports the letters of the
    open group so far plus those of the item that overflows."""
    out: list[Letter] = []
    outer: list[list[Letter]] = []  # the letters of each enclosing open group
    for base, k in items:
        if base is _OPEN:
            outer.append(out)
            out = []
            continue
        if base is _CLOSE:
            base, out = out, outer.pop()
        elif base is _DELTA:  # m(m-1)/2 letters: checked before they are built
            check_cap(degree * (degree - 1) // 2 * abs(k))
            base = garside_delta(degree).letters
        check_cap(len(out) + len(base) * abs(k))
        out.extend(_word_power(base, k))
    return out


def _word_power(letters: Sequence[Letter], k: int) -> Sequence[Letter]:
    """``letters`` to the power ``k``; a negative power repeats the inverse."""
    if k < 0:
        letters, k = tuple((i, -s) for i, s in reversed(letters)), -k
    return letters * k


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


def permutation(w: BraidWord) -> Perm:
    """The underlying permutation: entry ``i-1`` is where strand ``i`` ends up."""
    at = list(range(1, w.degree + 1))  # at[k]: the strand at position k+1
    for i, _ in w.letters:
        at[i - 1], at[i] = at[i], at[i - 1]
    return _positions(at)


def _positions(at: list[int]) -> Perm:
    """The permutation whose strand ``at[k]`` ends at position ``k+1``."""
    p = [0] * len(at)
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


def _append(factors: list[Perm], y: Perm, memo: dict) -> int:
    """Append the permutation braid ``y`` to the left-weighted ``factors`` with
    one right-to-left pass of left-weighting adjacent pairs, which stops at
    the first pair that does not move; return the number of pairs weighted."""
    ident = tuple(range(1, len(y) + 1))
    factors.append(y)
    j = len(factors) - 1
    steps = 0
    while j:
        steps += 1
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
    return steps


def _tau(p: Perm) -> Perm:
    """Conjugation by the half twist: ``sigma_i`` becomes ``sigma_(m-i)``."""
    m = len(p)
    return tuple(m + 1 - v for v in reversed(p))


def _check_work(steps: int, m: int) -> None:
    check_cap(steps, "normal form", "left-weighting steps")
    check_cap(steps * m, "normal form", "permutation entries", WIDTH_CAP)


def _gather_deltas(m: int, infimum: int, factors: list[Perm]) -> NormalForm:
    """Delta factors gather at the front of a left-weighted sequence."""
    w0 = tuple(range(m, 0, -1))
    lead = 0
    while lead < len(factors) and factors[lead] == w0:
        lead += 1
    return NormalForm(m, infimum + lead, tuple(factors[lead:]))


def _simple_runs(w: BraidWord) -> Iterator[tuple[int, Perm]]:
    """The sign and permutation of each maximal simple run of ``w``: one sign,
    and no two strands crossing twice (``at`` restarts at each run)."""
    ident = list(range(1, w.degree + 1))
    at, sign = list(ident), 0  # at[k]: the strand at position k+1
    for i, s in w.letters:
        if s != sign or at[i - 1] > at[i]:
            if sign:
                yield sign, _positions(at)
                at = list(ident)
            sign = s
        at[i - 1], at[i] = at[i], at[i - 1]
    if sign:
        yield sign, _positions(at)


def normal_form(w: BraidWord, memo: dict | None = None) -> NormalForm:
    """Left-greedy normal form of the braid represented by ``w``, one factor
    per simple run; ``memo`` holds the left-weighted pairs of one decision.
    The factors are kept conjugated by ``tau`` once per negative run so far,
    not once per negative run to the right, and are conjugated back at the end."""
    m = w.degree
    ident = tuple(range(1, m + 1))
    factors: list[Perm] = []
    memo = {} if memo is None else memo
    steps = neg = 0
    for s, y in _simple_runs(w):
        if s < 0:  # Delta P^-1: the half twist i -> m+1-i, then the run
            neg += 1
            y = y[::-1]
            if y == ident:  # the run is Delta^-1
                continue
        steps += _append(factors, _tau(y) if neg % 2 else y, memo)
        _check_work(steps, m)
    if neg % 2:
        factors = [_tau(f) for f in factors]
    return _gather_deltas(m, -neg, factors)


def _product(x: NormalForm, y: NormalForm, memo: dict) -> NormalForm:
    """The normal form of ``x y``: ``Delta^p F Delta^q G = Delta^(p+q) tau^q(F) G``,
    where ``tau`` (conjugation by Delta) keeps ``F`` left-weighted, and each
    factor of ``G`` is appended with the pass that appends a letter."""
    factors = list(x.factors)
    if y.infimum % 2:
        factors = [_tau(f) for f in factors]
    steps = 0
    for g in y.factors:
        steps += _append(factors, g, memo)
        _check_work(steps, x.degree)
    return _gather_deltas(x.degree, x.infimum + y.infimum, factors)


def braids_equal(u: BraidWord, v: BraidWord) -> bool:
    """Word-problem solution: do ``u`` and ``v`` represent the same braid?

    A difference in exponent sums or permutations refutes it without a normal
    form; otherwise the two normal forms share one pair memo.
    """
    if u.degree != v.degree:
        raise PreconditionError(
            f"cannot compare words of degrees {u.degree} and {v.degree}"
        )
    if u.exponent_sum() != v.exponent_sum() or permutation(u) != permutation(v):
        return False
    memo: dict = {}
    return normal_form(u, memo) == normal_form(v, memo)


def is_trivial(w: BraidWord) -> bool:
    return normal_form(w).is_trivial()


def commute_check(a: BraidWord, b: BraidWord) -> bool:
    """True iff ``ab = ba`` in the braid group.

    Different permutations of ``ab`` and ``ba`` refute it without a normal
    form.  Otherwise ``NF(ab)`` and ``NF(ba)`` are products of
    ``NF(a)`` and ``NF(b)`` (:func:`_product`), all four sharing one pair memo.
    """
    if permutation(a * b) != permutation(b * a):
        return False
    memo: dict = {}
    x, y = normal_form(a, memo), normal_form(b, memo)
    return _product(x, y, memo) == _product(y, x, memo)


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
    Each letter lifts to ``n^2`` letters, so a lift past ``WORD_CAP`` letters
    raises :class:`SearchBudgetExceeded` before any is built.

    >>> format_braid(cable_lift(word(2, [1, 1]), 2))
    '2 1 3 2 2 1 3 2'
    """
    if n < 1:
        raise PreconditionError("cable width must be >= 1")
    check_cap(n * n * len(w), "cable lift")
    m = w.degree
    blocks: dict[int, BraidWord] = {}
    out: list[Letter] = []
    for j, s in w.letters:
        if j not in blocks:
            blocks[j] = iota_embed(n_prime_sigma1(n), n * (j - 1), n * (m - j - 1))
        block = blocks[j] if s > 0 else blocks[j].inverse()
        out.extend(block.letters)
    return BraidWord(n * m, tuple(out))

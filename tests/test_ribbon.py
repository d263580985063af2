"""Laurent arithmetic, Alexander polynomials, and ribbon certificates."""

from __future__ import annotations

import random
from collections import deque

import pytest

from torusbraid import ribbon
from torusbraid.braids import (
    BraidWord,
    braids_equal,
    cable_lift,
    closure_components,
    garside_delta,
    iota_embed,
    normal_form,
    permutation,
    word,
)
from torusbraid.errors import PreconditionError, SearchBudgetExceeded
from torusbraid.ribbon import (
    CableDecomposition,
    Laurent,
    _block_permutation,
    _det,
    _extract_block,
    alexander_polynomial,
    read_witness,
    reduced_burau,
    ribbon_verdict,
    search_decomposition,
    unknot_check,
    verify_decomposition,
    write_witness,
)

TREFOIL_POLY = Laurent(((0, 1), (1, -1), (2, 1)))


def test_laurent_basics():
    one = Laurent.const(1)
    t = Laurent.t_power(1)
    p = (t - one) * (t + one)
    assert p == Laurent(((0, -1), (2, 1)))
    assert str(p) == "t^2 - 1"
    assert str(Laurent.t_power(-2, 3)) == "3t^-2"
    assert Laurent.const(0).is_zero()


def test_laurent_exact_division():
    t = Laurent.t_power(1)
    one = Laurent.const(1)
    num = one - Laurent.t_power(4)
    assert num.exact_div(one - t) == Laurent(((0, 1), (1, 1), (2, 1), (3, 1)))
    with pytest.raises(ValueError):
        (t + one).exact_div(t - one)


def test_burau_satisfies_braid_relation():
    for m in (3, 4, 5):
        lhs = reduced_burau(word(m, [1, 2, 1]))
        rhs = reduced_burau(word(m, [2, 1, 2]))
        assert lhs == rhs


def test_burau_inverse_letters():
    for m in (2, 3, 4):
        for i in range(1, m):
            assert reduced_burau(word(m, [i, -i])) == reduced_burau(BraidWord(m, ()))


# ---------------------------------------------------------------------------
# the replaced full-matrix paths, kept as oracles
# ---------------------------------------------------------------------------

_ZERO, _ONE, _T = Laurent(()), Laurent.const(1), Laurent.t_power(1)


def _identity(k):
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(k)) for i in range(k))


def _mat_mul(x, y):
    k = len(x)
    return tuple(
        tuple(sum((x[i][r] * y[r][j] for r in range(k)), _ZERO) for j in range(k))
        for i in range(k)
    )


def burau_letter(m, i, sign):
    """The full ``(m-1) x (m-1)`` reduced Burau matrix of one crossing."""
    rows = [list(r) for r in _identity(m - 1)]
    r = i - 1
    rows[r][r] = Laurent.t_power(sign, -1)
    if i >= 2:
        rows[r][r - 1] = _T if sign > 0 else _ONE
    if i <= m - 2:
        rows[r][r + 1] = _ONE if sign > 0 else Laurent.t_power(-1)
    return tuple(tuple(row) for row in rows)


def burau_product(w):
    out = _identity(w.degree - 1)
    for i, s in w.letters:
        out = _mat_mul(out, burau_letter(w.degree, i, s))
    return out


def cofactor_det(a):
    """Determinant by cofactor expansion along the first column."""
    if not a:
        return _ONE
    total = _ZERO
    for r in range(len(a)):
        if a[r][0].is_zero():
            continue
        term = a[r][0] * cofactor_det(tuple(a[i][1:] for i in range(len(a)) if i != r))
        total = total + (term if r % 2 == 0 else -term)
    return total


def _burau_minus_identity(w):
    mat, ident = burau_product(w), _identity(w.degree - 1)
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(mat, ident))


def _random_knot_braid(rng, m):
    while True:
        w = word(m, [rng.choice([1, -1]) * rng.randint(1, m - 1)
                     for _ in range(rng.randint(m - 1, 3 * m))])
        if closure_components(w) == 1:
            return w


def _check_against_oracles(w):
    assert reduced_burau(w) == burau_product(w)
    diff = _burau_minus_identity(w)
    assert _det(diff) == cofactor_det(diff)


def test_burau_and_det_match_oracles_on_random_knot_braids():
    rng = random.Random(1968)
    for m in range(2, 8):
        for _ in range(6):
            _check_against_oracles(_random_knot_braid(rng, m))


@pytest.mark.parametrize("m, n", [(7, 2), (7, 3), (7, 4), (7, 5), (8, 3), (8, 5),
                                  (9, 2), (9, 4), (9, 5), (10, 3), (10, 7)])
def test_burau_and_det_match_oracles_on_torus_knots(m, n):
    # the torus-knot families of the invariants benchmark, one rotation each
    base = [i for i in range(1, m)] * n
    r = (3 * m + n) % len(base)
    w = word(m, base[r:] + base[:r])
    _check_against_oracles(w)
    want = ((Laurent.t_power(m * n) - _ONE) * (_T - _ONE)).exact_div(
        (Laurent.t_power(m) - _ONE) * (Laurent.t_power(n) - _ONE))
    assert alexander_polynomial(w) == want


def test_det_of_singular_and_permuted_matrices():
    x = Laurent.t_power(2, 3) - _T
    assert _det(((x, _T), (x * _T, _T * _T))) == _ZERO
    # a zero pivot forces a row swap
    m = ((_ZERO, _ONE, _T), (_T, _ZERO, _ONE), (_ONE, x, _ZERO))
    assert _det(m) == cofactor_det(m)
    assert _det(()) == _ONE


def test_burau_letters_multiply_to_reduced_burau():
    rng = random.Random(5)
    for m in (2, 3, 5, 7):
        letters = [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(12)]
        acc = _identity(m - 1)
        for k, x in enumerate(letters, 1):
            acc = _mat_mul(acc, reduced_burau(word(m, [x])))
            assert reduced_burau(word(m, letters[:k])) == acc


def test_alexander_unknots():
    one = Laurent.const(1)
    assert alexander_polynomial(word(2, [1])) == one
    assert alexander_polynomial(word(2, [-1])) == one
    assert alexander_polynomial(word(3, [1, 2])) == one
    assert alexander_polynomial(word(4, [1, 2, 3])) == one


def test_alexander_trefoil_and_mirror():
    assert alexander_polynomial(word(2, [1, 1, 1])) == TREFOIL_POLY
    assert alexander_polynomial(word(2, [-1, -1, -1])) == TREFOIL_POLY


def test_alexander_figure_eight():
    assert alexander_polynomial(word(3, [1, -2, 1, -2])) == Laurent(
        ((0, 1), (1, -3), (2, 1))
    )


def test_alexander_rejects_links():
    with pytest.raises(PreconditionError):
        alexander_polynomial(word(2, [1, 1]))  # Hopf link closure


def test_alexander_markov_invariance():
    rng = random.Random(20240815)
    done = 0
    while done < 60:
        deg = rng.randint(2, 4)
        w = word(
            deg,
            [rng.choice([1, -1]) * rng.randint(1, deg - 1) for _ in range(rng.randint(1, 8))],
        )
        if closure_components(w) != 1:
            continue
        base = alexander_polynomial(w)
        g = word(deg, [rng.choice([1, -1]) * rng.randint(1, deg - 1)])
        assert alexander_polynomial(g * w * g.inverse()) == base
        stab = BraidWord(deg + 1, w.letters + ((deg, rng.choice([1, -1])),))
        assert alexander_polynomial(stab) == base
        done += 1


def test_alexander_is_palindromic():
    rng = random.Random(31)
    done = 0
    while done < 40:
        deg = rng.randint(2, 4)
        w = word(
            deg,
            [rng.choice([1, -1]) * rng.randint(1, deg - 1) for _ in range(rng.randint(1, 9))],
        )
        if closure_components(w) != 1:
            continue
        poly = alexander_polynomial(w)
        coeffs = dict(poly.terms)
        top = poly.max_exp()
        assert all(coeffs[e] == coeffs[top - e] for e in coeffs)
        done += 1


# ---------------------------------------------------------------------------
# unknot detection
# ---------------------------------------------------------------------------


def test_unknot_check_anchors():
    assert unknot_check(word(2, [1])).status == "Unknot"
    assert unknot_check(word(2, [-1])).status == "Unknot"
    assert unknot_check(word(3, [1, 2])).status == "Unknot"
    verdict = unknot_check(word(2, [1, 1, 1]))
    assert verdict.status == "NotUnknot"
    assert "t^2 - t + 1" in verdict.evidence


def test_unknot_check_never_rejects_stabilized_trivial():
    rng = random.Random(4)
    for _ in range(60):
        degree, letters = 1, []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.7 or degree == 1:
                letters.append((degree, rng.choice([1, -1])))
                degree += 1
            else:
                g = (rng.randint(1, degree - 1), rng.choice([1, -1]))
                letters = [g] + letters + [(g[0], -g[1])]
        w = BraidWord(degree, tuple(letters))
        assert unknot_check(w).status in ("Unknot", "Unknown")


def test_unknot_check_rejects_links():
    with pytest.raises(PreconditionError):
        unknot_check(word(3, [1]))


# ---------------------------------------------------------------------------
# cable decompositions
# ---------------------------------------------------------------------------


def _example_witness() -> CableDecomposition:
    return CableDecomposition(
        2, 2, word(2, [1, 1]),
        (word(2, [1, 1]), word(2, [1, 1])),
        (word(2, [1]), word(2, [1])),
    )


def test_verify_example_witness():
    assert verify_decomposition(word(4, [1, 3]), garside_delta(4) ** 2, _example_witness())


def test_verify_rejects_tampered_witness():
    w = _example_witness()
    bad = CableDecomposition(
        2, 2, w.tubular, (word(2, [1]), word(2, [1, 1])), w.vertical
    )
    assert not verify_decomposition(word(4, [1, 3]), garside_delta(4) ** 2, bad)


def test_verify_trivial_pair():
    triv = CableDecomposition(
        1, 2, BraidWord(2, ()), (BraidWord(1, ()),) * 2, (BraidWord(1, ()),) * 2
    )
    assert verify_decomposition(BraidWord(2, ()), BraidWord(2, ()), triv)


def test_ribbon_verdict_requires_a_commuting_pair():
    with pytest.raises(PreconditionError, match="do not commute"):
        ribbon_verdict(word(4, [1]), word(4, [2]), 2, 2)


def test_verify_dimension_mismatch():
    with pytest.raises(PreconditionError):
        verify_decomposition(word(2, [1]), word(2, [1]), _example_witness())


def test_decomposition_field_validation():
    with pytest.raises(PreconditionError):
        CableDecomposition(2, 2, word(3, [1]), (word(2, []),) * 2, (word(2, []),) * 2)
    with pytest.raises(PreconditionError):
        CableDecomposition(2, 2, word(2, [1]), (word(3, [1]),) * 2, (word(2, []),) * 2)


def test_search_recovers_example_witness():
    found = search_decomposition(word(4, [1, 3]), garside_delta(4) ** 2, 2, 2)
    assert found == _example_witness()


def test_search_powers_of_half_twist():
    a = word(4, [1, 3])
    for k in (2, 3, 4):
        found = search_decomposition(a, garside_delta(4) ** k, 2, 2)
        assert found is not None
        assert found.tubular == word(2, [1] * k)
        assert verify_decomposition(a, garside_delta(4) ** k, found)


def test_search_returns_none_when_blocks_do_not_map():
    # b = sigma2 crosses the two cables without permuting them as blocks
    assert search_decomposition(word(4, [2, -2]), word(4, [2]), 2, 2) is None


def test_search_returns_none_for_non_interior_a():
    assert search_decomposition(word(4, [2, 2]), garside_delta(4) ** 2, 2, 2) is None


def _oracle_search(a, b, n, m, length_cap=16, state_budget=4096):
    """Shortest-first search for a tubular braid, the oracle for the read-off.

    Tubular words realizing the block permutation of ``b`` are enumerated
    shortest first, deduplicated by normal form; the first one whose witness
    verifies is returned.  ``None`` when the words up to ``length_cap``
    letters run out; :class:`SearchBudgetExceeded` past ``state_budget``.
    """
    target = _block_permutation(b, n, m)
    if target is None or _block_permutation(a, n, m) != tuple(range(1, m + 1)):
        return None
    blocks = [frozenset(range(n * j + 1, n * j + n + 1)) for j in range(m)]
    vertical = tuple(_extract_block(a, blk) for blk in blocks)
    letters = [(i, s) for i in range(1, m) for s in (1, -1)]
    start = BraidWord(m, ())
    nf = normal_form(start)
    seen = {(nf.infimum, nf.factors)}
    queue = deque([start])
    while queue:
        r = queue.popleft()
        if permutation(r) == target:
            rem = cable_lift(r, n).inverse() * b
            interior = tuple(_extract_block(rem, blk) for blk in blocks)
            witness = CableDecomposition(n, m, r, interior, vertical)
            if verify_decomposition(a, b, witness):
                return witness
        if len(r.letters) >= length_cap:
            continue
        for let in letters:
            child = BraidWord(m, r.letters + (let,))
            nf = normal_form(child)
            key = (nf.infimum, nf.factors)
            if key in seen:
                continue
            if len(seen) >= state_budget:
                raise SearchBudgetExceeded(f"exceeded {state_budget} candidates")
            seen.add(key)
            queue.append(child)
    return None


def _census_ribbon_families():
    """``(a, b, n, m)`` of the ribbon families in the benchmark census."""
    for k in range(1, 17):
        b = garside_delta(4) ** k
        for e1 in (1, -1):
            for e3 in (1, -1):
                yield word(4, [e1, 3 * e3]), b, 2, 2
    for k in (1, 2):
        for e1 in (1, -1):
            for e2 in (1, -1):
                for e3 in ((e1,) if k == 1 else (1, -1)):
                    yield word(6, [e1, 3 * e2, 5 * e3]), garside_delta(6) ** k, 2, 3
    for k in (2, 4, 6, 8):
        for e1 in (1, -1):
            for e2 in (1, -1):
                a = word(6, [1, 2]) ** e1 * word(6, [4, 5]) ** e2
                yield a, garside_delta(6) ** k, 3, 2


def test_read_off_agrees_with_search_oracle():
    for a, b, n, m in _census_ribbon_families():
        found = search_decomposition(a, b, n, m)
        oracle = _oracle_search(a, b, n, m)
        assert (found is None) == (oracle is None)
        if found is None:
            continue
        assert braids_equal(found.tubular, oracle.tubular)
        for mine, theirs in zip(found.interior + found.vertical,
                                oracle.interior + oracle.vertical):
            assert braids_equal(mine, theirs)
        if braids_equal(a * b, b * a):
            assert (ribbon_verdict(a, b, n, m).status
                    == ribbon_verdict(a, b, n, m, oracle).status)


def _random_word(rng, degree, max_len):
    return word(degree, [rng.choice([1, -1]) * rng.randint(1, degree - 1)
                         for _ in range(rng.randint(0, max_len))])


def test_random_forward_compositions_always_verify():
    rng = random.Random(12)
    for n, m in ((2, 2), (2, 3), (3, 2), (2, 4)):
        for _ in range(20):
            tubular = _random_word(rng, m, 3)
            interior = tuple(_random_word(rng, n, 3) for _ in range(m))
            vertical = tuple(_random_word(rng, n, 3) for _ in range(m))
            cd = CableDecomposition(n, m, tubular, interior, vertical)
            b = cable_lift(tubular, n)
            a = BraidWord(n * m, ())
            for j in range(m):
                b = b * iota_embed(interior[j], n * j, n * (m - 1 - j))
                a = a * iota_embed(vertical[j], n * j, n * (m - 1 - j))
            assert verify_decomposition(a, b, cd)
            found = search_decomposition(a, b, n, m)
            assert found is not None
            assert braids_equal(found.tubular, tubular)
            assert verify_decomposition(a, b, found)


@pytest.mark.parametrize("a, k, n, m", [
    ([1, 3, 5], 3, 2, 3),
    ([1, 3, 5, 7], 2, 2, 4),
    ([1, 3], 17, 2, 2),
])
def test_read_off_certifies_pairs_beyond_the_search(a, k, n, m):
    # _oracle_search gives up on these: the tubular braid Delta^k lies past
    # its candidate budget (2 x 3, 2 x 4) or its length cap (k = 17)
    a, b = word(n * m, a), garside_delta(n * m) ** k
    v = ribbon_verdict(a, b, n, m)
    assert v.status == "Ribbon"
    assert braids_equal(v.certificate.tubular, garside_delta(m) ** k)
    assert verify_decomposition(a, b, v.certificate)


# ---------------------------------------------------------------------------
# verdicts and witness files
# ---------------------------------------------------------------------------


def test_ribbon_family():
    a = word(4, [1, 3])
    for k in (2, 3, 4, 5, 6, 7):
        v = ribbon_verdict(a, garside_delta(4) ** k, 2, 2)
        assert v.status == "Ribbon"
        assert v.certificate is not None
        assert all(c.status == "Unknot" for c in v.cable_checks)
        assert verify_decomposition(a, garside_delta(4) ** k, v.certificate)


# the uniform-sign pairs of the census ribbon families: (a, Delta^k) and the
# mirror (a^-1, Delta^-k), with blocks of the given size and count
RIBBON_FAMILIES = (
    [(word(4, [1, 3]), k, 2, 2) for k in range(1, 17)]
    + [(word(6, [1, 3, 5]), k, 2, 3) for k in (1, 2)]
    + [(word(6, [1, 2, 4, 5]), k, 3, 2) for k in (2, 4, 6, 8)]
)


def test_ribbon_pairs_have_trivial_cocycle_invariant():
    # a ribbon surface has a diagram without triple points, so its state sum
    # is the number of its R3 colorings, all at t^0 (Carter-Saito 1998)
    from torusbraid.quandles import cocycle_invariant, dihedral_quandle, torus_colorings

    r3 = dihedral_quandle(3)
    for a, k, size, count in RIBBON_FAMILIES:
        b = garside_delta(a.degree) ** k
        for pair in ((a, b), (a**-1, b**-1)):
            assert ribbon_verdict(*pair, size, count).status == "Ribbon"
            colorings = len(torus_colorings(*pair, r3))
            assert cocycle_invariant(*pair).coeffs == (colorings, 0, 0)


def test_ribbon_example_cable_lift():
    v = ribbon_verdict(word(4, [1, 3]), garside_delta(4) ** 2, 2, 2)
    lift = cable_lift(v.certificate.tubular, 2)
    assert braids_equal(lift, word(4, [2, 1, 3, 2, 2, 1, 3, 2]))


def test_ribbon_trivial_pair():
    v = ribbon_verdict(BraidWord(2, ()), BraidWord(2, ()), 1, 2)
    assert v.status == "Ribbon"


def test_ribbon_unknown_when_no_witness():
    v = ribbon_verdict(word(4, [2, 2]), garside_delta(4) ** 2, 2, 2)
    assert v.status == "Unknown"
    assert v.reason == "no cable decomposition found"


def test_ribbon_unknown_with_knotted_cable():
    # vertical braids are trefoils: the witness verifies but (R3) fails
    a = word(4, [1, 1, 1, 3, 3, 3])
    b = garside_delta(4) ** 2
    witness = CableDecomposition(
        2, 2, word(2, [1, 1]),
        (word(2, [1, 1]), word(2, [1, 1])),
        (word(2, [1, 1, 1]), word(2, [1, 1, 1])),
    )
    v = ribbon_verdict(a, b, 2, 2, witness)
    assert v.status == "Unknown"
    assert "not certified unknotted" in v.reason


def test_ribbon_verdict_verifies_each_witness_once(monkeypatch):
    calls = []

    def counting_verify(*args):
        calls.append(args)
        return verify_decomposition(*args)

    monkeypatch.setattr(ribbon, "verify_decomposition", counting_verify)
    a, b = word(4, [1, 3]), garside_delta(4) ** 2
    tampered = CableDecomposition(
        2, 2, word(2, [1, 1]), (word(2, [1]), word(2, [1, 1])), (word(2, [1]),) * 2
    )
    for witness, status in ((None, "Ribbon"), (_example_witness(), "Ribbon"),
                            (tampered, "Unknown")):
        calls.clear()
        v = ribbon_verdict(a, b, 2, 2, witness)
        assert v.status == status
        assert len(calls) == 1
    assert v.reason == "witness fails the reconstruction identities"


def test_ribbon_requires_commuting():
    with pytest.raises(PreconditionError):
        ribbon_verdict(word(4, [1, 2]), word(4, [2, 3]), 2, 2)


def test_witness_round_trip(tmp_path):
    path = str(tmp_path / "witness.txt")
    write_witness(_example_witness(), path)
    back = read_witness(path)
    assert back == _example_witness()
    assert verify_decomposition(word(4, [1, 3]), garside_delta(4) ** 2, back)


def test_witness_file_rejects_missing_fields(tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("blocks 2 x 2\ntubular: 1 1\n")
    with pytest.raises(PreconditionError):
        read_witness(path)

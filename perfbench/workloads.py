"""Seeded job lists for the three workloads.

A job is one call into the package (the CLI entry point for ``census``, the
library for ``long-words`` and ``invariants``) plus a check of its output that
runs after the timed pass.  Each list is built from a fixed table of strata:
the seed chooses letters, spellings, signs, conjugators and order, never the
number of jobs or the sizes that set their cost.  No job repeats within a list.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks as C
from checks import expect
from torusbraid import braids, cli, presentations, quandles, ribbon, transforms

EXPECTED_FILE = Path(__file__).with_name("expected.json")


@dataclass
class Job:
    key: str
    fn: Callable
    args: tuple
    check: Callable  # check(result, results_by_key); raises CheckFailed
    known_failure: bool = False


# ---------------------------------------------------------------------------
# words as letter lists
# ---------------------------------------------------------------------------


def delta(m: int) -> list[tuple[int, int]]:
    """The positive half twist ``(s1 .. s_{m-1})(s1 .. s_{m-2}) .. (s1)``."""
    return [(i, 1) for top in range(m - 1, 0, -1) for i in range(1, top + 1)]


def inv(w):
    return [(i, -s) for i, s in reversed(w)]


def power(w, k: int):
    return list(w) * k if k >= 0 else inv(w) * (-k)


def negate(w):
    return [(i, -s) for i, s in w]


def ints(w) -> str:
    return " ".join(str(i * s) for i, s in w) or "e"


def random_word(rng: random.Random, m: int, n: int, positive: bool):
    """n random letters; a mixed-sign word has exactly n // 2 negative ones,
    because the cost of a normal form grows with the number of negative letters."""
    negative = set() if positive else set(rng.sample(range(n), n // 2))
    return [(rng.randrange(1, m), -1 if t in negative else 1) for t in range(n)]


def spell(rng: random.Random, w) -> str:
    """One of several spellings a user might type for the same letters."""
    if not w:
        return rng.choice(["e", ""])
    style = rng.randrange(3)
    if style == 0:
        return ints(w)
    runs: list[list] = []
    for i, s in w:
        if runs and runs[-1][0] == i and runs[-1][1] * s > 0:
            runs[-1][1] += s
        else:
            runs.append([i, s])
    if style == 1:
        return " ".join(f"s{i}" if e == 1 else f"s{i}^{e}" for i, e in runs)
    return " ".join(
        str(i * e) if abs(e) == 1 else f"({i if e > 0 else -i})^{abs(e)}" for i, e in runs
    )


def spell_delta_power(rng: random.Random, k: int) -> str:
    return rng.choice([f"D^{k}", " ".join(["D"] * k), f"(D)^{k}"])


def spell_cycle_power(rng: random.Random, m: int, k: int, sign: int) -> str:
    """``(s1 .. s_{m-1})^k``, or its mirror for ``sign = -1``."""
    return f"({spell(rng, [(i, sign) for i in range(1, m)])})^{k}"


def bw(m: int, w) -> braids.BraidWord:
    return braids.BraidWord(m, tuple(w))


# ---------------------------------------------------------------------------
# census: the CLI, in-process, with --json
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _doc(result) -> dict:
    rc, out, err = result
    expect(rc == 0, f"exit {rc}: {err.strip()}")
    doc = json.loads(out)
    expect(doc.get("schema") == "torusbraid.v1", "missing schema tag")
    return doc


def _check_group(m, a, b, simplify):
    def check(result, _):
        doc = _doc(result)
        rels = [C.parse_free(r) for r in doc["relators"]]
        if simplify:
            got = C.abelian_invariants(len(doc["generators"]), rels)
            expect(got == C.expected_h1(m, a, b), f"H_1 of simplified group {got}")
        else:
            expect(doc["generators"] == [f"x{j}" for j in range(1, m + 1)], "generators")
            expect(rels == C.relators(m, a, b), "relators differ from the Artin action")
    return check


def _check_h1(m, a, b, center):
    def check(result, _):
        doc = _doc(result)
        got = (doc["rank"], tuple(doc["torsion"]))
        want = C.expected_h1(m, a, b, center)
        expect(got == want, f"H_1 {got}, expected {want}")
    return check


def expected_homs(m, a, b, group: str) -> int:
    """``k^c`` for Z<k>; for other groups the fixed tuples of both Artin actions."""
    if group[0] == "Z":
        return int(group[1:]) ** len(C.orbit_sizes(m, [C.perm(m, a), C.perm(m, b)]))
    return C.hom_count(m, a, b, group)


def _check_quotients(m, a, b, group):
    def check(result, _):
        doc = _doc(result)
        want = expected_homs(m, a, b, group)
        expect(doc["homomorphisms"] == want, f"{doc['homomorphisms']} homs, expected {want}")
    return check


def check_colorings(m, a, b, p, cols):
    expect(len(cols) == C.coloring_count(m, a, b, p), f"{len(cols)} R{p} colorings")
    expect(all(C.quandle_act(a, p, v) == v and C.quandle_act(b, p, v) == v for v in cols),
           "a returned coloring is not fixed")
    expect(all(x < y for x, y in zip(cols, cols[1:])), "colorings not sorted and distinct")


def _check_colorings_cli(m, a, b, p):
    def check(result, _):
        doc = _doc(result)
        cols = [tuple(v) for v in doc["colorings"]]
        expect(doc["count"] == len(cols), "count field")
        check_colorings(m, a, b, p, cols)
    return check


def check_state_sum(m, a, b, coeffs, mirror_of=None, pinned=None):
    expect(sum(coeffs) == C.coloring_count(m, a, b, 3), f"state sum {coeffs} vs colorings")
    if pinned is not None:
        expect(list(coeffs) == list(pinned), f"state sum {coeffs}, expected {pinned}")
    if mirror_of is not None:
        c = mirror_of
        expect(list(coeffs) == [c[0], c[2], c[1]], f"mirror {coeffs} not conjugate of {c}")


def _check_cocycle(m, a, b, partner=None, pinned=None):
    def check(result, results):
        doc = _doc(result)
        mirror = _doc(results[partner])["coefficients"] if partner else None
        check_state_sum(m, a, b, doc["coefficients"], mirror, pinned)
    return check


def _check_transform(a, b, op):
    want = (b[::-1], a) if op == "rho" else (a, b + a)

    def check(result, _):
        doc = _doc(result)
        got = (C.parse_ints(doc["a"]), C.parse_ints(doc["b"]))
        expect(got == want, f"{op} gave {doc['a']!r}, {doc['b']!r}")
    return check


def cable(tubular, n: int):
    """The n-cable of a tubular word: each crossing becomes a block swap."""
    out = []
    for j, s in tubular:
        arr = list(range(2 * n))
        target = [(k + n) % (2 * n) for k in range(2 * n)]
        swap = []
        for _ in range(2 * n):
            for q in range(2 * n - 1):
                if target[arr[q]] > target[arr[q + 1]]:
                    arr[q], arr[q + 1] = arr[q + 1], arr[q]
                    swap.append((n * (j - 1) + q + 1, 1))
        out.extend(swap if s > 0 else inv(swap))
    return out


def certificate_holds(m, a, b, n, count, tubular, interior, vertical) -> bool:
    horizontal = cable(tubular, n)
    vert = []
    for j in range(count):
        horizontal += [(i + n * j, s) for i, s in interior[j]]
        vert += [(i + n * j, s) for i, s in vertical[j]]
    return C.same_braid(m, b, horizontal) and C.same_braid(m, a, vert)


def _check_ribbon(m, a, b):
    def check(result, _):
        doc = _doc(result)
        expect(doc["verdict"] == "Ribbon", "verdict")
        cert = doc["certificate"]
        ok = certificate_holds(
            m, a, b, cert["block_size"], cert["block_count"],
            C.parse_ints(cert["tubular"]),
            [C.parse_ints(w) for w in cert["interior"]],
            [C.parse_ints(w) for w in cert["vertical"]],
        )
        expect(ok, "certificate fails the Artin-action re-check")
    return check


def _check_known_ribbon(m, a, b, n, count, k):
    """The search gives up (exit 3); a Delta^k tubular witness proves the pair ribbon."""
    def check(result, results):
        rc, out, _err = result
        if rc == 0:  # the search found a certificate after all
            return _check_ribbon(m, a, b)(result, results)
        expect(rc == 3 and "exceeded" in json.loads(out)["reason"], f"expected exit 3, got {rc}")
        tub, blk = power(delta(count), k), power(delta(n), k)
        vert = [[(i - n * j, s) for i, s in a if n * j < i < n * (j + 1)] for j in range(count)]
        expect(certificate_holds(m, a, b, n, count, tub, [blk] * count, vert),
               "Delta witness fails the Artin-action re-check")
        witness = ribbon.CableDecomposition(
            n, count, bw(count, tub), tuple(bw(n, blk) for _ in range(count)),
            tuple(bw(n, v) for v in vert))
        verdict = ribbon.ribbon_verdict(bw(m, a), bw(m, b), n, count, witness)
        expect(verdict.status == "Ribbon", "ribbon_verdict rejects the Delta witness")
    return check


ROTATE = ((1, 0, 0), (0, 0, -1), (0, 1, 0))
SHEAR = ((1, 0, 0), (0, 1, 1), (0, 0, 1))


def _matmul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3)) for i in range(3))


def _h_matrix(rng: random.Random, member: bool):
    """Products of the rotation and the squared shear lie in H; one more shear leaves it."""
    shear_inv = ((1, 0, 0), (0, 1, -1), (0, 0, 1))
    gens = [ROTATE, _matmul(SHEAR, SHEAR), _matmul(shear_inv, shear_inv),
            _matmul(ROTATE, _matmul(ROTATE, ROTATE))]
    x = ((rng.choice((1, -1)), 0, 0), (0, 1, 0), (0, 0, 1))
    for _ in range(rng.randrange(2, 7)):
        x = _matmul(x, rng.choice(gens))
    return x if member else _matmul(x, rng.choice((SHEAR, shear_inv)))


def census(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []

    def add(argv, check, known_failure=False):
        argv = argv + ["--json"]
        jobs.append(Job(" ".join(repr(x) for x in argv), run_cli, (argv,), check, known_failure))
        return jobs[-1].key

    def pair_jobs(m, a, b, sa, sb, subs, center=None):
        pair = ["-m", str(m), "-a", sa, "-b", sb]
        for sub in subs:
            if sub == "group":
                add(["group", *pair], _check_group(m, a, b, False))
            elif sub == "group-simplify":
                add(["group", *pair, "--simplify"], _check_group(m, a, b, True))
            elif sub == "abelianization":
                add(["abelianization", *pair], _check_h1(m, a, b, None))
            elif sub == "abelianization-center":
                add(["abelianization", *pair, "--quotient-center"], _check_h1(m, a, b, center))
            elif sub.startswith("quotients-"):
                g = sub.split("-")[1]
                add(["quotients", *pair, "--group", g], _check_quotients(m, a, b, g))
            elif sub.startswith("colorings-"):
                p = int(sub.split("-")[1])
                add(["colorings", *pair, "--quandle", str(p)], _check_colorings_cli(m, a, b, p))
            elif sub in ("rho", "tau"):
                add(["transform", *pair, sub], _check_transform(a, b, sub))

    # spun knots: m = 2, a = s1^(2k+1), b = e, and their mirrors
    groups = ["Z2", "Z3", "Z4", "Z5", "Z6", "S3", "D3", "D4", "D5", "S4"]
    subs = ["group", "group-simplify", "abelianization", *("quotients-" + g for g in groups),
            "colorings-3", "colorings-5", "colorings-7", "rho", "tau"]
    for k in range(24):
        positive = None
        for sign in (1, -1):
            a = [(1, sign)] * (2 * k + 1)
            sa = spell(rng, a)
            pair_jobs(2, a, [], sa, spell(rng, []), subs)
            key = add(["cocycle", "-m", "2", "-a", sa, "-b", "e"],
                      _check_cocycle(2, a, [], partner=positive))
            positive = positive or key
    # spun 3-braid knots: a = (s1 s2^-1)^k (k = 2 is the figure eight) and mirrors
    for k in range(1, 7):
        for sign in (1, -1):
            a = [(1, sign), (2, -sign)] * k
            pair_jobs(3, a, [], spell(rng, a), spell(rng, []),
                      ["group", "group-simplify", "abelianization", "quotients-Z2",
                       "quotients-Z3", "quotients-S3", "colorings-3", "colorings-5",
                       "colorings-7", "rho", "tau"])

    # the half-twist family (s1 s3, D^k)
    for k in range(1, 17):
        a, b = rng.choice([[(1, 1), (3, 1)], [(3, 1), (1, 1)]]), power(delta(4), k)
        sa, sb = spell(rng, a), spell_delta_power(rng, k)
        pair_jobs(4, a, b, sa, sb, ["group", "group-simplify", "abelianization",
                                    "abelianization-center", "quotients-Z4", "quotients-S3",
                                    "colorings-3", "colorings-5", "colorings-7", "rho", "tau"],
                  center=k)
        signs = [(1, 1), (-1, -1)] + ([(1, -1)] if k % 2 == 0 else [])
        for e1, e3 in signs:
            ar = [(1, e1), (3, e3)]
            add(["ribbon", "-m", "4", "-a", spell(rng, ar), "-b", spell_delta_power(rng, k),
                 "--block-size", "2", "--block-count", "2"], _check_ribbon(4, ar, b))
    positive = None
    for sign in (1, -1):
        a, b = [(1, sign), (3, sign)], power(delta(4), 2 * sign)
        key = add(["cocycle", "-m", "4", "-a", spell(rng, a), "-b", f"D^{2 * sign}"],
                  _check_cocycle(4, a, b, partner=positive))
        positive = positive or key

    # the degree-4 acceptance pair, its mirror, and b = (1 2 3)^(4k)
    for k in range(1, 13):
        positive = None
        for sign in (1, -1):
            a = [(i, sign) for i in (1, 2, 2, 2, 3)]
            b = [(i, sign) for i in (1, 2, 3)] * (4 * k)
            sa, sb = spell(rng, a), spell_cycle_power(rng, 4, 4 * k, sign)
            pin = [3, 0, 6] if (k, sign) == (1, 1) else None
            key = add(["cocycle", "-m", "4", "-a", sa, "-b", sb],
                      _check_cocycle(4, a, b, partner=positive, pinned=pin))
            positive = positive or key
            pair_jobs(4, a, b, sa, sb, ["colorings-3", "colorings-5", "group",
                                        "group-simplify", "abelianization",
                                        "abelianization-center", "quotients-Z3",
                                        "quotients-S3", "rho", "tau"], center=2 * k * sign)

    # 2 x 3 cables: a = s1^e1 s3^e2 s5^e3 with b = D or D^2
    for k in (1, 2):
        for e1 in (1, -1):
            for e2 in (1, -1):
                for e3 in ((e1,) if k == 1 else (1, -1)):
                    a = [(1, e1), (3, e2), (5, e3)]
                    add(["ribbon", "-m", "6", "-a", spell(rng, a), "-b", spell_delta_power(rng, k),
                         "--block-size", "2", "--block-count", "3"],
                        _check_ribbon(6, a, power(delta(6), k)))

    # 3 x 2 cables: a = (s1 s2)^e1 (s4 s5)^e2 with b = D^k, k even
    for k in (2, 4, 6, 8):
        for e1 in (1, -1):
            for e2 in (1, -1):
                a = power([(1, 1), (2, 1)], e1) + power([(4, 1), (5, 1)], e2)
                add(["ribbon", "-m", "6", "-a", spell(rng, a), "-b", spell_delta_power(rng, k),
                     "--block-size", "3", "--block-count", "2"],
                    _check_ribbon(6, a, power(delta(6), k)))

    # known-ribbon pairs the tubular search gives up on (fixed inputs)
    for m, ka, count in ((6, 3, 3), (8, 2, 4)):
        a = [(i, 1) for i in range(1, m, 2)]
        add(["ribbon", "-m", str(m), "-a", ints(a), "-b", f"D^{ka}",
             "--block-size", "2", "--block-count", str(count)],
            _check_known_ribbon(m, a, power(delta(m), ka), 2, count, ka), known_failure=True)

    # framed basis changes
    seen: set[str] = set()
    for t in range(96):
        member = t % 2 == 0
        while True:
            mat = _h_matrix(rng, member)
            text = " ".join(str(x) for row in mat for x in row)
            if text not in seen:
                seen.add(text)
                break

        def check(result, _, member=member):
            expect(_doc(result)["member"] is member, "h-member verdict")
        add(["h-member", "--matrix", text], check)
    return jobs


# ---------------------------------------------------------------------------
# long-words: the word problem through the library
# ---------------------------------------------------------------------------

LONG_DEGREES = {4: 56, 6: 50, 8: 45, 12: 36, 16: 32}  # degree -> base word length


def _nf_check(m, w):
    def check(nf, _):
        expect(nf.degree == m, "normal form degree")
        infl = nf.infimum * m * (m - 1) // 2 + sum(C.inversions(f) for f in nf.factors)
        expect(infl == sum(s for _, s in w), "normal form length != exponent sum")
        p = tuple(range(m, 0, -1)) if nf.infimum % 2 else tuple(range(1, m + 1))
        for f in nf.factors:
            p = C.then(p, f)
        expect(p == C.perm(m, w), "normal form permutation != word permutation")
    return check


def _is(value):
    def check(result, _):
        expect(result is value, f"returned {result!r}, expected {value!r}")
    return check


def _chart_check(a, b, op):
    want = (b[::-1], a) if op == "rho" else (a, b + a)

    def check(chart, _):
        expect((list(chart.a.letters), list(chart.b.letters)) == want, f"{op} output")
    return check


def rewrite(rng: random.Random, m: int, w, moves: int):
    """A copy of ``w`` changed only by braid relations and free insertions."""
    w = list(w)
    for _ in range(moves):
        p = rng.randrange(len(w) - 2)
        if rng.random() < 0.25:
            i, s = rng.randrange(1, m), rng.choice((1, -1))
            w[p:p] = [(i, s), (i, -s)]
            continue
        (i, s), (j, t), (k, u) = w[p:p + 3]
        if abs(i - j) >= 2:
            w[p], w[p + 1] = w[p + 1], w[p]
        elif i == k and abs(i - j) == 1 and s == t == u:
            w[p:p + 3] = [(j, s), (i, s), (j, s)]
        elif i == k and abs(i - j) == 1 and s == -u and t == s:
            # s_i s_j s_i^-1 = s_j^-1 s_i s_j
            w[p:p + 3] = [(j, -s), (i, s), (j, s)]
    return w


# Job bodies look the package up at call time, so installed spans see them.
def commute(a, b):
    return braids.commute_check(a, b)


def equal(u, v):
    return braids.braids_equal(u, v)


def rotated(a, b):
    return transforms.rho(transforms.ChartData(a.degree, a, b))


def sheared(a, b):
    return transforms.tau(transforms.ChartData(a.degree, a, b))


def long_words(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []

    def add(key, fn, args, check):
        jobs.append(Job(key, fn, args, check))

    for m, n in LONG_DEGREES.items():
        full_twist = delta(m) * 2
        for slot in range(6):
            positive = slot % 3 == 0  # a positive minority: one slot in three
            tag = f"m{m}-{slot}"
            w = random_word(rng, m, n, positive)
            a, b = bw(m, w), bw(m, w * 2)
            add(f"powers {tag}", commute, (a, b), _is(True))
            c = random_word(rng, m, n // 3, positive)
            u = c + w + inv(c)
            add(f"conjugates {tag}", commute, (bw(m, u), bw(m, c + w * 2 + inv(c))), _is(True))
            w2 = random_word(rng, m, n, positive)
            add(f"full-twist {tag}", commute, (bw(m, w2 + full_twist), bw(m, w2 * 2)), _is(True))
            w3 = random_word(rng, m, 2 * n, positive)
            add(f"rewritten {tag}", equal, (bw(m, w3), bw(m, rewrite(rng, m, w3, n))), _is(True))
            w4 = random_word(rng, m, 2 * n, positive)
            add(f"unequal {tag}", equal,
                (bw(m, w4), bw(m, w4 + [(rng.randrange(1, m), 1)])), _is(False))
            while True:
                x, y = random_word(rng, m, n, positive), random_word(rng, m, n, positive)
                px, py = C.perm(m, x), C.perm(m, y)
                if C.then(px, py) != C.then(py, px):
                    break
            add(f"control {tag}", commute, (bw(m, x), bw(m, y)), _is(False))
            w5 = random_word(rng, m, 3 * n, positive)
            add(f"normal-form {tag}", lambda w: braids.normal_form(w), (bw(m, w5),),
                _nf_check(m, w5))
            half = random_word(rng, m, n // 2, positive)
            pal = half + half[::-1]
            add(f"rho {tag}", rotated, (bw(m, pal), bw(m, pal * 2)),
                _chart_check(pal, pal * 2, "rho"))
            w6 = random_word(rng, m, n, positive)
            add(f"tau {tag}", sheared, (bw(m, w6 + full_twist), bw(m, w6)),
                _chart_check(w6 + full_twist, w6, "tau"))
    return jobs


# ---------------------------------------------------------------------------
# invariants: presentations, quandles, movies and Alexander polynomials
# ---------------------------------------------------------------------------

# Pairs whose homomorphism counts are stored in expected.json (see expected.py).
QUOTIENT_POOL = {
    "spun-trefoil": (2, [(1, 1)] * 3, []),
    "spun-5-twist": (2, [(1, 1)] * 5, []),
    "half-twist-4": (4, [(1, 1), (3, 1)], delta(4) * 4),
    "half-twist-5": (4, [(1, 1), (3, 1)], delta(4) * 5),
    "acceptance": (4, [(1, 1), (2, 1), (2, 1), (2, 1), (3, 1)], [(1, 1), (2, 1), (3, 1)] * 4),
    "pseudo-anosov-3": (3, [(1, 1), (2, -1)] * 3, [(1, 1), (2, -1)] * 3),
}
QUOTIENT_GROUPS = ["Z2", "Z3", "Z5", "S3", "D5", "S4"]


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def _group(name: str):
    k = int(name[1:])
    return {"Z": presentations.cyclic_group, "S": presentations.symmetric_group,
            "D": presentations.dihedral_group}[name[0]](k)


def abelianize(a, b, center: bool):
    p = presentations.torus_covering_group(a, b)
    if center:
        p = presentations.add_relator(p, presentations.central_twist_relator(p, b))
    return presentations.abelianization(presentations.tietze_eliminate(p))


def state_sum(a, b):
    return quandles.cocycle_invariant(a, b)


def quotient_count(a, b, group):
    p = presentations.tietze_eliminate(presentations.torus_covering_group(a, b))
    return presentations.finite_quotient_count(p, group)


def invariants(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []

    def add(key, fn, args, check):
        jobs.append(Job(key, fn, args, check))

    def h1_check(m, a, b, center):
        def check(inv_, _):
            got, want = (inv_.rank, inv_.torsion), C.expected_h1(m, a, b, center)
            expect(got == want, f"H_1 {got}, expected {want}")
        return check

    # pseudo-Anosov a = b = (s1 s2^-1)^k; the seed picks a cyclic rotation
    for k in range(2, 10):
        base = [(1, 1), (2, -1)] * k
        for r in rng.sample(range(2 * k), 4):
            w = base[r:] + base[:r]
            add(f"pseudo-anosov k={k} r={r}", abelianize, (bw(3, w), bw(3, w), False),
                h1_check(3, w, w, None))

    # half-twist family, with and without the central quotient
    for k in range(1, 17):
        signs = [(1, 1), (-1, -1)] + ([(1, -1), (-1, 1)] if k % 2 == 0 else [])
        for e1, e3 in rng.sample(signs, 2):
            a, b = [(1, e1), (3, e3)], power(delta(4), k)
            for center in (False, True):
                add(f"half-twist k={k} a={ints(a)} center={center}", abelianize,
                    (bw(4, a), bw(4, b), center), h1_check(4, a, b, k if center else None))

    # finite quotients of a fixed pool, conjugated by a seeded letter
    expected = load_expected()
    for name, (m, a, b) in QUOTIENT_POOL.items():
        for g, t in itertools.product(QUOTIENT_GROUPS, range(4)):
            while True:
                c = [(rng.randrange(1, m), rng.choice((1, -1))) for _ in range(t % 2 + 1)]
                key = f"quotients {name} {g} c={ints(c)}"
                if all(j.key != key for j in jobs):
                    break
            ca, cb = c + a + inv(c), c + b + inv(c)
            want = expected[name][g]

            def check(q, _, want=want):
                expect(q.homomorphisms == want, f"{q.homomorphisms} homs, expected {want}")
            add(key, quotient_count, (bw(m, ca), bw(m, cb), _group(g)), check)

    # R5 and R7 colorings of (a, Delta^2), a on far-apart generators.  A
    # negative letter costs more to push colors through, so the signs of a
    # cycle through all four patterns and only the generators are seeded.
    for p, m, copies in ((5, 6, 12), (5, 7, 8), (5, 8, 4), (7, 6, 8)):
        b = delta(m) * 2
        for t in range(copies):
            signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))[t % 4]
            while True:
                idx = sorted(rng.sample(range(1, m), 2))
                a = list(zip(idx, signs))
                key = f"colorings R{p} m={m} a={ints(a)}"
                if idx[1] - idx[0] >= 2 and all(j.key != key for j in jobs):
                    break

            def check(cols, _, m=m, a=a, b=b, p=p):
                check_colorings(m, a, b, p, cols)
            add(key, lambda a, b, p: quandles.torus_colorings(
                a, b, quandles.dihedral_quandle(p)), (bw(m, a), bw(m, b), p), check)

    # Alexander polynomials of torus knots, the braid cyclically rotated
    for m, n in ((7, 2), (7, 3), (7, 4), (7, 5), (8, 3), (8, 5), (9, 2), (9, 4), (9, 5),
                 (10, 3), (10, 7)):
        base = [(i, 1) for i in range(1, m)] * n
        for r in rng.sample(range(len(base)), 4):
            w = base[r:] + base[:r]

            def check(poly, _, m=m, n=n):
                expect(dict(poly.terms) == C.torus_knot_alexander(m, n),
                       f"Alexander polynomial {poly}")
            add(f"alexander T({m},{n}) r={r}", lambda w: ribbon.alexander_polynomial(w),
                (bw(m, w),), check)

    # cocycle state sums of positive pairs and their mirrors, b = delta^(mk);
    # a is drawn until the pair has the stratum's number of R3 colorings
    for m, k, colorings in ((5, 1, 3), (5, 2, 9), (6, 1, 9), (6, 2, 9),
                            (7, 1, 3), (7, 2, 27), (8, 1, 81), (8, 2, 27)):
        b = [(i, 1) for i in range(1, m)] * (m * k)
        for t in range(8):
            while True:
                a = random_word(rng, m, 4, True)
                key = f"cocycle m={m} k={k} a={ints(a)}"
                if C.coloring_count(m, a, b, 3) == colorings and all(j.key != key for j in jobs):
                    break
            add(key, state_sum, (bw(m, a), bw(m, b)),
                lambda phi, _, m=m, a=a, b=b: check_state_sum(m, a, b, phi.coeffs))
            na, nb = negate(a), negate(b)
            add(f"mirror {key}", state_sum, (bw(m, na), bw(m, nb)),
                lambda phi, res, m=m, a=na, b=nb, partner=key: check_state_sum(
                    m, a, b, phi.coeffs, res[partner].coeffs))
    return jobs


WORKLOADS = {"census": census, "long-words": long_words, "invariants": invariants}


def make_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    keys = [j.key for j in jobs]
    if len(set(keys)) != len(keys):
        raise RuntimeError(f"{workload}: a job repeats within the list")
    return jobs

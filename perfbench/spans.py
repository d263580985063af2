"""Nested spans around the package's layer functions, installed from outside.

``Tracer.install`` replaces each function named in :data:`LAYERS` by a wrapper
in every ``torusbraid`` module that holds a reference to it, so calls between
modules are traced too; ``Tracer.restore`` puts the originals back.  A span's
self time is its duration minus the durations of the spans it directly
encloses.  Work counts are read from the arguments and return values.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

from torusbraid import artin, braids, cli, movies, presentations, quandles, ribbon, transforms

LAYERS = {
    braids: ("parse_braid", "normal_form", "commute_check", "braids_equal", "cable_lift"),
    artin: ("artin_apply",),
    presentations: ("torus_covering_group", "tietze_eliminate", "add_relator",
                    "central_twist_relator", "abelianization", "finite_quotient_count"),
    quandles: ("torus_colorings", "triple_points", "cocycle_invariant"),
    movies: ("slide_movie", "validate_movie"),
    ribbon: ("alexander_polynomial", "unknot_check", "search_decomposition",
             "verify_decomposition", "ribbon_verdict"),
    transforms: ("rho", "tau", "h_membership"),
    cli: ("main",),
}


def _relator_letters(p) -> int:
    return sum(len(r.letters) for r in p.relators)


# span name -> (args, result) -> counts added to that span name
COUNTERS = {
    "braids.normal_form": lambda a, r: {"letters": len(a[0].letters)},
    "artin.artin_apply": lambda a, r: {"letters_out": len(r.letters)},
    "presentations.torus_covering_group": lambda a, r: {"relator_letters": _relator_letters(r)},
    "presentations.tietze_eliminate": lambda a, r: {"letters_out": _relator_letters(r)},
    "presentations.finite_quotient_count": lambda a, r: {
        "tuples": a[1].size ** a[0].rank, "homomorphisms": r.homomorphisms},
    "quandles.torus_colorings": lambda a, r: {
        "vectors": a[2].size ** a[0].degree, "colorings": len(r)},
    "movies.slide_movie": lambda a, r: {"steps": len(r.steps)},
    "quandles.triple_points": lambda a, r: {"points": len(r)},
}

JOB = "job"


class Tracer:
    """Spans in memory: ``(id, parent, job, name, start, end, self_s)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[list] = []  # [id, name, start, child_s]
        self._active: Counter = Counter()
        self._job = -1
        package = [m for n, m in sys.modules.items()
                   if n == "torusbraid" or n.startswith("torusbraid.")]
        self._patches: list[tuple] = []  # (module, attribute, original, wrapper)
        for module, names in LAYERS.items():
            short = module.__name__.rsplit(".", 1)[1]
            for fname in names:
                orig = getattr(module, fname)
                wrapper = self.wrap(f"{short}.{fname}", orig)
                for mod in package:
                    for attr, value in vars(mod).items():
                        if value is orig:
                            self._patches.append((mod, attr, orig, wrapper))

    def enter(self, name: str) -> None:
        self._active[name] += 1
        self._stack.append([len(self.spans) + len(self._stack), name, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        self._active[name] -= 1
        dur = end - start
        parent = None
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append((sid, parent, self._job, name, start, end, dur - child))

    def begin_job(self, n: int) -> None:
        self._job = n
        self.enter(JOB)

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        in_search = name == "braids.normal_form"

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            self.counts[name]["calls"] += 1
            if count is not None:
                self.counts[name].update(count(args, result))
            if in_search and self._active["ribbon.search_decomposition"]:
                self.counts["ribbon.search_decomposition"]["nf_calls"] += 1
            return result

        return traced

    def install(self) -> None:
        """Point every reference to a layer function at its wrapper."""
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[3]] += span[6] * 1000.0
        return out

    def tree_problems(self) -> list[str]:
        """Spans that break the tree: left open, rooted outside a job span, or
        not nested in their parent's job and interval.

        Self times need no check of their own: a job's self times telescope to
        exactly its traced time, so they cannot exceed it.
        """
        problems = [f"span {name!r} left open" for _, name, _, _ in self._stack]
        by_id = {span[0]: span for span in self.spans}
        roots: Counter = Counter()
        for sid, parent, job, name, start, end, _ in self.spans:
            if parent is None:
                roots[job] += 1
                if name != JOB:
                    problems.append(f"span {sid} ({name}) has no job span above it")
                continue
            p = by_id.get(parent)
            if p is None or p[2] != job or not p[4] <= start <= end <= p[5]:
                problems.append(f"span {sid} ({name}) lies outside its parent {parent}")
        problems += [f"job {job} has {n} root spans" for job, n in roots.items() if n != 1]
        return problems

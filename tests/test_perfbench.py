"""The traced benchmark finds every layer function it wraps."""

from __future__ import annotations

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_finds_every_layer_function(monkeypatch):
    # Tracer() looks up each function named in spans.LAYERS, so a renamed or
    # deleted layer function fails here rather than in `run.py --trace 1`
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    assert spans.Tracer().spans == []


def test_traced_invariants_layers_are_called(monkeypatch):
    # a layer that its job no longer calls would read 0 in `run.py --trace 1`
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans
    import workloads

    jobs = workloads.make_jobs("invariants", 1)
    picked = [next(j for j in jobs if j.key.startswith(kind))
              for kind in ("cocycle ", "colorings ", "alexander ")]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for n, job in enumerate(picked):
            tracer.begin_job(n)
            job.fn(*job.args)
            tracer.exit()
    finally:
        tracer.restore()
    assert tracer.tree_problems() == []
    for layer in ("quandles.torus_colorings", "quandles.triple_points",
                  "ribbon.alexander_polynomial"):
        assert tracer.counts[layer]["calls"] > 0, layer
    assert tracer.counts["quandles.triple_points"]["points"] > 0

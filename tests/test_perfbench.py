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

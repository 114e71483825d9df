"""The bench's per-layer spans find every function they name: a rename
in the package would otherwise leave a span silently empty."""

import importlib.util
from pathlib import Path

from symtiling import dynamics, tilings

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_span_but_the_known_one_is_found():
    spans = load_spans()
    first_hit, step = tilings.GridTiling.first_hit, dynamics.step
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.absent == ["weave.holonomy",
                                 "pipeline.offsets_from_equiangular",
                                 "moduli.wall_intersection"]
        assert tilings.GridTiling.first_hit is not first_hit
    finally:
        tracer.uninstall()
    assert tilings.GridTiling.first_hit is first_hit
    assert dynamics.step is step

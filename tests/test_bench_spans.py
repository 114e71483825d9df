"""The bench's per-layer spans find every function they name: a rename
in the package would otherwise leave a span silently empty."""

import importlib.util
from pathlib import Path

from symtiling import dynamics, svgout

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_span_but_the_known_one_is_found():
    spans = load_spans()
    step, write = dynamics.step, svgout.Canvas.write
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.absent == ["tilings.first_hit", "weave.holonomy",
                                 "pipeline.offsets_from_equiangular",
                                 "moduli.wall_intersection"]
        assert dynamics.step is not step
        assert svgout.Canvas.write is not write
    finally:
        tracer.uninstall()
    assert dynamics.step is step
    assert svgout.Canvas.write is write

"""The bench's tracer wraps fcfam names by attribute lookup; every name it
wraps must exist and come back unwrapped.  (The bench's own tests run apart,
with `python3 -m pytest -q bench`.)"""

import importlib.util
import os

import fcfam

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def test_wrap_layers_finds_and_restores_every_name():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    spans.wrap_layers(tracer, fcfam)
    assert tracer.restore() == []

"""The traced benchmark run (``bench/run.py --trace 1``) wraps qe2
functions by name, looking each one up with ``vars(owner)[attr]``.  A
renamed or deleted function would only surface there, so every
(module, class, attribute) of ``bench/tracing.SPAN_TARGETS`` is resolved
here.  The tracing module is read and executed, never imported, so no
file under ``bench/`` is written."""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _span_targets():
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return [
        pytest.param(*t, id=".".join(filter(None, t)))
        for targets in namespace["SPAN_TARGETS"].values()
        for t in targets
    ]


@pytest.mark.parametrize("module,cls,attr", _span_targets())
def test_span_target_resolves(module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert attr in vars(owner)

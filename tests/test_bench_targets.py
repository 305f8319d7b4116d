"""The traced benchmark run (``bench/run.py --trace 1``) wraps qe2
functions by name, looking each one up with ``vars(owner)[attr]``, and the
benchmark worker reads qe2 module attributes by name.  A renamed or deleted
function would only surface there, so every (module, class, attribute) of
``bench/tracing.SPAN_TARGETS`` and every qe2 module attribute that
``bench/worker.py`` or its ``bench/workloads.py`` reads is resolved here.
The bench files are only read (the tracing module executed, the others
parsed), never imported, so no file under ``bench/`` is written."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
WORKER_FILES = (BENCH / "worker.py", BENCH / "workloads.py")


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


def _scalar_ops():
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return [
        pytest.param(attr, id=f"{op}.{attr}")
        for op, attrs in namespace["SCALAR_OPS"].items()
        for attr in attrs
    ]


@pytest.mark.parametrize("attr", _scalar_ops())
def test_scalar_op_resolves(attr):
    assert attr in vars(importlib.import_module("qe2.scalars").Scalar)


def _worker_reads():
    """(module, attribute) for each ``sys.modules["qe2.x"].attr``,
    ``qe2.x.attr`` and ``from qe2.x import attr`` in the worker's files."""
    found = set()
    nodes = (n for f in WORKER_FILES for n in ast.walk(ast.parse(f.read_text())))
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qe2."):
            found.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if (
                isinstance(owner, ast.Subscript)
                and ast.unparse(owner.value) == "sys.modules"
                and isinstance(owner.slice, ast.Constant)
            ):
                found.add((owner.slice.value, node.attr))
            elif (
                isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "qe2"
            ):
                found.add((f"qe2.{owner.attr}", node.attr))
    return [pytest.param(m, a, id=f"{m}.{a}") for m, a in sorted(found)]


def test_worker_reads_the_scalar_backend():
    assert ("qe2.scalars", "_Q") in {p.values for p in _worker_reads()}


@pytest.mark.parametrize("module,attr", _worker_reads())
def test_worker_attribute_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)


def test_tracer_counts_only_non_monomial_denominators_as_general():
    """``scalars.general_den_share`` counts a result as general when
    ``len(r.den) > 1``: with packed exponent keys, a (1+omega) denominator
    still has two keys and a monomial one a single key."""
    from qe2.scalars import Parameter, ScalarContext

    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    ctx = ScalarContext([Parameter("omega", "negated"), Parameter("k")])
    w, k = ctx.param("omega"), ctx.param("k")
    one_plus_w = w + 1
    tracer = namespace["Tracer"]()
    tracer.install()
    try:
        general = k / one_plus_w
        monomial = k / (w * w)
        polynomial = k * w
    finally:
        tracer.uninstall()
    assert namespace["leaks"]() == []
    assert [len(r.den) for r in (general, monomial, polynomial)] == [2, 1, 1]
    counts = tracer.raw()["scalars"]
    assert (counts["results"], counts["general"]) == (4, 1)

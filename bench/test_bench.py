"""Self-tests of the benchmark: verdict checkers, span arithmetic, tracer
installation and the metric list.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qe2 import catalog, cli, ncalg, scalars, suites  # noqa: E402


@pytest.fixture(scope="module")
def report_body(tmp_path_factory):
    out = tmp_path_factory.mktemp("report") / "all.json"
    rc = cli.main(["check", "all", "--format", "json", "--out", str(out)])
    return out.read_bytes(), rc


def test_report_checker_accepts_the_pinned_report(report_body):
    body, rc = report_body
    assert workloads.check_report(body, rc) == []


def test_report_checker_rejects_a_corrupted_body(report_body):
    body, rc = report_body
    corrupted = body.replace(b'"discrepancy"', b'"pass"', 1)
    assert corrupted != body
    assert workloads.check_report(corrupted, rc)
    assert workloads.check_report(b"not json", rc)
    assert workloads.check_report(body, 0)


def test_diamond_checker():
    w = workloads.PRINTED_WITNESS
    assert workloads.check_diamond("qe2-nonstd", True, None) == []
    assert workloads.check_diamond("qe2-nonstd", False, w)
    assert workloads.check_diamond("printed-nonstd", False, w) == []
    assert workloads.check_diamond("printed-nonstd", False, (("n", 1), ("v", 1), ("v", 1)))
    assert workloads.check_diamond("printed-nonstd", True, None)


def test_identity_checker_rejects_a_false_identity():
    H = catalog.get_preset("qe2-nonstd").hopf
    x, y = H.tower.poly("n"), H.tower.poly("nb")
    # the antipode reverses products; keeping the order is false here
    assert workloads.check_identity(lambda: (H.antipode(x * y), H.antipode(y) * H.antipode(x))) == []
    assert workloads.check_identity(lambda: (H.antipode(x * y), H.antipode(x) * H.antipode(y)))

    def boom():
        raise ValueError("engine failure")

    assert workloads.check_identity(boom) == ["ValueError: engine failure"]


def test_generated_identities_hold_and_repeat():
    chunk = workloads.identity_chunk(5, 0)
    assert chunk == workloads.identity_chunk(5, 0)
    other = workloads.identity_chunk(6, 0)
    assert chunk != other

    def shape(ch):
        return [(i["law"], [[(m, c[4]) for m, c in el] for el in i["elements"]]) for i in ch]

    assert shape(chunk) == shape(other)  # the seed draws coefficients only
    H = catalog.get_preset("qe2-nonstd").hopf
    P = catalog.get_preset("nonstd-poisson").poisson
    for ident in chunk[:4]:
        tower = P.tower if ident["law"] in ("leibniz", "jacobi") else H.tower
        els = [workloads.build_element(tower, t) for t in ident["elements"]]
        assert workloads.check_identity(
            lambda: workloads.law_sides(ident["law"], H, P, els)) == []
    props = workloads.input_properties([chunk])
    assert props["terms_per_element"] == [1, 3]
    assert props["identities_with_general_denominator"] == len(chunk) // workloads.DEN_EVERY


def test_self_time_on_nested_spans():
    # a(0..10) holds b(1..4) and a(5..9); b holds c(2..3)
    spans = [
        [0, -1, "x.a", 0.0, 10.0],
        [1, 0, "y.b", 1.0, 4.0],
        [2, 1, "x.c", 2.0, 3.0],
        [3, 0, "x.a", 5.0, 9.0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    names, layers = tracing.span_times(spans)
    assert names["x.a"] == [2, 10.0, 7.0]   # the nested x.a is not busy twice
    assert names["y.b"] == [1, 3.0, 2.0]
    assert names["x.c"] == [1, 1.0, 1.0]   # inside y.b, so busy for its name
    assert layers == {"x": 10.0, "y": 3.0}  # x.c sits inside x.a


def test_descending_words_matches_enumeration():
    tower = catalog.get_preset("qe2-nonstd").tower
    letters = [(j, s) for j, g in enumerate(tower.generators)
               for s in ((1, -1) if g.invertible else (1,))]
    for degree in (3, 5):
        brute = sum(
            all(a[0] >= b[0] for a, b in zip(w, w[1:]))
            for w in itertools.product(letters, repeat=degree)
        )
        assert tracing.descending_words(tower, degree) == brute


def test_tracer_wraps_every_binding_and_leaves_none():
    originals = {
        "diamond_check": ncalg.diamond_check,
        "suites.hopf_axioms_report": suites.hopf_axioms_report,
        "Scalar.__add__": scalars.Scalar.__add__,
        "Scalar.__radd__": scalars.Scalar.__radd__,
        "SUITES": dict(suites.SUITES),
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert suites.hopf_axioms_report is not originals["suites.hopf_axioms_report"]
        assert suites.SUITES["diamond"] != originals["SUITES"]["diamond"]
        assert tracing.leaks()
        tower = catalog.get_preset("qe2-nonstd").tower
        ncalg.diamond_check(tower, 3)
        tower.poly("n*v") * tower.poly("nb")
    finally:
        tracer.uninstall()
    assert tracing.leaks() == []
    assert ncalg.diamond_check is originals["diamond_check"]
    assert suites.hopf_axioms_report is originals["suites.hopf_axioms_report"]
    assert scalars.Scalar.__add__ is originals["Scalar.__add__"]
    assert scalars.Scalar.__radd__ is originals["Scalar.__radd__"]
    assert suites.SUITES == originals["SUITES"]
    raw = tracer.raw()
    assert raw["names"]["ncalg.diamond"][0] == 1
    assert raw["counters"]["ncalg.diamond_words"] == tracing.descending_words(tower, 3)
    assert raw["scalars"]["mul_calls"] > 0 and raw["scalars"]["add_calls"] > 0
    metrics = tracing.per_layer_metrics([raw], import_s=0.1, overhead_s=0.2)
    assert metrics["ncalg.diamond_calls"] == 1
    assert metrics["ncalg.diamond_s"] == raw["names"]["ncalg.diamond"][1]
    assert metrics["trace.overhead_s"] == 0.2
    assert metrics["scalars.general_den_share"] == 0


def test_end_to_end_scales_each_worker_by_its_probe():
    def worker(job_s, scale):
        return {"crashed": False, "setup_s": 0.2, "process_s": 1.0, "job_s": job_s,
                "op_s": [job_s], "attempted": 1, "failed": 0, "peak_rss_mb": 50.0,
                "scale": scale}

    # the same job on a host at full, half and quarter speed
    m = run.end_to_end([[worker(0.5, 1.0)], [worker(1.0, 0.5)], [worker(2.0, 0.25)]])
    assert m["job_s"] == (0.5, 3)
    assert m["op_s.p50"] == (0.5, 3)
    assert m["identities_per_s"] == (2.0, 3)
    assert m["setup_s"] == (0.1, 3)
    assert m["process_s"] == (0.5, 3)
    # the workers of one pass add up
    m = run.end_to_end([[worker(0.5, 1.0), worker(1.0, 0.5)]])
    assert m["job_s"] == (1.0, 1)
    assert m["process_s"] == (1.5, 1)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

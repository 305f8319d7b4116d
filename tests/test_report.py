import hashlib
import json

import pytest

from qe2.report import DISCREPANCY, FAIL, PASS, CheckReport


def test_exit_codes():
    rep = CheckReport("s")
    rep.add("a")
    assert rep.exit_code() == 0 and rep.clean and rep.passed
    rep.add("b", status=DISCREPANCY)
    assert rep.exit_code() == 2 and not rep.clean and rep.passed
    rep.add("c", status=FAIL)
    assert rep.exit_code() == 1 and not rep.passed
    assert rep.worst == FAIL
    assert rep.counts == {PASS: 1, FAIL: 1, DISCREPANCY: 1}


def test_json_body_sorted_and_stable():
    rep = CheckReport("s")
    rep.add("zeta", anchor="X")
    rep.add("alpha", anchor="Y", status=DISCREPANCY, lhs="l", rhs="r", witness="w")
    j1 = rep.to_json("0.1.0", {"p": "digest"})
    j2 = rep.to_json("0.1.0", {"p": "digest"})
    assert j1 == j2
    body = json.loads(j1)
    ids = [r["id"] for r in body["records"]]
    assert ids == sorted(ids)
    assert body["records"][0]["paper_anchor"] == "Y"
    assert "timestamp" not in j1


def test_text_table():
    rep = CheckReport("s")
    rep.add("ok-check")
    rep.add("bad-check", status=FAIL, lhs="1", rhs="0", witness="boom")
    txt = rep.to_text()
    assert "ok-check" in txt and "bad-check" in txt
    assert "boom" in txt
    assert "totals: 1 pass, 0 discrepancy, 1 fail" in txt


def test_verdict_pass_drops_the_witness():
    rep = CheckReport("s")
    rec = rep.verdict("ok", True, anchor="A", lhs="l", rhs="r", witness="w")
    assert rec.as_dict() == {
        "id": "ok", "paper_anchor": "A", "status": PASS,
        "lhs_canonical": "l", "rhs_canonical": "r", "witness": "",
    }
    assert rep.records == [rec]
    assert rep.verdict("bad", False, witness="w").status == FAIL


def test_verdict_discrepancy_keeps_the_witness():
    rep = CheckReport("s")
    rec = rep.verdict(
        "printed", False, anchor="A", lhs="l", rhs="r", witness="w", bad=DISCREPANCY
    )
    assert rec.as_dict() == {
        "id": "printed", "paper_anchor": "A", "status": DISCREPANCY,
        "lhs_canonical": "l", "rhs_canonical": "r", "witness": "w",
    }
    assert rep.exit_code() == 2


def test_summarized_sub_records_digest(monkeypatch):
    """``_summarize`` keeps one sub-record of each source report in the
    report body; this pins all of them, in run order."""
    from qe2 import suites

    seen = []
    summarize = suites._summarize

    def spy(rep_out, check_id, anchor, source, note=""):
        seen.append([r.as_dict() for r in source.records])
        return summarize(rep_out, check_id, anchor, source, note)

    monkeypatch.setattr(suites, "_summarize", spy)
    suites.run_suite("all")
    assert sum(map(len, seen)) == 144
    blob = json.dumps(seen, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "5025b921ce06ab9bcdc726c95a3643b030ca83dda0f831835345be471cc6bf6f"
    )


# -- lazy texts: a record keeps what its check compared ------------------------


def test_a_value_reads_as_its_canonical_text(qe2_tower):
    from qe2.exprio import format_canonical
    from qe2.hopf import TensorElement

    t = qe2_tower
    x = t.poly("n*v")
    d = TensorElement.from_legs((t, t), [t.gen("v"), t.poly("n - 1")])
    rec = CheckReport("s").add("c", status=FAIL, lhs=x, rhs=d)
    assert rec.lhs is x and rec.rhs is d
    assert rec.lhs_canonical == format_canonical(x) == "-omega + omega*v + v*n"
    assert rec.rhs_canonical == format_canonical(d)
    assert rec.as_dict()["rhs_canonical"] == "-v (x) 1 + v (x) n"


def test_a_value_is_formatted_once(monkeypatch, qe2_tower):
    from qe2 import exprio

    calls = []
    plain = exprio.format_canonical
    monkeypatch.setattr(exprio, "format_canonical", lambda x: calls.append(x) or plain(x))
    x = qe2_tower.poly("n*v")
    rep = CheckReport("s")
    rec = rep.add("c", status=FAIL, lhs=x, rhs="0")
    assert calls == []
    texts = {rec.lhs_canonical, rec.as_dict()["lhs_canonical"]}
    rep.to_json()
    rep.to_text()
    assert texts == {"-omega + omega*v + v*n"}
    assert calls == [x]


def test_an_unsupported_value_is_refused_when_the_verdict_is_recorded(monkeypatch):
    from qe2 import suites

    rep = CheckReport("s")
    for value in (None, 3, [1]):
        with pytest.raises(TypeError):
            rep.verdict("c", True, lhs=value)
    assert rep.records == []

    # inside a suite, the suite's own try records it; emission never raises
    def suite_bad_value(rep, degree_bound):
        rep.verdict("bad-value", True, rhs=None)

    monkeypatch.setitem(suites.SUITES, "jacobi", (suite_bad_value,))
    out = suites.run_suite("jacobi")
    (rec,) = out.records
    assert (rec.check_id, rec.status) == ("internal-error[suite_bad_value]", FAIL)
    assert rec.witness.startswith("TypeError: ")
    assert json.loads(out.to_json())["counts"][FAIL] == 1


def test_summarized_sub_records_are_never_formatted(monkeypatch):
    from qe2 import suites

    sources = []
    summarize = suites._summarize

    def spy(rep_out, check_id, anchor, source, note=""):
        sources.append(source)
        return summarize(rep_out, check_id, anchor, source, note)

    monkeypatch.setattr(suites, "_summarize", spy)
    rep = suites.run_suite("all")
    rep.to_json()
    rep.to_text()
    subs = [r for source in sources for r in source.records]
    assert len(subs) == 144
    assert sum(not isinstance(r.lhs, str) for r in subs) > 100
    assert all(r._lhs_text is None and r._rhs_text is None for r in subs)

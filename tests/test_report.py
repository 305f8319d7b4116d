import hashlib
import json

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

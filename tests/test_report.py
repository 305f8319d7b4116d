import hashlib
import json

import pytest

from qe2.report import DISCREPANCY, FAIL, PASS, CheckReport


def test_exit_codes():
    rep = CheckReport("s")
    rep.add("a")
    assert rep.exit_code() == 0 and rep.clean
    rep.add("b", status=DISCREPANCY)
    assert rep.exit_code() == 2 and not rep.clean
    rep.add("c", status=FAIL)
    assert rep.exit_code() == 1
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

    def spy(rep_out, check_id, anchor, source):
        seen.append([r.as_dict() for r in source.records])
        return summarize(rep_out, check_id, anchor, source)

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

    # inside a suite, the check's own try records it; emission never raises
    bad_value = ("bad-value", "", lambda s: (True, "", None))
    monkeypatch.setitem(suites.CHECKS, "jacobi", (bad_value,))
    out = suites.run_suite("jacobi")
    (rec,) = out.records
    assert (rec.check_id, rec.status) == ("internal-error[bad-value]", FAIL)
    assert rec.witness.startswith("TypeError: ")
    assert json.loads(out.to_json())["counts"][FAIL] == 1


def test_summarized_sub_records_are_never_formatted(monkeypatch):
    from qe2 import suites

    sources = []
    summarize = suites._summarize

    def spy(rep_out, check_id, anchor, source):
        sources.append(source)
        return summarize(rep_out, check_id, anchor, source)

    monkeypatch.setattr(suites, "_summarize", spy)
    rep = suites.run_suite("all")
    rep.to_json()
    rep.to_text()
    subs = [r for source in sources for r in source.records]
    assert len(subs) == 144
    assert sum(not isinstance(r.lhs, str) for r in subs) > 100
    assert all(r._lhs_text is None and r._rhs_text is None for r in subs)


# -- checks as entries: each check is recorded on its own ----------------------


def _engine_down(*args, **kwargs):
    raise RuntimeError("engine down")


@pytest.mark.parametrize(
    "name, suite, failing",
    [
        (
            "sigma_generators",
            "closure",
            [
                "closure-sigma-outputs-in-ideal",
                "closure-sigma-vb-exact",
                "closure-sigma-m-printed",
                "closure-ideal-generators-recovered",
            ],
        ),
        (
            "poisson_matrix_rank",
            "foliation",
            [
                "rank-std-circle-points",
                "rank-std-generic",
                "rank-nonstd-line",
                "rank-nonstd-circle-point",
                "rank-cylinder-degenerate",
                "rank-cylinder-regular",
                "rank-plane-hyperbolic",
            ],
        ),
        (
            "coinvariance_check",
            "closure",
            [
                "closure-coinvariance-v",
                "closure-coinvariance-vb",
                "closure-coinvariance-m",
                "closure-coinvariance-n-excluded",
                "closure-coinvariants-bounded",
            ],
        ),
    ],
)
def test_a_raising_engine_call_fails_only_the_checks_that_make_it(
    monkeypatch, name, suite, failing
):
    from qe2 import suites

    plain = [r.as_dict() for r in suites.run_suite(suite).records]
    monkeypatch.setattr(suites, name, _engine_down)
    broken = [r.as_dict() for r in suites.run_suite(suite).records]
    assert len(broken) == len(plain)
    errors = [after["id"] for after in broken if after["id"].startswith("internal-error[")]
    assert errors == [f"internal-error[{c}]" for c in failing]
    for before, after in zip(plain, broken):
        if before["id"] in failing:
            assert after == {
                "id": f"internal-error[{before['id']}]", "paper_anchor": "",
                "status": FAIL, "lhs_canonical": "", "rhs_canonical": "",
                "witness": "RuntimeError: engine down",
            }
        else:
            assert after == before


# the record count of each suite; the 12 suites together make the 70 records
SUITE_RECORDS = {
    "jacobi": 4,
    "multiplicativity": 2,
    "covariance": 8,
    "families": 3,
    "foliation": 14,
    "bialgebra": 9,
    "diamond": 4,
    "hopf-axioms": 2,
    "relations": 6,
    "coideal": 4,
    "hopf-ideal": 2,
    "closure": 12,
}


@pytest.fixture(scope="module")
def all_records():
    from qe2 import suites

    return {r.check_id: r.as_dict() for r in suites.run_suite("all").records}


def test_the_suites_partition_the_report(all_records):
    from qe2 import suites

    assert list(suites.SUITES) == [*SUITE_RECORDS, "all"]
    assert sum(SUITE_RECORDS.values()) == len(all_records) == 70
    # the run order of the records
    assert hashlib.sha256(" ".join(all_records).encode()).hexdigest() == (
        "e042001aae649a9aa7e29656c447c35372be7e24be20891b593d6b222a588cc4"
    )


@pytest.mark.parametrize("suite, count", SUITE_RECORDS.items())
def test_a_suite_alone_records_what_the_full_run_records(all_records, suite, count):
    from qe2 import suites

    records = [r.as_dict() for r in suites.run_suite(suite).records]
    assert len(records) == count
    assert records == [all_records[r["id"]] for r in records]


def test_a_run_makes_one_set_of_inputs_and_each_join_once(monkeypatch):
    from qe2 import catalog, suites

    made, joins = [], []

    class Counted(suites._Inputs):
        def __init__(self, degree_bound):
            super().__init__(degree_bound)
            made.append(self)

    def counted(join):
        return lambda *args: joins.append(join.__name__) or join(*args)

    monkeypatch.setattr(suites, "_Inputs", Counted)
    for join in (catalog.quotient_on, catalog.subalgebra_on):
        monkeypatch.setattr(catalog, join.__name__, counted(join))
    suites.run_suite("all")
    (s,) = made
    # quotient-I on qe2-nonstd and the cylinder once; quotient_on also makes
    # the three Poisson-subgroup maps, on std-poisson and nonstd-poisson
    assert sorted(joins) == ["quotient_on"] * 4 + ["subalgebra_on"]
    assert s.pi.source is s.cylinder.ambient is s["qe2-nonstd"].tower


def test_check_ids_are_unique():
    from qe2 import suites

    ids = [check_id for entries in suites.CHECKS.values() for check_id, _, _ in entries]
    assert len(ids) == len(set(ids)) == 70


def test_a_check_alone_records_what_the_full_run_records(all_records):
    from qe2 import suites

    alone = {check_id: suites.run_check(check_id).as_dict() for check_id in all_records}
    assert alone == all_records


def test_an_unknown_check_id_is_a_key_error():
    from qe2 import suites

    with pytest.raises(KeyError, match="no-such-id"):
        suites.run_check("no-such-id")

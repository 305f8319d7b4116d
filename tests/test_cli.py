import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qe2
from qe2 import __version__
from qe2.cli import main
from qe2.hopf import HopfStructure
from qe2.ncalg import TowerError

from conftest import preset_dict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_presets_listing(capsys):
    code, out, _ = run(capsys, "presets")
    assert code == 0
    assert "quantum-cylinder" in out
    assert "fun-e2" in out
    assert len([l for l in out.splitlines() if l.strip()]) >= 15


def test_normal_form(capsys):
    code, out, _ = run(capsys, "normal-form", "qe2-nonstd", "n*v")
    assert code == 0
    assert out.strip() == "-omega + omega*v + v*n"


def test_python_dash_m_runs_the_cli(capsys):
    want = run(capsys, "normal-form", "qe2-nonstd", "n*v")
    src = Path(qe2.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "qe2", "normal-form", "qe2-nonstd", "n*v"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert (out.returncode, out.stdout) == want[:2]


def test_bracket(capsys):
    code, out, _ = run(capsys, "bracket", "nonstd-poisson", "v", "vb*nb - v*n")
    assert code == 0
    assert out.strip() == "omega - 2*omega*v + omega*v^2"


def test_delta(capsys):
    code, out, _ = run(capsys, "delta", "fun-e2", "n")
    assert code == 0
    assert out.strip() == "v^-1 (x) n + n (x) 1"


def test_antipode(capsys):
    code, out, _ = run(capsys, "antipode", "fun-e2", "n")
    assert code == 0
    assert out.strip() == "-v*n"


def test_rank(capsys):
    code, out, _ = run(
        capsys, "rank", "nonstd-poisson", "--at", "v=i,n=0,nb=0", "--param", "omega=1"
    )
    assert code == 0
    assert out.strip() == "2"


def test_rank_zero_invertible_rejected(capsys):
    code, _, err = run(
        capsys, "rank", "nonstd-poisson", "--at", "v=0,n=0,nb=0", "--param", "omega=1"
    )
    assert code == 3
    assert "usage error" in err


def test_solve_family(capsys):
    code, out, _ = run(capsys, "solve-family", "coaction-plane", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert not payload["empty"]


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "jacobi", "--format", "text")
    assert code == 2  # the bracket-table comparisons are discrepancies
    assert "jacobi-std-poisson" in out
    code, out, _ = run(capsys, "check", "hopf-axioms")
    assert code == 0
    code, out, _ = run(capsys, "check", "hopf-ideal")
    assert code == 0


def test_check_unknown_param(capsys):
    code, _, err = run(capsys, "check", "jacobi", "--param", "tau=1")
    assert code == 3


def test_rank_value_must_be_a_number(capsys):
    code, _, err = run(capsys, "rank", "nonstd-poisson", "--at", "v=n,n=0,nb=0")
    assert code == 3
    assert "usage error" in err and "'n'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "nosuch"),
        ("rank", "nonstd-poisson"),
        ("check", "jacobi", "--param", "omega=5"),
        ("normal-form", "qe2-nonstd", "v", "--param", "omega=5"),
    ],
)
def test_command_line_errors_are_usage_errors(capsys, argv):
    # argparse's own status 2 would read as "discrepancies"
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("usage: qe2") and "usage error: " in err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert (__version__ in out) if flag == "--version" else out.startswith("usage: qe2")


def test_check_json_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    c1 = main(["check", "all", "--format", "json", "--out", str(p1)])
    c2 = main(["check", "all", "--format", "json", "--out", str(p2)])
    assert c1 == c2 == 2
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    # the report every change must keep byte for byte
    assert hashlib.sha256(b1).hexdigest() == (
        "a70f9ff451e32a6ea02ff5b37d87632501075b3b6074feeca9845af6014c6998"
    )
    body = json.loads(b1)
    assert body["counts"] == {"pass": 54, "discrepancy": 16, "fail": 0}
    ids = [r["id"] for r in body["records"]]
    assert "prop32-bracket-printed" in ids
    assert "def41-second-relation-printed" in ids
    assert ids == sorted(ids)


def test_file_presentation(capsys, tmp_path):
    desc = {
        "name": "toy",
        "parameters": [{"name": "q", "star": "fixed"}],
        "tower": [
            {"gen": "a"},
            {"gen": "b", "sigma": {"a": "q*a"}, "delta": {}},
        ],
    }
    f = tmp_path / "toy.json"
    f.write_text(json.dumps(desc))
    code, out, _ = run(capsys, "normal-form", "--file", str(f), "b*a")
    assert code == 0
    assert out.strip() == "q*a*b"


def test_bad_expression(capsys):
    code, _, err = run(capsys, "normal-form", "qe2-nonstd", "v*(n")
    assert code == 3
    assert "offset 4" in err


@pytest.mark.parametrize(
    "argv, offset",
    [
        (("normal-form", "qe2-nonstd", "1/0*v"), 0),
        (("rank", "nonstd-poisson", "--at", "v=1/0,n=0,nb=0"), 0),
    ],
)
def test_zero_denominator_is_usage_error(capsys, argv, offset):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "usage error" in err and "zero denominator" in err
    assert f"offset {offset}" in err


# the wrong (n, nb) sign makes the tower fail its diamond check at load
PRINTED_TOWER = {
    "name": "printed",
    "parameters": [{"name": "omega", "star": "negated"}],
    "tower": [
        {"gen": "v", "invertible": True},
        {"gen": "n", "sigma": {"v": "v"}, "delta": {"v": "omega*v - omega"}},
        {
            "gen": "nb",
            "sigma": {"v": "v", "n": "n + omega"},
            "delta": {"v": "omega*v^2 - omega*v", "n": "-omega*n"},
        },
    ],
}


def _unknown_hopf_generator(table):
    desc = preset_dict("fun-e2")
    desc["hopf"][table]["zz"] = desc["hopf"][table]["v"]
    return desc


def _counit_naming_a_generator():
    desc = preset_dict("fun-e2")
    desc["hopf"]["counit"]["v"] = "v"
    return desc


@pytest.mark.parametrize(
    "desc, reason",
    [
        (PRINTED_TOWER, "not confluent"),
        ({"name": "x", "tower": 5}, '"tower" must be a list'),
        ([1, 2], "must be a JSON object"),
    ]
    + [(_unknown_hopf_generator(t), "'zz'") for t in ("delta", "counit", "antipode")]
    + [(_counit_naming_a_generator(), "unknown symbol 'v'")],
    ids=[
        "printed-tower",
        "tower-not-a-list",
        "not-an-object",
        "delta-unknown-generator",
        "counit-unknown-generator",
        "antipode-unknown-generator",
        "counit-names-a-generator",
    ],
)
def test_bad_file_presentation_is_usage_error(capsys, tmp_path, desc, reason):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(desc))
    code, out, err = run(capsys, "normal-form", "--file", str(f), "v")
    assert code == 3
    assert out == ""
    assert "usage error" in err and reason in err


def test_engine_error_is_internal_error(capsys, monkeypatch):
    # a TowerError is a ValueError; raised while computing, it is no usage error
    def broken(self, x):
        raise TowerError("coproduct failed")

    monkeypatch.setattr(HopfStructure, "coproduct", broken)
    code, out, err = run(capsys, "delta", "fun-e2", "n")
    assert code == 1
    assert out == ""
    assert "internal error" in err and "coproduct failed" in err
    assert "usage error" not in err


def _level_data_past_unset_rules():
    # nb*v is multiplied while level 2 is parsed and the levels below
    # do not commute, before level 2's own rules exist
    desc = preset_dict("qe2-nonstd")
    desc["tower"][2]["delta"]["v"] = "nb*v - v*nb + omega*v^2 - omega*v"
    return desc


# delta(v^-1) = -v^-1 * omega*v^3*m * v^-1 needs the rule m*v^-1 it defines
DELTA_NEEDS_ITS_OWN_RULE = {
    "parameters": [{"name": "omega"}],
    "tower": [
        {"gen": "v", "invertible": True},
        {"gen": "m", "delta": {"v": "omega*v^3*m"}},
    ],
}


@pytest.mark.parametrize(
    "desc, reason",
    [
        (_level_data_past_unset_rules(), "the product nb*v needs the rules of level 2"),
        (DELTA_NEEDS_ITS_OWN_RULE, "needs the rule m*v^-1 that it defines"),
    ],
    ids=["rules-used-before-set", "delta-inverse-cycle"],
)
def test_presentation_rule_errors_are_usage_errors(capsys, tmp_path, desc, reason):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(desc))
    code, out, err = run(capsys, "normal-form", "--file", str(f), "m*v")
    assert code == 3
    assert out == ""
    assert "usage error" in err and reason in err

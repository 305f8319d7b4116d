import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qe2
from qe2 import __version__, catalog, ncalg
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


def test_suite_names_match_the_registry():
    from qe2 import cli, suites

    assert list(cli.SUITE_NAMES) == sorted(suites.SUITES)


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


@pytest.mark.parametrize("cmd, exprs", [
    ("delta", ["v*n - nb^2"]),
    ("delta", ["vb*nb + 2*n"]),
    ("bracket", ["v", "n"]),
    ("bracket", ["vb*n^2 + nb", "v*nb - n"]),
])
def test_file_structure_tables_match_the_preset(capsys, tmp_path, cmd, exprs):
    # the coproduct and bracket tables load from a --file copy of a preset
    # exactly as from the preset's name
    f = tmp_path / "std-poisson.json"
    f.write_text(json.dumps(preset_dict("std-poisson")))
    want = run(capsys, cmd, "std-poisson", *exprs)
    assert want[0] == 0 and want[1].strip() not in ("", "0")
    assert run(capsys, cmd, "--file", str(f), *exprs) == want


def test_a_huge_power_of_a_monomial_answers_at_once(capsys):
    t0 = time.perf_counter()
    assert run(capsys, "normal-form", "qe2-nonstd", "v^1000000") == (0, "v^1000000\n", "")
    code, out, _ = run(capsys, "normal-form", "qe2-nonstd", "omega^2147483647*nb^1000000")
    assert (code, out) == (0, "omega^2147483647*nb^1000000\n")
    assert time.perf_counter() - t0 < 1


def test_a_coefficient_past_the_digit_limit_is_a_usage_error(capsys):
    code, out, err = run(capsys, "normal-form", "qe2-nonstd", "3^1000000")
    assert (code, out) == (3, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert f"more than {sys.get_int_max_str_digits()} decimal digits" in err
    assert "Traceback" not in err
    assert run(capsys, "normal-form", "qe2-nonstd", "3^1000") == (0, f"{3**1000}\n", "")


def test_a_leading_minus_goes_after_the_double_dash(capsys):
    code, out, err = run(capsys, "normal-form", "qe2-nonstd", "-v*n")
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == (
        'usage error: unrecognized arguments: -v*n (an expression that starts with "-" '
        'goes after "--": qe2 normal-form PRESET -- "-v*n")'
    )
    assert run(capsys, "normal-form", "qe2-nonstd", "--", "-v*n") == (0, "-v*n\n", "")


def _readme_examples():
    """The commented examples of README's CLI section, as (argv, the
    comment: what the example prints)."""
    import shlex

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    examples = []
    for line in section.splitlines():
        cmd, sep, shown = line.partition(" # ")
        if line.startswith("qe2 ") and sep:
            argv = shlex.split(cmd)[1:]
            examples.append(pytest.param(argv, shown.strip(), id=f"{len(examples)}-{argv[0]}"))
    return examples


@pytest.mark.parametrize("argv, shown", _readme_examples())
def test_readme_cli_examples_print_what_their_comments_say(capsys, argv, shown):
    assert run(capsys, *argv) == (0, shown + "\n", "")


def test_the_readme_shows_the_outputs_of_the_expression_commands():
    commands = {argv[0] for argv, _ in (p.values for p in _readme_examples())}
    assert {"normal-form", "bracket", "delta", "antipode", "rank"} <= commands


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


def test_a_scalar_error_while_computing_is_an_internal_error(capsys):
    # the literal is in bounds; the bracket's product passes the exponent bound
    code, out, err = run(capsys, "bracket", "nonstd-poisson", "omega^2147483647*v", "n")
    assert (code, out) == (1, "")
    assert err.startswith("internal error: ScalarError: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("normal-form", "coaction-plane", "v"),
    ("delta", "e2-lie", "X"),
    ("bracket", "std-bialg", "X", "Y"),
])
def test_a_preset_without_an_algebra_is_a_usage_error(capsys, argv):
    assert run(capsys, *argv) == (3, "", "usage error: this preset carries no algebra\n")


@pytest.mark.parametrize("argv, preset", [
    (("normal-form", "qe2-nonstd"), "qe2-nonstd"),
    (("bracket", "nonstd-poisson", "v"), "nonstd-poisson"),
])
def test_a_missing_expression_is_named(capsys, argv, preset):
    # argparse fills the expression before the optional preset
    assert run(capsys, *argv) == (
        3, "", f"usage error: an expression argument after the preset {preset!r} is missing\n"
    )


def _delta_image_adding_a_scalar(tmp_path):
    desc = preset_dict("fun-e2")
    desc["hopf"]["delta"]["n"] = "vb (x) n + n (x) 1 + 1"
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(desc))
    return ["normal-form", "--file", str(f), "v"]


@pytest.mark.parametrize("argv, reason", [
    (["normal-form", "qe2-nonstd", "v (x) v + 1"], "cannot be added to a tensor"),
    (["normal-form", "qe2-nonstd", "2*(v (x) v)"], "expected an algebra element"),
    (["normal-form", "qe2-nonstd", "(v (x) n)^2"], "expected an algebra element"),
    (["normal-form", "qe2-nonstd", "v (x) (n (x) v)"], "cannot be a leg of a tensor"),
    (_delta_image_adding_a_scalar, "cannot be added to a tensor"),
], ids=["tensor-plus-scalar", "scalar-times-tensor", "tensor-power", "tensor-leg", "file-delta"])
def test_tensor_input_is_a_usage_error(capsys, tmp_path, argv, reason):
    if callable(argv):
        argv = argv(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert reason in err


def _symbols(pid):
    """The generators, barred inverses and parameters of a preset's
    algebra; for a preset without one, those of every shipped algebra."""
    ids = [pid] if getattr(catalog.get_preset(pid), "tower", None) else catalog.PRESET_IDS
    names = set()
    for t in filter(None, (getattr(catalog.get_preset(p), "tower", None) for p in ids)):
        names.update(g.name for g in t.generators)
        names.update(f"{g.name}b" for g in t.generators if g.invertible)
        names.update(t.context.names)
    return sorted(names)


def _expression(draw, symbols, depth=3):
    """A grammar string: an optional leading minus and one or two tensor
    terms; a tensor term is one or two terms joined by ' (x) '; a term is
    one or two factors; a factor is a symbol, i, an integer in [0, 9] or,
    ``depth`` levels deep at most, a parenthesized expression, with an
    optional exponent in [-6, 6] on a symbol and in [0, 6] otherwise (the
    grammar takes a negative exponent only on a symbol)."""

    def factor():
        low = 0
        if depth and draw(st.booleans()):
            base = f"({_expression(draw, symbols, depth - 1)})"
        else:
            base = draw(st.sampled_from([*symbols, "i"]) | st.integers(0, 9).map(str))
            if base in symbols:
                low = -6
        e = draw(st.none() | st.integers(low, 6))
        return base if e is None else f"{base}^{e}"

    def term():
        return "*".join(factor() for _ in range(draw(st.integers(1, 2))))

    def tterm():
        return " (x) ".join(term() for _ in range(draw(st.integers(1, 2))))

    text = draw(st.sampled_from(["", "-"])) + tterm()
    if draw(st.booleans()):
        text += draw(st.sampled_from([" + ", " - "])) + tterm()
    return text


# the structure of a bundle that each expression command needs
_NEEDS = {"normal-form": "tower", "delta": "hopf", "bracket": "poisson"}


@st.composite
def _invocations(draw):
    cmd, arity = draw(st.sampled_from([("normal-form", 1), ("delta", 1), ("bracket", 2)]))
    pid = draw(st.sampled_from([
        p for p in catalog.PRESET_IDS
        if getattr(catalog.get_preset(p), _NEEDS[cmd], None) is not None
    ]))
    symbols = _symbols(pid)
    return [cmd, pid, *(_expression(draw, symbols) for _ in range(arity))]


# derandomized: every run draws the same examples, so a pass repeats
@given(_invocations())
@settings(max_examples=60, deadline=timedelta(seconds=2), derandomize=True)
def test_generated_expressions_keep_the_exit_code_contract(argv):
    # exit 0 or a usage error (3), never an uncaught exception
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "budget, argv",
    [
        # the overrun comes while parsing (normal-form, bracket) or while
        # computing the coproduct or antipode of the parsed element
        (5, ["normal-form", "qe2-nonstd", "n^2*v^-2"]),
        (2, ["delta", "qe2-nonstd", "v^-1*n^2*nb^2"]),
        (2, ["antipode", "qe2-nonstd", "v^-1*n^2*nb^2"]),
        (0, ["bracket", "nonstd-poisson", "v^-1*n^2*nb^2", "n*v"]),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else str(v),
)
def test_a_rewrite_budget_overrun_is_a_resource_limit(monkeypatch, capsys, budget, argv):
    # a fresh bundle, loaded under the full budget, with no cached product
    # or push that would spare the rewriting
    monkeypatch.setattr(catalog, "_CACHE", {})
    catalog.get_preset(argv[1])
    monkeypatch.setattr(ncalg, "REWRITE_STEP_BUDGET", budget)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"resource limit: rewriting took more than {budget} steps\n"


def test_a_rewrite_budget_overrun_while_loading_a_file_is_a_resource_limit(
    monkeypatch, capsys, tmp_path
):
    f = tmp_path / "nonstd.json"
    f.write_text(json.dumps(preset_dict("qe2-nonstd")))
    monkeypatch.setattr(ncalg, "REWRITE_STEP_BUDGET", 0)
    code, out, err = run(capsys, "normal-form", "--file", str(f), "n*v")
    assert (code, out) == (3, "")
    assert err.startswith("resource limit: ") and "bad presentation" not in err


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

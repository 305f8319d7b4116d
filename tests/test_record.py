"""Value semantics of the plain record classes, and a fresh process that
never imports ``dataclasses``."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import qe2
from qe2.exprio import Lit, Power, Product, Sum, Sym, Tensor
from qe2.ncalg import AffineSolutions, DiamondResult, Generator
from qe2.report import CheckRecord, CheckReport
from qe2.scalars import GaussRational, Parameter, ScalarContext

SRC = Path(qe2.__file__).resolve().parents[1]


def _value_pairs():
    """Two separately built, equal instances of each frozen record."""
    def build():
        return [
            Parameter("omega", "negated"),
            Generator("v", 0, True),
            Sym("a"),
            Lit(GaussRational(2, 1)),
            Power(Sym("v"), -1),
            Product((Sym("a"), Sym("b"))),
            Tensor((Sym("a"), Lit(GaussRational(1)))),
            Sum(((1, Sym("a")), (-1, Sym("b")))),
        ]
    return list(zip(build(), build()))


def test_frozen_records_compare_and_hash_by_value():
    for a, b in _value_pairs():
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert copy.copy(a) == a
    for a in (Parameter("omega", "negated"), Generator("v", 0, True), Sym("a")):
        assert copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a
    assert Parameter("k") == Parameter("k", "fixed")
    assert Parameter("k") != Parameter("k", "negated")
    assert Generator("v", 0) != Generator("v", 0, True)
    assert Power(Sym("v"), 2) != Power(Sym("v"), 3)


def test_records_of_different_classes_are_unequal():
    assert Sym("a") != Tensor(("a",))
    assert Product((Sym("a"),)) != Tensor((Sym("a"),))
    assert Product(()) != Sum(())
    assert Sym("v") != Generator("v", 0)


def test_frozen_record_fields_cannot_be_assigned():
    for a, _ in _value_pairs():
        field = type(a)._fields[0]
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
        with pytest.raises(AttributeError):
            a.extra = 1


def test_parameter_rejects_an_unknown_star_rule():
    with pytest.raises(ValueError, match="unknown star rule 'bogus'"):
        Parameter("x", "bogus")


def test_scalar_contexts_over_equal_parameters_are_equal():
    a = ScalarContext([Parameter("omega")])
    b = ScalarContext([Parameter("omega")])
    assert a == b and hash(a) == hash(b)
    assert a != ScalarContext([Parameter("omega", "negated")])


def test_mutable_records_compare_by_value_and_keep_their_defaults():
    assert DiamondResult(True) == DiamondResult(True, None, None, None, None)
    assert DiamondResult(True) != DiamondResult(True, weights=(1,))
    res = DiamondResult(True)
    res.weights = (1, 1)
    assert res == DiamondResult(True, weights=(1, 1))
    assert AffineSolutions({"a": 1}, {}) == AffineSolutions({"a": 1}, {})
    assert AffineSolutions({}, {"a": {"a": 1}}) != AffineSolutions({}, {})
    rec = CheckRecord("c", "anchor", "fail", "l", "r", "w")
    assert rec == CheckRecord(
        check_id="c", paper_anchor="anchor", status="fail",
        lhs_canonical="l", rhs_canonical="r", witness="w",
    )
    assert CheckRecord("c").status == "pass"
    # each report gets its own record list
    one, two = CheckReport("s"), CheckReport("s")
    one.add("x")
    assert two.records == [] and one != two
    with pytest.raises(TypeError):
        hash(res)


def test_fresh_process_imports_no_dataclasses_or_inspect():
    # a subprocess, because pytest itself imports both
    code = (
        "import sys\n"
        "import qe2.cli, qe2.suites\n"
        "from qe2 import catalog\n"
        "for pid in catalog.PRESET_IDS:\n"
        "    catalog.get_preset(pid)\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

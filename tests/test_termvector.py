"""The term-vector base shared by NCPoly, TensorElement and WedgeBivector."""

import pytest

from qe2 import exprio
from qe2.hopf import TensorElement
from qe2.liebialg import WedgeBivector
from qe2.ncalg import NCPoly, TermVector, TowerError


def _el(text, target):
    return exprio.elaborate_expr(exprio.parse_expr(text), target)


def test_the_three_element_types_share_the_base():
    for cls in (NCPoly, TensorElement, WedgeBivector):
        assert issubclass(cls, TermVector)
        own = set(vars(cls))
        assert not own & {"__add__", "__sub__", "__neg__", "scale", "is_zero", "__eq__", "__hash__"}


def test_mixing_towers_or_legs_is_a_tower_error(qe2_tower, fun_e2_tower):
    t, u = qe2_tower, fun_e2_tower
    with pytest.raises(TowerError):
        t.poly("v") + u.poly("v")
    with pytest.raises(TowerError):
        t.poly("v") * u.poly("v")
    with pytest.raises(TowerError):
        _el("v (x) v", t) - _el("v (x) v", (t, u))
    with pytest.raises(TowerError):
        _el("v (x) v", t) + _el("v (x) v (x) v", t)
    ctx = t.context
    with pytest.raises(TowerError):
        WedgeBivector(ctx, 3, {(0, 1): ctx.one}) + WedgeBivector(ctx, 4, {(0, 1): ctx.one})


def test_an_algebra_element_and_a_tensor_do_not_combine(qe2_tower):
    p, x = qe2_tower.poly("v"), _el("v (x) 1", qe2_tower)
    for a, b in ((p, x), (x, p)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
        assert a != b


def test_equal_vectors_hash_equal(qe2_tower):
    t = qe2_tower
    ctx = t.context
    pairs = [
        (t.poly("n*v"), t.poly("v*n + omega*v - omega")),
        (_el("(v (x) n)*(n (x) v)", t), _el("v*n (x) n*v", t)),
        (
            WedgeBivector(ctx, 3, {(1, 0): -ctx.one}),
            WedgeBivector(ctx, 3, [((0, 1), ctx.one + ctx.one), ((0, 1), -ctx.one)]),
        ),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert (a - b).is_zero() and not (a - b)
        assert a + -b == a.scale(ctx.zero)


@pytest.mark.parametrize("kind", ["poly", "tensor"])
def test_powers_match_repeated_products(qe2_tower, kind):
    t = qe2_tower
    if kind == "poly":
        x, mono, one = t.poly("n + omega*v*nb"), t.poly("2*v^2"), NCPoly.one(t)
    else:
        x, mono = _el("v (x) n + n (x) 1", t), _el("2*v (x) vb", t)
        one = TensorElement.unit((t, t))
    assert x ** 0 == one and mono ** 0 == one
    assert x ** 1 == x
    assert x ** 3 == x * x * x
    inv = mono ** -1
    assert inv * mono == one and mono * inv == one
    assert mono ** -2 == inv * inv
    assert (one ** 5).is_one() and not x.is_one()
    with pytest.raises(TowerError):
        x ** -1

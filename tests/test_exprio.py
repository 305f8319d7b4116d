import random

import pytest

from qe2 import exprio
from qe2.exprio import (
    GrammarError,
    Lit,
    Product,
    Sum,
    Sym,
    Tensor,
    format_canonical,
    parse_expr,
    parse_scalar,
)
from qe2.ncalg import NCPoly, normal_form
from qe2.scalars import GaussRational, Parameter, ScalarContext


def test_parse_products_and_signs():
    ast = parse_expr("vb*nb - v*n")
    assert isinstance(ast, Sum)
    (s1, t1), (s2, t2) = ast.terms
    assert s1 == 1 and s2 == -1
    assert t1 == Product((Sym("vb"), Sym("nb")))
    assert t2 == Product((Sym("v"), Sym("n")))


def test_parse_tensor():
    ast = parse_expr("v (x) v")
    assert ast == Tensor((Sym("v"), Sym("v")))


def test_parse_error_position():
    with pytest.raises(GrammarError) as e:
        parse_expr("v*(n")
    assert e.value.position == 4


def test_negative_exponent_non_symbol():
    with pytest.raises(GrammarError):
        parse_expr("(v+1)^-1")
    # nonnegative powers of parenthesized expressions are fine
    parse_expr("(v+1)^2")


def test_unary_minus_head_and_after_paren():
    parse_expr("-v + n")
    parse_expr("v*(-n + 1)")
    with pytest.raises(GrammarError):
        parse_expr("v*-n")


def test_rational_literals():
    ast = parse_expr("1/2")
    assert isinstance(ast, Lit)
    assert str(ast.value) == "1/2"
    with pytest.raises(GrammarError):
        parse_expr("1/")


@pytest.mark.parametrize("text, offset", [("1/0", 0), ("v + 3/00*n", 4)])
def test_zero_denominator_literal(text, offset):
    with pytest.raises(GrammarError) as e:
        parse_expr(text)
    assert e.value.position == offset
    assert "zero denominator" in str(e.value)


def test_mandatory_star():
    with pytest.raises(GrammarError):
        parse_expr("2v")


def test_elaborate_examples(qe2_tower, cylinder_tower):
    t = qe2_tower
    assert t.poly("v*vb").is_one()
    assert t.poly("n*v") == t.poly("v*n + omega*v - omega")
    c = cylinder_tower
    assert c.poly("m^2*m") == normal_form(c, [("m", 3)])


def test_elaborate_unknown_symbol(qe2_tower):
    with pytest.raises(KeyError):
        qe2_tower.poly("w + 1")


def test_elaborate_negative_power_non_invertible(qe2_tower):
    with pytest.raises(Exception):
        qe2_tower.poly("n^-1")


def test_alias_resolution(qe2_tower):
    # vb is v^-1; nb is an actual generator
    assert qe2_tower.poly("vb") == normal_form(qe2_tower, [("v", -1)])
    assert qe2_tower.poly("nb") == qe2_tower.gen("nb")


def test_format_basic(qe2_tower):
    t = qe2_tower
    assert format_canonical(t.poly("v*n")) == "v*n"
    assert format_canonical(NCPoly.zero(t)) == "0"
    assert format_canonical(t.poly("v^-1")) == "v^-1"
    assert format_canonical(t.poly("omega*v - omega")) == "-omega + omega*v"


def test_format_delta_n(fun_e2_tower):
    t = fun_e2_tower
    legs = (t, t)
    e = exprio.elaborate_expr(parse_expr("vb (x) n + n (x) 1"), legs)
    assert format_canonical(e) == "v^-1 (x) n + n (x) 1"


def test_round_trip_random(qe2_tower):
    rng = random.Random(3)
    t = qe2_tower
    for _ in range(20):
        out = NCPoly.zero(t)
        for _ in range(rng.randint(1, 4)):
            word = []
            for _ in range(rng.randint(0, 3)):
                j = rng.randrange(3)
                e = rng.choice([-1, 1]) if t.generators[j].invertible else 1
                word.append((j, e))
            coeff = t.context.from_int(rng.randint(-4, 4))
            if rng.random() < 0.4:
                coeff = coeff * t.context.param("omega")
            out = out + normal_form(t, word).scale(coeff)
        text = format_canonical(out)
        assert t.poly(text) == out, text


def test_round_trip_tensor(fun_e2_tower):
    t = fun_e2_tower
    legs = (t, t)
    src = "v^-1 (x) n + n (x) 1"
    e = exprio.elaborate_expr(parse_expr(src), legs)
    assert format_canonical(e) == src
    again = exprio.elaborate_expr(parse_expr(format_canonical(e)), legs)
    assert again == e


def test_parse_scalar():
    ctx = ScalarContext([Parameter("omega", "negated")])
    w = ctx.param("omega")
    assert parse_scalar(ctx, "(1 + i)*omega^2 - 3/4") == (
        ctx.from_gauss(GaussRational(1, 1)) * w * w - ctx.from_gauss(GaussRational(3)) / 4
    )
    with pytest.raises(KeyError):
        parse_scalar(ctx, "n")  # no generators in a scalar expression
    with pytest.raises(KeyError):
        parse_scalar(ScalarContext([]), "omega")
    with pytest.raises(GrammarError):
        parse_scalar(ctx, "2 omega")
    with pytest.raises(ValueError):
        parse_scalar(ctx, "1 (x) 1")

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qe2.scalars import (
    GaussRational,
    GAUSS_I,
    GAUSS_ONE,
    Parameter,
    PoleAtPoint,
    ScalarContext,
    DegenerateScalar,
    UnboundParameter,
)


CTX = ScalarContext(
    [Parameter("omega", "negated"), Parameter("k"), Parameter("q")]
)
W = CTX.param("omega")
K = CTX.param("k")
Q = CTX.param("q")


def test_gauss_norm():
    assert GaussRational(1, 1) * GaussRational(1, -1) == GaussRational(2)
    assert GAUSS_I * GAUSS_I == GaussRational(-1)
    assert GaussRational(3, 4) / GaussRational(3, 4) == GAUSS_ONE


def test_div_identity():
    assert W / W == CTX.one
    assert (W * K + W) / W == K + 1


def test_div_nontrivial_gcd():
    assert (W * W - CTX.one) / (W - 1) == W + 1
    a = (W + 1) * (K + 2)
    b = (W + 1) * (K - 1)
    assert a / b == (K + 2) / (K - 1)


def test_division_by_zero():
    with pytest.raises(DegenerateScalar):
        CTX.one / CTX.zero


def test_conjugation():
    assert CTX.i.conjugate() == -CTX.i
    assert (CTX.one + CTX.i).conjugate() == CTX.one - CTX.i
    assert W.conjugate() == -W           # omega declared negated
    assert K.conjugate() == K
    assert K.conjugate().conjugate() == K
    assert (W * W).conjugate() == W * W  # even power survives negation


def test_eval():
    s = W * (CTX.one)
    assert s.evaluate({"omega": GAUSS_I}) == GAUSS_I
    t = CTX.one + K / W
    assert t.evaluate({"omega": GaussRational(1), "k": GaussRational(-2)}) == GaussRational(-1)
    with pytest.raises(PoleAtPoint):
        (K / (W + 1)).evaluate({"omega": GaussRational(-1), "k": GaussRational(1)})
    with pytest.raises(UnboundParameter):
        (W + K).evaluate({"omega": GaussRational(1)})


def test_eval_is_hom():
    pt = {"omega": GaussRational(2, 1), "k": GaussRational(-1, 3)}
    a = W * K + 2
    b = K * K - W + CTX.i
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


def _rand_scalar(rnd):
    terms = rnd.integers(1, 4)
    out = CTX.zero
    for _ in range(terms):
        c = CTX.from_gauss(GaussRational(rnd.integers(-3, 4), rnd.integers(-2, 3)))
        m = c
        for p in (W, K, Q):
            m = m * p ** rnd.integers(0, 3)
        out = out + m
    return out


class _R:
    def __init__(self, seed):
        import random

        self._r = random.Random(seed)

    def integers(self, lo, hi):
        return self._r.randrange(lo, hi)


@pytest.mark.parametrize("seed", range(12))
def test_field_axioms_random(seed):
    rnd = _R(seed)
    a, b, c = (_rand_scalar(rnd) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if b:
        assert (a / b) * b == a
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@pytest.mark.parametrize("seed", range(8))
def test_cancellation_random(seed):
    rnd = _R(seed + 100)
    a, b, c = (_rand_scalar(rnd) for _ in range(3))
    if not b or not c:
        return
    assert (a * c) / (b * c) == a / b


gauss = st.builds(
    GaussRational,
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
)


@given(gauss, gauss, gauss)
@settings(max_examples=150, deadline=None)
def test_gauss_field(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a.conjugate().conjugate() == a
    if b:
        assert (a / b) * b == a


def test_canonical_text():
    assert (K + 1).text() == "k + 1"
    assert ((K + 1) / W).text() == "(k + 1)*omega^-1"
    assert CTX.zero.text() == "0"
    assert (-W).text() == "-omega"
    # stable and re-normalization independent
    s = (W * K + W) / W
    t = K + CTX.one
    assert s.text() == t.text() == "k + 1"


def test_pow():
    assert W ** 3 == W * W * W
    assert W ** -2 == CTX.one / (W * W)
    assert W ** 0 == CTX.one


# -- differential tests of the integer-triple core ---------------------------

from fractions import Fraction  # noqa: E402
from operator import add, mul, truediv  # noqa: E402

from qe2.scalars import Scalar, _pmul  # noqa: E402

fracs = st.fractions(min_value=-30, max_value=30, max_denominator=12)
gauss_q = st.builds(GaussRational, fracs, fracs)


def _ref_text(re, im):
    """Reference spelling of re + im*i from two Fractions."""
    if im == 0:
        return str(re)
    imt = "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
    if re == 0:
        return imt
    return f"{re}{'' if imt.startswith('-') else '+'}{imt}"


def _check_against(g, re, im):
    assert (g.re, g.im) == (re, im)
    assert g.d > 0 and gcd(g.a, g.b, g.d) == 1
    assert hash(g) == hash((Fraction(re), Fraction(im)))
    assert g.text() == _ref_text(re, im)


@given(gauss_q, gauss_q)
@settings(max_examples=200, deadline=None)
def test_gauss_matches_fraction_pairs(x, y):
    (xr, xi), (yr, yi) = (x.re, x.im), (y.re, y.im)
    _check_against(x, xr, xi)
    _check_against(x + y, xr + yr, xi + yi)
    _check_against(x - y, xr - yr, xi - yi)
    _check_against(x * y, xr * yr - xi * yi, xr * yi + xi * yr)
    _check_against(-x, -xr, -xi)
    _check_against(x.conjugate(), xr, -xi)
    n2 = yr * yr + yi * yi
    if n2:
        _check_against(x / y, (xr * yr + xi * yi) / n2, (xi * yr - xr * yi) / n2)
    else:
        with pytest.raises(DegenerateScalar):
            x / y
    for n in (-1, 0, 1, 2):
        assert (x == n) == (xr == n and xi == 0)
    assert (x == y) == ((xr, xi) == (yr, yi))


def test_gauss_constructor_inputs():
    assert GaussRational(Fraction(6, 4), Fraction(-1, 6)) == GaussRational(
        Fraction(3, 2), Fraction(-1, 6)
    )
    g = GaussRational(Fraction(3, 2), Fraction(-1, 6))
    assert (g.a, g.b, g.d) == (9, -1, 6)
    assert GaussRational(True) == GAUSS_ONE
    assert repr(g) == "GaussRational(3/2, -1/6)"
    with pytest.raises(AttributeError):
        g.a = 1


def _monomial(c, num_exp, den_exp):
    m = CTX.from_gauss(c)
    for p, x in zip((W, K, Q), num_exp):
        m = m * p**x
    for p, x in zip((W, K, Q), den_exp):
        m = m / p**x
    return m


exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)
nonzero_gauss = gauss_q.filter(bool)
monomials = st.builds(_monomial, nonzero_gauss, exps, exps)


@given(monomials, monomials)
@settings(max_examples=100, deadline=None)
def test_monomial_mul_fast_path_matches_general(x, y):
    assert len(x.num) == len(x.den) == len(y.num) == len(y.den) == 1
    fast = x * y
    slow = Scalar(CTX, _pmul(x.num, y.num), _pmul(x.den, y.den))
    assert fast.num == slow.num and fast.den == slow.den


# -- differential against sympy's cancel over QQ_I ----------------------------

_DENS = (CTX.one, W, W + 1, K - W, (W + 1) * K)


def _small_scalar(terms, den):
    out = CTX.zero
    for re, im, ew, ek in terms:
        out = out + CTX.from_gauss(GaussRational(re, im)) * W**ew * K**ek
    return out / _DENS[den]


small_scalars = st.builds(
    _small_scalar,
    st.lists(
        st.tuples(
            st.integers(-3, 3), st.integers(-2, 2), st.integers(0, 2), st.integers(0, 1)
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, len(_DENS) - 1),
)


@given(small_scalars, small_scalars, st.sampled_from([add, mul, truediv]))
@settings(max_examples=40, deadline=None)
def test_scalar_ops_match_sympy_cancel(x, y, op):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("omega k q")

    def expr(p):
        return sum(
            (sympy.Rational(c.a, c.d) + sympy.I * sympy.Rational(c.b, c.d))
            * sympy.Mul(*(s**e for s, e in zip(syms, exp)))
            for exp, c in p.items()
        )

    def qqi(e):
        return sympy.Poly(e, *syms, domain=sympy.QQ_I)

    if op is truediv and not y:
        return
    got = op(x, y)
    want = op(expr(x.num) / expr(x.den), expr(y.num) / expr(y.den))
    want_num, want_den = sympy.fraction(sympy.cancel(want, extension=True))
    num, den = qqi(expr(got.num)), qqi(expr(got.den))
    assert (num * qqi(want_den) - qqi(want_num) * den).is_zero
    # canonical form: numerator and denominator share no factor
    assert num.gcd(den).is_ground


# -- cofactor-gcd field operations against the full-gcd constructor ----------

from operator import sub  # noqa: E402

from qe2.scalars import _padd, _pgcd, _pdivexact, _pneg, _ugcd  # noqa: E402

CTX1 = ScalarContext([Parameter("omega", "negated")])


def _den_menu(ctx):
    """Canonical denominators: the unit, monomials, powers of 1+omega, k - q,
    monomials times a general factor, and (1+i)*omega - 2, whose Z[i]
    content and leading unit need normalising."""
    w = ctx.param("omega")
    dens = [ctx.one, w, w + 1, (w + 1) ** 2, ctx.from_gauss(GaussRational(1, 1)) * w - 2]
    if ctx.nvars == 1:
        dens += [w**2, (w + 1) ** 3, w**2 * (w + 1)]
    else:
        k, q = ctx.param("k"), ctx.param("q")
        dens += [k * w, k - q, k * (k - q), q * (w + 1)]
    return [d.num for d in dens]


_MENUS = {1: _den_menu(CTX1), 3: _den_menu(CTX)}
coeff_parts = st.sampled_from([-3, -2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])
# The reference's multivariate primitive PRS can take seconds to minutes on
# moderate inputs (a product of two of these fractions with degree-6 and
# three-parameter parts took 6 s), so the three-parameter operands are kept
# smaller: lower degrees in omega and smaller numerators.
_POLY_TERMS = {
    nvars: st.lists(
        st.tuples(st.tuples(*[st.integers(0, top)] * 3), coeff_parts, coeff_parts),
        max_size=size,
    )
    for nvars, top, size in ((1, 2, 3), (3, 1, 2))
}


def _poly(ctx, terms):
    p = {}
    for exp, re, im in terms:
        e = exp[: ctx.nvars]
        c = p.get(e, GaussRational(0)) + GaussRational(re, im)
        if c:
            p[e] = c
        else:
            p.pop(e, None)
    return p


def _operands(ctx):
    menu = _MENUS[ctx.nvars]
    return st.builds(
        lambda terms, j: Scalar(ctx, _poly(ctx, terms), menu[j]),
        _POLY_TERMS[ctx.nvars],
        st.integers(0, len(menu) - 1),
    )


def _unreduced(op, x, y):
    """num and den of x op y before any cancellation."""
    if op is mul:
        return _pmul(x.num, y.num), _pmul(x.den, y.den)
    if op is truediv:
        return _pmul(x.num, y.den), _pmul(x.den, y.num)
    right = _pmul(y.num, x.den)
    if op is sub:
        right = _pneg(right)
    return _padd(_pmul(x.num, y.den), right), _pmul(x.den, y.den)


def _assert_same(got, want):
    assert (got.num, got.den) == (want.num, want.den), (got, want)


@pytest.mark.parametrize("ctx", [CTX1, CTX], ids=["omega", "omega-k-q"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_field_ops_match_full_reduce(ctx, data):
    x, y, z = (data.draw(_operands(ctx)) for _ in range(3))

    def check(op, a, b):
        got = op(a, b)
        _assert_same(got, Scalar(ctx, *_unreduced(op, a, b)))
        return got

    for op in (add, sub, mul, truediv):
        if op is not truediv or y:
            check(op, x, y)
    # partners of x that make the result z: the sum cancels to 0 when z is
    # 0, to the unit denominator when z is a polynomial, and a/b + c/b has
    # gcd(a + c, b) != 1 when z's denominator is a proper divisor of x's
    _assert_same(check(add, x, Scalar(ctx, *_unreduced(sub, z, x))), z)
    _assert_same(check(sub, x, Scalar(ctx, *_unreduced(sub, x, z))), z)
    if x:
        _assert_same(check(mul, x, Scalar(ctx, *_unreduced(truediv, z, x))), z)
        if z:
            _assert_same(check(truediv, x, Scalar(ctx, *_unreduced(truediv, x, z))), z)
    _assert_same(x.conjugate(), Scalar(ctx, x._conj_poly(x.num), x._conj_poly(x.den)))
    n = ctx.from_int(3)
    _assert_same(3 - x, Scalar(ctx, *_unreduced(sub, n, x)))
    _assert_same(x + 3, Scalar(ctx, *_unreduced(add, x, n)))
    if x:
        _assert_same(3 / x, Scalar(ctx, *_unreduced(truediv, n, x)))


def _frac(n, d):
    """n/d for polynomial scalars n and d, reduced by the constructor."""
    return Scalar(CTX, n.num, d.num)


_ONE = CTX.one
NAMED_CASES = [
    # a/b + c/b with gcd(a + c, b) = 1 + omega
    (_frac(_ONE, (W + 1) ** 2), add, _frac(W, (W + 1) ** 2), _frac(_ONE, W + 1)),
    # cancels to 0, and to the unit denominator
    (_frac(W, (W + 1) ** 2), sub, _frac(W, (W + 1) ** 2), CTX.zero),
    (_frac(W + 2, W + 1), add, _frac(-_ONE, W + 1), _ONE),
    # Henrici with g = 1 + omega and g2 = 1, then with g2 = g
    (_frac(_ONE, K * (W + 1)), sub, _frac(_ONE, Q * (W + 1)),
     _frac(Q - K, K * Q * (W + 1))),
    (_frac(_ONE, W * (W + 1)), add, _frac(-2 * _ONE, W * W - 1),
     _frac(-_ONE, W * (W - 1))),
    # both cofactor gcds of a product nontrivial, and of a quotient
    (_frac(K - Q, W * (W + 1)), mul, _frac(W * W, K - Q), _frac(W, W + 1)),
    (_frac(W + 1, K - Q), truediv, _frac((W + 1) ** 2, K - Q), _frac(_ONE, W + 1)),
]


@pytest.mark.parametrize("x, op, y, want", NAMED_CASES)
def test_field_ops_named_cancellations(x, op, y, want):
    got = op(x, y)
    _assert_same(got, Scalar(CTX, *_unreduced(op, x, y)))
    _assert_same(got, want)


def test_rtruediv_unsupported_operand():
    assert CTX.one.__rtruediv__(1.5) is NotImplemented
    with pytest.raises(TypeError):
        1.5 / CTX.one
    with pytest.raises(TypeError):
        1.5 - CTX.one


# -- univariate Euclid against the primitive PRS and sympy --------------------

dense_coeffs = st.lists(st.tuples(coeff_parts, coeff_parts), max_size=4)


def _upoly(ctx, v, coeffs):
    """The polynomial sum c_j * x_v^j of a coefficient list."""
    p = {}
    for j, (re, im) in enumerate(coeffs):
        c = GaussRational(re, im)
        if c:
            e = [0] * ctx.nvars
            e[v] = j
            p[tuple(e)] = c
    return p


def _same_up_to_unit(f, g):
    if not f or not g:
        return not f and not g
    u = _pdivexact(f, g)
    return u is not None and len(u) == 1 and not any(next(iter(u)))


@pytest.mark.parametrize("ctx, v", [(CTX1, 0), (CTX, 1)], ids=["omega", "k"])
@given(h=dense_coeffs, a=dense_coeffs, b=dense_coeffs)
@settings(max_examples=120, deadline=None)
def test_ugcd_matches_pgcd(ctx, v, h, a, b):
    h, a, b = (_upoly(ctx, v, c) for c in (h, a, b))
    f, g = _pmul(h, a), _pmul(h, b)  # planted common factor h
    got = _ugcd(f, g, v)
    assert _same_up_to_unit(got, _pgcd(f, g))
    if got:
        assert got[max(got)] == GAUSS_ONE  # monic
        assert _pdivexact(f, got) is not None and _pdivexact(g, got) is not None
        if h:
            assert _pdivexact(got, h) is not None
    else:
        assert not f and not g


def test_ugcd_edge_cases():
    one = {(0,): GAUSS_ONE}
    w1 = {(1,): GAUSS_ONE, (0,): GAUSS_ONE}  # omega + 1
    assert _ugcd({}, {}, 0) == {}
    assert _ugcd({}, _pmul(w1, {(0,): GaussRational(3)}), 0) == w1
    assert _ugcd({(0,): GaussRational(5)}, w1, 0) == one
    assert _ugcd(w1, {(1,): GAUSS_ONE, (0,): GaussRational(-1)}, 0) == one  # coprime
    assert _ugcd(_pmul(w1, w1), _pmul(w1, {(1,): GAUSS_I}), 0) == w1


@given(h=dense_coeffs, a=dense_coeffs, b=dense_coeffs)
@settings(max_examples=40, deadline=None)
def test_ugcd_matches_sympy(h, a, b):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("omega")
    f, g = (_pmul(_upoly(CTX1, 0, h), _upoly(CTX1, 0, c)) for c in (a, b))

    def poly(p):
        expr = sum(
            (sympy.Rational(c.a, c.d) + sympy.I * sympy.Rational(c.b, c.d)) * x ** e[0]
            for e, c in p.items()
        )
        return sympy.Poly(expr, x, domain=sympy.QQ_I)

    got, want = poly(_ugcd(f, g, 0)), poly(f).gcd(poly(g))
    if want.is_zero:
        assert got.is_zero
    else:
        assert (got - want.monic()).is_zero


# -- the unit --------------------------------------------------------------


@pytest.mark.parametrize("ctx", [ScalarContext([]), CTX])
def test_unit_is_the_contexts_one(ctx):
    assert ctx.from_int(1) is ctx.one
    assert ctx.from_gauss(GaussRational(1)) is ctx.one
    assert ctx.from_gauss(GaussRational(Fraction(2, 2), 0)) is ctx.one
    assert ctx.from_int(-1) is not ctx.one and not ctx.from_int(-1).is_one()
    assert ctx.one * ctx.one is ctx.one


@given(small_scalars)
@settings(max_examples=60, deadline=None)
def test_mul_by_unit_returns_the_operand(x):
    one = CTX.one
    assert x * one is x
    assert one * x is x
    # a Scalar equal to 1 that is another object takes the general path and
    # gives an equal result: identity only skips work
    other_one = Scalar(CTX, {(0, 0, 0): GAUSS_ONE}, {(0, 0, 0): GAUSS_ONE})
    assert other_one is not one and other_one == one
    assert x * other_one == x and other_one * x == x
    # the unit of an equal but distinct context is not taken for this one's
    twin = ScalarContext(CTX.parameters)
    assert twin == CTX and twin.one is not one
    assert x * twin.one == x

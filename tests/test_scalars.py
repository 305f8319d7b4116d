from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from qe2.scalars import (
    QI,
    GaussRational,
    Parameter,
    PoleAtPoint,
    Scalar,
    ScalarContext,
    ScalarError,
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
    assert QI.i * QI.i == GaussRational(-1)
    assert GaussRational(3, 4) / GaussRational(3, 4) == QI.one


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
    assert s.evaluate({"omega": QI.i}) == QI.i
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

from qe2.scalars import _ctext, _pack, _pmul, _triple, _unpack  # noqa: E402
from scalar_reference import full_reduce  # noqa: E402


class FQ:
    """Reference Q(i): a pair of Fractions with the textbook operations,
    sharing no code with the kernel's triple helpers."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return FQ(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return FQ(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return FQ(-self.re, -self.im)

    def __mul__(self, o):
        return FQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return FQ((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, o):
        return (self.re, self.im) == (o.re, o.im)

    def __repr__(self):
        return f"FQ({self.re}, {self.im})"

    @property
    def triple(self):
        """(a, b, d) with value (a + b*i)/d over the lcm d of the two
        reduced denominators, which makes gcd(a, b, d) 1."""
        d = lcm(self.re.denominator, self.im.denominator)
        return int(self.re * d), int(self.im * d), d


def _const(c, ctx=QI):
    """The constant Scalar of ctx with the value of the FQ c."""
    return ctx._const(c.triple)


def _triples(p):
    """An {exponent tuple: FQ} polynomial in the kernel's form: packed
    exponent keys and canonical int triples (a, b, d), zero coefficients
    dropped."""
    return {_pack(e): c.triple for e, c in p.items() if c}


fracs = st.fractions(min_value=-30, max_value=30, max_denominator=12)
gauss_q = st.builds(FQ, fracs, fracs)


def _ref_text(re, im):
    """Reference spelling of re + im*i from two Fractions."""
    if im == 0:
        return str(re)
    imt = "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
    if re == 0:
        return imt
    return f"{re}{'' if imt.startswith('-') else '+'}{imt}"


def _check_against(g, re, im):
    """g is a constant of QI with the value re + im*i, in canonical form."""
    a, b, d = _triple(g)
    assert g.ctx is QI and (Fraction(a, d), Fraction(b, d)) == (re, im)
    assert d > 0 and gcd(a, b, d) == 1
    assert _ctext((a, b, d)) == _ref_text(re, im)


@given(gauss_q, gauss_q)
@settings(max_examples=200, deadline=None)
def test_gauss_matches_fraction_pairs(x, y):
    (xr, xi), (yr, yi) = (x.re, x.im), (y.re, y.im)
    x, y = _const(x), _const(y)
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
    # GaussRational builds the constant Scalar of QI from two ints
    g = GaussRational(3, -1)
    assert g.ctx is QI and (g.num, g.den) == ({0: (3, -1, 1)}, {0: (1, 0, 1)})
    assert GaussRational(True) is QI.one and GaussRational() is QI.zero
    assert GaussRational(0, 1) == QI.i and g.text() == "(3-i)"
    assert CTX.from_gauss(g) == g and CTX.from_gauss(g).ctx is CTX
    assert (W * g).evaluate({"omega": 2}) == GaussRational(6, -2)
    with pytest.raises(TypeError):
        GaussRational(Fraction(3, 2))
    with pytest.raises(ScalarError):
        CTX.from_gauss(W)


def _monomial(c, num_exp, den_exp):
    m = _const(c, CTX)
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
    slow = full_reduce(CTX, _pmul(x.num, y.num), _pmul(x.den, y.den))
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
            (sympy.Rational(a, d) + sympy.I * sympy.Rational(b, d))
            * sympy.Mul(*(s**e for s, e in zip(syms, _unpack(key, 3))))
            for key, (a, b, d) in p.items()
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

from qe2.scalars import _padd, _pdivexact, _pneg  # noqa: E402
from scalar_reference import _pgcd  # noqa: E402

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
# Numerator terms: exponents up to the given degree per parameter (the one
# parameter of CTX1 reads the first), at most size terms.
_POLY_TERMS = {
    nvars: st.lists(
        st.tuples(st.tuples(*(st.integers(0, t) for t in tops)), coeff_parts, coeff_parts),
        max_size=size,
    )
    for nvars, tops, size in ((1, (2, 2, 2), 3), (3, (6, 2, 2), 3))
}


def _poly(ctx, terms):
    p = {}
    for exp, re, im in terms:
        e = exp[: ctx.nvars]
        c = p.get(e, FQ()) + FQ(re, im)
        if c:
            p[e] = c
        else:
            p.pop(e, None)
    return _triples(p)


def _operands(ctx):
    menu = _MENUS[ctx.nvars]
    return st.builds(
        lambda terms, j: full_reduce(ctx, _poly(ctx, terms), menu[j]),
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
        _assert_same(got, full_reduce(ctx, *_unreduced(op, a, b)))
        return got

    for op in (add, sub, mul, truediv):
        if op is not truediv or y:
            check(op, x, y)
    # partners of x that make the result z: the sum cancels to 0 when z is
    # 0, to the unit denominator when z is a polynomial, and a/b + c/b has
    # gcd(a + c, b) != 1 when z's denominator is a proper divisor of x's
    _assert_same(check(add, x, full_reduce(ctx, *_unreduced(sub, z, x))), z)
    _assert_same(check(sub, x, full_reduce(ctx, *_unreduced(sub, x, z))), z)
    if x:
        _assert_same(check(mul, x, full_reduce(ctx, *_unreduced(truediv, z, x))), z)
        if z:
            _assert_same(check(truediv, x, full_reduce(ctx, *_unreduced(truediv, x, z))), z)
    _assert_same(x.conjugate(), full_reduce(ctx, x._conj_poly(x.num), x._conj_poly(x.den)))
    n = ctx.from_int(3)
    _assert_same(3 - x, full_reduce(ctx, *_unreduced(sub, n, x)))
    _assert_same(x + 3, full_reduce(ctx, *_unreduced(add, x, n)))
    if x:
        _assert_same(3 / x, full_reduce(ctx, *_unreduced(truediv, n, x)))


def _frac(n, d):
    """n/d for polynomial scalars n and d, reduced by the constructor."""
    return full_reduce(CTX, n.num, d.num)


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
    _assert_same(got, full_reduce(CTX, *_unreduced(op, x, y)))
    _assert_same(got, want)


_G = CTX.from_gauss(GaussRational(2, 1))  # the non-unit constant 2+i
POLY_TIMES_FRACTION = [
    # x over a non-constant canonical denominator, y a polynomial, and
    # whether a gcd of y with x's denominator cancels
    pytest.param(_frac(W + 3, W + 1), W + 2, False, id="1+omega-coprime"),
    pytest.param(_frac(W + 3, W + 1), (W + 1) * (W - K), True, id="1+omega-divides"),
    pytest.param(_frac(W + 3, (W + 1) ** 2), 3 * K * (W + 1), True, id="1+omega-partly"),
    pytest.param(_frac(K + 2, Q), K + 1, False, id="q-coprime"),
    pytest.param(_frac(K + 2, Q), Q * K + Q, True, id="q-divides"),
    pytest.param(_frac(W + 3, W + 1) / _G, _G, False, id="2+i-constant"),
    pytest.param(_frac(W + 3, W + 1) / _G, _G * W + _G, True, id="2+i-content"),
    pytest.param(_frac(W + 3, W + 1), (W + 2) / _G, False, id="over-2+i"),
]


@pytest.mark.parametrize("x, y, cancels", POLY_TIMES_FRACTION)
def test_polynomial_times_fraction_matches_full_reduce(x, y, cancels):
    assert y.is_polynomial() and not x.is_polynomial()
    want = full_reduce(CTX, _pmul(x.num, y.num), _pmul(x.den, y.den))
    for got in (x * y, y * x):
        _assert_same(got, want)
        # when nothing cancels, the product keeps x's canonical denominator
        assert (got.den is x.den) == (not cancels)
    _assert_same(x / _G, full_reduce(CTX, x.num, _pmul(x.den, _G.num)))


def test_rtruediv_unsupported_operand():
    assert CTX.one.__rtruediv__(1.5) is NotImplemented
    with pytest.raises(TypeError):
        1.5 / CTX.one
    with pytest.raises(TypeError):
        1.5 - CTX.one


# -- gcds in one parameter against the primitive PRS and sympy ----------------

from qe2 import modgcd, scalars  # noqa: E402
from qe2.scalars import _gcd, _is_constant  # noqa: E402

dense_coeffs = st.lists(st.tuples(coeff_parts, coeff_parts), max_size=4)


def _upoly(ctx, v, coeffs):
    """The polynomial sum c_j * x_v^j of a coefficient list."""
    p = {}
    for j, (re, im) in enumerate(coeffs):
        c = FQ(re, im)
        if c:
            e = [0] * ctx.nvars
            e[v] = j
            p[tuple(e)] = c
    return _triples(p)


def _same_up_to_unit(f, g):
    if not f or not g:
        return not f and not g
    u = _pdivexact(f, g)
    return u is not None and len(u) == 1 and 0 in u


def _sym(p, nvars=3):
    """The sympy expression of a polynomial in omega, k, q (the first nvars
    of them)."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("omega k q")[:nvars]
    return sum(
        (sympy.Rational(a, d) + sympy.I * sympy.Rational(b, d))
        * sympy.Mul(*(s**e for s, e in zip(syms, _unpack(key, nvars))))
        for key, (a, b, d) in p.items()
    )


def _qqi(p, nvars=3):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(_sym(p, nvars), *sympy.symbols("omega k q")[:nvars], domain=sympy.QQ_I)


def _check_gcd(ctx, f, g, want=None):
    """_gcd(f, g) returns exact cofactors of a gcd, which is equal up to a
    constant to want (by default sympy's gcd over QQ_I)."""
    got, qf, qg = _gcd(f, g, ctx)
    assert _pmul(got, qf) == f and _pmul(got, qg) == g
    if _is_constant(got):
        assert got is ctx._den_one and qf is f and qg is g
    if want is None:
        w = _qqi(f, ctx.nvars).gcd(_qqi(g, ctx.nvars))
        assert (_qqi(got, ctx.nvars).monic() - w.monic()).is_zero, (f, g, got)
    else:
        assert _same_up_to_unit(got, want), (f, g, got, want)
    return got


def _spy(monkeypatch, module, name, seen, budget=2000):
    """Record the prime p, the fourth argument, of every call to a function;
    fail past budget calls, where a wrong image would make the gcd retry
    without end."""
    f = getattr(module, name)

    def spy(*args):
        seen.append(args[3])
        assert len(seen) <= budget, f"{name} called {budget} times"
        return f(*args)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("ctx, v", [(CTX1, 0), (CTX, 1)], ids=["omega", "k"])
@given(h=dense_coeffs, a=dense_coeffs, b=dense_coeffs)
@settings(max_examples=120, deadline=None)
def test_ugcd_matches_pgcd(ctx, v, h, a, b):
    # _gcd of a pair in the one parameter v, with a planted common factor h
    h, a, b = (_upoly(ctx, v, c) for c in (h, a, b))
    f, g = _pmul(h, a), _pmul(h, b)
    if f and g:
        got = _check_gcd(ctx, f, g, want=_pgcd(f, g))
        assert _pdivexact(got, h) is not None


def test_ugcd_edge_cases():
    one = _triples({(0,): FQ(1)})
    w1 = _triples({(1,): FQ(1), (0,): FQ(1)})  # omega + 1
    _check_gcd(CTX1, _triples({(0,): FQ(5)}), w1, want=one)
    _check_gcd(CTX1, w1, _triples({(1,): FQ(1), (0,): FQ(-1)}), want=one)  # coprime
    _check_gcd(CTX1, _pmul(w1, w1), _pmul(w1, _triples({(1,): FQ(0, 1)})), want=w1)


@given(h=dense_coeffs, a=dense_coeffs, b=dense_coeffs)
@settings(max_examples=40, deadline=None)
def test_ugcd_matches_sympy(h, a, b):
    f, g = (_pmul(_upoly(CTX1, 0, h), _upoly(CTX1, 0, c)) for c in (a, b))
    if f and g:
        _check_gcd(CTX1, f, g)


@pytest.mark.parametrize("ctx", [CTX1, CTX], ids=["omega", "omega-k-q"])
def test_a_linear_operand_settles_the_gcd_without_brown(monkeypatch, ctx):
    w = ctx.param("omega")
    if ctx.nvars == 1:
        h, b = (1 + ctx.i) * w - 2, w**2 - 3 * w + ctx.i
        # mod 5, omega + 6 is omega + 1, which divides a
        a, lin = (w + 1) ** 2, w + 6
    else:
        k, q = ctx.param("k"), ctx.param("q")
        h, b = w + k - 2 * q, w * k + q**2 + 1
        # mod 5, omega + 5*k + 1 is omega + 1, which divides a
        a, lin = (w + 1) * (k + q), w + 5 * k + 1
    # 5 as the certificate's first prime: no pair below is proved coprime
    monkeypatch.setattr(scalars, "_PRIMES", ((5, 2),) + scalars._PRIMES[1:])
    certified, brown = [], []
    coprime = scalars._coprime
    monkeypatch.setattr(
        scalars, "_coprime", lambda *args: certified.append(coprime(*args)) or certified[-1]
    )
    _spy(monkeypatch, modgcd, "_mgcd", brown)
    c = 2 * ctx.i - 1
    for f, g in [(h, h * b), (c * h, h * b), (h * b, c * h)]:
        got = _check_gcd(ctx, f.num, g.num, want=h.num)
        assert got is f.num or got is g.num  # the linear operand itself
    f, g = a.num, lin.num
    got, qf, qg = _gcd(f, g, ctx)
    assert got is ctx._den_one and qf is f and qg is g
    assert certified == [False] * 4 and brown == []


def test_a_quadratic_common_factor_in_one_parameter_takes_brown(monkeypatch):
    w = CTX1.param("omega")
    h = w**2 + CTX1.i * w + 3
    brown = []
    _spy(monkeypatch, modgcd, "_mgcd", brown)
    got = _check_gcd(CTX1, (h * (w + 2)).num, (h * (w**2 - CTX1.i)).num)
    assert _same_up_to_unit(got, h.num) and brown


# -- the modular gcd against sympy and the primitive PRS ----------------------


# Factors up to degree 3 in omega (and 1 in k and q), so that the operands,
# products of two, reach degree 6.
_GCD_TERMS = {
    nvars: st.lists(
        st.tuples(st.tuples(*(st.integers(0, t) for t in tops)), coeff_parts, coeff_parts),
        min_size=1,
        max_size=size,
    )
    for nvars, tops, size in ((1, (3,), 4), (3, (3, 1, 1), 3))
}


@pytest.mark.parametrize("ctx", [CTX1, CTX], ids=["omega", "omega-k-q"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_gcd_matches_sympy(ctx, data):
    h, a, b = (_poly(ctx, data.draw(_GCD_TERMS[ctx.nvars])) for _ in range(3))
    if ctx.nvars == 3:
        # a cofactor that vanishes where k = q (+ 1): were k and q evaluated
        # at the same points, every image gcd would be too large
        b = _pmul(b, data.draw(st.sampled_from([CTX.one, K - Q, K - Q - 1])).num)
    f, g = _pmul(h, a), _pmul(h, b)  # planted common factor h
    if not (f and g):
        return
    got = _check_gcd(ctx, f, g)
    if h:
        assert _pdivexact(got, h) is not None
    # the primitive PRS takes seconds past small inputs
    if ctx.nvars == 1 or max(_unpack(max(f), 3)[0], _unpack(max(g), 3)[0]) <= 2:
        assert _same_up_to_unit(got, _pgcd(f, g))


def test_prime_table_holds_primes_1_mod_4_with_square_roots_of_minus_1():
    for p, r in scalars._PRIMES:
        assert p % 4 == 1 and all(p % d for d in range(3, 2**15 + 1, 2))
        assert r * r % p == p - 1


def test_gcd_passes_over_a_prime_that_divides_a_leading_coefficient(monkeypatch):
    # 13 divides the lex-leading coefficient of both operands and a
    # denominator of g: the certificate and Brown's algorithm both pass it over
    monkeypatch.setattr(scalars, "_PRIMES", ((13, 5),) + scalars._PRIMES)
    certified, brown = [], []
    _spy(monkeypatch, scalars, "_uimage", certified)
    _spy(monkeypatch, modgcd, "_mgcd", brown)
    h = W * K + 1
    f, g = ((13 * W**2 + K) * h).num, ((13 * W + Q / 13) * h).num
    _check_gcd(CTX, f, g, want=h.num)
    assert certified[0] == 13 and brown and 13 not in brown


def test_certificate_passes_over_a_prime_that_drops_a_degree(monkeypatch):
    # mod 5 the common factor 5*omega + 1 is the constant 1 and the images
    # omega + 2 and omega + 3 are coprime, but their omega-degree fell
    monkeypatch.setattr(scalars, "_PRIMES", ((5, 2),) + scalars._PRIMES)
    h = 5 * W + 1
    _check_gcd(CTX, (h * (W + 2)).num, (h * (W + 3)).num, want=h.num)


_P1 = scalars._PRIMES[0][0]


@pytest.mark.parametrize(
    "patches, pairs",
    [
        # mod 5, omega*k + 6 is omega*k + 1
        ([(scalars, "_PRIMES", ((5, 2),) + scalars._PRIMES[1:])], [(W * K + 6, W * K + 1)]),
        # at k = 1 and q = 2, omega + k, omega*q + 2 and omega + k*q - 1 are
        # all omega + 1 up to a constant, which divides (omega + 1)**2; the
        # certificate takes k and q there, and so do Brown's first points at
        # the first prime, n - j at the level with n parameters
        (
            [(scalars, "_POINTS", (1, 1, 2, 1)), (modgcd, "_STEP", _P1 - 1)],
            [(W + K, W * Q + 2), (W + K * Q - 1, (W + 1) ** 2)],
        ),
    ],
    ids=["prime", "point"],
)
def test_gcd_survives_images_with_a_common_factor_the_operands_lack(
    monkeypatch, patches, pairs
):
    # the certificate sees a common factor, so the gcd goes on to a linear
    # operand or to Brown's algorithm, whose candidate from the unlucky
    # images fails the trial division
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    divisions = []
    divexact = modgcd._pdivexact
    monkeypatch.setattr(
        modgcd, "_pdivexact", lambda f, g: divisions.append(divexact(f, g)) or divisions[-1]
    )
    h = W + Q
    for f, g in pairs:
        _check_gcd(CTX, f.num, g.num, want=CTX._den_one)
        _check_gcd(CTX, (f * h).num, (g * h).num, want=h.num)
    assert None in divisions


def test_gcd_combines_primes_past_the_table_and_drops_an_unlucky_one(monkeypatch):
    # h needs more primes than the table holds; mod 10009, put second, the
    # cofactors omega*k + 10010 and omega*k + 1 agree, so that image has a
    # larger leading key than the first prime's and is dropped
    primes = scalars._PRIMES
    monkeypatch.setattr(scalars, "_PRIMES", primes[:1] + ((10009, 3303),) + primes[1:])
    tried = []
    _spy(monkeypatch, modgcd, "_mgcd", tried)
    big = CTX.from_int(10**40 + 7)
    h = big * W * K + CTX.from_gauss(GaussRational(3, 10**35)) * Q + 1
    _check_gcd(CTX, (h * (W * K + 10010)).num, (h * (W * K + 1)).num, want=h.num)
    assert 10009 in tried and len(set(tried)) > len(scalars._PRIMES)


def test_brown_drops_an_unlucky_point_after_a_lucky_one(monkeypatch):
    # with the points q = 3, 4, 5, ... (j + 2 at the level of omega and q),
    # the images at q = 4 share the factor omega + 4 that the cofactors
    # lack, after q = 3 gave the true degree
    monkeypatch.setattr(modgcd, "_STEP", 1)
    _spy(monkeypatch, modgcd, "_mgcd", [])
    h = W * Q + 3
    _check_gcd(CTX, (h * (W + Q)).num, (h * (W + 4)).num, want=h.num)


def test_brown_evaluates_each_level_at_its_own_points(monkeypatch):
    # g has the factor k - q; with the same points for k and q it vanished
    # at every point, each prime gave the candidate omega^2 (omega + 1), and
    # the trial division refused it at every prime below 2**30
    c = 3 - 3 * CTX.i
    f = (2 * c * W**2 * Q**2 * (W + 1)).num
    g = (c * W**2 * K * (K - Q) * (W * K**2 + Q**2)).num
    primes, gen = [], modgcd._primes

    def spy():
        for pr in gen():
            primes.append(pr)
            assert len(primes) <= 3, "brown took more than 3 primes"
            yield pr

    monkeypatch.setattr(modgcd, "_primes", spy)
    got, qf, qg = modgcd.brown(f, g, [64, 32, 0])
    assert _same_up_to_unit(got, (W**2).num) and primes
    assert _pmul(got, qf) == f and _pmul(got, qg) == g


def test_the_slow_inputs_of_the_primitive_prs_match_sympy_cancel():
    sympy = pytest.importorskip("sympy")

    def c(re, im, d=1):
        return CTX.from_gauss(GaussRational(re, im)) / d

    def same(got, want):
        num, den = sympy.fraction(sympy.cancel(want, extension=True))
        assert sympy.expand(_sym(got.num) * den - num * _sym(got.den)) == 0
        # (over QQ<I>: sympy's QQ_I gcd takes seconds on these two)
        assert sympy.gcd(_sym(got.num), _sym(got.den), extension=True).is_number

    x = -c(1, -13, 17) * W**5 - c(1, 4, 17) * W**4 * K - c(14, 5, 17)
    y = (c(1, 1) * W**6 * K * Q - c(3, 1) * W**5 - c(1, 3) * Q) / (
        c(2, 3) * W * K - c(3, -3) * K * Q
    )
    same(x / y, _sym(x.num) * _sym(y.den) / _sym(y.num))
    # the full reduce of the unreduced x + y
    x = (-c(2, 0, 3) * W * Q + c(1, 4, 2) * Q) / (W + 1) ** 3
    y = (c(1, 2, 2) * K * Q + c(0, 1, 2) * K) / (W**3 + W**2)
    s = full_reduce(CTX, *_unreduced(add, x, y))
    _assert_same(s, x + y)
    same(s, _sym(x.num) / _sym(x.den) + _sym(y.num) / _sym(y.den))


# -- the unit --------------------------------------------------------------


def test_a_scalar_is_built_only_canonical():
    # no public constructor takes an unreduced fraction
    with pytest.raises(TypeError):
        Scalar(CTX, (W * W - 1).num, (W - 1).num)


@pytest.mark.parametrize("ctx", [ScalarContext([]), CTX])
def test_unit_is_the_contexts_one(ctx):
    assert ctx.from_int(1) is ctx.one
    assert ctx.from_gauss(GaussRational(1)) is ctx.one
    assert ctx.from_gauss(GaussRational(2) / 2) is ctx.one
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
    other_one = full_reduce(
        CTX, _triples({(0, 0, 0): FQ(1)}), _triples({(0, 0, 0): FQ(1)})
    )
    assert other_one is not one and other_one == one
    assert x * other_one == x and other_one * x == x
    # the unit of an equal but distinct context is not taken for this one's
    twin = ScalarContext(CTX.parameters)
    assert twin == CTX and twin.one is not one
    assert x * twin.one == x


# -- the triple kernel against Fraction-pair arithmetic -----------------------

from qe2.scalars import _canon, _pscale  # noqa: E402

GAUSS_ZERO = FQ()

_UNITS = (FQ(1), FQ(0, 1), FQ(-1), FQ(0, -1))


def _is_canonical(p):
    """Every coefficient of p is a canonical, nonzero int triple."""
    return all(
        type(c) is tuple
        and len(c) == 3
        and all(type(x) is int for x in c)
        and c[2] > 0
        and gcd(*c) == 1
        and (c[0] or c[1])
        for c in p.values()
    )


def _gauss_coeff(c):
    a, b, d = c
    return FQ(Fraction(a, d), Fraction(b, d))


def _gauss_poly(p, nvars=2):
    """The {exponent tuple: FQ} polynomial of a kernel polynomial
    in nvars parameters."""
    return {_unpack(e, nvars): _gauss_coeff(c) for e, c in p.items()}


def _ref_add(p, q):
    r = dict(p)
    for e, c in q.items():
        r[e] = r.get(e, GAUSS_ZERO) + c
    return {e: c for e, c in r.items() if c}


def _ref_mul(p, q):
    r = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            r[e] = r.get(e, GAUSS_ZERO) + c1 * c2
    return {e: c for e, c in r.items() if c}


def _ref_divexact(f, g):
    """Long division by the lex-leading term; None when g does not divide f."""
    gl = max(g)
    q, r = {}, dict(f)
    while r:
        rl = max(r)
        diff = tuple(x - y for x, y in zip(rl, gl))
        if min(diff) < 0:
            return None
        c = r[rl] / g[gl]
        q[diff] = c
        r = _ref_add(r, {tuple(x + y for x, y in zip(e, diff)): -cc * c for e, cc in g.items()})
    return q


def _ref_ugcd(f, g, v):
    """Monic gcd in the variable v by Euclid on dense FQ lists."""

    def dense(p):
        out = [GAUSS_ZERO] * (max((e[v] for e in p), default=-1) + 1)
        for e, c in p.items():
            out[e[v]] = c
        return out

    a, b = dense(f), dense(g)
    while b:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for j, c in enumerate(b):
                a[shift + j] = a[shift + j] - q * c
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    if not a:
        return {}
    e0 = (0,) * len(next(iter(f or g)))
    return {e0[:v] + (j,) + e0[v + 1 :]: c / a[-1] for j, c in enumerate(a) if c}


def _ref_canon(num, den):
    """The constant-factor normalisation of the module docs, on FQs:
    a monomial den gets coefficient 1; otherwise den is made integral with
    coprime rational parts, divided by its Z[i] gcd and rotated by the unit
    that puts its lex-leading coefficient in the quadrant re > 0, im >= 0."""
    if len(den) == 1:
        ((e, c),) = den.items()
        return {k: v / c for k, v in num.items()}, {e: FQ(1)}
    cs = [x for c in den.values() for x in (c.re, c.im)]
    m = lcm(*(x.denominator for x in cs))
    r = FQ(Fraction(m, gcd(*(int(x * m) for x in cs))))
    z = GAUSS_ZERO
    for c in den.values():
        x, y = z, c * r
        while y:
            qq = x / y
            x, y = y, x - FQ(round(qq.re), round(qq.im)) * y
        z = x
    lead = den[max(den)] * r / z
    u = next(u for u in _UNITS if (lead * u).re > 0 and (lead * u).im >= 0)
    s = r / z * u
    return {e: c * s for e, c in num.items()}, {e: c * s for e, c in den.items()}


# Two parameters, exponents up to 2: terms of a product often share a key.
CTX2 = ScalarContext([Parameter("omega", "negated"), Parameter("k")])
_tri_exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
_tri_coeffs = st.one_of(
    st.sampled_from([1, -1, 2, Fraction(1, 2)]).flatmap(
        lambda x: st.sampled_from([FQ(x), FQ(0, x)])
    ),
    nonzero_gauss,
).map(lambda g: g.triple)
_tri_polys = st.dictionaries(_tri_exps.map(_pack), _tri_coeffs, max_size=4)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_triple_kernel_matches_gauss_arithmetic(data):
    p, q, h = (data.draw(_tri_polys) for _ in range(3))
    # q also takes some of p's terms negated, so p + q cancels there
    for e, (a, b, d) in p.items():
        if data.draw(st.booleans()):
            q[e] = (-a, -b, d)
    c = data.draw(_tri_coeffs)
    G = _gauss_poly
    pq = _padd(p, q)
    pmq = _padd(p, _pneg(q))
    cases = [
        (pq, _ref_add(G(p), G(q))),
        (_pmul(p, q), _ref_mul(G(p), G(q))),
        # (p + q)(p - q): the cross terms cancel
        (_pmul(pq, pmq), _ref_mul(_ref_add(G(p), G(q)), _ref_add(G(p), G(_pneg(q))))),
        (_pmul(p, {_pack((1, 0)): c}), _ref_mul(G(p), {(1, 0): _gauss_coeff(c)})),
        (_pmul({_pack((0, 0)): c}, p), _ref_mul({(0, 0): _gauss_coeff(c)}, G(p))),
        (_pscale(p, c), {e: x * _gauss_coeff(c) for e, x in G(p).items()}),
    ]
    if h:
        got = _pdivexact(q, h)
        want = _ref_divexact(G(q), G(h))
        assert (got is None) == (want is None)
        if got is not None:
            cases.append((got, want))
        cases.append((_pdivexact(_pmul(p, h), h), G(p)))
    for got, want in cases:
        assert _is_canonical(got)
        assert G(got) == want
    # _gcd of the parts of p, q and h in the second parameter alone
    f, g, k = ({e: x for e, x in s.items() if _unpack(e, 2)[0] == 0} for s in (p, q, h))
    f, g = _pmul(f, k), _pmul(g, k)
    if f and g:
        got, qf, qg = _gcd(f, g, CTX2)
        assert _is_canonical(got) and _pmul(got, qf) == f and _pmul(got, qg) == g
        lead = _gauss_coeff(got[max(got)])
        assert {e: x / lead for e, x in G(got).items()} == _ref_ugcd(G(f), G(g), 1)
    if p and h:
        num, den = _canon(p, h)
        assert _is_canonical(num) and _is_canonical(den)
        assert (G(num), G(den)) == _ref_canon(G(p), G(h))


# -- equality, hashes and text of constructed and computed scalars ------------


@pytest.mark.parametrize("ctx", [CTX1, CTX], ids=["omega", "omega-k-q"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_equal_scalars_share_hash_and_text(ctx, data):
    x, y = (data.draw(_operands(ctx)) for _ in range(2))
    computed = [x.conjugate(), -x, 3 - x]
    for op in (add, sub, mul, truediv):
        if op is not truediv or y:
            got = op(x, y)
            computed.append(got)
            full = full_reduce(ctx, *_unreduced(op, x, y))
            assert got == full
            assert hash(got) == hash(full) and got.text() == full.text()
    # x rebuilt by the field operations equals the constructed x
    back = (x + y) - y
    assert back == x and hash(back) == hash(x) and back.text() == x.text()
    for s in computed + [back]:
        assert _is_canonical(s.num) and _is_canonical(s.den)


# -- the printers against Fraction-based references ---------------------------

from qe2.scalars import _poly_text  # noqa: E402

wide_fracs = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def _ref_poly_text(p, names):
    """The text of p, read through exponent tuples."""
    p = {_unpack(e, len(names)): c for e, c in p.items()}
    terms = []
    for e in sorted(p, reverse=True):
        a, b, d = p[e]
        re, im = Fraction(a, d), Fraction(b, d)
        neg = re < 0 or (re == 0 and im < 0)
        if neg:
            re, im = -re, -im
        ct = _ref_text(re, im)
        factors = [f"{names[j]}^{x}" if x > 1 else names[j] for j, x in enumerate(e) if x]
        if re and im:
            ct = f"({ct})"
        if factors and (re, im) == (1, 0):
            body = "*".join(factors)
        else:
            body = "*".join([ct] + factors)
        terms.append(f"{'-' if neg else '+'} {body}")
    out = " ".join(terms)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


@given(st.builds(FQ, wide_fracs, wide_fracs), _tri_polys.filter(bool))
@settings(max_examples=200, deadline=None)
def test_text_matches_fraction_reference(g, p):
    assert _ctext(g.triple) == _ref_text(g.re, g.im)
    assert _poly_text(p, ("omega", "k")) == _ref_poly_text(p, ("omega", "k"))


# -- packed exponent keys against exponent tuples ------------------------------

from qe2.scalars import _eadd, _emin, _esub, _field  # noqa: E402
from scalar_reference import _with_field  # noqa: E402

_BOUND = 2**31
# exponents near 0, around half the bound and just below the bound, so sums
# and differences cross the bound and zero in single fields
_exponents = st.one_of(
    st.integers(0, 3),
    st.integers(_BOUND // 2 - 2, _BOUND // 2 + 1),
    st.integers(_BOUND - 3, _BOUND - 1),
)


@pytest.mark.parametrize("ctx", [CTX1, CTX], ids=["omega", "omega-k-q"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_packed_keys_match_exponent_tuples(ctx, data):
    n = ctx.nvars
    x, y = (data.draw(st.tuples(*[_exponents] * n)) for _ in range(2))
    a, b = _pack(x), _pack(y)
    assert _unpack(a, n) == x
    assert (a < b) == (x < y) and (a == b) == (x == y)
    total = tuple(map(add, x, y))
    if max(total) < _BOUND:
        assert _unpack(_eadd(a, b), n) == total
    else:
        with pytest.raises(ScalarError):
            _eadd(a, b)
    diff = tuple(map(sub, x, y))
    got = _esub(a, b)
    if min(diff) < 0:
        assert got is None
    else:
        assert _unpack(got, n) == diff
    assert _unpack(_emin(a, b, ctx._guard), n) == tuple(map(min, x, y))
    j = data.draw(st.integers(0, n - 1))
    v = data.draw(_exponents)
    s = ctx._shifts[j]
    assert _field(a, s) == x[j]
    assert _unpack(_with_field(a, s, v), n) == x[:j] + (v,) + x[j + 1 :]


def test_pack_rejects_exponents_outside_the_field():
    for exps in [(_BOUND,), (0, -1), (1, _BOUND, 0)]:
        with pytest.raises(ScalarError):
            _pack(exps)


def test_guard_bits_cover_64_parameters():
    params = [Parameter(f"p{j}") for j in range(65)]
    with pytest.raises(ValueError):
        ScalarContext(params)
    ctx = ScalarContext(params[:64])
    tops = []
    for name in ("p0", "p63"):
        top = ctx.param(name)
        for _ in range(30):
            top = top * top
        tops.append(top)  # p^(2^30)
        # an overflow in the highest or the lowest field raises
        with pytest.raises(ScalarError):
            top * top
    x = tops[0] * tops[1]
    assert _unpack(next(iter(x.num)), 64) == (2**30,) + (0,) * 62 + (2**30,)


@pytest.mark.parametrize(
    "ctx, name", [(CTX1, "omega"), (CTX, "omega"), (CTX, "q")], ids=["omega", "omega-of-3", "q-of-3"]
)
def test_exponent_overflow_raises_and_the_bound_is_exact(ctx, name):
    p = ctx.param(name)
    powers = [p]  # powers[k] = p^(2^k)
    for _ in range(30):
        powers.append(powers[-1] * powers[-1])
    below = powers[30]
    for pk in powers[:30]:
        below = below * pk  # p^(2^31 - 1), the largest exponent
    # the neighbouring fields keep their exponents
    for other in ctx.names:
        x = below * ctx.param(other) if other != name else below
        (key,) = x.num
        want = tuple(
            _BOUND - 1 if m == name else int(m == other) for m in ctx.names
        )
        assert _unpack(key, ctx.nvars) == want
    assert below.text() == f"{name}^{_BOUND - 1}"
    assert (below + 1).text() == f"{name}^{_BOUND - 1} + 1"
    assert (1 / below).text() == f"1*{name}^-{_BOUND - 1}"
    assert (below / p).text() == f"{name}^{_BOUND - 2}"
    assert below / below == ctx.one
    # squaring p 31 times, and every other product past the bound, raises;
    # no exponent carries into the next parameter's field
    for make in [
        lambda: powers[30] * powers[30],
        lambda: below * p,
        lambda: (1 / below) * (1 / p),
        lambda: below * (p + 1),
        lambda: (below + 1) * (p + 1),
    ]:
        with pytest.raises(ScalarError):
            make()


def test_exact_division_rejects_quotients_past_the_bound():
    # x^3 / (x + y^(2^30)) runs into y^(2^31) before the division fails
    x3 = {_pack((3, 0)): (1, 0, 1)}
    g = {_pack((1, 0)): (1, 0, 1), _pack((0, 2**30)): (1, 0, 1)}
    assert _pdivexact(x3, g) is None


# -- powers by repeated squaring ------------------------------------------------


def _multiplied_out(x, n, one):
    base = x if n >= 0 else one / x
    out = one
    for _ in range(abs(n)):
        out = out * base
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 13, -1, -4, -7])
def test_squared_powers_equal_multiplied_out_ones(n):
    for x in (W, W * K / 3, (W + 1) / (K - Q), W + K * Q + GaussRational(2, 1) / 3):
        assert x ** n == _multiplied_out(x, n, CTX.one)
    for g in (GaussRational(2), GaussRational(2, 1) / 3, GaussRational(0, -1)):
        assert g ** n == _multiplied_out(g, n, QI.one)


def test_evaluation_raises_each_value_to_its_power():
    g, h = GaussRational(1, 1), GaussRational(-2, 3) / 5
    x = (W ** 13 * K ** 3 + W) / (Q ** 5 + 1)
    want = (g ** 13 * h ** 3 + g) / (GaussRational(3) ** 5 + 1)
    assert x.evaluate({"omega": g, "k": h, "q": GaussRational(3)}) == want
    # a large exponent costs O(log n) products
    assert (W ** 1000000).evaluate({"omega": QI.i}) == QI.one

"""Exact coefficient arithmetic for the verification engine.

A :class:`Scalar` is a rational function in a declared tuple of formal
parameters (``omega``, ``k``, ``q``, ...) with Gaussian-rational
coefficients.  Everything is exact.  A Scalar holds two sparse polynomials,
``num`` and ``den``, each a dict {exponent key -> coefficient}, and every
coefficient is a canonical triple of Python ints ``(a, b, d)`` standing for
``(a + b*i)/d``, with ``d > 0`` and ``gcd(a, b, d) == 1``.  No zero
coefficient is ever stored, and fractions of polynomials are kept in a
canonical reduced form, so equality of scalars is plain structural equality.

An exponent key is one non-negative int that packs a monomial's exponent
vector (Johnson, SIGSAM Bull. 8(3), 1974; Monagan and Pearce, CASC 2007).
With n parameters, the exponent of parameter j sits in field n-1-j, 32
bits wide, so the first declared parameter is the most significant field
and int order is the lex order of exponent tuples; the monomial 1 is the
key 0.  A context has at most 64 parameters.  An exponent stays below
2**31: the top bit of each field is a guard, so a product of monomials that
reaches the bound raises a :class:`ScalarError` and a monomial quotient that
would go negative is detected, and neither ever carries into the next
field.  ``_pack`` and ``_unpack`` convert between a key and its exponent
tuple.

The kernel works on the triples themselves: the ``_c*`` helpers do Q(i)
arithmetic on one triple and the ``_p*`` helpers on polynomials, and each
result coefficient takes at most one gcd, only when its denominator is not 1
(the canonical-fraction discipline of Knuth, TAOCP vol. 2, 4.5.1, on bare
integers).  :class:`GaussRational` wraps one triple and is only the value
type at the API boundary: parser literals, ``from_gauss``, the values and
points of ``evaluate``, ``--at`` points and the Poisson point matrices.  Its
operators call the same triple helpers, so Q(i) arithmetic is written once.

Canonical form of a fraction num/den:

* num is the zero polynomial iff the scalar is zero (then den is 1);
* num and den have no common polynomial factor;
* a monomial denominator carries coefficient 1 (the coefficient is folded
  into the numerator); otherwise den has Gaussian-integer coefficients
  with unit content and its lex-leading coefficient lies in the half-open
  quadrant ``re > 0, im >= 0``.  This realizes "leading coefficient of the
  denominator has positive real part, ties broken by positive imaginary
  part" with a unique representative among the four unit rotations.

Every Scalar is built in this module and is canonical, so the field
operations keep the form without a gcd of their whole result (Henrici,
JACM 3, 1956; Knuth, TAOCP vol. 2, 4.5.1).  A product of reduced fractions
only cancels the gcds of numerator and opposite denominator, a sum only the
gcd of the denominators and then that of the new numerator with it, and
conjugation is a ring automorphism, so it needs no gcd.  These cofactor gcds
are exponent minima when a side is a monomial, a dense Euclid in one
parameter, and otherwise the multivariate primitive PRS.  What is left is
fixing the constant factor (``_canon``).  A product of a polynomial c with
a/b skips even that when gcd(c, b) is constant: (a*c)/b keeps the other
factor's canonical b as it stands.
``_reduce``, the full gcd of an arbitrary num/den, is only the constructor
path ``Scalar(ctx, num, den)``.

The unit.  Each context has one Scalar ``ctx.one`` that stands for 1:
``from_gauss`` and ``from_int`` return it for 1, the engine stores every
cached structure coefficient equal to 1 (rewrite rules, monomial products,
the tensor and bracket tables) as it, and ``x * ctx.one`` returns ``x``
itself.  Other Scalars may still equal 1, so identity is only a hint that
lets a loop skip a multiplication: ``c is ctx.one`` implies ``c == 1``, never
the converse, and no result depends on it.

Each parameter carries a conjugation rule: ``fixed`` parameters are real
under the star (k, q), ``negated`` ones purely imaginary (omega).  The
rule is declared, never inferred; the nonstandard presets declare omega
negated because that is the unique choice making the star an
antihomomorphism on the quantum commutation relations.
"""

from __future__ import annotations

from math import gcd as _igcd, lcm as _ilcm
from typing import Iterable, Mapping

from .record import FrozenRecord, setfield


def __getattr__(name):
    # ``_Q``, the rational type of GaussRational.re and .im, read by
    # benchmark tooling; ``fractions`` (with ``decimal`` and ``numbers``) is
    # imported only where a Fraction is made, not on the import path
    if name == "_Q":
        from fractions import Fraction

        return Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ScalarError(ArithmeticError):
    pass


class DegenerateScalar(ScalarError):
    """Division by the zero scalar."""


class UnboundParameter(ScalarError):
    """A parameter occurring in the scalar has no assigned value."""


class PoleAtPoint(ScalarError):
    """The denominator vanishes at the evaluation point."""


# ---------------------------------------------------------------------------
# Q(i) on canonical triples (a, b, d) = (a + b*i)/d, d > 0, gcd(a, b, d) == 1.
# Zero is (0, 0, 1); a triple is zero iff a == b == 0.
# ---------------------------------------------------------------------------

_ZERO = (0, 0, 1)
_ONE = (1, 0, 1)
_I = (0, 1, 1)
_NEG_ONE = (-1, 0, 1)
_NEG_I = (0, -1, 1)


def _cnorm(a, b, d):
    """The canonical triple of (a + b*i)/d for ints with d > 0."""
    if d != 1:
        g = _igcd(a, b, d)
        if g != 1:
            return a // g, b // g, d // g
    return a, b, d


def _cadd(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        if d1 == 1:
            return a1 + a2, b1 + b2, 1
        return _cnorm(a1 + a2, b1 + b2, d1)
    return _cnorm(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _csub(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        return _cnorm(a1 - a2, b1 - b2, d1)
    return _cnorm(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)


def _cmul(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    d = d1 * d2
    if d == 1:
        return a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 1
    return _cnorm(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d)


def _cdiv(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    n2 = a2 * a2 + b2 * b2
    if n2 == 0:
        raise DegenerateScalar("division by zero in Q(i)")
    # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / (a2^2 + b2^2)
    return _cnorm((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, d1 * n2)


def _cinv(x):
    return _cdiv(_ONE, x)


def _cpow(x, n):
    """x**n for n >= 0, by repeated squaring."""
    out = _ONE
    while n:
        if n & 1:
            out = _cmul(out, x)
        n >>= 1
        if n:
            x = _cmul(x, x)
    return out


def _qtext(n, d):
    """``str(Fraction(n, d))`` for ints with d > 0."""
    g = _igcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _ctext(c):
    """Readable form of a triple: ``2``, ``i``, ``-3/2*i``, ``1+2*i``."""
    a, b, d = c
    if b == 0:
        return _qtext(a, d)
    imt = "i" if b == d else "-i" if b == -d else f"{_qtext(b, d)}*i"
    if a == 0:
        return imt
    return f"{_qtext(a, d)}{'' if b < 0 else '+'}{imt}"


class GaussRational:
    """An element of Q(i): one canonical triple ``(a, b, d)`` with value
    ``(a + b*i)/d``.  The form is unique, so equality is equality of the
    triples."""

    __slots__ = ("triple",)

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            t = (re, im, 1)
        else:
            from fractions import Fraction

            # two reduced fractions over their lcm already have gcd(a, b, d) 1
            re, im = Fraction(re), Fraction(im)
            rd, md = re.denominator, im.denominator
            d = rd * md // _igcd(rd, md)
            t = (re.numerator * (d // rd), im.numerator * (d // md), d)
        _set_triple(self, t)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("GaussRational is immutable")

    a = property(lambda self: self.triple[0])
    b = property(lambda self: self.triple[1])
    d = property(lambda self: self.triple[2])

    @property
    def re(self):
        from fractions import Fraction

        return Fraction(self.triple[0], self.triple[2])

    @property
    def im(self):
        from fractions import Fraction

        return Fraction(self.triple[1], self.triple[2])

    def __bool__(self):
        a, b, _ = self.triple
        return a != 0 or b != 0

    def is_one(self):
        return self.triple == _ONE

    def __add__(self, other):
        return _gauss(_cadd(self.triple, _as_gauss(other).triple))

    __radd__ = __add__

    def __sub__(self, other):
        return _gauss(_csub(self.triple, _as_gauss(other).triple))

    def __rsub__(self, other):
        return _gauss(_csub(_as_gauss(other).triple, self.triple))

    def __neg__(self):
        a, b, d = self.triple
        return _gauss((-a, -b, d))

    def __mul__(self, other):
        return _gauss(_cmul(self.triple, _as_gauss(other).triple))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _gauss(_cdiv(self.triple, _as_gauss(other).triple))

    def __rtruediv__(self, other):
        return _gauss(_cdiv(_as_gauss(other).triple, self.triple))

    def inverse(self):
        return _gauss(_cinv(self.triple))

    def conjugate(self):
        a, b, d = self.triple
        return _gauss((a, -b, d))

    def __pow__(self, n: int):
        base = self if n >= 0 else self.inverse()
        return _gauss(_cpow(base.triple, abs(n)))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.triple == (other, 0, 1)
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.triple == other.triple

    def __hash__(self):
        # equal to hash((re, im)), as for the Fraction pairs it replaced
        a, b, d = self.triple
        if d == 1:
            return hash((a, b))
        from fractions import Fraction

        return hash((Fraction(a, d), Fraction(b, d)))

    def __repr__(self):
        return f"GaussRational({self.re!s}, {self.im!s})"

    def __str__(self):
        return self.text()

    def text(self):
        """Readable form: ``2``, ``i``, ``-3/2*i``, ``1+2*i``."""
        return _ctext(self.triple)


_set_triple = GaussRational.triple.__set__
_new = object.__new__


def _gauss(t) -> GaussRational:
    """The GaussRational of a canonical triple."""
    g = _new(GaussRational)
    _set_triple(g, t)
    return g


def _as_gauss(x) -> GaussRational:
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, int):
        return GaussRational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussRational")


GAUSS_ONE = _gauss(_ONE)
GAUSS_I = _gauss(_I)


# ---------------------------------------------------------------------------
# Exponent keys (the layout is in the module docs).  A helper that reads or
# replaces one parameter's exponent names its field by the bit offset ``s``
# of the field, so it needs no parameter count.  _GUARD holds the guard bit
# of every field a context may have; a key's guard bits are always clear.
# ---------------------------------------------------------------------------

_EBITS = 32
_EMASK = (1 << _EBITS) - 1  # one field
_EBOUND = 1 << (_EBITS - 1)  # exponents stay below it; the field's guard bit
_MAX_PARAMS = 64
_GUARD = sum(_EBOUND << (_EBITS * j) for j in range(_MAX_PARAMS))


def _overflow():
    raise ScalarError(f"a parameter's exponent reached the bound {_EBOUND}")


def _pack(exps) -> int:
    """The key of an exponent tuple, first entry in the most significant
    field."""
    e = 0
    for x in exps:
        if not 0 <= x < _EBOUND:
            raise ScalarError(f"exponent {x} outside [0, {_EBOUND})")
        e = (e << _EBITS) | x
    return e


def _unpack(e, nvars) -> tuple:
    """The exponent tuple of a key with nvars fields."""
    return tuple(
        (e >> (_EBITS * (nvars - 1 - j))) & _EMASK for j in range(nvars)
    )


def _eadd(a, b):
    """The key of the product of two monomials; ScalarError when an
    exponent reaches the bound."""
    e = a + b
    if e & _GUARD:
        _overflow()
    return e


def _esub(a, b):
    """The key of a/b for monomials, or None when b does not divide a.

    A field that goes negative borrows from its own guard bit (the top
    field makes the difference negative), so no borrow crosses a field
    unseen."""
    d = a - b
    return None if d < 0 or d & _GUARD else d


def _emin(a, b, guard):
    """The key of gcd(a, b) for monomials: the fieldwise minimum.  guard
    holds the guard bits of every field of a and b."""
    t = ((a | guard) - b) & guard  # field j keeps its guard iff a_j >= b_j
    pick_b = t - (t >> (_EBITS - 1))  # the exponent bits of those fields
    return a ^ ((a ^ b) & pick_b)


def _emins(keys, guard):
    """The fieldwise minimum of a nonempty iterable of keys."""
    it = iter(keys)
    m = next(it)
    for e in it:
        if not m:
            break
        m = _emin(m, e, guard)
    return m


def _field(e, s):
    """The exponent in the field at bit offset s."""
    return (e >> s) & _EMASK


def _with_field(e, s, x):
    """e with the exponent x < 2**31 in the field at bit offset s."""
    return e + ((x - ((e >> s) & _EMASK)) << s)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials: {exponent key -> canonical triple}.
# Fractions of these make up Scalar.  Plain dicts with int keys keep the
# inner loops cheap: a product's key is one int sum, checked against the
# guard bits, and a dict lookup hashes one int.
# ---------------------------------------------------------------------------


def _padd(p, q):
    r = dict(p)
    for e, c in q.items():
        old = r.get(e)
        if old is None:
            r[e] = c
        else:
            c = _cadd(old, c)
            if c[0] or c[1]:
                r[e] = c
            else:
                del r[e]
    return r


def _pneg(p):
    return {e: (-a, -b, d) for e, (a, b, d) in p.items()}


def _pscale(p, c):
    """c*p for a nonzero triple c."""
    return {e: _cmul(cc, c) for e, cc in p.items()}


def _pmul(p, q):
    if len(q) == 1:
        p, q = q, p
    if len(p) == 1:
        # a monomial times a polynomial: no two terms land on one key
        ((e1, c1),) = p.items()
        if c1 == _ONE:
            r = {e1 + e: c for e, c in q.items()} if e1 else dict(q)
        else:
            a1, b1, d1 = c1
            r = {
                e1 + e: _cnorm(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)
                for e, (a2, b2, d2) in q.items()
            }
        if e1:
            for e in r:
                if e & _GUARD:
                    _overflow()
        return r
    # sum raw products per key, then normalise each coefficient once
    acc = {}
    for e1, (a1, b1, d1) in p.items():
        for e2, (a2, b2, d2) in q.items():
            e = e1 + e2
            a = a1 * a2 - b1 * b2
            b = a1 * b2 + b1 * a2
            d = d1 * d2
            old = acc.get(e)
            if old is None:
                acc[e] = (a, b, d)
            else:
                oa, ob, od = old
                if od == d:
                    acc[e] = (oa + a, ob + b, d)
                else:
                    acc[e] = (oa * d + a * od, ob * d + b * od, od * d)
    r = {}
    for e, (a, b, d) in acc.items():
        if e & _GUARD:
            _overflow()
        if a or b:
            r[e] = _cnorm(a, b, d)
    return r


def _pshift(p, m):
    """p / x^m for a monomial key m that divides every term of p."""
    r = {}
    for e, c in p.items():
        ne = _esub(e, m)
        if ne is None:
            raise ValueError("negative exponent in polynomial shift")
        r[ne] = c
    return r


def _plead(p):
    return max(p)  # int order = lex in the declared variable order


def _pdivexact(f, g):
    """Exact polynomial division f / g, or None when g does not divide f."""
    if not g:
        raise ZeroDivisionError
    if not f:
        return {}
    gl = _plead(g)
    ginv = _cinv(g[gl])
    q = {}
    r = dict(f)
    while r:
        rl = _plead(r)
        diff = _esub(rl, gl)
        if diff is None:
            return None
        c = _cmul(r[rl], ginv)
        q[diff] = c
        for e, cc in g.items():
            # a key past the bound means g does not divide f: the keys of an
            # exact quotient times g stay within f's degrees
            ne = e + diff
            if ne & _GUARD:
                return None
            nc = _csub(r.get(ne, _ZERO), _cmul(cc, c))
            if nc[0] or nc[1]:
                r[ne] = nc
            else:
                r.pop(ne, None)
    return q


def _pvars(p):
    """The bit offsets of the fields that are nonzero in some key of p."""
    o = 0
    for e in p:
        o |= e
    out = set()
    s = 0
    while o:
        if o & _EMASK:
            out.add(s)
        o >>= _EBITS
        s += _EBITS
    return out


def _by_var(p, s):
    """View p as univariate in the parameter of the field at bit offset s:
    {degree: coefficient polynomial}, whose keys are p's keys with that
    field set to 0."""
    coeffs = {}
    for e, c in p.items():
        coeffs.setdefault(_field(e, s), {})[_with_field(e, s, 0)] = c
    return coeffs


def _from_var(coeffs, s):
    # in bounds: the degrees and coefficient keys of a gcd's views are those
    # of its in-bound inputs or smaller
    p = {}
    for d, sub in coeffs.items():
        for e, c in sub.items():
            p[_with_field(e, s, d)] = c
    return p


def _uni_prem(a, b):
    """Sparse pseudo-remainder loop on {deg: coeff-poly} views.  The result
    is the remainder up to factors of lead(b) in the content, which the
    primitive PRS strips anyway."""
    db = max(b)
    lb = b[db]
    r = {d: dict(s) for d, s in a.items()}
    while r:
        dr = max(r)
        if dr < db:
            break
        lr = r.pop(dr)
        nr = {}
        for dd, sub in r.items():
            m = _pmul(sub, lb)
            if m:
                nr[dd] = m
        for dd, sub in b.items():
            if dd == db:
                continue
            m = _pmul(sub, lr)
            if not m:
                continue
            tgt = dd + dr - db
            merged = _padd(nr.get(tgt, {}), _pneg(m))
            if merged:
                nr[tgt] = merged
            else:
                nr.pop(tgt, None)
        r = nr
    return r


def _pgcd(f, g):
    """Multivariate gcd over Q(i) via a primitive PRS, unit-normalized for
    determinism (gcds are only defined up to units).  It recurses on the
    first declared parameter that occurs, the most significant field."""
    if not f:
        return _pnormal_unit(g)
    if not g:
        return _pnormal_unit(f)
    vs = _pvars(f) | _pvars(g)
    if not vs:
        return {0: _ONE}
    v = max(vs)
    fc = _by_var(f, v)
    gc = _by_var(g, v)
    cont_f = _coeff_gcd(fc.values())
    cont_g = _coeff_gcd(gc.values())
    cont = _pgcd(cont_f, cont_g)
    a = {d: _pdivexact(sub, cont_f) for d, sub in fc.items()}
    b = {d: _pdivexact(sub, cont_g) for d, sub in gc.items()}
    if max(a) < max(b):
        a, b = b, a
    while b:
        r = _uni_prem(a, b)
        if r:
            rc = _coeff_gcd(r.values())
            r = {d: _pdivexact(sub, rc) for d, sub in r.items()}
        a, b = b, r
    gg = _from_var(a, v)
    gg = _pdivexact(gg, _coeff_gcd(_by_var(gg, v).values()))
    return _pnormal_unit(_pmul(cont, gg))


def _ugcd(f, g, s):
    """Monic gcd of polynomials f and g in the single parameter of the field
    at bit offset s, by dense Euclid over Q(i)."""
    a, b = _dense(f, s), _dense(g, s)
    while b:
        inv = _cinv(b[-1])
        b = [_cmul(c, inv) for c in b]  # monic, so the remainder needs no division
        db = len(b) - 1
        while len(a) > db:
            q = a.pop()
            if q[0] or q[1]:
                shift = len(a) - db
                for j in range(db):
                    a[shift + j] = _csub(a[shift + j], _cmul(q, b[j]))
        while a and not (a[-1][0] or a[-1][1]):
            a.pop()
        a, b = b, a
    if not a:
        return {}
    inv = _cinv(a[-1])
    # in bounds: the gcd's degree is at most that of f or g
    return {j << s: _cmul(c, inv) for j, c in enumerate(a) if c[0] or c[1]}


def _dense(p, s):
    """Coefficient list of a polynomial in the parameter of the field at bit
    offset s alone (every other field 0), lowest degree first, with no
    trailing zeros."""
    if not p:
        return []
    out = [_ZERO] * ((max(p) >> s) + 1)
    for e, c in p.items():
        out[e >> s] = c
    return out


def _gcd(p, q, ctx):
    """A gcd of the nonzero polynomials p and q, up to a constant factor.

    A monomial's divisors are monomials, so with a monomial on either side
    the gcd is the fieldwise minimum over both supports.  Otherwise a pair
    in one parameter takes the dense Euclid of :func:`_ugcd`, and the rest
    the primitive PRS of :func:`_pgcd`."""
    if len(p) == 1 or len(q) == 1:
        return {_emins((*p, *q), ctx._guard): _ONE}
    vs = _pvars(p) | _pvars(q)
    if len(vs) == 1:
        return _ugcd(p, q, vs.pop())
    return _pgcd(p, q)


def _pdiv(p, g):
    """p / g for a divisor g of p."""
    if len(g) == 1:
        ((e, c),) = g.items()
        if c == _ONE:
            return _pshift(p, e)
    return _pdivexact(p, g)


def _cancel(p, q, ctx):
    """(p/g, q/g) for g a gcd of the nonzero polynomials p and q."""
    g = _gcd(p, q, ctx)
    if _is_constant(g):
        return p, q
    return _pdiv(p, g), _pdiv(q, g)


def _coeff_gcd(subs):
    g = {}
    for s in subs:
        g = _pgcd(g, s)
    return g


def _pnormal_unit(p):
    """Rotate by a unit of Z[i] so the lex-leading coefficient sits in the
    half-open quadrant re > 0, im >= 0."""
    if not p:
        return dict(p)
    u = _canonical_unit(p[_plead(p)])
    if u == _ONE:
        return dict(p)
    return _pscale(p, u)


def _canonical_unit(c):
    """The unit u of Z[i] that puts c*u in the quadrant re > 0, im >= 0."""
    a, b, _ = c
    # (re, im) of c*u, times the positive denominator, for u = 1, i, -1, -i
    for u, re, im in (
        (_ONE, a, b),
        (_I, -b, a),
        (_NEG_ONE, -a, -b),
        (_NEG_I, b, -a),
    ):
        if re > 0 and im >= 0:
            return u
    raise DegenerateScalar("zero coefficient has no canonical unit")


def _prat_content(p):
    """Positive rational r such that r*p has Gaussian-integer coefficients
    with coprime rational parts."""
    den_l = _ilcm(*(d for _, _, d in p.values()))
    num_g = 0
    for a, b, d in p.values():
        s = den_l // d
        num_g = _igcd(num_g, a * s, b * s)
    return _cnorm(den_l, 0, num_g or 1)


def _iround(p, q):
    """Nearest integer to p/q for q > 0 (half rounds up)."""
    return (2 * p + q) // (2 * q)


def _zmod(a, b):
    ax, ay = a
    bx, by = b
    n = bx * bx + by * by
    qx = _iround(ax * bx + ay * by, n)
    qy = _iround(ay * bx - ax * by, n)
    return (ax - (qx * bx - qy * by), ay - (qx * by + qy * bx))


def _zgauss_content(p):
    """Gcd over Z[i] of the (integral) coefficients of p, as a triple."""
    g = (0, 0)
    for a, b, _ in p.values():
        y = (a, b)
        while y != (0, 0):
            g, y = y, _zmod(g, y)
        if g == (1, 0):
            break
    return (g[0], g[1], 1)


# ---------------------------------------------------------------------------
# Parameters, contexts, scalars
# ---------------------------------------------------------------------------

STAR_FIXED = "fixed"
STAR_NEGATED = "negated"


class Parameter(FrozenRecord):
    """A formal parameter of the coefficient field.

    star_rule 'fixed' means p* = p; 'negated' means p* = -p.
    """

    __slots__ = _fields = ("name", "star_rule")

    def __init__(self, name: str, star_rule: str = STAR_FIXED):
        if star_rule not in (STAR_FIXED, STAR_NEGATED):
            raise ValueError(f"unknown star rule {star_rule!r}")
        setfield(self, "name", name)
        setfield(self, "star_rule", star_rule)


class ScalarContext:
    """The coefficient field Q(i)(p1, ..., pn) for a declared parameter
    tuple.  Scalars from different contexts never mix."""

    def __init__(self, parameters: Iterable[Parameter] = ()):
        self.parameters = tuple(parameters)
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        if len(names) > _MAX_PARAMS:
            raise ValueError(f"more than {_MAX_PARAMS} parameters")
        self.names = tuple(names)
        self._index = {n: j for j, n in enumerate(names)}
        self.nvars = n = len(names)
        # the bit offset of parameter j's field, and the guard bits of them all
        self._shifts = tuple(_EBITS * (n - 1 - j) for j in range(n))
        self._guard = _GUARD & ((1 << (_EBITS * n)) - 1)
        # the lowest bit of each negated parameter's field
        self._negated = sum(
            1 << s
            for s, p in zip(self._shifts, self.parameters)
            if p.star_rule == STAR_NEGATED
        )
        self._den_one = {0: _ONE}
        self.zero = _scalar(self, {}, self._den_one)
        self.one = _scalar(self, self._den_one, self._den_one)
        self.i = self.from_gauss(GAUSS_I)

    def from_gauss(self, g: GaussRational) -> "Scalar":
        if not g:
            return self.zero
        if g.is_one():
            return self.one
        return _scalar(self, {0: g.triple}, self._den_one)

    def from_int(self, n: int) -> "Scalar":
        return self.from_gauss(GaussRational(n))

    def param(self, name: str) -> "Scalar":
        j = self._index.get(name)
        if j is None:
            raise UnboundParameter(f"parameter {name!r} not declared in this context")
        return _scalar(self, {1 << self._shifts[j]: _ONE}, self._den_one)

    def has_param(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, ScalarContext) and self.parameters == other.parameters

    def __hash__(self):
        return hash(self.parameters)

    def __repr__(self):
        return f"ScalarContext({', '.join(self.names) or 'Q(i)'})"


class Scalar:
    """A canonical-form rational function over a :class:`ScalarContext`.

    ``Scalar(ctx, num, den)`` reduces an arbitrary fraction of triple
    polynomials; the field operations build their canonical results with
    :func:`_scalar` instead."""

    __slots__ = ("ctx", "num", "den", "_h")

    def __init__(self, ctx: ScalarContext, num, den):
        self.ctx = ctx
        self.num, self.den = _reduce(num, den, ctx)
        self._h = None

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.num == self.ctx._den_one and self.den == self.ctx._den_one

    def is_polynomial(self):
        return self.den == self.ctx._den_one

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ScalarError("mixing scalars from different contexts")
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        if isinstance(other, GaussRational):
            return self.ctx.from_gauss(other)
        return None

    def __add__(self, other):
        if type(other) is Scalar and other.ctx is self.ctx:
            o = other
        else:
            o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        a, b, c, d = self.num, self.den, o.num, o.den
        one_b, one_d = _is_constant(b), _is_constant(d)
        if one_b and one_d:
            # a sum over the unit denominator is already canonical
            return _scalar(ctx, _padd(a, c), ctx._den_one)
        # a/b + c = (a + c*b)/b is in lowest terms because a/b is
        if one_b:
            return _scalar(ctx, _padd(c, _pmul(a, d)), d)
        if one_d:
            return _scalar(ctx, _padd(a, _pmul(c, b)), b)
        if b == d:
            n = _padd(a, c)
            if not n:
                return ctx.zero
            g = _gcd(n, b, ctx)
            if _is_constant(g):
                return _scalar(ctx, n, b)
            return _scalar(ctx, *_canon(_pdiv(n, g), _pdiv(b, g)))
        # Henrici: with g = gcd(b, d) and t = a*(d/g) + c*(b/g), the sum is
        # (t/g2) / ((b/g)*(d/g2)) for g2 = gcd(t, g).  Distinct canonical
        # denominators mean a/b != -c/d, so t is nonzero.
        g = _gcd(b, d, ctx)
        if _is_constant(g):
            t = _padd(_pmul(a, d), _pmul(c, b))
            return _scalar(ctx, *_canon(t, _pmul(b, d)))
        bg, dg = _pdiv(b, g), _pdiv(d, g)
        t = _padd(_pmul(a, dg), _pmul(c, bg))
        g2 = _gcd(t, g, ctx)
        if not _is_constant(g2):
            t, d = _pdiv(t, g2), _pdiv(d, g2)
        return _scalar(ctx, *_canon(t, _pmul(bg, d)))

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.ctx, _pneg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if type(other) is Scalar and other.ctx is self.ctx:
            o = other
        else:
            o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        if o is ctx.one:
            return self
        if self is ctx.one and o.ctx is ctx:
            return o
        sn, sd, on, od = self.num, self.den, o.num, o.den
        if not sn or not on:
            return ctx.zero
        if len(sn) == 1 and len(on) == 1 and len(sd) == 1 and len(od) == 1:
            # monomial times monomial: a canonical monomial denominator has
            # coefficient 1, so stripping the common monomial is all of _reduce
            ((e1, c1),) = sn.items()
            ((e2, c2),) = on.items()
            (f1,) = sd
            (f2,) = od
            e = _eadd(e1, e2)
            if not (f1 or f2):
                den = ctx._den_one
            else:
                f = _eadd(f1, f2)
                m = _emin(e, f, ctx._guard)
                if m:
                    # m is at most e and f in every field: no borrow
                    e -= m
                    f -= m
                den = {f: _ONE} if f else ctx._den_one
            return _scalar(ctx, {e: _cmul(c1, c2)}, den)
        one_sd, one_od = _is_constant(sd), _is_constant(od)
        if one_sd and one_od:
            return _scalar(ctx, _pmul(sn, on), ctx._den_one)
        if one_sd or one_od:
            # a polynomial c times a/b: cancel gcd(c, b), and when nothing
            # cancels, (a*c)/b keeps the canonical b as it stands
            if one_od:
                b = sd
                on, den = _cancel(on, b, ctx)
            else:
                b = od
                sn, den = _cancel(sn, b, ctx)
            if den is b:
                return _scalar(ctx, _pmul(sn, on), b)
            return _scalar(ctx, *_canon(_pmul(sn, on), den))
        return _mul_reduced(ctx, sn, sd, on, od)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise DegenerateScalar("division by zero scalar")
        if not self.num:
            return self.ctx.zero
        # a/b / (c/d) = a/b * d/c, and d/c is in lowest terms too
        return _mul_reduced(self.ctx, self.num, self.den, o.den, o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def inverse(self):
        return self.ctx.one / self

    def __pow__(self, n: int):
        """By repeated squaring: O(log |n|) products."""
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = self.ctx.one
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def conjugate(self):
        """i -> -i on coefficients; each parameter mapped per its star rule."""
        if not self.num:
            return self
        # a ring automorphism keeps num and den coprime
        return _scalar(
            self.ctx, *_canon(self._conj_poly(self.num), self._conj_poly(self.den))
        )

    def _conj_poly(self, p):
        neg = self.ctx._negated
        out = {}
        for e, (a, b, d) in p.items():
            # an odd total degree in the negated parameters flips the sign;
            # its parity is that of the number of odd negated exponents
            out[e] = (-a, b, d) if (e & neg).bit_count() & 1 else (a, -b, d)
        return out

    def evaluate(self, assignment: Mapping[str, GaussRational]) -> GaussRational:
        """Evaluate at a point {parameter name: GaussRational}.

        Raises UnboundParameter for a parameter occurring in the scalar
        without a value, PoleAtPoint when the denominator vanishes.
        """
        ctx = self.ctx
        vals = {}  # {field bit offset: value triple}
        free = 0  # the fields of the parameters without a value
        for name, s in zip(ctx.names, ctx._shifts):
            if name in assignment:
                v = assignment[name]
                vals[s] = (v if isinstance(v, GaussRational) else GaussRational(v)).triple
            else:
                free |= _EMASK << s
        for p in (self.num, self.den):
            for e in p:
                if e & free:
                    for name, s, x in zip(ctx.names, ctx._shifts, _unpack(e, ctx.nvars)):
                        if x and s not in vals:
                            raise UnboundParameter(f"parameter {name!r} has no value")
        den = _peval(self.den, vals)
        if not (den[0] or den[1]):
            raise PoleAtPoint("denominator vanishes at the point")
        return _gauss(_cdiv(_peval(self.num, vals), den))

    def __eq__(self, other):
        if isinstance(other, (int, GaussRational)):
            other = self._coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._h is None:
            self._h = hash(
                (frozenset(self.num.items()), frozenset(self.den.items()))
            )
        return self._h

    def __repr__(self):
        return f"Scalar({self.text()})"

    def __str__(self):
        return self.text()

    def lead_is_negative(self):
        """True when the lex-leading numerator coefficient points into the
        lower/left half plane; used to extract '-' when printing."""
        if not self.num:
            return False
        a, b, _ = self.num[_plead(self.num)]
        return a < 0 or (a == 0 and b < 0)

    def text(self) -> str:
        """Canonical text.  Polynomial scalars and monomial denominators
        render inside the expression grammar; other denominators use a
        (num)/(den) form that appears in reports only."""
        if not self.num:
            return "0"
        num = _poly_text(self.num, self.ctx.names)
        if self.is_polynomial():
            return num
        if len(self.den) == 1:
            names = self.ctx.names
            e = next(iter(self.den))
            inv = [f"{n}^-{x}" for n, x in zip(names, _unpack(e, len(names))) if x]
            numt = num if len(self.num) == 1 and not num.startswith("-") else f"({num})"
            return "*".join([numt] + inv)
        dent = _poly_text(self.den, self.ctx.names)
        return f"({num})/({dent})"


def _scalar(ctx, num, den) -> Scalar:
    """The Scalar num/den of a context, for num and den already canonical."""
    s = _new(Scalar)
    s.ctx = ctx
    s.num = num
    s.den = den
    s._h = None
    return s


def _is_constant(p):
    # (a canonical denominator that is constant is the unit one)
    return len(p) == 1 and 0 in p


def _mul_reduced(ctx, a, b, c, d):
    """Canonical (a/b)*(c/d) for nonzero a, c, coprime a, b and coprime c, d.

    With g1 = gcd(a, d) and g2 = gcd(c, b) the product in lowest terms is
    (a/g1 * c/g2) / (b/g2 * d/g1) (Knuth, TAOCP vol. 2, 4.5.1); a gcd with a
    constant is skipped."""
    if not _is_constant(d):
        a, d = _cancel(a, d, ctx)
    if not _is_constant(b):
        c, b = _cancel(c, b, ctx)
    return _scalar(ctx, *_canon(_pmul(a, c), _pmul(b, d)))


def _peval(p, vals):
    """The triple value of p with the parameter of the field at bit offset s
    set to the triple vals[s]; p has no other parameter."""
    total = _ZERO
    for e, c in p.items():
        for s, v in vals.items():
            k = _field(e, s)
            if k:
                c = _cmul(c, _cpow(v, k))
        total = _cadd(total, c)
    return total


def _reduce(num, den, ctx):
    """Bring num/den to the canonical form described in the module docs."""
    if not den:
        raise DegenerateScalar("zero denominator")
    if not num:
        return {}, {0: _ONE}
    # strip the common monomial factor
    m = _emins((*num, *den), ctx._guard)
    if m:
        num = _pshift(num, m)
        den = _pshift(den, m)
    if len(den) > 1:
        g = _pgcd(num, den)
        if len(g) > 1 or next(iter(g)):
            num = _pdivexact(num, g)
            den = _pdivexact(den, g)
    return _canon(num, den)


def _canon(num, den):
    """Canonical form of num/den for a nonzero num coprime to den: fix the
    constant factor of den as the module docs describe, scaling num by it."""
    if len(den) == 1:
        # monomial denominator: carry coefficient 1
        ((e, c),) = den.items()
        if c != _ONE:
            num = _pscale(num, _cinv(c))
            den = {e: _ONE}
        return num, den
    # general denominator: integral with coprime rational parts (r), then
    # Z[i]-content a unit and leading coefficient in the canonical sector
    # (t); num is scaled once, by r*t
    r = _prat_content(den)
    if r != _ONE:
        den = _pscale(den, r)
    zc = _zgauss_content(den)
    t = _ONE if zc == _ONE else _cinv(zc)
    t = _cmul(t, _canonical_unit(_cmul(den[_plead(den)], t)))
    if t != _ONE:
        den = _pscale(den, t)
    s = _cmul(r, t)
    if s != _ONE:
        num = _pscale(num, s)
    return num, den


def _poly_text(p, names) -> str:
    terms = []
    for e in sorted(p, reverse=True):
        a, b, d = p[e]
        factors = [
            f"{n}^{x}" if x > 1 else n for n, x in zip(names, _unpack(e, len(names))) if x
        ]
        neg = a < 0 or (a == 0 and b < 0)
        if neg:
            a, b = -a, -b
        if not factors:
            ct = _ctext((a, b, d))
            body = ct if (b == 0 or a == 0) else f"({ct})"
        elif (a, b, d) == _ONE:
            body = "*".join(factors)
        else:
            ct = _ctext((a, b, d))
            if b != 0 and a != 0:
                ct = f"({ct})"
            body = "*".join([ct] + factors)
        terms.append(("-" if neg else "+", body))
    sign0, body0 = terms[0]
    out = body0 if sign0 == "+" else f"-{body0}"
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out

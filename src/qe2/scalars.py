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
integers).  A product of polynomials sums its term products per key in a
raw map (``_pmac``), whose triples are not normalised, and normalises each
key once (``_praw``; Monagan and Pearce, ISSAC 2009); ``ncalg.bilinear``
keeps such a map per output term and finishes it with ``_raw_scalar``.

An exact constant of Q(i) is a Scalar of :data:`QI`, the one context
without parameters, built straight from its triple: parser literals, the
values and points of ``evaluate``, ``--at`` points and the Poisson point
matrices are all such Scalars, so Q(i) has one type.  ``from_gauss``
embeds a constant in any context, and :func:`GaussRational` builds one
from its real and imaginary parts.

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
conjugation is a ring automorphism, so it needs no gcd.  What is left is
fixing the constant factor (``_canon``).  A product of a polynomial c with
a/b skips even that when gcd(c, b) is constant: (a*c)/b keeps the other
factor's canonical b as it stands.

Every gcd goes through ``_gcd``, which also returns the two cofactors.  With
a monomial on either side the gcd is an exponent minimum.  Otherwise images
over a prime field usually prove the pair coprime (``_coprime``): with i
mapped to a square root of -1 mod a word-size prime p = 1 (mod 4), and all
parameters but one, y, at fixed points, a common factor of positive degree
in y keeps that degree in any images that keep both operands' y-degrees,
so a constant gcd of such images rules it out.  When no image proves it, an
operand of total degree 1, such as the 1 + omega of the nonstandard
presets, is irreducible: the gcd is that operand when it divides the other
exactly, and 1 otherwise.  Every other pair, in one parameter or several,
takes Brown's dense modular gcd (``modgcd.brown``), whose candidate is
accepted only when it divides both operands exactly in Q(i), so every gcd
is exact, and an unlucky prime or point only costs another.  The primes
and points come from fixed tables, so every run takes the same steps.

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

import sys
from math import gcd as _igcd, lcm as _ilcm
from operator import index
from typing import Iterable, Mapping

from .record import FrozenRecord, setfield


def __getattr__(name):
    # ``_Q``, the rational type that the scalars once stored, stays because
    # benchmark tooling stamps its runs with it as the scalar backend; no
    # coefficient is a Fraction now, so ``fractions`` (with ``decimal`` and
    # ``numbers``) is imported only when ``_Q`` is read
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


class DigitLimit(ValueError):
    """A coefficient has more decimal digits than Python converts an int to
    text (``sys.get_int_max_str_digits()``)."""


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
    try:
        return str(n // g) if g == d else f"{n // g}/{d // g}"
    except ValueError:  # only str(int) raises here, past the digit limit
        raise DigitLimit(
            f"a coefficient has more than {sys.get_int_max_str_digits()} decimal "
            "digits, the most that Python prints (sys.get_int_max_str_digits())"
        ) from None


def _ctext(c):
    """Readable form of a triple: ``2``, ``i``, ``-3/2*i``, ``1+2*i``."""
    a, b, d = c
    if b == 0:
        return _qtext(a, d)
    imt = "i" if b == d else "-i" if b == -d else f"{_qtext(b, d)}*i"
    if a == 0:
        return imt
    return f"{_qtext(a, d)}{'' if b < 0 else '+'}{imt}"


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
    return _praw(_pmac({}, p, q))


def _pmac(acc, p, q):
    """Add p*q to the raw map acc and return acc.  A raw map {key -> (a, b,
    d)} sums products per key without normalising: its triples may be zero
    or share a factor, and its keys are checked against the guard bits only
    by ``_praw``, so p and q must have valid keys."""
    for e2, (a2, b2, d2) in q.items():
        for e1, (a1, b1, d1) in p.items():
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
    return acc


def _praw(acc):
    """The polynomial of a raw map: each coefficient normalised once, zeros
    dropped; ScalarError when a key reached the exponent bound."""
    r = {}
    for e, (a, b, d) in acc.items():
        if e & _GUARD:
            _overflow()
        if a or b:
            r[e] = (a, b, 1) if d == 1 else _cnorm(a, b, d)
    return r


def _raw_scalar(ctx, acc):
    """The polynomial Scalar of a raw map, ``ctx.one`` when it is 1."""
    num = _praw(acc)
    if num == ctx._den_one:
        return ctx.one
    return _scalar(ctx, num, ctx._den_one)


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


def _zgcd(x, y):
    """A gcd in Z[i] of two (re, im) pairs."""
    while y != (0, 0):
        x, y = y, _zmod(x, y)
    return x


def _zgauss_content(p):
    """Gcd over Z[i] of the (integral) coefficients of p, as a triple."""
    g = (0, 0)
    for a, b, _ in p.values():
        g = _zgcd((a, b), g)
        if g == (1, 0):
            break
    return (g[0], g[1], 1)


# ---------------------------------------------------------------------------
# Gcds through images over F_p, for primes p = 1 (mod 4) below 2**30, where i
# maps to a square root r of -1: the prime ideal (p, i - r) of Z[i], and with
# -r its conjugate.  A dense polynomial over F_p is a list of residues from
# degree 0 with no trailing zero.  Brown's algorithm, for the pairs that
# neither the certificate nor a linear operand settles, is in
# :mod:`qe2.modgcd`, which loads only then.  The tables are fixed, so every
# run takes the same steps: (p, r) for the primes from the top (``modgcd``
# goes on below them), and the certificate's points.
# ---------------------------------------------------------------------------

_PRIMES = (
    (1073741789, 933053945),
    (1073741741, 784215820),
    (1073741717, 33787048),
    (1073741689, 867640711),
)
_POINTS = (40961, 65537, 99989, 131071)


def _udivmod(a, b, p):
    """(quotient, remainder) of dense a by nonzero dense b."""
    r, n, q = list(a), len(b) - 1, []
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    for k in range(len(r) - 1 - n, -1, -1):
        c = r.pop() * inv % p
        q.append(c)
        if c:
            for j in range(n):
                r[k + j] = (r[k + j] - c * b[j]) % p
    while r and not r[-1]:
        r.pop()
    return q[::-1], r


def _ugcdp(a, b, p):
    """The monic gcd of dense a and b, not both 0."""
    while len(b) > 1:
        if len(b) == 2:  # the remainder by b1*y + b0 is the value at -b0/b1
            v = _ueval(a, -b[0] * (1 if b[1] == 1 else pow(b[1], -1, p)) % p, p)
            a, b = b, [v] if v else []
        else:
            a, b = b, _udivmod(a, b, p)[1]
    if b:
        return [1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _ueval(a, x, p):
    v = 0
    for c in reversed(a):
        v = (v * x + c) % p
    return v


def _coprime(f, g, both, ss):
    """True when images prove the nonzero f and g coprime: for each parameter
    y of ``both``, their images mod (p, i - r) in y alone, with the other
    parameters of ``ss`` at points, keep both y-degrees and have a constant
    gcd.  A common factor of positive degree in y would keep that degree in
    such images, because its leading coefficient in y divides theirs.  A
    table entry at which a denominator or a degree vanishes is passed over."""
    for t, (p, r) in enumerate(_PRIMES):
        for s in both:
            pts = [
                (u, _POINTS[(t + j) % len(_POINTS)]) for j, u in enumerate(ss) if u != s
            ]
            a, b = _uimage(f, s, pts, p, r), _uimage(g, s, pts, p, r)
            if a is None or b is None:
                break
            if len(_ugcdp(a, b, p)) > 1:
                return False
        else:
            return True
    return False


def _uimage(f, s, pts, p, r):
    """The dense image of f mod (p, i - r) in the parameter at offset s, the
    parameters of pts [(offset, point)] at their points; None when p divides
    a denominator or the image loses f's degree in that parameter."""
    # with no other parameter, a key is its degree in this one, shifted
    out = [0] * ((max((e >> s) & _EMASK for e in f) if pts else max(f) >> s) + 1)
    for e, (a, b, d) in f.items():
        c = a + b * r
        if d != 1:
            if not d % p:
                return None
            c *= pow(d, -1, p)
        for u, x in pts:
            c *= pow(x, (e >> u) & _EMASK, p)
        k = (e >> s) & _EMASK
        out[k] = (out[k] + c) % p
    return out if out[-1] else None


def _gcd(p, q, ctx):
    """(g, p/g, q/g) for a gcd g of the nonzero polynomials p and q, up to a
    constant factor; when g is constant it is ``ctx._den_one`` and the
    cofactors are p and q themselves.

    A monomial's divisors are monomials, so with a monomial on either side
    the gcd is the fieldwise minimum over both supports.  Otherwise
    :func:`_coprime` tries to prove the pair coprime from one image mod p
    per shared parameter, which is sound because a common factor keeps its
    degree in images that keep the operands' degrees.  When it cannot, an
    operand of total degree 1 is irreducible, so the gcd is that operand if
    it divides the other and 1 if not.  Every other pair takes Brown's
    algorithm (:func:`qe2.modgcd.brown`), whose result is exact because it
    is checked by trial division in Q(i)."""
    if len(p) == 1 or len(q) == 1:
        m = _emins((*p, *q), ctx._guard)
        if not m:
            return ctx._den_one, p, q
        return {m: _ONE}, _pshift(p, m), _pshift(q, m)
    if ctx.nvars == 1:
        ss = both = ctx._shifts
    else:
        vp, vq = _pvars(p), _pvars(q)
        ss = sorted(vp | vq, reverse=True)
        both = [s for s in ss if s in vp and s in vq]
    if _coprime(p, q, both, ss):
        return ctx._den_one, p, q
    if p.keys() <= ctx._linear:
        c = _pdivexact(q, p)
        return (ctx._den_one, p, q) if c is None else (p, ctx._den_one, c)
    if q.keys() <= ctx._linear:
        c = _pdivexact(p, q)
        return (ctx._den_one, p, q) if c is None else (q, c, ctx._den_one)
    from .modgcd import brown

    return brown(p, q, ss) or (ctx._den_one, p, q)


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
        # the keys of total degree at most 1: 1 and each parameter
        self._linear = frozenset((0, *(1 << s for s in self._shifts)))
        # the lowest bit of each negated parameter's field
        self._negated = sum(
            1 << s
            for s, p in zip(self._shifts, self.parameters)
            if p.star_rule == STAR_NEGATED
        )
        self._den_one = {0: _ONE}
        self.zero = _scalar(self, {}, self._den_one)
        self.one = _scalar(self, self._den_one, self._den_one)
        self.i = self._const(_I)

    def _const(self, t) -> "Scalar":
        """The constant of a canonical triple."""
        if not (t[0] or t[1]):
            return self.zero
        if t == _ONE:
            return self.one
        return _scalar(self, {0: t}, self._den_one)

    def from_gauss(self, c) -> "Scalar":
        """The constant c, an int or a Scalar with no parameter in it."""
        return self._const(_triple(c))

    def from_int(self, n: int) -> "Scalar":
        return self._const((n, 0, 1))

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

    A Scalar is built only in this module, by :func:`_scalar` from a num and
    den that are already canonical: the contexts make the constants and
    parameters, and the field operations keep the form.  So there is no
    public constructor, and ``Scalar(ctx, num, den)`` raises TypeError."""

    __slots__ = ("ctx", "num", "den", "_h")

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.num == self.ctx._den_one and self.den == self.ctx._den_one

    def is_polynomial(self):
        return self.den == self.ctx._den_one

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ctx is self.ctx or other.ctx == self.ctx:
                return other
            if not other.ctx.nvars:  # a constant, which every context holds
                return self.ctx.from_gauss(other)
            raise ScalarError("mixing scalars from different contexts")
        if isinstance(other, int):
            return self.ctx.from_int(other)
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
            g, ng, bg = _gcd(n, b, ctx)
            if _is_constant(g):
                return _scalar(ctx, n, b)
            return _scalar(ctx, *_canon(ng, bg))
        # Henrici: with g = gcd(b, d) and t = a*(d/g) + c*(b/g), the sum is
        # (t/g2) / ((b/g)*(d/g2)) for g2 = gcd(t, g), where d/g2 is
        # (d/g)*(g/g2).  Distinct canonical denominators mean a/b != -c/d,
        # so t is nonzero.
        g, bg, dg = _gcd(b, d, ctx)
        if _is_constant(g):
            t = _padd(_pmul(a, d), _pmul(c, b))
            return _scalar(ctx, *_canon(t, _pmul(b, d)))
        t = _padd(_pmul(a, dg), _pmul(c, bg))
        g2, tg, gg = _gcd(t, g, ctx)
        if not _is_constant(g2):
            t, d = tg, _pmul(dg, gg)
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
            # coefficient 1, so cancelling the common monomial is all there is
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
                _, on, den = _gcd(on, b, ctx)
            else:
                b = od
                _, sn, den = _gcd(sn, b, ctx)
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

    def evaluate(self, assignment: Mapping) -> "Scalar":
        """The constant of :data:`QI` that this takes at a point {parameter
        name: constant}, each constant an int or a Scalar with no parameter
        in it.

        Raises UnboundParameter for the first declared parameter occurring
        in the scalar without a value, PoleAtPoint when the denominator
        vanishes.
        """
        ctx = self.ctx
        used = _pvars(self.num) | _pvars(self.den)
        vals = {}  # {field bit offset: value triple}
        for name, s in zip(ctx.names, ctx._shifts):
            if name in assignment:
                vals[s] = _triple(assignment[name])
            elif s in used:
                raise UnboundParameter(f"parameter {name!r} has no value")
        den = _peval(self.den, vals)
        if not (den[0] or den[1]):
            raise PoleAtPoint("denominator vanishes at the point")
        return QI._const(_cdiv(_peval(self.num, vals), den))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
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


_new = object.__new__


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


QI = ScalarContext()


def GaussRational(re: int = 0, im: int = 0) -> Scalar:
    """The constant re + im*i, a Scalar of :data:`QI`.  (The name is that of
    the class that held constants before they became Scalars.)"""
    return QI._const((index(re), index(im), 1))


def _triple(c):
    """The triple of a constant: an int, or a Scalar with no parameter in
    it."""
    if isinstance(c, int):
        return (c, 0, 1)
    if isinstance(c, Scalar) and _is_constant(c.den) and not any(c.num):
        return c.num.get(0, _ZERO)
    raise ScalarError(f"{c!r} is not a constant of Q(i)")


def _mul_reduced(ctx, a, b, c, d):
    """Canonical (a/b)*(c/d) for nonzero a, c, coprime a, b and coprime c, d.

    With g1 = gcd(a, d) and g2 = gcd(c, b) the product in lowest terms is
    (a/g1 * c/g2) / (b/g2 * d/g1) (Knuth, TAOCP vol. 2, 4.5.1); a gcd with a
    constant is skipped."""
    if not _is_constant(d):
        _, a, d = _gcd(a, d, ctx)
    if not _is_constant(b):
        _, c, b = _gcd(c, b, ctx)
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

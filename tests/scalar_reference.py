"""References for ``scalars``: the full-reduce constructor and the
multivariate primitive PRS.

:func:`full_reduce` builds the canonical Scalar of an arbitrary fraction by
one gcd of its whole numerator and denominator, the result that the field
operations must reach with their cofactor gcds.

:func:`_pgcd`, the reference for ``scalars._gcd``, recurses on the first
declared parameter that occurs, takes contents by gcds of the coefficients
and pseudo-remainders with no control of coefficient growth, so it is slow
past small inputs (seconds on three parameters at degree 6 in omega).  It
shares only the polynomial kernel (``_pmul``, ``_padd``, ``_pdivexact``)
with ``scalars``, so it is an independent second implementation of the gcd.
"""

from qe2.scalars import (
    _EMASK,
    _ONE,
    DegenerateScalar,
    _canon,
    _canonical_unit,
    _field,
    _gcd,
    _padd,
    _pdivexact,
    _plead,
    _pmul,
    _pneg,
    _pscale,
    _pvars,
    _scalar,
)


def full_reduce(ctx, num, den):
    """The canonical Scalar num/den of ctx for polynomials num and den."""
    if not den:
        raise DegenerateScalar("zero denominator")
    if not num:
        return ctx.zero
    _, num, den = _gcd(num, den, ctx)
    return _scalar(ctx, *_canon(num, den))


def _with_field(e, s, x):
    """e with the exponent x < 2**31 in the field at bit offset s."""
    return e + ((x - ((e >> s) & _EMASK)) << s)


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

"""Brown's dense modular gcd of two :class:`~qe2.scalars.Scalar`
polynomials in one parameter or several (Brown, J. ACM 18(4), 1971; Geddes,
Czapor and Labahn, *Algorithms for Computer Algebra*, ch. 7).

``scalars._gcd`` calls :func:`brown` for every pair that neither its
images prove coprime nor an operand of total degree 1 settles, so this
module loads only then.  It works with the images of ``scalars``: i maps to a square root r
of -1 mod a prime p = 1 (mod 4).  Over F_p a sparse polynomial is {key:
residue} and a dense one, in one parameter, a list of residues from degree
0 with no trailing zero.  The evaluation points are fixed: at a recursion
level with n parameters left the j-th is (j*_STEP + n) mod p, so each prime
and each level takes other residues (with the same points at every level, a
factor such as k - q would vanish at all of them).
"""

from math import isqrt

from . import scalars
from .scalars import (
    _EMASK,
    _pdivexact,
    _plead,
    _prat_content,
    _pscale,
    _udivmod,
    _ueval,
    _ugcdp,
    _zgcd,
)

_STEP = 2654435761


def _primes():
    """(p, r) for the certificate's primes, then for the other primes
    p = 1 (mod 4) below 2**30, from the top: r is a square root of -1 mod p."""
    yield from scalars._PRIMES
    known = {p for p, _ in scalars._PRIMES}
    for p in range((1 << 30) - 3, 1, -4):
        if p not in known and all(p % d for d in range(3, isqrt(p) + 1, 2)):
            c = 2
            while pow(c, p >> 1, p) != p - 1:  # a non-residue c
                c += 1
            yield p, pow(c, p >> 2, p)


def _umul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


def _split(f, s):
    """Sparse f as {key with the field at offset s cleared: dense polynomial
    in that field}."""
    out = {}
    for e, c in f.items():
        k = (e >> s) & _EMASK
        a = out.setdefault(e - (k << s), [])
        a.extend([0] * (k + 1 - len(a)))
        a[k] = c
    return out


def _join(split, s):
    return {e + (k << s): c for e, a in split.items() for k, c in enumerate(a) if c}


def _at(split, x, p):
    """The sparse polynomial of a split with its dense parameter at x."""
    out = {}
    for e, a in split.items():
        v = _ueval(a, x, p)
        if v:
            out[e] = v
    return out


def _ucont(split, p):
    """The monic gcd of the dense polynomials of a split."""
    g = []
    for a in split.values():
        g = _ugcdp(a, g, p)
        if len(g) == 1:
            break
    return g


def _mgcd(a, b, ss, p):
    """The monic gcd over F_p of nonzero sparse a and b in the parameters at
    offsets ss, most significant first, or None when the points run out.

    Brown's PGCD: the contents in the last parameter y are split off, y is
    evaluated at points, and the image gcds, each times the value there of
    the gcd g of the leading coefficients, are interpolated.  A smaller
    lex-leading key restarts the interpolation and a larger one is passed
    over, so unlucky points can make the leading key too large, never too
    small."""
    s = ss[-1]
    A, B = _split(a, s), _split(b, s)
    if len(ss) == 1:
        return _join({0: _ugcdp(A[0], B[0], p)}, s)
    ca, cb = _ucont(A, p), _ucont(B, p)
    A = {e: _udivmod(v, ca, p)[0] for e, v in A.items()}
    B = {e: _udivmod(v, cb, p)[0] for e, v in B.items()}
    c, g = _ugcdp(ca, cb, p), _ugcdp(A[max(A)], B[max(B)], p)
    # the points needed: deg g + min(deg_y a, deg_y b) + 1
    need = len(g) + min(max(map(len, A.values())), max(map(len, B.values()))) - 1
    lead = None
    for j in range(1, p):
        x = (j * _STEP + len(ss)) % p
        gx = _ueval(g, x, p)
        if not gx:
            continue
        C = _mgcd(_at(A, x, p), _at(B, x, p), ss[:-1], p)
        if C is None:
            return None
        m = max(C)
        if not m:  # the primitive parts are coprime
            return _join({0: c}, s)
        if lead is None or m < lead:
            H, lead, q = {}, m, [1]
        elif m > lead:
            continue
        # Newton: H += (gx*C - H(x)) / q(x) * q, then q *= y - x
        w = pow(_ueval(q, x, p), -1, p)
        for e in H.keys() | C.keys():
            h = H.get(e, [])
            d = (gx * C.get(e, 0) - _ueval(h, x, p)) * w % p
            if d:
                h = h + [0] * (len(q) - len(h))
                H[e] = [(d * t + v) % p for t, v in zip(q, h)]
        q = _umul(q, [p - x, 1], p)
        if len(q) > need:
            # c times the primitive part of H, made monic
            h = _ucont(H, p)
            G = _join({e: _umul(c, _udivmod(v, h, p)[0], p) for e, v in H.items()}, s)
            inv = pow(G[max(G)], -1, p)
            return {e: v * inv % p for e, v in G.items()}
    return None


def brown(f, g, ss):
    """(G, f/G, g/G) for a gcd G of the nonzero f and g in the parameters at
    offsets ss, or None when they are coprime.

    It works on copies of f and g with Z[i] coefficients.  At both prime
    ideals over p, the image gcd is scaled so that its leading coefficient
    is the image of gam, a gcd of the copies' leading coefficients, which
    the leading coefficient of their primitive gcd divides.  The two images
    give the Z[i] residues mod p, and CRT combines the primes.  Images with
    a larger leading key are unlucky and dropped.  Once the coefficients of
    the candidate are small for the modulus, it must divide f and g exactly
    in Q(i): so every result is exact, and an unlucky prime costs one more."""
    a, b = _pscale(f, _prat_content(f)), _pscale(g, _prat_content(g))
    gam = _zgcd(a[_plead(a)][:2], b[_plead(b)][:2])
    lead = None
    for p, r in _primes():
        imgs = []
        for t in (r, p - r):
            u = (gam[0] + gam[1] * t) % p
            A = {e: c for e, (x, y, _) in a.items() if (c := (x + y * t) % p)}
            B = {e: c for e, (x, y, _) in b.items() if (c := (x + y * t) % p)}
            C = _mgcd(A, B, ss, p) if u and A and B else None
            if C is None:
                break
            imgs.append({e: c * u % p for e, c in C.items()})
        if len(imgs) < 2 or max(imgs[0]) != max(imgs[1]):
            continue
        u, v = imgs
        m = max(u)
        if not m:
            return None
        if lead is None or m < lead:
            H, M, lead = {}, 1, m
        elif m > lead:
            continue
        # x + y*i mod p from x + y*r = u and x - y*r = v, then CRT with H mod M
        h, k, w = pow(2, -1, p), pow(2 * r, -1, p), pow(M, -1, p)
        for e in u.keys() | v.keys() | H.keys():
            ue, ve = u.get(e, 0), v.get(e, 0)
            z = ((ue + ve) * h, (ue - ve) * k)
            H[e] = tuple(
                x + M * ((zp - x) * w % p) for x, zp in zip(H.get(e, (0, 0)), z)
            )
        M *= p
        cand = {}
        for e, (x, y) in H.items():
            x, y = x - M * (2 * x > M), y - M * (2 * y > M)  # symmetric residues
            if x or y:
                cand[e] = (x, y, 1)
        if all(4 * (x * x + y * y) < M for x, y, _ in cand.values()):
            qf = _pdivexact(f, cand)
            qg = None if qf is None else _pdivexact(g, cand)
            if qg is not None:
                return cand, qf, qg

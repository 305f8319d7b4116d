"""Iterated skew-polynomial (Ore tower) rewriting kernel.

An :class:`OreTower` presents an algebra as an iterated extension

    K[g0^&plusmn;] [g1; sigma1, delta1] [g2; sigma2, delta2] ...

with one generator per level.  Level ``L`` commutation data consists of an
algebra endomorphism ``sigma`` and a ``sigma``-twisted derivation
``delta`` of the subalgebra below ``L``, recorded on the lower
generators; the engine derives every swap rule

    g_L * x = sigma(x) * g_L + delta(x)

from them, including the rules for inverse powers of invertible lower
generators via the sandwich identities

    sigma(x^-1) = sigma(x)^-1        delta(x^-1) = -sigma(x)^-1 delta(x) x^-1.

Normal forms are linear combinations of normally ordered monomials
``g0^e0 g1^e1 ... gk^ek`` (integer exponents on invertible generators,
naturals otherwise).  Rewriting terminates because every swap moves a
higher-level letter right past a lower one while the inserted sigma- and
delta-images only involve letters of strictly smaller level (delta may
also reuse the level itself, which shortens the tail instead); this is
the (level, degree)-lexicographic measure underlying the PBW property of
Ore extensions.  A product of normal forms is the bilinear kernel
:func:`bilinear` over the tower's cached table of monomial-pair products;
tensor products and Poisson brackets are the same kernel over their own
tables.

Confluence is certified by :func:`diamond_check` (Bergman's diamond
lemma): every word of ``degree`` letters (3 at load time) whose levels
never increase, inverse letters included, is reduced leftmost-first and
rightmost-first and both results are compared with the engine's normal
form.  At degree 3 this is exactly the endomorphism / twisted-derivation
compatibility of each level with the relations below it; higher degrees
cross-check the engine.  Towers failing the check are rejected at load
time.

The two strategies are folds (:class:`LetterPushFold`).  Leftmost-first
rewriting of ``p*y`` reduces ``p`` completely before it touches the
``p|y`` boundary, so it is a left fold of "push one letter into a normal
monomial"; rightmost-first is the mirrored right fold.  Each strategy
memoises its pushes by (normal monomial, letter), so overlap words share
their rewriting work.  The memos live only for one ``diamond_check``
call, one per strategy, apart from the engine's ``_push``/``_mono_mul``
caches and from each other, so the check still compares two independent
rewriting paths with the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add as _add
from typing import Optional, Sequence

from . import exprio
from .scalars import Parameter, Scalar, ScalarContext


class TowerError(ValueError):
    pass


class NonConfluentTower(TowerError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RewriteBudgetExceeded(TowerError):
    """Word rewriting ran past REWRITE_STEP_BUDGET steps.  This says
    nothing about confluence: the rules may loop, or the word may just be
    too long for the budget."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# pushes LetterPushFold may compute for one word before giving up
REWRITE_STEP_BUDGET = 200000


@dataclass(frozen=True)
class Generator:
    name: str
    level: int
    invertible: bool = False


def collect(pairs) -> dict:
    """Sum (key, coefficient) pairs into a term map {key -> Scalar} that
    stores no zero coefficient.  Every sparse linear combination above the
    scalars is built here, apart from the rewriting kernel's own loops."""
    terms = {}
    for key, coeff in pairs:
        if not coeff:
            continue
        c = terms.get(key)
        if c is None:
            terms[key] = coeff
        else:
            c = c + coeff
            if c:
                terms[key] = c
            else:
                del terms[key]
    return terms


def bilinear(p: dict, q: dict, table: dict, build, one) -> dict:
    """The term map of the sum of ``c1*c2*s`` at key ``m`` over the terms
    ``(m1, c1)`` of ``p``, ``(m2, c2)`` of ``q`` and ``(m, s)`` of the
    product of the monomial pair ``(m1, m2)``.

    ``table`` caches each pair's product as a tuple of (key, Scalar) terms
    with no zero coefficient, every coefficient equal to 1 stored as
    ``one``; ``build(m1, m2)`` computes a missing entry.  The two data
    coefficients of a pair are multiplied once, and a structure
    coefficient that is ``one`` is not multiplied by.  ``OreTower.mul``,
    ``TensorElement.__mul__`` and ``PoissonStructure.bracket`` are this
    kernel over their own tables."""
    acc = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            key = (m1, m2)
            terms = table.get(key)
            if terms is None:
                terms = table[key] = build(m1, m2)
            c = c1 * c2
            for m, s in terms:
                s = c if s is one else c * s
                v = acc.get(m)
                if v is None:
                    acc[m] = s
                else:
                    v = v + s
                    if v:
                        acc[m] = v
                    else:
                        del acc[m]
    return acc


def pin_unit(terms, one) -> tuple:
    """The (key, Scalar) pairs ``terms`` as a tuple, each coefficient equal
    to 1 replaced by ``one`` (the form of every cached structure table)."""
    return tuple((m, one if c.is_one() else c) for m, c in terms)


class NCPoly:
    """Normal-form element: a finite map {monomial -> Scalar} over a tower.

    Monomials are exponent tuples indexed by level.  No zero coefficients
    are stored; equality is map equality.
    """

    __slots__ = ("tower", "terms")

    def __init__(self, tower: "OreTower", terms: dict):
        self.tower = tower
        self.terms = terms

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, tower):
        return cls(tower, {})

    @classmethod
    def one(cls, tower):
        return cls(tower, {tower.unit_mono: tower.context.one})

    @classmethod
    def constant(cls, tower, scalar: Scalar):
        if not scalar:
            return cls.zero(tower)
        return cls(tower, {tower.unit_mono: scalar})

    @classmethod
    def generator(cls, tower, idx: int, exp: int = 1):
        if exp == 0:
            return cls.one(tower)
        g = tower.generators[idx]
        if exp < 0 and not g.invertible:
            raise TowerError(f"negative power of non-invertible generator {g.name}")
        mono = tuple(exp if j == idx else 0 for j in range(len(tower.generators)))
        return cls(tower, {mono: tower.context.one})

    @classmethod
    def from_terms(cls, tower, items):
        return cls(tower, collect(items))

    # -- predicates ----------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_one(self):
        return self.as_scalar() is not None and self.as_scalar().is_one()

    def as_scalar(self) -> Optional[Scalar]:
        """The coefficient when the support is at most the unit monomial."""
        if not self.terms:
            return self.tower.context.zero
        if len(self.terms) == 1:
            mono, c = next(iter(self.terms.items()))
            if mono == self.tower.unit_mono:
                return c
        return None

    # -- ring operations --------------------------------------------------
    def _check(self, other):
        if other.tower is not self.tower:
            raise TowerError("mixing elements of different towers")

    def __add__(self, other):
        if isinstance(other, NCPoly):
            self._check(other)
            terms = collect(chain(self.terms.items(), other.terms.items()))
            return NCPoly(self.tower, terms)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, NCPoly):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return NCPoly(self.tower, {m: -c for m, c in self.terms.items()})

    def scale(self, s: Scalar) -> "NCPoly":
        if not s:
            return NCPoly.zero(self.tower)
        return NCPoly(self.tower, {m: c * s for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            self._check(other)
            return self.tower.mul(self, other)
        if isinstance(other, Scalar):
            return self.scale(other)
        if isinstance(other, int):
            return self.scale(self.tower.context.from_int(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n == 0:
            return NCPoly.one(self.tower)
        if n < 0:
            inv = self.unit_inverse()
            return inv ** (-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def unit_inverse(self) -> "NCPoly":
        """Inverse of a single-term element supported on invertible
        generators; raises TowerError otherwise."""
        if len(self.terms) != 1:
            raise TowerError("only monomial elements can be inverted")
        mono, c = next(iter(self.terms.items()))
        gens = self.tower.generators
        for j, e in enumerate(mono):
            if e and not gens[j].invertible:
                raise TowerError(
                    f"cannot invert monomial containing {gens[j].name}"
                )
        word = [(j, -e) for j, e in reversed(list(enumerate(mono))) if e]
        inv = self.tower.word_to_poly(word).scale(c.inverse())
        if not (self * inv).is_one():
            raise TowerError("monomial inverse verification failed")
        return inv

    # -- inspection ---------------------------------------------------------
    def max_exponent(self, idx: int) -> int:
        return max((m[idx] for m in self.terms), default=0)

    def max_level(self) -> int:
        """Highest level occurring in the support (-1 for constants)."""
        lvl = -1
        for mono in self.terms:
            t = _top_level(mono)
            if t is not None and t > lvl:
                lvl = t
        return lvl

    def is_invertible_monomial(self) -> bool:
        if len(self.terms) != 1:
            return False
        mono = next(iter(self.terms))
        return all(
            e == 0 or self.tower.generators[j].invertible
            for j, e in enumerate(mono)
        )

    def coefficient(self, mono) -> Scalar:
        return self.terms.get(mono, self.tower.context.zero)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.tower is other.tower and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"NCPoly({exprio.format_canonical(self)})"

    def __str__(self):
        return exprio.format_canonical(self)


class OreTower:
    """Immutable-after-load presentation of an iterated Ore extension."""

    def __init__(self, name: str, context: ScalarContext, generators):
        self.name = name
        self.context = context
        self.generators = tuple(generators)
        for j, g in enumerate(self.generators):
            if g.level != j:
                raise TowerError("generator levels must be contiguous from 0")
        self._index = {g.name: j for j, g in enumerate(self.generators)}
        n = len(self.generators)
        self.unit_mono = (0,) * n
        # per level >= 1: {lower index -> NCPoly}
        self.sigma = [dict() for _ in range(n)]
        self.delta = [dict() for _ in range(n)]
        self.star_table: Optional[dict] = None
        self._sigma_inv_diag = [dict() for _ in range(n)]
        self.commutative = True
        # caches
        self._push = {}
        self._mono_mul = {}
        # {legs -> {(monomial tuple, monomial tuple) -> terms}} for tensor
        # products over legs that start with this tower (hopf.TensorElement)
        self._tensor_mul = {}
        self._star_map = None  # the star table as a hopf.AlgebraMorphism
        self._sigma_pow = {}
        self._delta_pow = {}
        self._sigma_hat = {}
        self._delta_hat = {}

    # -- structure access -------------------------------------------------
    def gen_index(self, name: str) -> Optional[int]:
        return self._index.get(name)

    def gen(self, name: str) -> NCPoly:
        idx = self._index.get(name)
        if idx is None:
            raise TowerError(f"unknown generator {name!r}")
        return NCPoly.generator(self, idx)

    def poly(self, text: str) -> NCPoly:
        """Parse and elaborate an expression in this tower."""
        out = exprio.elaborate_expr(exprio.parse_expr(text), self)
        if not isinstance(out, NCPoly):
            raise TowerError("expected an algebra element, got a tensor")
        return out

    @property
    def nlevels(self):
        return len(self.generators)

    # -- level data installation (used by load_tower) ----------------------
    def _set_level(self, L: int, sigma: dict, delta: dict):
        g = self.generators[L]
        for j, img in sigma.items():
            if img.max_level() >= L:
                raise TowerError(
                    f"sigma image of level {L} must live strictly below it"
                )
            if self.generators[j].invertible:
                if not img.is_invertible_monomial():
                    raise TowerError(
                        f"sigma({self.generators[j].name}) must be an invertible "
                        f"monomial multiple at level {L}"
                    )
        for j, img in delta.items():
            if img.max_level() > L:
                raise TowerError(
                    f"delta image of level {L} may not reference higher levels"
                )
        self.sigma[L] = dict(sigma)
        self.delta[L] = dict(delta)
        ident = all(
            sigma[j] == NCPoly.generator(self, j) for j in sigma
        ) and all(delta[j].is_zero() for j in delta)
        if not ident:
            self.commutative = False
            # products cached while the lower levels still commuted may
            # involve this level, whose rules were not known then
            self._mono_mul.clear()
        if g.invertible and L > 0:
            # left-inverse pushes for a non-base invertible generator are
            # only supported for a pure diagonal twist
            diag = {}
            for j, img in sigma.items():
                mono_c = _diagonal_coeff(img, j)
                if mono_c is None or delta[j]:
                    raise TowerError(
                        f"invertible generator {g.name} above the base requires "
                        "a diagonal sigma and zero delta"
                    )
                diag[j] = mono_c
            self._sigma_inv_diag[L] = diag

    # -- core rewriting ------------------------------------------------------
    def mul(self, p: NCPoly, q: NCPoly) -> NCPoly:
        return NCPoly(self, bilinear(
            p.terms, q.terms, self._mono_mul, self._mono_product, self.context.one
        ))

    def _mono_mul_terms(self, m1, m2):
        """The monomial product m1*m2 as a cached term tuple."""
        key = (m1, m2)
        hit = self._mono_mul.get(key)
        if hit is None:
            hit = self._mono_mul[key] = self._mono_product(m1, m2)
        return hit

    def _mono_product(self, m1, m2):
        """m1*m2 in normal form as a term tuple for the ``_mono_mul`` table."""
        one = self.context.one
        top1 = _top_level(m1)
        low2 = _low_level(m2)
        if self.commutative or top1 is None or low2 is None or top1 <= low2:
            return ((tuple(map(_add, m1, m2)), one),)
        poly = NCPoly(self, {m2: one})
        for L in range(len(m1) - 1, -1, -1):
            e = m1[L]
            if e:
                poly = self._push_power(L, e, poly)
        return pin_unit(poly.terms.items(), one)

    def word_to_poly(self, word) -> NCPoly:
        """Normal form of a raw product word of (generator, exponent)."""
        out = NCPoly.one(self)
        for idx, e in reversed(list(word)):
            if isinstance(idx, str):
                j = self.gen_index(idx)
                if j is None:
                    raise TowerError(f"unknown generator {idx!r}")
                idx = j
            if e:
                out = self._push_power(idx, e, out)
        return out

    def _push_power(self, L: int, e: int, poly: NCPoly) -> NCPoly:
        sign = 1 if e > 0 else -1
        if sign < 0 and not self.generators[L].invertible:
            raise TowerError(
                f"negative power of non-invertible generator "
                f"{self.generators[L].name}"
            )
        one = self.context.one
        for _ in range(abs(e)):
            acc = {}
            for mono, c in poly.terms.items():
                for m2, c2 in self._push_gen(L, sign, mono):
                    c2 = c if c2 is one else c * c2
                    v = acc.get(m2)
                    if v is None:
                        acc[m2] = c2
                    else:
                        v = v + c2
                        if v:
                            acc[m2] = v
                        else:
                            del acc[m2]
            poly = NCPoly(self, acc)
        return poly

    def _push_gen(self, L: int, sign: int, mono):
        """g_L^sign * mono as a term tuple, normal-formed."""
        key = (L, sign, mono)
        hit = self._push.get(key)
        if hit is not None:
            return hit
        low = _low_level(mono)
        if low is None or low >= L:
            m = mono[:L] + (mono[L] + sign,) + mono[L + 1 :]
            out = ((m, self.context.one),)
            self._push[key] = out
            return out
        prefix = mono[:L] + (0,) * (len(mono) - L)
        suffix = (0,) * L + mono[L:]
        if sign > 0:
            # sigma(prefix) g_L suffix + delta(prefix) suffix
            shat = self._sigma_hat_poly(L, prefix)
            dhat = self._delta_hat_poly(L, prefix)
            g_suffix = suffix[:L] + (suffix[L] + 1,) + suffix[L + 1 :]
            terms = collect(chain(
                ((tuple(map(_add, m, g_suffix)), c) for m, c in shat.terms.items()),
                ((tuple(map(_add, m, suffix)), c) for m, c in dhat.terms.items()),
            ))
            out = pin_unit(terms.items(), self.context.one)
        else:
            diag = self._sigma_inv_diag[L]
            if not diag and any(prefix):
                raise TowerError(
                    f"inverse push of {self.generators[L].name} is unsupported"
                )
            coeff = self.context.one
            for j, e in enumerate(prefix):
                if e:
                    coeff = coeff * diag[j] ** (-e)
            m = mono[:L] + (mono[L] - 1,) + mono[L + 1 :]
            out = pin_unit(((m, coeff),), self.context.one)
        self._push[key] = out
        return out

    def _sigma_img(self, L: int, j: int, e: int) -> NCPoly:
        """sigma_L(g_j^e), derived for negative e via sigma(x^-1)=sigma(x)^-1."""
        key = (L, j, e)
        hit = self._sigma_pow.get(key)
        if hit is not None:
            return hit
        base = self.sigma[L][j]
        if e >= 0:
            out = base ** e
        else:
            out = base.unit_inverse() ** (-e)
        self._sigma_pow[key] = out
        return out

    def _delta_img(self, L: int, j: int, e: int) -> NCPoly:
        """delta_L(g_j^e) via the twisted Leibniz rule; negative powers via
        delta(x^-1) = -sigma(x)^-1 delta(x) x^-1."""
        key = (L, j, e)
        hit = self._delta_pow.get(key)
        if hit is not None:
            return hit
        if e == 0:
            out = NCPoly.zero(self)
        elif e == 1:
            out = self.delta[L][j]
        elif e > 1:
            # delta(g^e) = sigma(g) delta(g^(e-1)) + delta(g) g^(e-1)
            g_pow = NCPoly.generator(self, j, e - 1)
            out = self._sigma_img(L, j, 1) * self._delta_img(L, j, e - 1) + (
                self._delta_img(L, j, 1) * g_pow
            )
        elif e == -1:
            ginv = NCPoly.generator(self, j, -1)
            out = -(self._sigma_img(L, j, -1) * self.delta[L][j] * ginv)
        else:
            # delta(g^e) = sigma(g^(e+1)) delta(g^-1) + delta(g^(e+1)) g^-1
            ginv = NCPoly.generator(self, j, -1)
            out = self._sigma_img(L, j, e + 1) * self._delta_img(L, j, -1) + (
                self._delta_img(L, j, e + 1) * ginv
            )
        self._delta_pow[key] = out
        return out

    def _sigma_hat_poly(self, L: int, prefix) -> NCPoly:
        key = (L, prefix)
        hit = self._sigma_hat.get(key)
        if hit is not None:
            return hit
        out = NCPoly.one(self)
        for j in range(L):
            e = prefix[j]
            if e:
                out = out * self._sigma_img(L, j, e)
        self._sigma_hat[key] = out
        return out

    def _delta_hat_poly(self, L: int, prefix) -> NCPoly:
        """delta_L extended to the prefix monomial by
        delta(xy) = sigma(x) delta(y) + delta(x) y."""
        key = (L, prefix)
        hit = self._delta_hat.get(key)
        if hit is not None:
            return hit
        j = _low_level(prefix)
        if j is None:
            out = NCPoly.zero(self)
        else:
            e = prefix[j]
            rest = prefix[:j] + (0,) + prefix[j + 1 :]
            if not any(rest):
                out = self._delta_img(L, j, e)
            else:
                out = self._sigma_img(L, j, e) * self._delta_hat_poly(L, rest) + (
                    self._delta_img(L, j, e) * self.tower_mono(rest)
                )
        self._delta_hat[key] = out
        return out

    def tower_mono(self, mono) -> NCPoly:
        return NCPoly(self, {mono: self.context.one})

    # -- derived rewrite rules (for reports and morphism checks) -----------
    def derived_rules(self):
        """Yield (word, normal form) for every g_hi^s * g_lo^t swap rule the
        tower induces, with s, t ranging over the allowed unit exponents."""
        rules = []
        n = self.nlevels
        for L in range(1, n):
            s_opts = [1] + ([-1] if self.generators[L].invertible else [])
            for j in range(L):
                t_opts = [1] + ([-1] if self.generators[j].invertible else [])
                for s in s_opts:
                    for t in t_opts:
                        word = ((L, s), (j, t))
                        rules.append((word, self.word_to_poly(word)))
        return rules

    def __repr__(self):
        gens = ",".join(g.name + ("~" if g.invertible else "") for g in self.generators)
        return f"OreTower({self.name}: {gens})"


def _top_level(mono):
    for j in range(len(mono) - 1, -1, -1):
        if mono[j]:
            return j
    return None


def _low_level(mono):
    for j, e in enumerate(mono):
        if e:
            return j
    return None


def _diagonal_coeff(img: NCPoly, j: int) -> Optional[Scalar]:
    """When img = c * g_j, return c; else None."""
    if len(img.terms) != 1:
        return None
    mono, c = next(iter(img.terms.items()))
    expected = tuple(1 if jj == j else 0 for jj in range(len(mono)))
    return c if mono == expected else None


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def normal_form(tower: OreTower, word) -> NCPoly:
    """Normal form of a raw product expressed as (generator, exponent)
    pairs; generator entries may be names or level indices."""
    return tower.word_to_poly(word)


def commutator(p: NCPoly, q: NCPoly) -> NCPoly:
    return p * q - q * p


def graded_degree(x: NCPoly, gen) -> int:
    """Maximal exponent of ``gen`` over the support of x (x nonzero)."""
    if x.is_zero():
        raise ValueError("the zero element has no graded degree")
    idx = gen if isinstance(gen, int) else x.tower.gen_index(gen)
    if idx is None:
        raise TowerError(f"unknown generator {gen!r}")
    return x.max_exponent(idx)


def solve_affine(rows, rhs, ctx, ncols=None):
    """Gauss-Jordan solve of (rows) c = rhs over the scalar field.

    Returns (particular, nullspace_basis) with free variables set to zero,
    or None when the system is inconsistent.  ``ncols`` defaults to the
    length of the first row; a system without rows needs it given.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    mat = [list(r) + [b] for r, b in zip(rows, rhs)]
    zero, one = ctx.zero, ctx.one
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for rr in range(r, len(mat)):
            if mat[rr][c]:
                pr = rr
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        row = mat[r]
        pv = row[c]
        # a zero entry of the pivot row leaves its column unchanged
        # (0 / pv == 0 and a - f*0 == a), so only the nonzero ones are touched
        nz = [k for k, v in enumerate(row) if v]
        for k in nz:
            row[k] = row[k] / pv
        for rr in range(len(mat)):
            other = mat[rr]
            if rr != r and other[c]:
                f = other[c]
                for k in nz:
                    other[k] = other[k] - f * row[k]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    for rr in range(r, len(mat)):
        if mat[rr][ncols]:
            return None
    coeffs = [zero] * ncols
    for rr, c in enumerate(pivots):
        coeffs[c] = mat[rr][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    null = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for rr, c in enumerate(pivots):
            vec[c] = -mat[rr][fc]
        null.append(vec)
    return coeffs, null


@dataclass
class AffineSolutions:
    """The solution set ``particular + span(nullspace)`` of a linear
    system; ``particular`` is None when the system has no solution."""

    particular: Optional[list]  # one Scalar per column, free variables zero
    nullspace: list             # basis of the homogeneous solutions

    @property
    def empty(self):
        return self.particular is None

    @property
    def unique(self):
        return self.particular is not None and not self.nullspace

    @property
    def dimension(self):
        return len(self.nullspace) if self.particular is not None else -1

    def contains_solution(self, vec, ctx) -> bool:
        if self.particular is None:
            return False
        diff = {i: a - b for i, (a, b) in enumerate(zip(vec, self.particular))}
        cols = [dict(enumerate(nv)) for nv in self.nullspace]
        return not solve_terms(diff, cols, ctx).empty


def solve_terms(target: dict, columns: Sequence[dict], ctx) -> AffineSolutions:
    """Exact solution set of sum_i c_i columns[i] = target over the scalar
    field.  Target and columns are term maps {key -> Scalar} over sortable
    keys, one equation per key that occurs in any of them."""
    keys = set(target)
    for col in columns:
        keys.update(col)
    zero = ctx.zero
    ordered = sorted(keys, reverse=True)
    rows = [[col.get(k, zero) for col in columns] for k in ordered]
    rhs = [target.get(k, zero) for k in ordered]
    sol = solve_affine(rows, rhs, ctx, len(columns))
    return AffineSolutions(*sol) if sol is not None else AffineSolutions(None, [])


def span_solve(x: NCPoly, basis: Sequence[NCPoly]) -> AffineSolutions:
    """Exact solution set of sum_i c_i basis_i = x; ``empty`` when x is
    outside the span, ``unique`` when the basis is linearly independent."""
    ctx = x.tower.context
    return solve_terms(x.terms, [b.terms for b in basis], ctx)


# ---------------------------------------------------------------------------
# Diamond (confluence) check: two-path word rewriting, independent of the
# engine's own association order.
# ---------------------------------------------------------------------------


@dataclass
class DiamondResult:
    ok: bool
    witness_word: Optional[tuple] = None
    left_form: Optional[str] = None
    right_form: Optional[str] = None

    def describe(self):
        if self.ok:
            return "all overlap words reduce consistently"
        w = "*".join(
            f"{name}^{e}" if e != 1 else name for name, e in self.witness_word
        )
        return f"overlap {w}: {self.left_form} != {self.right_form}"


def diamond_check(tower: OreTower, degree: int = 3) -> DiamondResult:
    """Reduce every descending word of the given length leftmost-first and
    rightmost-first, and compare the two results with each other and with
    the engine's own normal form.

    Words are checked in the lexicographic order of their letters
    (``(level, +1)`` before ``(level, -1)``, lower levels first), and the
    first word whose three results disagree is the witness.  Each strategy
    is a :class:`LetterPushFold` of its own, made for this call alone: the
    two share no memo with each other, with the engine's caches or with
    later calls, so they remain two independent rewriting paths.
    """
    if degree < 3:
        raise ValueError("diamond check needs degree >= 3")
    letters = []
    for j, g in enumerate(tower.generators):
        letters.append((j, 1))
        if g.invertible:
            letters.append((j, -1))
    leftmost = LetterPushFold(tower, leftmost=True)
    rightmost = LetterPushFold(tower, leftmost=False)
    for word in _descending_words(letters, degree):
        left = leftmost.reduce(word)
        right = rightmost.reduce(word)
        engine = tower.word_to_poly(word)
        if left != right or left != engine:
            names = tuple(
                (tower.generators[j].name, e) for j, e in word
            )
            return DiamondResult(
                False,
                witness_word=names,
                left_form=exprio.format_canonical(left),
                right_form=exprio.format_canonical(right),
            )
    return DiamondResult(True)


def _descending_words(letters, degree):
    """Words of ``degree`` letters whose levels never increase (the only
    words with overlaps), in the lexicographic order of ``letters``."""
    words = [()]
    for _ in range(degree):
        words = [
            w + (x,) for w in words for x in letters if not w or x[0] <= w[-1][0]
        ]
    return words


class LetterPushFold:
    """Leftmost-first or rightmost-first rewriting of letter words.

    A letter is ``(level, +1 or -1)``.  For a word ``p*y``, every redex
    inside ``p`` lies left of the ``p|y`` boundary, so leftmost-first
    rewriting reduces ``p`` to normal monomials before it touches ``y``:
    the reduction is a left fold of "push one letter into a normal monomial
    from the right".  Rightmost-first is the mirror image, a right fold of
    pushes from the left.  A push rewrites the one redex at the boundary and
    folds the letters of the rule's right-hand side into what is left of the
    monomial, so every push is again a fold of pushes.

    Pushes are memoised by ``(normal monomial, letter)`` for the life of the
    object.  A push that needs one not yet known waits on an explicit work
    stack, so a long rewriting chain never deepens the Python stack.  Each
    push computed counts as one step against ``REWRITE_STEP_BUDGET`` per
    word; past it, :class:`RewriteBudgetExceeded` is raised with the word
    as witness.  Terms that cancel between two letters are dropped before
    the next letter is pushed.
    """

    def __init__(self, tower: OreTower, leftmost: bool):
        self.tower = tower
        self.leftmost = leftmost
        self._one = tower.context.one
        self._memo = {}     # (monomial, letter) -> ((monomial, coeff), ...)
        self._rules = {}    # (letter, letter) redex -> ((letters, coeff), ...)

    def reduce(self, word) -> NCPoly:
        """Normal form of a letter word under this object's strategy."""
        letters = tuple(word) if self.leftmost else tuple(reversed(word))
        memo = self._memo
        stack = [(None, self._fold(self.tower.unit_mono, letters))]
        steps = 0
        while True:
            key, task = stack[-1]
            try:
                need = next(task)
            except StopIteration as done:
                stack.pop()
                if key is None:
                    return NCPoly(self.tower, done.value)
                memo[key] = tuple(done.value.items())
                continue
            steps += 1
            if steps > REWRITE_STEP_BUDGET:
                raise RewriteBudgetExceeded(
                    f"rewriting took more than {REWRITE_STEP_BUDGET} steps",
                    witness=word,
                )
            task = self._push(*need)
            if isinstance(task, tuple):
                memo[need] = task
            else:
                stack.append((need, task))

    def _fold(self, mono, letters):
        """Push ``letters`` one by one into ``mono``; yields each push it
        needs that is not in the memo, returns the result as a term map."""
        memo, one = self._memo, self._one
        poly = {mono: one}
        for y in letters:
            acc = {}
            for m, c in poly.items():
                terms = memo.get((m, y))
                if terms is None:
                    yield (m, y)
                    terms = memo[(m, y)]
                for m2, c2 in terms:
                    if c2 is one:
                        c2 = c
                    elif c is not one:
                        c2 = c * c2
                    v = acc.get(m2)
                    if v is not None:
                        v = v + c2
                        if v:
                            acc[m2] = v
                        else:
                            del acc[m2]
                    else:
                        acc[m2] = c2
            poly = acc
        return poly

    def _push(self, mono, letter):
        """``mono*letter`` (leftmost) or ``letter*mono`` (rightmost) in
        normal form: a term tuple when no rule applies at the boundary,
        else a generator in the manner of :meth:`_fold`."""
        j, s = letter
        end = _top_level(mono) if self.leftmost else _low_level(mono)
        if end is not None and end != j and (end > j) == self.leftmost:
            t = 1 if mono[end] > 0 else -1
            rest = mono[:end] + (mono[end] - t,) + mono[end + 1 :]
            pair = ((end, t), letter) if self.leftmost else (letter, (end, t))
            rule = self._rules.get(pair)
            if rule is None:
                rule = self._rules[pair] = self._rule(*pair)
            return self._apply(rest, rule)
        # no redex, or g^t g^-t cancelling: the exponent moves by s
        return ((mono[:j] + (mono[j] + s,) + mono[j + 1 :], self._one),)

    def _apply(self, rest, rule):
        """Fold each right-hand side of a rule into ``rest`` and add up."""
        acc, one = {}, self._one
        for letters, c in rule:
            poly = yield from self._fold(rest, letters)
            for m, v in poly.items():
                if v is one:
                    v = c
                elif c is not one:
                    v = v * c
                old = acc.get(m)
                if old is not None:
                    v = old + v
                if v:
                    acc[m] = v
                else:
                    acc.pop(m, None)
        return acc

    def _rule(self, a, b):
        """Right-hand side of the redex ``a*b`` as (letters, coeff) pairs,
        the letters in the order this strategy pushes them."""
        tower = self.tower
        (i, si), (j, sj) = a, b
        out = []
        if si == 1:
            # g_i g_j^sj = sigma_i(g_j^sj) g_i + delta_i(g_j^sj)
            for mono, c in tower._sigma_img(i, j, sj).terms.items():
                out.append((_mono_to_word(mono) + ((i, 1),), c))
            for mono, c in tower._delta_img(i, j, sj).terms.items():
                out.append((_mono_to_word(mono), c))
        else:
            # inverse letters only for diagonal sigma, zero delta
            c = tower._sigma_inv_diag[i][j] ** (-sj)
            out.append((((j, sj), (i, -1)), c))
        # the unit coefficient is always the context's own ``one``, which
        # the fold recognises by identity and never multiplies by
        return pin_unit(
            ((letters if self.leftmost else letters[::-1], c) for letters, c in out),
            tower.context.one,
        )


def _mono_to_word(mono):
    word = []
    for j, e in enumerate(mono):
        if e:
            s = 1 if e > 0 else -1
            word.extend([(j, s)] * abs(e))
    return tuple(word)


# ---------------------------------------------------------------------------
# Loading presentations
# ---------------------------------------------------------------------------


def load_tower(description: dict, context: Optional[ScalarContext] = None,
               validate: bool = True) -> OreTower:
    """Build a tower from its JSON-style description.

    Expected shape:

        {"name": ...,
         "parameters": [{"name": ..., "star": "fixed"|"negated"}, ...],
         "tower": [{"gen": ..., "invertible": bool,
                    "sigma": {gen: expr}, "delta": {gen: expr}}, ...],
         "star": {gen: expr}}

    Every expr uses the exprio grammar.  Inverse-generator rules are derived
    automatically; the diamond check runs unless ``validate`` is False and
    non-confluent towers are rejected.
    """
    if context is None:
        params = [
            Parameter(p["name"], p.get("star", "fixed"))
            for p in description.get("parameters", ())
        ]
        context = ScalarContext(params)
    gens = []
    for j, spec in enumerate(description["tower"]):
        gens.append(Generator(spec["gen"], j, bool(spec.get("invertible", False))))
    tower = OreTower(description.get("name", "tower"), context, gens)
    for L, spec in enumerate(description["tower"]):
        if L == 0:
            if spec.get("sigma") or spec.get("delta"):
                raise TowerError("level 0 takes no sigma/delta")
            continue
        sigma = {}
        delta = {}
        for j in range(L):
            gname = gens[j].name
            stext = spec.get("sigma", {}).get(gname, gname)
            dtext = spec.get("delta", {}).get(gname, "0")
            simg = tower.poly(stext)
            dimg = tower.poly(dtext)
            if simg.max_level() >= L or dimg.max_level() > L:
                raise TowerError(
                    f"level {L} data for {gname} references a forward level"
                )
            sigma[j] = simg
            delta[j] = dimg
        extra = set(spec.get("sigma", {})) | set(spec.get("delta", {}))
        unknown = extra - {g.name for g in gens[:L]}
        if unknown:
            raise TowerError(
                f"level {L} sigma/delta mention non-lower generators: {sorted(unknown)}"
            )
        tower._set_level(L, sigma, delta)
    star_spec = description.get("star")
    if star_spec:
        table = {}
        for gname, expr in star_spec.items():
            idx = tower.gen_index(gname)
            if idx is None:
                raise TowerError(f"star table mentions unknown generator {gname!r}")
            table[idx] = tower.poly(expr)
        for j, g in enumerate(tower.generators):
            if j not in table:
                raise TowerError(f"star table misses generator {g.name}")
        tower.star_table = table
    if validate:
        res = diamond_check(tower)
        if not res.ok:
            raise NonConfluentTower(
                f"tower {tower.name!r} is not confluent: {res.describe()}",
                witness=res.witness_word,
            )
    return tower

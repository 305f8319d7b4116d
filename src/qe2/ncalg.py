"""Iterated skew-polynomial (Ore tower) rewriting kernel.

An :class:`OreTower` presents an algebra as an iterated extension

    K[g0^&plusmn;] [g1; sigma1, delta1] [g2; sigma2, delta2] ...

with one generator per level.  Level ``L`` commutation data consists of an
algebra endomorphism ``sigma`` and a ``sigma``-twisted derivation
``delta`` of the subalgebra below ``L``, recorded on the lower
generators; the engine derives every swap rule

    g_L * x = sigma(x) * g_L + delta(x)

from them, including the rules for inverse letters of invertible lower
generators via

    sigma(x^-1) = sigma(x)^-1        delta(x^-1) = -sigma(x)^-1 delta(x) x^-1.

Normal forms are linear combinations of normally ordered monomials
``g0^e0 g1^e1 ... gk^ek`` (integer exponents on invertible generators,
naturals otherwise).  Rewriting terminates because every swap moves a
higher-level letter right past a lower one while the inserted sigma- and
delta-images only involve letters of strictly smaller level (delta may
also reuse the level itself, which shortens the tail instead); this is
the (level, degree)-lexicographic measure underlying the PBW property of
Ore extensions.

Rules are applied by one code path, :class:`LetterPushFold`.
Leftmost-first rewriting of ``p*y`` reduces ``p`` completely before it
touches the ``p|y`` boundary, so it is a left fold of "push one letter
into a normal monomial"; rightmost-first is the mirrored right fold.  A
fold memoises its pushes by (normal monomial, letter), and
``REWRITE_STEP_BUDGET`` bounds the pushes of each ``reduce`` call.

The engine is the leftmost fold: each tower keeps one, and
:meth:`OreTower.word_to_poly` and every product of two normal monomials
push letters with it.  A product of normal forms is the bilinear kernel
:func:`bilinear` over the tower's cached table of monomial-pair products;
tensor products and Poisson brackets are the same kernel over their own
tables.  Products of polynomial coefficients with several terms are
summed raw per output term, with the fused multiply-accumulate of
``scalars``, and each sum is normalised once.

Linear systems over the scalar field have one solver, :func:`solve_terms`:
Gauss-Jordan elimination on sparse rows.  The reduced row echelon form is
unique, so the order of the rows does not change its result.

Confluence is decided once per tower, at load, by
:func:`decide_confluence`, and stored as ``tower.confluence``.  Bergman's
diamond lemma (Adv. Math. 29, 1978, Thm. 1.2) makes normal forms unique
when two conditions hold:

* every ambiguity resolves.  The overlaps of the swap and cancellation
  rules are exactly the descending three-letter words, and there are no
  inclusion ambiguities, so :func:`diamond_check` at degree 3 decides
  this: every word of ``degree`` letters whose levels never increase,
  inverse letters included, is reduced by a fresh leftmost fold and a
  fresh rightmost fold, and the two results are compared;
* the rules are compatible with a semigroup order with the descending
  chain condition.  :func:`order_certificate` finds one: a weighted degree
  order, whose weights are stored in ``DiamondResult.weights``.

When both hold, the engine's leftmost normal form is the normal form.
Towers failing the degree-3 check are rejected at load time; a tower that
passes it without an order certificate still loads and is reported as
uncertified.  A commutative tower (every sigma the identity, every delta
zero) is decided without the diamond check: its letters commute, so every
overlap resolves, and all-ones weights (plain deglex) order its swap
rules.
"""

from __future__ import annotations

from itertools import chain, product
from operator import add as _add, mul as _mul
from typing import Optional, Sequence

from . import exprio
from .record import FrozenRecord, Record, setfield
from .scalars import Parameter, Scalar, ScalarContext, _pmac, _pmul, _raw_scalar


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


# pushes one LetterPushFold.reduce call may compute before giving up; it
# bounds engine products as well as diamond-check words
REWRITE_STEP_BUDGET = 200000


class Generator(FrozenRecord):
    __slots__ = _fields = ("name", "level", "invertible")

    def __init__(self, name: str, level: int, invertible: bool = False):
        setfield(self, "name", name)
        setfield(self, "level", level)
        setfield(self, "invertible", invertible)


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


class TermVector:
    """A vector given by its term map ``terms`` {basis key -> Scalar},
    which stores no zero coefficient.  A subclass names its space
    (``space``), builds a vector of that space from a term map
    (``_vector``) and, when it has a product, gives its unit (``_unit``).
    The linear algebra is shared here: vectors of different spaces never
    mix (a TowerError), and vectors of different classes neither add nor
    compare equal (``+`` between them is a TypeError)."""

    __slots__ = ("terms",)

    def _check(self, other):
        if other.space != self.space:
            raise TowerError(f"mixing {type(self).__name__} values of different spaces")

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        self._check(other)
        return self._vector(collect(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self._vector({k: -c for k, c in self.terms.items()})

    def scale(self, s: Scalar):
        if not s:
            return self._vector({})
        return self._vector({k: c * s for k, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self == self._unit()

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __pow__(self, n: int):
        """The product of ``n`` factors of the vector, or of its
        ``unit_inverse`` when ``n`` is negative; the unit when ``n`` is 0."""
        if n < 0:
            return self.unit_inverse() ** -n
        if n == 0:
            return self._unit()
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __str__(self):
        return exprio.format_canonical(self)


def bilinear(p: dict, q: dict, table: dict, build, one) -> dict:
    """The term map of the sum of ``c1*c2*s`` at key ``m`` over the terms
    ``(m1, c1)`` of ``p``, ``(m2, c2)`` of ``q`` and ``(m, s)`` of the
    product of the monomial pair ``(m1, m2)``; every coefficient equal to 1
    in it is ``one``.

    ``table`` caches each pair's product as a tuple of (key, Scalar) terms
    with no zero coefficient, every coefficient equal to 1 stored as
    ``one``; ``build(m1, m2)`` computes a missing entry.  The two data
    coefficients of a pair are multiplied once.  When both are polynomials
    (unit denominator), neither is ``one`` and one has several terms, their
    numerators are multiplied, and each polynomial ``s`` is multiplied into
    a raw sum per key (``scalars._pmac``), which is normalised once at the
    end (Monagan and Pearce, ISSAC 2009).  Every other product is Scalar
    arithmetic, which is cheaper for monomials and passes ``one`` through:
    a structure coefficient that is ``one`` is not multiplied by.
    ``OreTower.mul``, ``TensorElement.__mul__`` and
    ``PoissonStructure.bracket`` are this kernel over their own tables."""
    unit = one.den
    acc = {}  # key -> Scalar sum, or a raw map (a dict) of polynomial products
    raw = []  # the keys that took a raw map
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            key = (m1, m2)
            terms = table.get(key)
            if terms is None:
                terms = table[key] = build(m1, m2)
            c = n = None
            if c1 is one or c2 is one:
                c = c2 if c1 is one else c1
            elif c1.den == unit == c2.den and len(c1.num) + len(c2.num) > 2:
                n = _pmul(c1.num, c2.num)
            else:
                c = c1 * c2
            for m, s in terms:
                v = acc.get(m)
                if n is not None and s.den == unit:
                    if v is None or v.__class__ is not dict and v.den == unit:
                        v = acc[m] = {} if v is None else dict(v.num)
                        raw.append(m)
                    if v.__class__ is dict:
                        _pmac(v, n, s.num)
                        continue
                elif v.__class__ is dict:  # a Scalar product joins
                    v = _raw_scalar(one.ctx, v)
                if c is None:
                    c = c1 * c2
                s = c if s is one else c * s
                if v is not None:
                    s = v + s
                    if not s:
                        del acc[m]
                        continue
                acc[m] = one if s.num == unit == s.den else s
    for m in raw:
        v = acc.get(m)
        if v.__class__ is dict:
            v = acc[m] = _raw_scalar(one.ctx, v)
            if not v:
                del acc[m]
    return acc


def pin_unit(terms, one) -> tuple:
    """The (key, Scalar) pairs ``terms`` as a tuple, each coefficient equal
    to 1 replaced by ``one`` (the form of every cached structure table)."""
    return tuple((m, one if c.is_one() else c) for m, c in terms)


class NCPoly(TermVector):
    """Normal-form element: a finite map {monomial -> Scalar} over a tower.

    Monomials are exponent tuples indexed by level.  No zero coefficients
    are stored; equality is map equality.
    """

    __slots__ = ("tower",)

    def __init__(self, tower: "OreTower", terms: dict):
        self.tower = tower
        self.terms = terms

    @property
    def space(self):
        return self.tower

    def _vector(self, terms):
        return NCPoly(self.tower, terms)

    def _unit(self):
        return NCPoly.one(self.tower)

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
    def __mul__(self, other):
        if isinstance(other, NCPoly):
            self._check(other)
            return self.tower.mul(self, other)
        if isinstance(other, Scalar):
            return self.scale(other)
        if isinstance(other, int):
            return self.scale(self.tower.context.from_int(other))
        return NotImplemented

    def __pow__(self, n: int):
        """A positive power of a monomial on at most one generator, or of
        any monomial on a commutative tower, by exponent arithmetic
        (scalars are central).  Other powers are multiplied up: on the
        shipped towers, repeated squaring of a short sum measured no
        faster."""
        if n > 0 and len(self.terms) == 1:
            ((mono, c),) = self.terms.items()
            if self.tower.commutative or len(mono) - mono.count(0) <= 1:
                return NCPoly(self.tower, {tuple([e * n for e in mono]): c ** n})
        return TermVector.__pow__(self, n)

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
        # set by load_tower(validate=True)
        self.confluence: Optional[DiamondResult] = None
        self._sigma_inv_diag = [dict() for _ in range(n)]
        self.commutative = True
        # caches
        self._engine_fold = None  # built by _engine()
        self._mono_mul = {}
        # {legs -> {(monomial tuple, monomial tuple) -> terms}} for tensor
        # products over legs that start with this tower (hopf.TensorElement)
        self._tensor_mul = {}
        self._star_map = None  # the star table as a hopf.AlgebraMorphism
        self._sigma_pow = {}
        self._delta_pow = {}

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
        # load_tower has rejected images that reference a forward level
        g = self.generators[L]
        for j, img in sigma.items():
            if self.generators[j].invertible and not img.is_invertible_monomial():
                raise TowerError(
                    f"sigma({self.generators[j].name}) must be an invertible "
                    f"monomial multiple at level {L}"
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
        self._engine_fold = None  # its memo and rules predate this level
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
        """m1*m2 in normal form as a term tuple for the ``_mono_mul`` table:
        the letters of m2 folded into m1 by the engine fold."""
        one = self.context.one
        top1 = _top_level(m1)
        low2 = _low_level(m2)
        if self.commutative or top1 is None or low2 is None or top1 <= low2:
            return ((tuple(map(_add, m1, m2)), one),)
        poly = self._engine().reduce(_mono_to_word(m2), start=m1)
        return pin_unit(poly.terms.items(), one)

    def _engine(self) -> "LetterPushFold":
        """The leftmost fold that computes every product of this tower."""
        if self._engine_fold is None:
            self._engine_fold = LetterPushFold(self, leftmost=True)
        return self._engine_fold

    def word_to_poly(self, word) -> NCPoly:
        """Normal form of a raw product word of (generator, exponent)."""
        letters = []
        for idx, e in word:
            if isinstance(idx, str):
                j = self.gen_index(idx)
                if j is None:
                    raise TowerError(f"unknown generator {idx!r}")
                idx = j
            if e < 0 and not self.generators[idx].invertible:
                raise TowerError(
                    f"negative power of non-invertible generator "
                    f"{self.generators[idx].name}"
                )
            letters += [(idx, 1 if e > 0 else -1)] * abs(e)
        return self._engine().reduce(letters)

    def _sigma_img(self, L: int, j: int, e: int) -> NCPoly:
        """sigma_L(g_j^e) for e = +-1, via sigma(x^-1) = sigma(x)^-1."""
        key = (L, j, e)
        hit = self._sigma_pow.get(key)
        if hit is None:
            base = self.sigma[L][j]
            hit = self._sigma_pow[key] = base if e > 0 else base.unit_inverse()
        return hit

    def _delta_img(self, L: int, j: int, e: int) -> NCPoly:
        """delta_L(g_j^e) for e = +-1, via
        delta(x^-1) = -sigma(x)^-1 delta(x) x^-1."""
        key = (L, j, e)
        if key in self._delta_pow:
            hit = self._delta_pow[key]
            if hit is None:
                g = self.generators
                raise TowerError(
                    f"delta of level {L} ({g[L].name}) on {g[j].name}^-1 needs "
                    f"the rule {g[L].name}*{g[j].name}^-1 that it defines"
                )
            return hit
        out = self.delta[L][j]
        if e < 0:
            self._delta_pow[key] = None  # in progress: a re-entry is a cycle
            try:
                ginv = NCPoly.generator(self, j, -1)
                out = -(self._sigma_img(L, j, -1) * out * ginv)
            finally:
                del self._delta_pow[key]
        self._delta_pow[key] = out
        return out

    def tower_mono(self, mono) -> NCPoly:
        return NCPoly(self, {mono: self.context.one})

    # -- derived rewrite rules (for reports and morphism checks) -----------
    def swap_words(self):
        """Every redex g_hi^s * g_lo^t of a swap rule, as a letter word,
        with s, t ranging over the allowed unit exponents."""
        words = []
        for L in range(1, self.nlevels):
            s_opts = [1] + ([-1] if self.generators[L].invertible else [])
            for j in range(L):
                t_opts = [1] + ([-1] if self.generators[j].invertible else [])
                words += [((L, s), (j, t)) for s in s_opts for t in t_opts]
        return words

    def derived_rules(self):
        """(word, normal form) for every swap rule the tower induces."""
        return [(word, self.word_to_poly(word)) for word in self.swap_words()]

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


class AffineSolutions(Record):
    """The solution set ``particular + span(nullspace)`` of a linear
    system; ``particular`` is None when the system has no solution."""

    __slots__ = _fields = ("particular", "nullspace")

    def __init__(self, particular: Optional[list], nullspace: list):
        self.particular = particular  # one Scalar per column, free variables zero
        self.nullspace = nullspace    # basis of the homogeneous solutions

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
    keys, one equation per key that occurs in any of them.

    Gauss-Jordan elimination on sparse rows: the equation of a key is the
    dict {column index: nonzero Scalar} of its coefficients, the target
    being column ``n``, and the equations go in descending key order.  A
    column's pivot is the first unreduced row that holds it, divided by its
    pivot unless that is one; eliminating the column touches only the rows
    that hold it, and only at the pivot row's entries, and deletes each
    entry that cancels.  The reduced row echelon form is unique, so the
    order of the equations changes only the work, never the result: the
    particular solution has the free variables zero, and the nullspace has
    one vector per free column, one at that column.
    """
    n = len(columns)
    zero, one = ctx.zero, ctx.one
    by_key = {}
    for j, col in enumerate(chain(columns, (target,))):
        for k, v in col.items():
            if v:
                by_key.setdefault(k, {})[j] = v
    pending = [by_key[k] for k in sorted(by_key, reverse=True)]
    pivots = {}  # column -> its reduced row, without the pivot entry
    for c in range(n):
        i = next((i for i, row in enumerate(pending) if c in row), None)
        if i is None:
            continue
        row = pending.pop(i)
        pv = row.pop(c)
        if not pv.is_one():
            for k, v in row.items():
                row[k] = v / pv
        entries = row.items()
        for other in chain(pending, pivots.values()):
            f = other.pop(c, None)
            if f is None:
                continue
            f = -f
            for k, v in entries:
                if k in other:
                    s = other[k] + f * v
                    if s:
                        other[k] = s
                    else:
                        del other[k]
                else:
                    other[k] = f * v
        pivots[c] = row
    # every column below n is pivoted or absent from the leftover rows
    if any(pending):
        return AffineSolutions(None, [])
    particular = [pivots[c].get(n, zero) if c in pivots else zero for c in range(n)]
    nullspace = []
    for fc in range(n):
        if fc not in pivots:
            vec = [zero] * n
            vec[fc] = one
            for c, row in pivots.items():
                if fc in row:
                    vec[c] = -row[fc]
            nullspace.append(vec)
    return AffineSolutions(particular, nullspace)


def span_solve(x: NCPoly, basis: Sequence[NCPoly]) -> AffineSolutions:
    """Exact solution set of sum_i c_i basis_i = x; ``empty`` when x is
    outside the span, ``unique`` when the basis is linearly independent."""
    ctx = x.tower.context
    return solve_terms(x.terms, [b.terms for b in basis], ctx)


# ---------------------------------------------------------------------------
# Diamond (confluence) check: two fresh folds, one per strategy.
# ---------------------------------------------------------------------------


class DiamondResult(Record):
    __slots__ = _fields = (
        "ok", "witness_word", "left_form", "right_form", "weights"
    )

    def __init__(self, ok: bool, witness_word: Optional[tuple] = None,
                 left_form: Optional[str] = None, right_form: Optional[str] = None,
                 weights: Optional[tuple] = None):
        self.ok = ok
        self.witness_word = witness_word
        self.left_form = left_form
        self.right_form = right_form
        # the order certificate's letter weights, one per level; set by
        # decide_confluence, None when no compatible order was found
        self.weights = weights

    def describe(self):
        if self.ok and self.weights is None:
            return ("all overlap words reduce consistently, but no compatible "
                    "order was found (uncertified)")
        if self.ok:
            return "all overlap words reduce consistently"
        w = "*".join(
            f"{name}^{e}" if e != 1 else name for name, e in self.witness_word
        )
        return f"overlap {w}: {self.left_form} != {self.right_form}"


def diamond_check(tower: OreTower, degree: int = 3) -> DiamondResult:
    """Reduce every descending word of the given length leftmost-first and
    rightmost-first, and compare the two results.

    Words are checked in the lexicographic order of their letters
    (``(level, +1)`` before ``(level, -1)``, lower levels first), and the
    first word whose two results disagree is the witness.  Each strategy
    is a :class:`LetterPushFold` of its own, made for this call alone: the
    two share no memo with each other, with the engine's fold or with
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
        if left != right:
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


def order_certificate(tower: OreTower) -> Optional[tuple]:
    """Letter weights, one per level, of a semigroup order with the
    descending chain condition that every rewriting rule decreases; None
    when no weight vector with entries 1 to 4 fits.

    The order is weighted degree, an inverse letter weighing what its
    generator weighs, with ties broken lexicographically: lower levels are
    smaller, and ``(level, +1)`` comes before ``(level, -1)``.  A weight
    vector fits when every term of every swap rule's right-hand side, as
    the engine's fold applies it, is strictly smaller than its redex;
    ``x x^-1 -> 1`` always decreases.  Weight vectors are tried in
    lexicographic order and the first fit is returned, so all-ones weights
    (plain deglex) win when they fit.
    """
    n = tower.nlevels
    fold = LetterPushFold(tower, leftmost=True)
    # one constraint per (redex, term): the letters per level of the redex
    # minus those of the term, and whether the term wins a weight tie
    constraints = set()
    for word in tower.swap_words():
        for term, _ in fold._rule(*word):
            gap = [0] * n
            for j, _ in word:
                gap[j] += 1
            for j, _ in term:
                gap[j] -= 1
            tie = [(j, -s) for j, s in term] < [(j, -s) for j, s in word]
            constraints.add((tuple(gap), tie))
    for weights in product(range(1, 5), repeat=n):
        for gap, tie in constraints:
            d = sum(map(_mul, weights, gap))
            if d < 0 or (d == 0 and not tie):
                break
        else:
            return weights
    return None


def decide_confluence(tower: OreTower) -> DiamondResult:
    """The diamond lemma's verdict on ``tower``: the degree-3 diamond check
    (every ambiguity resolves) with the order certificate's weights filled
    in.  Normal forms are unique when ``ok`` holds and ``weights`` is set.

    A commutative tower (every sigma the identity, every delta zero) is
    decided without either: its letters commute, so every overlap
    resolves, and plain deglex (all-ones weights) orders its swap rules."""
    if tower.commutative:
        return DiamondResult(True, weights=(1,) * tower.nlevels)
    res = diamond_check(tower, 3)
    res.weights = order_certificate(tower)
    return res


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
    :meth:`reduce` call; past it, :class:`RewriteBudgetExceeded` is raised
    with the word as witness.  Terms that cancel between two letters are
    dropped before the next letter is pushed.
    """

    def __init__(self, tower: OreTower, leftmost: bool):
        self.tower = tower
        self.leftmost = leftmost
        self._one = tower.context.one
        self._memo = {}     # (monomial, letter) -> ((monomial, coeff), ...)
        self._rules = {}    # (letter, letter) redex -> ((letters, coeff), ...)

    def reduce(self, word, start=None) -> NCPoly:
        """Normal form of a letter word under this object's strategy,
        pushed into the normal monomial ``start`` (the unit by default):
        ``start*word`` leftmost-first, ``word*start`` rightmost-first."""
        letters = tuple(word) if self.leftmost else tuple(reversed(word))
        if start is None:
            start = self.tower.unit_mono
        memo = self._memo
        stack = [(None, self._fold(start, letters))]
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
        if j not in tower.sigma[i]:
            # only while load_tower parses level i's own data
            g = tower.generators
            word = "*".join(g[k].name + ("^-1" if s < 0 else "") for k, s in (a, b))
            raise TowerError(
                f"the product {word} needs the rules of level {i} "
                f"({g[i].name}), which are not set yet"
            )
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
    automatically.  Unless ``validate`` is False, :func:`decide_confluence`
    runs once, its result is stored as ``tower.confluence``, and towers
    failing its diamond check are rejected with :class:`NonConfluentTower`.
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
        res = tower.confluence = decide_confluence(tower)
        if not res.ok:
            raise NonConfluentTower(
                f"tower {tower.name!r} is not confluent: {res.describe()}",
                witness=res.witness_word,
            )
    return tower

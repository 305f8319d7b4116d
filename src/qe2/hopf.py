"""Hopf structure maps and tensor arithmetic.

Structure maps live in a :class:`HopfStructure` attached to a tower:
the coproduct and counit extend multiplicatively from their generator
values, the antipode and the star antimultiplicatively (the star is
antilinear on coefficients and is stored on the tower itself, since
non-Hopf presets also carry one).

:class:`TensorElement` implements A (x) B (and triple) tensors whose legs
may live in different towers; this is what the quotient and coinvariance
machinery needs for maps like (pi (x) id) o Delta.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Callable, Optional, Sequence

from . import exprio
from .ncalg import NCPoly, OreTower, TowerError, bilinear, collect, pin_unit
from .report import FAIL, PASS, CheckReport
from .scalars import Scalar


class TensorElement:
    """Finite map {(monomial per leg) -> Scalar} with normal-formed legs."""

    __slots__ = ("legs", "terms")

    def __init__(self, legs: Sequence[OreTower], terms: dict):
        self.legs = tuple(legs)
        self.terms = terms

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, legs):
        return cls(legs, {})

    @classmethod
    def unit(cls, legs):
        ctx = legs[0].context
        mono = tuple(t.unit_mono for t in legs)
        return cls(legs, {mono: ctx.one})

    @classmethod
    def from_legs(cls, legs, polys):
        """Outer product p1 (x) p2 (x) ... of per-leg NCPolys."""
        if len(legs) != len(polys):
            raise ValueError("leg/poly count mismatch")
        ctx = legs[0].context
        for t in legs:
            if t.context != ctx:
                raise TowerError("tensor legs must share one scalar context")
        return cls(legs, collect(_outer(ctx.one, [p.terms.items() for p in polys])))

    def arity(self):
        return len(self.legs)

    # -- linear structure --------------------------------------------------
    def _check(self, other):
        if self.legs != other.legs:
            raise TowerError("mixing tensors with different legs")

    def __add__(self, other):
        self._check(other)
        return TensorElement(
            self.legs, collect(chain(self.terms.items(), other.terms.items()))
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TensorElement(self.legs, {m: -c for m, c in self.terms.items()})

    def scale(self, s: Scalar):
        if not s:
            return TensorElement.zero(self.legs)
        return TensorElement(self.legs, {m: c * s for m, c in self.terms.items()})

    def __mul__(self, other):
        """Componentwise product: (a (x) b)(c (x) d) = ac (x) bd, by the
        bilinear kernel over a table of monomial-tuple products that the
        first leg's tower caches per leg tuple."""
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        legs = self.legs
        one = legs[0].context.one
        tables = legs[0]._tensor_mul
        table = tables.get(legs)
        if table is None:
            table = tables[legs] = {}

        def build(m1, m2):
            return pin_unit(_outer(one, [
                t._mono_mul_terms(a, b) for t, a, b in zip(legs, m1, m2)
            ]), one)

        return TensorElement(legs, bilinear(self.terms, other.terms, table, build, one))

    def __pow__(self, n: int):
        if n == 0:
            return TensorElement.unit(self.legs)
        if n < 0:
            return self.unit_inverse() ** (-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def unit_inverse(self):
        """Inverse of a single-term tensor with invertible monomial legs."""
        if len(self.terms) != 1:
            raise TowerError("only monomial tensors can be inverted")
        monos, c = next(iter(self.terms.items()))
        inv_legs = []
        for j, t in enumerate(self.legs):
            inv_legs.append(t.tower_mono(monos[j]).unit_inverse())
        out = TensorElement.from_legs(self.legs, inv_legs).scale(c.inverse())
        if not (self * out).is_unit():
            raise TowerError("tensor inverse verification failed")
        return out

    # -- predicates ------------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_unit(self):
        if len(self.terms) != 1:
            return False
        monos, c = next(iter(self.terms.items()))
        return c.is_one() and all(
            m == t.unit_mono for m, t in zip(monos, self.legs)
        )

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.legs == other.legs and self.terms == other.terms

    def __hash__(self):
        return hash((self.legs, frozenset(self.terms.items())))

    def __repr__(self):
        return f"TensorElement({exprio.format_canonical(self)})"

    def __str__(self):
        return exprio.format_canonical(self)

    # -- leg surgery -------------------------------------------------------
    def _splice(self, j, new_legs, image, conjugate_coeff=False):
        """Replace leg j by the legs ``new_legs``: a term whose leg j holds
        the monomial m becomes the (monomial tuple, Scalar) pairs of
        ``image(m)``, each tuple spliced in at position j and each
        coefficient multiplied by the term's (conjugated, if asked).
        One-leg images map the leg, empty ones contract it and longer ones
        expand it."""
        legs = self.legs[:j] + new_legs + self.legs[j + 1 :]
        pairs = []
        for monos, c in self.terms.items():
            if conjugate_coeff:
                c = c.conjugate()
            head, tail = monos[:j], monos[j + 1 :]
            pairs += [(head + m + tail, c * c2) for m, c2 in image(monos[j])]
        return TensorElement(legs, collect(pairs))

    def map_leg(self, j: int, f: Callable[[NCPoly], NCPoly],
                new_tower: Optional[OreTower] = None,
                conjugate_coeff: bool = False) -> "TensorElement":
        """Apply an NCPoly -> NCPoly map to leg j, keeping the other legs."""
        tower = self.legs[j]
        return self._splice(
            j,
            (new_tower or tower,),
            lambda m: [((m2,), c) for m2, c in f(tower.tower_mono(m)).terms.items()],
            conjugate_coeff,
        )

    def expand_leg(self, j: int, f: Callable[[NCPoly], "TensorElement"]) -> "TensorElement":
        """Replace leg j by the tensor image of its monomials under a linear
        map; the image of zero names the new legs."""
        tower = self.legs[j]
        return self._splice(
            j,
            f(NCPoly.zero(tower)).legs,
            lambda m: f(tower.tower_mono(m)).terms.items(),
        )

    def contract_leg(self, j: int, f: Callable[[NCPoly], Scalar]) -> "TensorElement":
        """Apply a scalar-valued map (like the counit) to leg j."""
        if len(self.legs) == 1:
            raise ValueError("cannot contract the last leg")
        tower = self.legs[j]
        return self._splice(j, (), lambda m: [((), f(tower.tower_mono(m)))])

    def multiply_out(self) -> NCPoly:
        """mu: multiply all legs together inside one tower."""
        tower = self.legs[0]
        for t in self.legs:
            if t is not tower:
                raise TowerError("cannot multiply legs from different towers")
        pairs = []
        for monos, c in self.terms.items():
            p = tower.tower_mono(monos[0])
            for m in monos[1:]:
                p = p * tower.tower_mono(m)
            pairs += [(mono, c * c2) for mono, c2 in p.terms.items()]
        return NCPoly(tower, collect(pairs))

    def as_poly_times_unit(self, j: int) -> Optional[NCPoly]:
        """When every term has the unit monomial on all legs except j,
        return the leg-j polynomial; else None."""
        units = tuple(t.unit_mono for t in self.legs)
        terms = {}
        for monos, c in self.terms.items():
            if monos[:j] + monos[j + 1 :] != units[:j] + units[j + 1 :]:
                return None
            terms[monos[j]] = c
        return NCPoly(self.legs[j], terms)


def _outer(coeff, factors):
    """(monomial tuple, Scalar) pairs of coeff times the outer product of
    per-leg sequences of (monomial, Scalar) terms."""
    out = []
    for combo in product(*factors):
        c = coeff
        for _, cc in combo:
            c = c * cc
        out.append((tuple([m for m, _ in combo]), c))
    return out


# ---------------------------------------------------------------------------
# Star (lives on the tower; antilinear antihomomorphism)
# ---------------------------------------------------------------------------


def star_apply(x: NCPoly, tower: Optional[OreTower] = None) -> NCPoly:
    """(c * g1^a ... gk^b)* = conj(c) * star(gk)^b ... star(g1)^a."""
    tower = tower or x.tower
    table = tower.star_table
    if table is None:
        raise TowerError(f"tower {tower.name!r} has no star table")
    pairs = []
    for mono, c in x.terms.items():
        p = NCPoly.one(tower)
        for j in range(len(mono) - 1, -1, -1):
            e = mono[j]
            if e:
                p = p * (table[j] ** e)
        c = c.conjugate()
        pairs += [(m, c * c2) for m, c2 in p.terms.items()]
    return NCPoly(tower, collect(pairs))


# ---------------------------------------------------------------------------
# Hopf structure
# ---------------------------------------------------------------------------


class HopfStructure:
    """Coproduct, counit, antipode tables on generators, extended
    (anti)multiplicatively; the star table is taken from the tower."""

    def __init__(self, tower: OreTower, delta, counit, antipode):
        self.tower = tower
        self.delta_table = delta      # idx -> TensorElement (tower, tower)
        self.counit_table = counit    # idx -> Scalar
        self.antipode_table = antipode  # idx -> NCPoly
        self._delta_mono = {}
        self._antipode_mono = {}
        for j, g in enumerate(tower.generators):
            if g.invertible:
                d = delta[j]
                if len(d.terms) != 1:
                    raise TowerError(
                        f"coproduct of invertible generator {g.name} must be a "
                        "monomial tensor"
                    )
                if not counit[j]:
                    raise TowerError(f"counit of invertible {g.name} must be a unit")
                if not antipode[j].is_invertible_monomial():
                    raise TowerError(
                        f"antipode of invertible generator {g.name} must be an "
                        "invertible monomial"
                    )

    # -- structure maps ------------------------------------------------------
    def coproduct(self, x: NCPoly) -> TensorElement:
        return TensorElement((self.tower, self.tower), collect(
            (m, c * c2)
            for mono, c in x.terms.items()
            for m, c2 in self._delta_of_mono(mono).terms.items()
        ))

    def _delta_of_mono(self, mono) -> TensorElement:
        hit = self._delta_mono.get(mono)
        if hit is not None:
            return hit
        legs = (self.tower, self.tower)
        out = TensorElement.unit(legs)
        for j, e in enumerate(mono):
            if e:
                out = out * (self.delta_table[j] ** e)
        self._delta_mono[mono] = out
        return out

    def counit(self, x: NCPoly) -> Scalar:
        ctx = self.tower.context
        total = ctx.zero
        for mono, c in x.terms.items():
            term = c
            for j, e in enumerate(mono):
                if e and term:
                    term = term * self.counit_table[j] ** e
            total = total + term
        return total

    def antipode(self, x: NCPoly) -> NCPoly:
        return NCPoly(self.tower, collect(
            (m, c * c2)
            for mono, c in x.terms.items()
            for m, c2 in self._antipode_of_mono(mono).terms.items()
        ))

    def _antipode_of_mono(self, mono) -> NCPoly:
        hit = self._antipode_mono.get(mono)
        if hit is not None:
            return hit
        p = NCPoly.one(self.tower)
        for j in range(len(mono) - 1, -1, -1):
            e = mono[j]
            if e:
                p = p * (self.antipode_table[j] ** e)
        self._antipode_mono[mono] = p
        return p

    def star(self, x: NCPoly) -> NCPoly:
        return star_apply(x, self.tower)

    # -- tensor-level helpers --------------------------------------------------
    def coproduct_leg(self, t: TensorElement, j: int) -> TensorElement:
        return t.expand_leg(j, self.coproduct)

    def counit_leg(self, t: TensorElement, j: int) -> TensorElement:
        return t.contract_leg(j, self.counit)


def load_hopf(tower: OreTower, spec: dict) -> HopfStructure:
    """Attach the Hopf tables given as grammar expressions."""
    delta = {}
    counit = {}
    antipode = {}
    legs = (tower, tower)
    for gname, expr in spec["delta"].items():
        j = tower.gen_index(gname)
        val = exprio.elaborate_expr(exprio.parse_expr(expr), legs)
        if isinstance(val, NCPoly):
            raise TowerError(f"coproduct of {gname} must be a tensor expression")
        delta[j] = val
    for gname, expr in spec["counit"].items():
        j = tower.gen_index(gname)
        p = tower.poly(expr)
        s = p.as_scalar()
        if s is None:
            raise TowerError(f"counit of {gname} must be scalar")
        counit[j] = s
    for gname, expr in spec["antipode"].items():
        j = tower.gen_index(gname)
        antipode[j] = tower.poly(expr)
    missing = [
        g.name
        for j, g in enumerate(tower.generators)
        if j not in delta or j not in counit or j not in antipode
    ]
    if missing:
        raise TowerError(f"hopf tables missing generators: {missing}")
    return HopfStructure(tower, delta, counit, antipode)


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------


def hopf_axioms_report(H: HopfStructure, suite="hopf-axioms") -> CheckReport:
    """Coassociativity, counit, antipode, star-coproduct compatibility and
    the star involution, on every generator (which suffices: all maps are
    determined by their generator values and their (anti)multiplicativity,
    given that the tower relations are respected; see
    respects_relations_report)."""
    rep = CheckReport(suite)
    tower = H.tower
    has_star = tower.star_table is not None
    for j, g in enumerate(tower.generators):
        x = NCPoly.generator(tower, j)
        dx = H.coproduct(x)
        lhs = H.coproduct_leg(dx, 0)
        rhs = H.coproduct_leg(dx, 1)
        _cmp(rep, f"coassoc-{g.name}", lhs, rhs)
        left_counit = H.counit_leg(dx, 0).as_poly_times_unit(0)
        right_counit = H.counit_leg(dx, 1).as_poly_times_unit(0)
        _cmp(rep, f"counit-left-{g.name}", left_counit, x)
        _cmp(rep, f"counit-right-{g.name}", right_counit, x)
        eta_eps = NCPoly.constant(tower, H.counit(x))
        s_left = dx.map_leg(0, H.antipode).multiply_out()
        s_right = dx.map_leg(1, H.antipode).multiply_out()
        _cmp(rep, f"antipode-left-{g.name}", s_left, eta_eps)
        _cmp(rep, f"antipode-right-{g.name}", s_right, eta_eps)
        if has_star:
            star_dx = H.coproduct(H.star(x))
            dx_star = dx.map_leg(0, H.star, conjugate_coeff=True).map_leg(
                1, H.star
            )
            _cmp(rep, f"star-coproduct-{g.name}", star_dx, dx_star)
            _cmp(rep, f"star-involution-{g.name}", H.star(H.star(x)), x)
    return rep


def respects_relations_report(
    tower: OreTower,
    H: Optional[HopfStructure] = None,
    suite="respects-relations",
    star_status_on_fail=FAIL,
) -> CheckReport:
    """Check that the structure maps are well defined on the presented
    relations: for every derived rewrite rule lhs = rhs,

        Delta(lhs) = Delta(rhs), eps(lhs) = eps(rhs), S(lhs) = S(rhs)
        and (lhs)* = (rhs)*

    where the maps are applied to the *word* side antimultiplicatively
    (S and star reverse products).  ``star_status_on_fail`` lets callers
    classify a star mismatch as a reported discrepancy when the printed
    star table itself is under scrutiny."""
    rep = CheckReport(suite)
    rules = tower.derived_rules()
    for word, rhs in rules:
        wname = "*".join(
            f"{tower.generators[j].name}^{e}" if e != 1 else tower.generators[j].name
            for j, e in word
        )
        factors = [NCPoly.generator(tower, j, e) for j, e in word]
        if H is not None:
            d_lhs = None
            for f in factors:
                df = H.coproduct(f)
                d_lhs = df if d_lhs is None else d_lhs * df
            _cmp(rep, f"delta-on[{wname}]", d_lhs, H.coproduct(rhs))
            e_lhs = tower.context.one
            for f in factors:
                e_lhs = e_lhs * H.counit(f)
            _cmp(
                rep,
                f"counit-on[{wname}]",
                NCPoly.constant(tower, e_lhs),
                NCPoly.constant(tower, H.counit(rhs)),
            )
            s_lhs = NCPoly.one(tower)
            for f in factors:  # S reverses products
                s_lhs = H.antipode(f) * s_lhs
            _cmp(rep, f"antipode-on[{wname}]", s_lhs, H.antipode(rhs))
        if tower.star_table is not None:
            st_lhs = NCPoly.one(tower)
            for f in factors:  # star reverses products
                st_lhs = star_apply(f) * st_lhs
            _cmp(
                rep,
                f"star-on[{wname}]",
                st_lhs,
                star_apply(rhs),
                fail_status=star_status_on_fail,
            )
    return rep


def _cmp(rep: CheckReport, check_id, lhs, rhs, fail_status=FAIL):
    ok = lhs == rhs
    rep.add(
        check_id,
        status=PASS if ok else fail_status,
        lhs=exprio.format_canonical(lhs) if lhs is not None else "<none>",
        rhs=exprio.format_canonical(rhs) if rhs is not None else "<none>",
        witness="" if ok else "left and right canonical forms differ",
    )
    return ok

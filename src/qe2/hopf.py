"""Structure maps and tensor arithmetic.

:class:`AlgebraMorphism` is the one extension of generator values to the
whole algebra: the image of a monomial is the product of the generator
images (in reverse order for an antihomomorphism), cached per monomial,
and an element's image is the sum of its terms' images (with conjugated
coefficients for an antilinear map).  The coproduct and antipode of a
:class:`HopfStructure`, the star of a tower (:func:`star_map`; kept on
the tower, since non-Hopf presets also carry one) and the coactions,
projections and quotient maps of the presets are all such maps.  Only
the counit, whose target is the scalars, keeps a table of its own.

:class:`TensorElement` implements A (x) B (and triple) tensors whose legs
may live in different towers; this is what the quotient and coinvariance
machinery needs for maps like (pi (x) id) o Delta.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Callable, Optional, Sequence

from . import exprio
from .ncalg import NCPoly, OreTower, TowerError, bilinear, collect, pin_unit
from .report import FAIL, CheckReport
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
# Structure maps
# ---------------------------------------------------------------------------


class AlgebraMorphism:
    """Map determined by generator images and extended over each monomial;
    the target is a tower or a tuple of towers (tensor legs).  ``reverse``
    makes it an antihomomorphism and ``antilinear`` conjugates the
    coefficients of its argument.  Monomial images are cached."""

    def __init__(self, source: OreTower, target, images: dict,
                 reverse: bool = False, antilinear: bool = False):
        self.source = source
        self.target = target
        self.tensor = isinstance(target, tuple)
        self.reverse = reverse
        self.antilinear = antilinear
        self.one = TensorElement.unit(target) if self.tensor else NCPoly.one(target)
        imgs = {}
        for gname, val in images.items():
            idx = source.gen_index(gname)
            if idx is None:
                raise TowerError(f"morphism image for unknown generator {gname!r}")
            if isinstance(val, TensorElement) != self.tensor:
                raise TowerError(
                    f"image of {gname} must {'' if self.tensor else 'not '}be a tensor"
                )
            imgs[idx] = val
        if len(imgs) != source.nlevels:
            raise TowerError("morphism must give an image for every generator")
        self.images = imgs
        self._mono_cache = {}

    @classmethod
    def load(cls, source: OreTower, target, images_spec: dict,
             reverse: bool = False) -> "AlgebraMorphism":
        """Generator images given as grammar expressions in the target."""
        return cls(source, target, {
            gname: exprio.elaborate_expr(exprio.parse_expr(expr), target)
            for gname, expr in images_spec.items()
        }, reverse=reverse)

    def word_image(self, word):
        """Image of the product of a word of (generator index, exponent)."""
        factors = [self.images[j] ** e for j, e in word]
        if self.reverse:
            factors.reverse()
        out = self.one
        for f in factors:
            out = out * f
        return out

    def apply(self, x: NCPoly):
        if x.tower is not self.source:
            raise TowerError("element not in the morphism source")
        items = x.terms.items()
        if self.antilinear:
            items = [(mono, c.conjugate()) for mono, c in items]
        cache = self._mono_cache
        pairs = []
        for mono, c in items:
            img = cache.get(mono)
            if img is None:
                img = cache[mono] = self.word_image(
                    [(j, e) for j, e in enumerate(mono) if e]
                )
            pairs += [(m, c * c2) for m, c2 in img.terms.items()]
        if self.tensor:
            return TensorElement(self.target, collect(pairs))
        return NCPoly(self.target, collect(pairs))

    def validate(self, suite="morphism") -> CheckReport:
        """Images must satisfy every derived relation of the source."""
        rep = CheckReport(suite)
        for word, rhs in self.source.derived_rules():
            check_id = f"respects[{_word_name(self.source, word)}]"
            try:
                lhs_img = self.word_image(word)
                rhs_img = self.apply(rhs)
            except TowerError as e:
                rep.add(check_id, status=FAIL, witness=str(e))
                continue
            rep.verdict(
                check_id,
                lhs_img == rhs_img,
                lhs=exprio.format_canonical(lhs_img),
                rhs=exprio.format_canonical(rhs_img),
            )
        return rep


def _word_name(tower: OreTower, word) -> str:
    return "*".join(
        f"{tower.generators[j].name}^{e}" if e != 1 else tower.generators[j].name
        for j, e in word
    )


def star_map(tower: OreTower) -> AlgebraMorphism:
    """The tower's star table as an antilinear antihomomorphism, built on
    first use and kept on the tower."""
    if tower._star_map is None:
        if tower.star_table is None:
            raise TowerError(f"tower {tower.name!r} has no star table")
        tower._star_map = AlgebraMorphism(
            tower,
            tower,
            {g.name: tower.star_table[j] for j, g in enumerate(tower.generators)},
            reverse=True,
            antilinear=True,
        )
    return tower._star_map


def star_apply(x: NCPoly, tower: Optional[OreTower] = None) -> NCPoly:
    """(c * g1^a ... gk^b)* = conj(c) * star(gk)^b ... star(g1)^a."""
    return star_map(tower or x.tower).apply(x)


class HopfStructure:
    """Coproduct, counit and antipode as structure maps (the counit's target
    is the tower without generators, the antipode reverses products); the
    star is the tower's own."""

    def __init__(self, tower: OreTower, coproduct_map: AlgebraMorphism,
                 counit_map: AlgebraMorphism, antipode_map: AlgebraMorphism):
        self.tower = tower
        self.coproduct_map = coproduct_map
        self.counit_map = counit_map
        self.antipode_map = antipode_map
        for j, g in enumerate(tower.generators):
            if g.invertible:
                if len(coproduct_map.images[j].terms) != 1:
                    raise TowerError(
                        f"coproduct of invertible generator {g.name} must be a "
                        "monomial tensor"
                    )
                if not counit_map.images[j]:
                    raise TowerError(f"counit of invertible {g.name} must be a unit")
                if not antipode_map.images[j].is_invertible_monomial():
                    raise TowerError(
                        f"antipode of invertible generator {g.name} must be an "
                        "invertible monomial"
                    )

    # -- structure maps ------------------------------------------------------
    def coproduct(self, x: NCPoly) -> TensorElement:
        return self.coproduct_map.apply(x)

    def counit(self, x: NCPoly) -> Scalar:
        return self.counit_map.apply(x).as_scalar()

    def antipode(self, x: NCPoly) -> NCPoly:
        return self.antipode_map.apply(x)

    def star(self, x: NCPoly) -> NCPoly:
        return star_apply(x, self.tower)

    # -- tensor-level helpers --------------------------------------------------
    def coproduct_leg(self, t: TensorElement, j: int) -> TensorElement:
        return t.expand_leg(j, self.coproduct)

    def counit_leg(self, t: TensorElement, j: int) -> TensorElement:
        return t.contract_leg(j, self.counit)


def load_hopf(tower: OreTower, spec: dict) -> HopfStructure:
    """Attach the Hopf tables given as grammar expressions (the counit's
    are scalar expressions); each table names every generator of the tower
    and no other."""
    delta = AlgebraMorphism.load(tower, (tower, tower), spec["delta"])
    scalars = OreTower("scalars", tower.context, [])
    counit = AlgebraMorphism.load(tower, scalars, spec["counit"])
    antipode = AlgebraMorphism.load(tower, tower, spec["antipode"], reverse=True)
    return HopfStructure(tower, delta, counit, antipode)


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------


_DIFFER = "left and right canonical forms differ"


def hopf_axioms_report(H: HopfStructure, suite="hopf-axioms") -> CheckReport:
    """Coassociativity, counit, antipode, star-coproduct compatibility and
    the star involution, on every generator (which suffices: all maps are
    determined by their generator values and their (anti)multiplicativity,
    given that the tower relations are respected; see
    respects_relations_report)."""
    tower = H.tower
    sides = []  # (check id, left side, right side)
    for j, g in enumerate(tower.generators):
        x = NCPoly.generator(tower, j)
        dx = H.coproduct(x)
        eta_eps = NCPoly.constant(tower, H.counit(x))
        sides += [
            (f"coassoc-{g.name}", H.coproduct_leg(dx, 0), H.coproduct_leg(dx, 1)),
            (f"counit-left-{g.name}", H.counit_leg(dx, 0).as_poly_times_unit(0), x),
            (f"counit-right-{g.name}", H.counit_leg(dx, 1).as_poly_times_unit(0), x),
            (f"antipode-left-{g.name}", dx.map_leg(0, H.antipode).multiply_out(),
             eta_eps),
            (f"antipode-right-{g.name}", dx.map_leg(1, H.antipode).multiply_out(),
             eta_eps),
        ]
        if tower.star_table is not None:
            dx_star = dx.map_leg(0, H.star, conjugate_coeff=True).map_leg(1, H.star)
            sides += [
                (f"star-coproduct-{g.name}", H.coproduct(H.star(x)), dx_star),
                (f"star-involution-{g.name}", H.star(H.star(x)), x),
            ]
    rep = CheckReport(suite)
    for check_id, lhs, rhs in sides:
        rep.verdict(check_id, lhs == rhs, lhs=exprio.format_canonical(lhs),
                    rhs=exprio.format_canonical(rhs), witness=_DIFFER)
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

    where the image of the *word* side is the product of the generator
    images (``AlgebraMorphism.word_image``; S and star reverse products).
    ``star_status_on_fail`` lets callers
    classify a star mismatch as a reported discrepancy when the printed
    star table itself is under scrutiny."""
    maps = []  # (check id prefix, structure map, status on mismatch)
    if H is not None:
        maps += [
            ("delta", H.coproduct_map, FAIL),
            ("counit", H.counit_map, FAIL),
            ("antipode", H.antipode_map, FAIL),
        ]
    if tower.star_table is not None:
        maps.append(("star", star_map(tower), star_status_on_fail))
    rep = CheckReport(suite)
    for word, rhs in tower.derived_rules():
        wname = _word_name(tower, word)
        for name, f, bad in maps:
            left, right = f.word_image(word), f.apply(rhs)
            rep.verdict(f"{name}-on[{wname}]", left == right,
                        lhs=exprio.format_canonical(left),
                        rhs=exprio.format_canonical(right), witness=_DIFFER, bad=bad)
    return rep

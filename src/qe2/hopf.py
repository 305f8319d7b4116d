"""Structure maps and tensor arithmetic.

:class:`AlgebraMorphism` is the one extension of generator values to the
whole algebra: the image of a monomial is the product of the generator
images (in reverse order for an antihomomorphism), cached per monomial and
built from the cached image of a shorter monomial, and an element's image
is the sum of its terms' images (with conjugated coefficients for an
antilinear map).  The coproduct, counit and antipode of a
:class:`HopfStructure` (the counit's target is the tower without
generators), the star of a tower (:func:`star_map`; kept on the tower,
since non-Hopf presets also carry one) and the coactions, projections and
quotient maps of the presets are all such maps.

:class:`TensorElement` implements A (x) B (and triple) tensors whose legs
may live in different towers.  A structure map acts on one leg as the
morphism itself (:meth:`TensorElement.map_leg`): its target's legs replace
that leg, which gives (Delta (x) id) o Delta, (eps (x) id) o Delta,
(pi (x) pi) o Delta and the coactions (pi (x) id) o Delta alike.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

from . import exprio
from .ncalg import (
    NCPoly, OreTower, TermVector, TowerError, _top_level, bilinear, collect,
    pin_unit,
)
from .report import FAIL, CheckReport
from .scalars import Scalar, _power_text


class TensorElement(TermVector):
    """Finite map {(monomial per leg) -> Scalar} with normal-formed legs."""

    __slots__ = ("legs",)

    def __init__(self, legs: Sequence[OreTower], terms: dict):
        self.legs = tuple(legs)
        self.terms = terms

    @property
    def space(self):
        return self.legs

    def _vector(self, terms):
        return TensorElement(self.legs, terms)

    def _unit(self):
        return TensorElement.unit(self.legs)

    # -- constructors ------------------------------------------------------
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

    # -- products ------------------------------------------------------------
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

    def unit_inverse(self):
        """Inverse of a single-term tensor with invertible monomial legs."""
        if len(self.terms) != 1:
            raise TowerError("only monomial tensors can be inverted")
        monos, c = next(iter(self.terms.items()))
        inv_legs = []
        for j, t in enumerate(self.legs):
            inv_legs.append(t.tower_mono(monos[j]).unit_inverse())
        out = TensorElement.from_legs(self.legs, inv_legs).scale(c.inverse())
        if not (self * out).is_one():
            raise TowerError("tensor inverse verification failed")
        return out

    # -- leg surgery -------------------------------------------------------
    def map_leg(self, j: int, phi: "AlgebraMorphism",
                conjugate_coeff: bool = False) -> "TensorElement":
        """Apply the structure map phi to leg j: the legs of phi's target
        (one tower or a tuple of towers) replace leg j, and a term whose
        leg j holds the monomial m takes phi's image of m there, each
        coefficient times the term's (conjugated, if asked: the star of a
        tensor conjugates each coefficient once, not once per leg).  The
        counit's target, the tower without generators, stays as a leg that
        holds only its unit monomial."""
        tower = self.legs[j]
        wrap = phi.tensor
        pairs = []
        for monos, c in self.terms.items():
            if conjugate_coeff:
                c = c.conjugate()
            head, tail = monos[:j], monos[j + 1 :]
            img = phi.apply(tower.tower_mono(monos[j]))
            pairs += [(head + (m if wrap else (m,)) + tail, c * c2)
                      for m, c2 in img.terms.items()]
        new = phi.target if wrap else (phi.target,)
        return TensorElement(self.legs[:j] + new + self.legs[j + 1 :], collect(pairs))

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
    coefficients of its argument.

    Images of normal monomials are cached and built by one-letter
    extension: the image of a monomial is the cached image of the monomial
    without one power of its top generator, times that letter's image
    (the letter first when ``reverse``).  A letter image is a generator
    image or, for a negative power, its ``unit_inverse``, which is cached
    too, so each inverse and its verification product run once per
    generator.  :meth:`word_image`, for words that are not normal monomials
    (the left-hand sides of rewrite rules), multiplies out powers of the
    same letter images; the target is associative, so on a normal monomial
    both give the same element."""

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
        self._mono_cache = {source.unit_mono: self.one}
        self._inverses = {}

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
        factors = [self._letter(j, e) ** abs(e) for j, e in word]
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
                img = self._mono_image(mono)
            pairs += [(m, c * c2) for m, c2 in img.terms.items()]
        return self.one._vector(collect(pairs))

    def _mono_image(self, mono):
        """Image of a normal monomial, by one-letter extensions of the
        longest cached monomial below it.  The images are built from the
        bottom up, so a TowerError of a lower letter comes first, as in
        :meth:`word_image`."""
        cache = self._mono_cache
        steps = []
        while mono not in cache:
            top = _top_level(mono)
            sign = 1 if mono[top] > 0 else -1
            steps.append((mono, top, sign))
            mono = mono[:top] + (mono[top] - sign,) + mono[top + 1 :]
        img = cache[mono]
        for mono, top, sign in reversed(steps):
            letter = self._letter(top, sign)
            img = cache[mono] = letter * img if self.reverse else img * letter
        return img

    def _letter(self, j, e):
        """The image of generator j for e >= 0, else the inverse of that
        image, computed (with its verification product) once."""
        if e >= 0:
            return self.images[j]
        inv = self._inverses.get(j)
        if inv is None:
            inv = self._inverses[j] = self.images[j].unit_inverse()
        return inv

    def validate(self) -> CheckReport:
        """Images must satisfy every derived relation of the source."""
        return _relations_report("morphism", self.source, [("respects", self, FAIL)])


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


def _same(left, right, bad=FAIL):
    """The verdict that two canonical forms are equal."""
    return left == right, left, right, _DIFFER, bad


def hopf_axioms_report(H: HopfStructure) -> CheckReport:
    """Coassociativity, counit, antipode, star-coproduct compatibility and
    the star involution, on every generator (which suffices: all maps are
    determined by their generator values and their (anti)multiplicativity,
    given that the tower relations are respected; see
    respects_relations_report)."""
    tower = H.tower
    delta, eps, S = H.coproduct_map, H.counit_map, H.antipode_map
    star = star_map(tower) if tower.star_table is not None else None
    rep = CheckReport("hopf-axioms")
    for j, g in enumerate(tower.generators):
        x = NCPoly.generator(tower, j)
        dx = H.coproduct(x)
        eta_eps = NCPoly.constant(tower, H.counit(x))
        rep.check(f"coassoc-{g.name}",
                  lambda: _same(dx.map_leg(0, delta), dx.map_leg(1, delta)))
        rep.check(f"counit-left-{g.name}",
                  lambda: _same(dx.map_leg(0, eps).as_poly_times_unit(1), x))
        rep.check(f"counit-right-{g.name}",
                  lambda: _same(dx.map_leg(1, eps).as_poly_times_unit(0), x))
        rep.check(f"antipode-left-{g.name}",
                  lambda: _same(dx.map_leg(0, S).multiply_out(), eta_eps))
        rep.check(f"antipode-right-{g.name}",
                  lambda: _same(dx.map_leg(1, S).multiply_out(), eta_eps))
        if star is not None:
            rep.check(f"star-coproduct-{g.name}", lambda: _same(
                H.coproduct(star.apply(x)),
                dx.map_leg(0, star, conjugate_coeff=True).map_leg(1, star)))
            rep.check(f"star-involution-{g.name}",
                      lambda: _same(star.apply(star.apply(x)), x))
    return rep


def respects_relations_report(
    tower: OreTower,
    H: Optional[HopfStructure] = None,
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
            ("delta-on", H.coproduct_map, FAIL),
            ("counit-on", H.counit_map, FAIL),
            ("antipode-on", H.antipode_map, FAIL),
        ]
    if tower.star_table is not None:
        maps.append(("star-on", star_map(tower), star_status_on_fail))
    return _relations_report("respects-relations", tower, maps)


def _relations_report(name: str, tower: OreTower, maps) -> CheckReport:
    """For every derived rewrite rule word = rhs of ``tower`` and each
    (prefix, map, status on mismatch) of ``maps``, the record
    ``<prefix>[<word>]`` of map(word) = map(rhs)."""
    rep = CheckReport(name)
    for word, rhs in tower.derived_rules():
        wname = "*".join(_power_text(tower.generators[j].name, e) for j, e in word)
        for prefix, f, bad in maps:
            rep.check(f"{prefix}[{wname}]",
                      lambda: _same(f.word_image(word), f.apply(rhs), bad))
    return rep

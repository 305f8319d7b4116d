"""Quantum homogeneous-space machinery: coideal checks, subalgebra
membership, quotient maps, Hopf-*-ideal verification, coinvariants, and
the antipode-difference generators of the closure correspondence.

Subalgebra membership is one exact linear system over the candidates
v^r m^s, with s bounded by the degree of x in the counting generators
and |r| by its largest |v-exponent| plus s (see :class:`Subalgebra`).

Ideal membership is implemented as kernel membership of a declared
quotient map; identifying that kernel with the two-sided ideal generated
by the preset's listed generators is a documented preset-level assumption
(docs/presets.md sketches the normal-form argument for I = <v-1, n-nb>),
not something the engine re-proves.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import exprio
from .hopf import AlgebraMorphism, HopfStructure, TensorElement, star_map
from .ncalg import NCPoly, OreTower, span_solve
from .report import PASS, CheckReport, vanishes


class HomspaceError(ValueError):
    pass


class Subalgebra:
    """Subalgebra of an ambient tower generated by an invertible ambient
    generator v (with its inverse) and one further element m, given by
    generator values; membership is decided over the candidates v^r m^s.

    The bounds s <= total degree of x in the counting generators and
    |r| <= max |v-exponent| + s make membership finitely decidable, and
    they are sufficient for the shipped cylinder: every m-factor
    contributes exactly one counting generator (so deg_m is bounded by
    the counting degree) and multiplying by v^r shifts the v-exponent
    range by r.

    ``laurent`` names the ambient generator v, ``poly`` the entry of
    ``generators`` that is m, and ``counters`` the counting generators.
    """

    def __init__(self, ambient: OreTower, generators: dict, laurent: str,
                 poly: str, counters: Sequence[str]):
        self.ambient = ambient
        self.generators = dict(generators)  # name -> NCPoly
        self.laurent = laurent
        self.poly = poly
        self.counters = tuple(counters)

    def _candidates(self, x: NCPoly):
        vidx = self.ambient.gen_index(self.laurent)
        counters = [self.ambient.gen_index(c) for c in self.counters]
        m = self.generators[self.poly]
        smax = max((sum(mono[c] for c in counters) for mono in x.terms), default=0)
        rmax = max((abs(mono[vidx]) for mono in x.terms), default=0) + smax
        mpow = [NCPoly.one(self.ambient)]
        for _ in range(smax):
            mpow.append(mpow[-1] * m)
        return {
            f"{self.laurent}^{r}*{self.poly}^{s}":
                NCPoly.generator(self.ambient, vidx, r) * mpow[s]
            for r in range(-rmax, rmax + 1)
            for s in range(smax + 1)
        }


def subalgebra_membership(x: NCPoly, B: Subalgebra) -> Optional[dict]:
    """{label: coefficient} of x over the candidate monomials v^r m^s,
    nonzero coefficients only, or None when x lies outside their span."""
    return span_solve(x, B._candidates(x)).particular


# ---------------------------------------------------------------------------
# Quotient maps
# ---------------------------------------------------------------------------


class QuotientMap(AlgebraMorphism):
    """Algebra morphism with a declared kernel-generator list; its kernel
    is the ideal used for membership tests."""

    def __init__(self, source, target, images, kernel_gens: Sequence[NCPoly]):
        super().__init__(source, target, images)
        self.kernel_gens = list(kernel_gens)


_NONZERO = "nonzero residual"


def quotient_check(pi: QuotientMap) -> CheckReport:
    """Every derived rewrite rule of the source must hold after
    substitution, and invertible generators must map to invertible
    monomials."""
    rep = CheckReport("quotient", pi.validate().records)
    for j, g in enumerate(pi.source.generators):
        if not g.invertible:
            continue
        # unit_inverse raises a TowerError on an image without an inverse
        rep.check(f"invertible-image-{g.name}",
                  lambda: (pi.images[j].unit_inverse() is not None, "", ""))
    for idx, g in enumerate(pi.kernel_gens):
        rep.check(f"kernel-gen-{idx}", lambda: vanishes(pi.apply(g), _NONZERO))
    return rep


def ideal_member(x: NCPoly, pi: QuotientMap) -> bool:
    """Membership in ker(pi); sound for the declared ideal by the preset
    assumption ker(pi) = <kernel generators>."""
    return pi.apply(x).is_zero()


# ---------------------------------------------------------------------------
# Coideal / Hopf-*-ideal / coinvariants
# ---------------------------------------------------------------------------


def _group_by_left_leg(t: TensorElement):
    """Split a two-leg tensor into {left monomial -> right NCPoly}; sound
    because distinct normal monomials are linearly independent.  The
    tensor's keys are distinct and its coefficients nonzero, so every
    group is a term map as it stands."""
    groups = {}
    for (ml, mr), c in t.terms.items():
        groups.setdefault(ml, {})[mr] = c
    return {ml: NCPoly(t.legs[1], terms) for ml, terms in groups.items()}


def coideal_report(B: Subalgebra, H: HopfStructure) -> CheckReport:
    """Right-coideal-with-star test: for each generator b, every right leg
    of Delta(b) (grouped by left basis monomial) must lie in B, and b*
    must lie in B; ``coideal-<b>-coproduct`` fails if Delta(b) raises."""
    rep = CheckReport("coideal")
    amb = B.ambient
    for name, b in B.generators.items():
        db = rep.guard(f"coideal-{name}-coproduct", lambda: (True, H.coproduct(b), ""))
        legs = _group_by_left_leg(db.lhs) if db.status == PASS else {}
        for ml, right in sorted(legs.items()):
            label = exprio.format_canonical(amb.tower_mono(ml))
            rep.check(f"coideal-{name}-leftleg[{label}]", lambda: _member(
                right, B, f"right leg of Delta({name}) grouped at {label} is outside B"))
        rep.check(f"coideal-{name}-star",
                  lambda: _member(star_map(amb).apply(b), B, f"{name}* is outside B"))
    return rep


def _member(x: NCPoly, B: Subalgebra, witness: str):
    """The verdict that x lies in B."""
    return subalgebra_membership(x, B) is not None, x, "<element of the subalgebra>", witness


def hopf_star_ideal_report(
    ideal_gens: Sequence[NCPoly],
    pi: QuotientMap,
    H: HopfStructure,
) -> CheckReport:
    """On each stated generator g: (pi (x) pi) Delta(g) = 0 (bilateral
    coideal, since I (x) A + A (x) I is the kernel of pi (x) pi),
    eps(g) = 0, pi(S(g)) = 0 and pi(g*) = 0; ``generator[pi(g)]`` fails if
    pi does not kill g."""
    rep = CheckReport("hopf-star-ideal")
    for g in ideal_gens:
        gname = exprio.format_canonical(g)
        rep.guard(f"generator[pi({gname})]", lambda: vanishes(
            pi.apply(g), f"pi does not kill the stated ideal generator {gname}"))
        rep.check(f"coideal[(pi x pi) delta({gname})]",
                  lambda: vanishes(H.coproduct(g).map_leg(0, pi).map_leg(1, pi), _NONZERO))
        rep.check(f"counit[eps({gname})]",
                  lambda: vanishes(NCPoly.constant(pi.source, H.counit(g)), _NONZERO))
        rep.check(f"antipode[pi(S({gname}))]",
                  lambda: vanishes(pi.apply(H.antipode(g)), _NONZERO))
        rep.check(f"star[pi(({gname})*)]",
                  lambda: vanishes(pi.apply(star_map(pi.source).apply(g)), _NONZERO))
    return rep


def coinvariance_check(
    x: NCPoly, pi: QuotientMap, H: HopfStructure, side: str
) -> bool:
    """side='left' tests (pi (x) id) Delta(x) = 1 (x) x; side='right'
    tests (id (x) pi) Delta(x) = x (x) 1."""
    return coinvariance_residual(x, pi, H, side).is_zero()


def coinvariance_residual(x: NCPoly, pi: QuotientMap, H: HopfStructure, side: str):
    """The difference of the two sides that ``coinvariance_check`` compares."""
    amb = pi.source
    dx = H.coproduct(x)
    if side == "left":
        mapped = dx.map_leg(0, pi)
        expected = TensorElement.from_legs(
            (pi.target, amb), [NCPoly.one(pi.target), x]
        )
    elif side == "right":
        mapped = dx.map_leg(1, pi)
        expected = TensorElement.from_legs(
            (amb, pi.target), [x, NCPoly.one(pi.target)]
        )
    else:
        raise ValueError("side must be 'left' or 'right'")
    return mapped - expected


def sigma_generators(
    B: Subalgebra, H: HopfStructure, max_power: int = 2
) -> list:
    """(S^p - eps(.)1)(b) for every subalgebra generator b and
    1 <= p <= max_power, normal-formed.

    Only nonnegative antipode powers are used: invertibility of S is not
    established for these presets, and the closure argument never needs
    negative powers."""
    if max_power < 1:
        raise HomspaceError("max_power must be >= 1")
    out = []
    for name, b in B.generators.items():
        eps = H.counit(b)
        img = b
        for p in range(1, max_power + 1):
            img = H.antipode(img)
            out.append(
                (f"(S^{p} - eps)({name})", img - NCPoly.constant(B.ambient, eps))
            )
    return out

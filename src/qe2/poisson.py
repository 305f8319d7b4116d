"""Poisson brackets on commutative presets and the covariance machinery.

The bracket is stored on generator pairs P_ij = {x_i, x_j}, in both
orientations, and extended by bilinearity and the Leibniz rule.  On a
commutative tower the Leibniz rule gives the bracket of two monomials in
closed form,

    {x^a, x^b} = sum_{i<j} (a_i b_j - a_j b_i) * x^(a+b-e_i-e_j) * P_ij

(Laurent exponents included, which realizes {v^-1, f} = -v^-2 {v, f}).
Each structure keeps these as a bracket table, {(a, b) -> terms}, filled
the first time a pair is met, and :meth:`PoissonStructure.bracket` is the
bilinear kernel of ``ncalg`` over that table.

The maps checked here are :class:`qe2.hopf.AlgebraMorphism` instances: a
Hopf structure's coproduct map, and the coactions and projections of the
presets.  Morphisms into tensor squares carry the product structure

    {a (x) x, b (x) y} = {a,b} (x) xy + ab (x) {x,y}

which is what multiplicativity of the coproduct and covariance of
coactions mean at the function-algebra level.  The covariant-family solve
uses the same rule: for a coaction alpha of a two-generator space it
splits {alpha(x), alpha(y)} into the group-leg part G and the space-leg
part J * (1 (x) {x, y}), both brackets of :func:`tensor_bracket`, and
solves alpha({x, y}) = G + J * (1 (x) {x, y}) for {x, y} over an ansatz.
"""

from __future__ import annotations

from itertools import combinations
from operator import add
from typing import Sequence

from . import exprio
from .hopf import AlgebraMorphism, TensorElement
from .ncalg import (
    AffineSolutions,
    NCPoly,
    OreTower,
    bilinear,
    collect,
    pin_unit,
    solve_terms,
)
from .report import PASS, CheckReport, vanishes
from .scalars import QI, Scalar


class PoissonError(ValueError):
    pass


class PoissonStructure:
    """Antisymmetric bracket table over generator pairs of a commutative
    tower, extended to the whole algebra by bilinearity and Leibniz."""

    def __init__(self, tower: OreTower, table: dict):
        if not tower.commutative:
            raise PoissonError("Poisson structures need a commutative tower")
        self.tower = tower
        self._zero = NCPoly.zero(tower)
        self._table = {}  # (i, j) -> {x_i, x_j}, both orientations, no zero value
        self._mono_brackets = {}  # (a, b) -> terms of {x^a, x^b}
        for (i, j), val in table.items():
            if i < j and (j, i) in table:
                a, b = (tower.generators[x].name for x in (i, j))
                raise PoissonError(f"bracket table names the pair {a},{b} in both orders")
            if not val.is_zero():
                if i == j:
                    raise PoissonError("{g,g} must vanish")
                self._table[(i, j)], self._table[(j, i)] = val, -val

    @classmethod
    def load(cls, tower: OreTower, spec: dict) -> "PoissonStructure":
        table = {}
        for key, expr in spec.items():
            a, b = (s.strip() for s in key.split(","))
            ia, ib = tower.gen_index(a), tower.gen_index(b)
            if ia is None or ib is None:
                raise PoissonError(f"bracket table names unknown generator in {key!r}")
            if (ia, ib) in table or (ib, ia) in table:
                raise PoissonError(f"bracket table names the pair {key!r} twice")
            table[(ia, ib)] = tower.poly(expr)
        return cls(tower, table)

    def bracket_gens(self, i: int, j: int) -> NCPoly:
        return self._table.get((i, j), self._zero)

    def bracket(self, f: NCPoly, g: NCPoly) -> NCPoly:
        """{f, g} by bilinearity over the bracket table of monomial pairs."""
        return NCPoly(self.tower, bilinear(
            f.terms, g.terms, self._mono_brackets, self._mono_bracket,
            self.tower.context.one,
        ))

    def _mono_bracket(self, a, b):
        """{x^a, x^b} in closed form, as a term tuple for the bracket table."""
        ctx = self.tower.context
        pairs = []
        for (i, j), pij in self._table.items():
            k = a[i] * b[j] - a[j] * b[i] if i < j else 0
            if k:
                shift = list(map(add, a, b))
                shift[i] -= 1
                shift[j] -= 1
                kc = ctx.from_int(k)
                pairs += [
                    (tuple(map(add, shift, m)), c * kc) for m, c in pij.terms.items()
                ]
        return pin_unit(collect(pairs).items(), ctx.one)


def jacobi_report(P: PoissonStructure) -> CheckReport:
    """Cyclic sum {f,{g,h}} + {g,{h,f}} + {h,{f,g}} on all generator
    triples; by the derivation property this certifies Jacobi on the
    whole algebra."""
    rep = CheckReport("jacobi")
    tower = P.tower
    n = tower.nlevels
    gens = [NCPoly.generator(tower, i) for i in range(n)]
    names = [g.name for g in tower.generators]
    for i, j, k in combinations(range(n), 3):
        f, g, h = gens[i], gens[j], gens[k]
        triple = f"({names[i]},{names[j]},{names[k]})"
        rep.check(f"jacobi-{triple}", lambda: vanishes(
            P.bracket(f, P.bracket(g, h)) + P.bracket(g, P.bracket(h, f))
            + P.bracket(h, P.bracket(f, g)), f"cyclic sum on {triple}"))
    if n < 3:
        rep.add("jacobi-(trivial: fewer than 3 generators)", rhs="0")
    return rep


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------


def tensor_bracket(
    t1: TensorElement,
    t2: TensorElement,
    P_left: PoissonStructure,
    P_right: PoissonStructure,
) -> TensorElement:
    """Product Poisson structure on a two-leg tensor."""
    legs = t1.legs
    left, right = legs
    pairs = []
    for (ma, mx), ca in t1.terms.items():
        a = left.tower_mono(ma)
        x = right.tower_mono(mx)
        for (mb, my), cb in t2.terms.items():
            b = left.tower_mono(mb)
            y = right.tower_mono(my)
            c = ca * cb
            gpart = P_left.bracket(a, b)
            if not gpart.is_zero():
                pairs += TensorElement.from_legs(
                    legs, [gpart.scale(c), x * y]
                ).terms.items()
            mpart = P_right.bracket(x, y)
            if not mpart.is_zero():
                pairs += TensorElement.from_legs(
                    legs, [(a * b).scale(c), mpart]
                ).terms.items()
    return TensorElement(legs, collect(pairs))


def poisson_morphism_report(
    phi: AlgebraMorphism,
    P_src: PoissonStructure,
    P_tgt,
) -> CheckReport:
    """phi({x,y}) = {phi x, phi y} on all generator pairs (suffices by
    Leibniz).  For tensor targets pass a pair (P_left, P_right)."""
    rep = CheckReport("poisson-morphism")
    src = phi.source
    names = [g.name for g in src.generators]
    val = phi.validate()
    bad = [r for r in val.records if r.status != PASS]
    if bad:
        rep.records.extend(bad)
        return rep
    for i, j in combinations(range(src.nlevels), 2):
        rep.check(f"poisson-morphism-({names[i]},{names[j]})",
                  lambda: _bracket_images(phi, P_src, P_tgt, i, j))
    return rep


def _bracket_images(phi: AlgebraMorphism, P_src, P_tgt, i: int, j: int):
    """The verdict phi({x_i, x_j}) = {phi x_i, phi x_j}."""
    lhs = phi.apply(P_src.bracket_gens(i, j))
    fi, fj = (phi.apply(NCPoly.generator(phi.source, x)) for x in (i, j))
    rhs = tensor_bracket(fi, fj, *P_tgt) if phi.tensor else P_tgt.bracket(fi, fj)
    return lhs == rhs, lhs, rhs, "bracket images differ"


# ---------------------------------------------------------------------------
# Covariant families
# ---------------------------------------------------------------------------


def covariant_family_solve(
    coaction: AlgebraMorphism,
    P_G: PoissonStructure,
    ansatz: Sequence[NCPoly],
) -> AffineSolutions:
    """Exact affine set of bracket coefficients making the coaction a
    Poisson morphism, labelled by the ansatz monomials, so that a bracket
    b is covariant exactly when ``contains(b.terms)``.

    The homogeneous-space tower must have exactly two generators (Jacobi
    is then automatic); the unknown bracket is {x, y} = sum_t c_t * t over
    the ansatz monomials (coefficient 1).  The product structure splits as

        {alpha(x), alpha(y)} = G + J * (1 (x) {x, y})

    with G the group-leg part (the space bracket zero) and J the space-leg
    part of the unit bracket {x, y} = 1 (the group bracket zero), so
    covariance, alpha({x, y}) = {alpha(x), alpha(y)}, is the linear system
    sum_t c_t (alpha(t) - J * (1 (x) t)) = G.
    """
    if not ansatz:
        raise PoissonError("empty ansatz")
    space = coaction.source
    if space.nlevels != 2:
        raise PoissonError("covariant solving needs a two-generator space")
    if not coaction.tensor or len(coaction.target) != 2:
        raise PoissonError("coaction must land in group (x) space")
    legs = coaction.target
    group, right = legs
    ax = coaction.apply(NCPoly.generator(space, 0))
    ay = coaction.apply(NCPoly.generator(space, 1))
    G = tensor_bracket(ax, ay, P_G, PoissonStructure(right, {}))
    J = tensor_bracket(
        ax, ay, PoissonStructure(group, {}),
        PoissonStructure(right, {(0, 1): NCPoly.one(right)}),
    )
    one = NCPoly.one(group)
    cols = {}
    for t in ansatz:
        mono = next(iter(t.terms), None)
        if len(t.terms) != 1 or not t.terms[mono].is_one() or mono in cols:
            raise PoissonError(f"ansatz entry {exprio.format_canonical(t)} is not "
                               "a new monomial with coefficient 1")
        cols[mono] = (coaction.apply(t) - J * TensorElement.from_legs(legs, [one, t])).terms
    return solve_terms(G.terms, cols, space.context)


# ---------------------------------------------------------------------------
# Pointwise rank and Hamiltonian fields
# ---------------------------------------------------------------------------


def evaluate_poly(
    x: NCPoly, gen_values: dict, param_values: dict
) -> Scalar:
    """Evaluate a commutative element at exact generator/parameter values
    (ints or Scalars with no parameter in them), as a constant of QI."""
    vals = []
    for g in x.tower.generators:
        if g.name not in gen_values:
            raise PoissonError(f"no value assigned to generator {g.name}")
        v = QI.from_gauss(gen_values[g.name])
        if g.invertible and not v:
            raise PoissonError(f"zero assigned to invertible generator {g.name}")
        vals.append(v)
    total = QI.zero
    for mono, c in x.terms.items():
        term = c.evaluate(param_values)
        for v, e in zip(vals, mono):
            if e:
                term = term * v ** e
        total = total + term
    return total


def poisson_matrix_at(P: PoissonStructure, gen_values, param_values):
    n = P.tower.nlevels
    mat = [[QI.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = evaluate_poly(P.bracket_gens(i, j), gen_values, param_values)
            mat[j][i] = -mat[i][j]
    return mat


def poisson_matrix_rank(P: PoissonStructure, gen_values, param_values) -> int:
    """Exact rank of the evaluated bracket matrix (= the symplectic leaf
    dimension at the point): n minus the dimension of its kernel."""
    mat = poisson_matrix_at(P, gen_values, param_values)
    cols = {j: {i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(len(mat))}
    return len(mat) - solve_terms({}, cols, QI).dimension


def field_relation(P: PoissonStructure, coeffs: dict):
    """Whether sum_g c_g X_g vanishes identically, where the Hamiltonian
    field X_g has j-th component {g, x_j}: (True, None), or (False, the
    text of the first nonzero component)."""
    tower = P.tower
    for j, g in enumerate(tower.generators):
        comp = NCPoly.zero(tower)
        for gen, c in coeffs.items():
            comp = comp + c * P.bracket_gens(tower.gen_index(gen), j)
        if not comp.is_zero():
            return False, f"component d/d{g.name}: {exprio.format_canonical(comp)}"
    return True, None


def poisson_ideal_check(
    P: PoissonStructure,
    ideal_gens: Sequence[NCPoly],
    vanish: AlgebraMorphism,
) -> CheckReport:
    """Pass iff vanish({g, a}) = 0 for every ideal generator g and algebra
    generator a; ``vanish`` is the restriction morphism onto the subgroup
    (its kernel is the subgroup ideal); ``poisson-ideal-gen<i>-killed``
    fails if ``vanish`` does not kill generator i."""
    rep = CheckReport("poisson-ideal")
    tower = P.tower
    names = [g.name for g in tower.generators]
    for gi, g in enumerate(ideal_gens):
        rep.guard(f"poisson-ideal-gen{gi}-killed", lambda: vanishes(
            vanish.apply(g), "the vanish morphism does not kill the stated ideal "
            f"generator {exprio.format_canonical(g)}"))
        for j in range(tower.nlevels):
            rep.check(f"poisson-ideal-gen{gi}-vs-{names[j]}", lambda: vanishes(
                vanish.apply(P.bracket(g, NCPoly.generator(tower, j))),
                f"{{gen{gi}, {names[j]}}} restricts to a nonzero value"))
    return rep

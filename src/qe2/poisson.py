"""Poisson brackets on commutative presets and the covariance machinery.

The bracket is stored on generator pairs P_ij = {x_i, x_j} and extended by
bilinearity and the Leibniz rule.  On a commutative tower the Leibniz rule
gives the bracket of two monomials in closed form,

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
coactions mean at the function-algebra level.
"""

from __future__ import annotations

from operator import add
from typing import Optional, Sequence

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
    span_solve,
)
from .report import PASS, CheckReport
from .scalars import GaussRational, ScalarContext


class PoissonError(ValueError):
    pass


def _partial(x: NCPoly, idx: int) -> NCPoly:
    return NCPoly(x.tower, collect(
        (mono[:idx] + (mono[idx] - 1,) + mono[idx + 1 :], c * mono[idx])
        for mono, c in x.terms.items()
        if mono[idx]
    ))


class PoissonStructure:
    """Antisymmetric bracket table over generator pairs of a commutative
    tower, extended to the whole algebra by bilinearity and Leibniz."""

    def __init__(self, tower: OreTower, table: dict):
        if not tower.commutative:
            raise PoissonError("Poisson structures need a commutative tower")
        self.tower = tower
        self._table = {}
        self._mono_brackets = {}  # (a, b) -> terms of {x^a, x^b}
        for (i, j), val in table.items():
            if i == j and not val.is_zero():
                raise PoissonError("{g,g} must vanish")
            if i < j:
                self._table[(i, j)] = val
            else:
                self._table[(j, i)] = -val

    @classmethod
    def load(cls, tower: OreTower, spec: dict) -> "PoissonStructure":
        table = {}
        for key, expr in spec.items():
            a, b = (s.strip() for s in key.split(","))
            ia, ib = tower.gen_index(a), tower.gen_index(b)
            if ia is None or ib is None:
                raise PoissonError(f"bracket table names unknown generator in {key!r}")
            table[(ia, ib)] = tower.poly(expr)
        return cls(tower, table)

    def bracket_gens(self, i: int, j: int) -> NCPoly:
        if i == j:
            return NCPoly.zero(self.tower)
        if i < j:
            return self._table.get((i, j), NCPoly.zero(self.tower))
        return -self._table.get((j, i), NCPoly.zero(self.tower))

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
            k = a[i] * b[j] - a[j] * b[i]
            if k:
                shift = list(map(add, a, b))
                shift[i] -= 1
                shift[j] -= 1
                kc = ctx.from_int(k)
                pairs += [
                    (tuple(map(add, shift, m)), c * kc) for m, c in pij.terms.items()
                ]
        return pin_unit(collect(pairs).items(), ctx.one)


def jacobi_report(P: PoissonStructure, suite="jacobi") -> CheckReport:
    """Cyclic sum {f,{g,h}} + {g,{h,f}} + {h,{f,g}} on all generator
    triples; by the derivation property this certifies Jacobi on the
    whole algebra."""
    rep = CheckReport(suite)
    tower = P.tower
    n = tower.nlevels
    gens = [NCPoly.generator(tower, i) for i in range(n)]
    names = [g.name for g in tower.generators]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                f, g, h = gens[i], gens[j], gens[k]
                s = (
                    P.bracket(f, P.bracket(g, h))
                    + P.bracket(g, P.bracket(h, f))
                    + P.bracket(h, P.bracket(f, g))
                )
                rep.verdict(
                    f"jacobi-({names[i]},{names[j]},{names[k]})",
                    s.is_zero(),
                    lhs=exprio.format_canonical(s),
                    rhs="0",
                    witness=f"cyclic sum on ({names[i]},{names[j]},{names[k]})",
                )
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
    suite="poisson-morphism",
) -> CheckReport:
    """phi({x,y}) = {phi x, phi y} on all generator pairs (suffices by
    Leibniz).  For tensor targets pass a pair (P_left, P_right)."""
    rep = CheckReport(suite)
    src = phi.source
    names = [g.name for g in src.generators]
    val = phi.validate(suite)
    bad = [r for r in val.records if r.status != PASS]
    if bad:
        rep.records.extend(bad)
        return rep
    for i in range(src.nlevels):
        for j in range(i + 1, src.nlevels):
            lhs = phi.apply(P_src.bracket_gens(i, j))
            fi = phi.apply(NCPoly.generator(src, i))
            fj = phi.apply(NCPoly.generator(src, j))
            if phi.tensor:
                P_left, P_right = P_tgt
                rhs = tensor_bracket(fi, fj, P_left, P_right)
            else:
                rhs = P_tgt.bracket(fi, fj)
            rep.verdict(
                f"poisson-morphism-({names[i]},{names[j]})",
                lhs == rhs,
                lhs=exprio.format_canonical(lhs),
                rhs=exprio.format_canonical(rhs),
                witness="bracket images differ",
            )
    return rep


# ---------------------------------------------------------------------------
# Covariant families
# ---------------------------------------------------------------------------


class CovariantFamily(AffineSolutions):
    __slots__ = ("ansatz",)
    _fields = AffineSolutions._fields + __slots__

    def __init__(self, particular: Optional[list], nullspace: list, ansatz: list):
        super().__init__(particular, nullspace)
        self.ansatz = ansatz  # candidate bracket monomials (NCPoly), one per column

    def contains_vector(self, vec) -> bool:
        return self.contains_solution(vec, self.ansatz[0].tower.context)

    def contains_bracket(self, value: NCPoly) -> bool:
        """Decompose a candidate bracket over the ansatz monomials and test
        the affine system."""
        sol = span_solve(value, self.ansatz)
        return not sol.empty and self.contains_vector(sol.particular)


def covariant_family_solve(
    coaction: AlgebraMorphism,
    P_G: PoissonStructure,
    ansatz: Sequence[NCPoly],
) -> CovariantFamily:
    """Exact affine set of bracket coefficients making the coaction a
    Poisson morphism.

    The homogeneous-space tower must have exactly two generators (Jacobi
    is then automatic); the unknown bracket is {x, y} = sum_t c_t * t over
    the ansatz monomials.
    """
    if not ansatz:
        raise PoissonError("empty ansatz")
    space = coaction.source
    if space.nlevels != 2:
        raise PoissonError("covariant solving needs a two-generator space")
    if not coaction.tensor or len(coaction.target) != 2:
        raise PoissonError("coaction must land in group (x) space")
    group = coaction.target[0]
    legs = coaction.target
    ctx = space.context
    ax = coaction.apply(NCPoly.generator(space, 0))
    ay = coaction.apply(NCPoly.generator(space, 1))

    # G-part: left-leg brackets; and per ansatz monomial t the column
    # alpha(t) - sum a_i b_j (x) Jac_ij * t
    gpairs = []
    jacobians = []
    for (ma, mx), ca in ax.terms.items():
        for (mb, my), cb in ay.terms.items():
            xi = space.tower_mono(mx)
            yj = space.tower_mono(my)
            br = P_G.bracket(group.tower_mono(ma), group.tower_mono(mb))
            if not br.is_zero():
                gpairs += TensorElement.from_legs(
                    legs, [br.scale(ca * cb), xi * yj]
                ).terms.items()
            jac = _partial(xi, 0) * _partial(yj, 1) - _partial(xi, 1) * _partial(yj, 0)
            if not jac.is_zero():
                ab = group.tower_mono(ma) * group.tower_mono(mb)
                jacobians.append((ab.scale(-(ca * cb)), jac))
    cols = []
    for t in ansatz:
        pairs = list(coaction.apply(t).terms.items())
        for ab, jac in jacobians:
            pairs += TensorElement.from_legs(legs, [ab, jac * t]).terms.items()
        cols.append(collect(pairs))
    sol = solve_terms(collect(gpairs), cols, ctx)
    return CovariantFamily(sol.particular, sol.nullspace, list(ansatz))


# ---------------------------------------------------------------------------
# Pointwise rank and Hamiltonian fields
# ---------------------------------------------------------------------------


def evaluate_poly(
    x: NCPoly, gen_values: dict, param_values: dict
) -> GaussRational:
    """Evaluate a commutative element at exact generator/parameter values."""
    tower = x.tower
    vals = []
    for j, g in enumerate(tower.generators):
        if g.name not in gen_values:
            raise PoissonError(f"no value assigned to generator {g.name}")
        v = gen_values[g.name]
        v = v if isinstance(v, GaussRational) else GaussRational(v)
        if g.invertible and not v:
            raise PoissonError(f"zero assigned to invertible generator {g.name}")
        vals.append(v)
    total = GaussRational(0)
    for mono, c in x.terms.items():
        term = c.evaluate(param_values)
        for j, e in enumerate(mono):
            if e:
                term = term * vals[j] ** e
        total = total + term
    return total


def poisson_matrix_at(P: PoissonStructure, gen_values, param_values):
    n = P.tower.nlevels
    mat = [[GaussRational(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = evaluate_poly(P.bracket_gens(i, j), gen_values, param_values)
            mat[j][i] = -mat[i][j]
    return mat


def poisson_matrix_rank(P: PoissonStructure, gen_values, param_values) -> int:
    """Exact rank of the evaluated bracket matrix (= the symplectic leaf
    dimension at the point): n minus the dimension of its kernel."""
    mat = poisson_matrix_at(P, gen_values, param_values)
    ctx = ScalarContext()
    cols = [
        {i: ctx.from_gauss(row[j]) for i, row in enumerate(mat) if row[j]}
        for j in range(len(mat))
    ]
    return len(mat) - solve_terms({}, cols, ctx).dimension


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
    suite="poisson-ideal",
) -> CheckReport:
    """Pass iff vanish({g, a}) = 0 for every ideal generator g and algebra
    generator a; ``vanish`` is the restriction morphism onto the subgroup
    (its kernel is the subgroup ideal)."""
    rep = CheckReport(suite)
    tower = P.tower
    for g in ideal_gens:
        img = vanish.apply(g)
        if not img.is_zero():
            raise PoissonError(
                "the vanish morphism does not kill the stated ideal generators"
            )
    names = [g.name for g in tower.generators]
    for gi, g in enumerate(ideal_gens):
        for j in range(tower.nlevels):
            br = P.bracket(g, NCPoly.generator(tower, j))
            img = vanish.apply(br)
            rep.verdict(
                f"poisson-ideal-gen{gi}-vs-{names[j]}",
                img.is_zero(),
                lhs=exprio.format_canonical(img),
                rhs="0",
                witness=f"{{gen{gi}, {names[j]}}} restricts to a nonzero value",
            )
    return rep

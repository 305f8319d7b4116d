"""Lie bialgebra layer: structure constants and cocommutators from the
group-level data, cocycle/co-Jacobi verification, the coboundary equation,
and stabilizer invariance of candidate bivectors.

Conventions (calibrated once so that the cocycle condition

    delta([a,b]) = ad_a delta(b) - ad_b delta(a)

holds for the linearization of the *standard* multiplicative structure,
which is a theorem, and then frozen):

* structure constants come from the bilinear term of the group law read
  off the coproduct, [a, b] = B(a,b) - B(b,a);
* the cocommutator is the linearization of the bracket table at the
  identity, delta(e_k)^{ij} = d{x_i, x_j}/dx_k |_e in centered
  coordinates (the invertible generator is centered at 1);
* the adjoint action extends to wedges as a derivation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import exprio
from .ncalg import AffineSolutions, OreTower, collect, solve_terms
from .poisson import PoissonStructure
from .report import CheckReport
from .scalars import Scalar, ScalarContext


class LieError(ValueError):
    pass


class LieAlgebra:
    """Finite-dimensional Lie algebra over a scalar context."""

    def __init__(self, ctx: ScalarContext, names: Sequence[str], constants: dict):
        self.ctx = ctx
        self.names = tuple(names)
        self.dim = len(self.names)
        self._c = {}
        for (i, j), vec in constants.items():
            vec = {k: c for k, c in vec.items() if c}
            if i == j and vec:
                raise LieError("[x,x] must vanish")
            if i < j:
                self._c[(i, j)] = vec
            elif vec:
                self._c[(j, i)] = {k: -c for k, c in vec.items()}
        self.check_jacobi()

    @classmethod
    def load(cls, ctx: ScalarContext, spec: dict) -> "LieAlgebra":
        names = list(spec["basis"])
        idx = {n: i for i, n in enumerate(names)}
        constants = {}
        for key, vec in spec["brackets"].items():
            a, b = (s.strip() for s in key.split(","))
            constants[(idx[a], idx[b])] = {
                idx[t]: _scalar_expr(ctx, expr) for t, expr in vec.items()
            }
        return cls(ctx, names, constants)

    def bracket_basis(self, i: int, j: int) -> dict:
        if i == j:
            return {}
        if i < j:
            return self._c.get((i, j), {})
        return {k: -c for k, c in self._c.get((j, i), {}).items()}

    def bracket(self, x: dict, y: dict) -> dict:
        return collect(
            (k, cx * cy * c)
            for i, cx in x.items()
            for j, cy in y.items()
            for k, c in self.bracket_basis(i, j).items()
        )

    def check_jacobi(self):
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    total = collect(
                        (t, cm * ct)
                        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j))
                        for m, cm in self.bracket_basis(b, c).items()
                        for t, ct in self.bracket_basis(a, m).items()
                    )
                    if total:
                        raise LieError(
                            f"Jacobi fails on basis triple "
                            f"({self.names[i]},{self.names[j]},{self.names[k]})"
                        )

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.names == other.names
            and self._c == other._c
        )

    def __repr__(self):
        return f"LieAlgebra({', '.join(self.names)})"


def _scalar_expr(ctx: ScalarContext, text: str) -> Scalar:
    try:
        return exprio.parse_scalar(ctx, text)
    except (ValueError, KeyError) as e:
        raise LieError(f"bad scalar expression {text!r}: {e}")


class WedgeBivector:
    """Element of the wedge square, stored on i < j with Scalar entries.

    ``coeffs`` is a map or a sequence of ((i, j), c) pairs meaning
    c * e_i^e_j; each pair is oriented to i < j and the pairs are summed."""

    def __init__(self, ctx: ScalarContext, dim: int, coeffs=None):
        self.ctx = ctx
        self.dim = dim
        pairs = coeffs.items() if isinstance(coeffs, dict) else coeffs or ()
        oriented = []
        for (i, j), c in pairs:
            if i == j and c:
                raise LieError("diagonal wedge coefficient")
            oriented.append(((i, j), c) if i < j else ((j, i), -c))
        self.coeffs = collect(oriented)

    def __add__(self, other):
        return WedgeBivector(
            self.ctx, self.dim, [*self.coeffs.items(), *other.coeffs.items()]
        )

    def __sub__(self, other):
        return self + other.scale(-self.ctx.one)

    def scale(self, s: Scalar):
        return WedgeBivector(
            self.ctx, self.dim, {k: c * s for k, c in self.coeffs.items()}
        )

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, WedgeBivector)
            and self.dim == other.dim
            and self.coeffs == other.coeffs
        )

    def text(self, names) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j) in sorted(self.coeffs):
            c = self.coeffs[(i, j)]
            parts.append(f"({c}) {names[i]}^{names[j]}")
        return " + ".join(parts)

    def __repr__(self):
        return f"WedgeBivector({self.coeffs})"


class Cocommutator:
    """Map from basis elements to wedge-square values."""

    def __init__(self, algebra_dim: int, ctx: ScalarContext, values: dict):
        self.dim = algebra_dim
        self.ctx = ctx
        self.values = values  # {basis index -> WedgeBivector}

    @classmethod
    def load(cls, ctx: ScalarContext, names: Sequence[str], spec: dict) -> "Cocommutator":
        idx = {n: i for i, n in enumerate(names)}
        values = {}
        for gname, vec in spec.items():
            coeffs = {}
            for key, expr in vec.items():
                a, b = (s.strip() for s in key.split(","))
                coeffs[(idx[a], idx[b])] = _scalar_expr(ctx, expr)
            values[idx[gname]] = WedgeBivector(ctx, len(names), coeffs)
        for i in range(len(names)):
            values.setdefault(i, WedgeBivector(ctx, len(names)))
        return cls(len(names), ctx, values)

    def of(self, k: int) -> WedgeBivector:
        return self.values.get(k, WedgeBivector(self.ctx, self.dim))

    def __eq__(self, other):
        return (
            isinstance(other, Cocommutator)
            and self.dim == other.dim
            and all(self.of(k) == other.of(k) for k in range(self.dim))
        )


def ad_wedge(g: LieAlgebra, k: int, w: WedgeBivector) -> WedgeBivector:
    """ad_{e_k} acting on a wedge as a derivation:
    ad_k (e_i ^ e_j) = [e_k, e_i] ^ e_j + e_i ^ [e_k, e_j]."""
    pairs = []
    for (i, j), c in w.coeffs.items():
        pairs += [((t, j), ct * c) for t, ct in g.bracket_basis(k, i).items() if t != j]
        pairs += [((i, t), ct * c) for t, ct in g.bracket_basis(k, j).items() if t != i]
    return WedgeBivector(g.ctx, g.dim, pairs)


# ---------------------------------------------------------------------------
# Derivation from group-level data
# ---------------------------------------------------------------------------


def _centered_leg(tower: OreTower, mono, order=2):
    """Expand a leg monomial in centered coordinates up to total degree
    ``order``: invertible generators v are written 1 + u and truncated.

    Returns {exponent tuple -> Scalar} in the centered coordinates."""
    ctx = tower.context
    out = {tuple(0 for _ in mono): ctx.one}
    for j, e in enumerate(mono):
        if e == 0:
            continue
        if tower.generators[j].invertible:
            # (1+u)^e = sum_d C(e,d) u^d, exact for any integer e
            series = {}
            coef = 1
            for d in range(order + 1):
                series[d] = ctx.from_int(coef)
                coef = coef * (e - d) // (d + 1)
            factor = {d: c for d, c in series.items() if c}
        else:
            if e > order:
                factor = {}
            else:
                factor = {e: ctx.one}
        out = collect(
            (exps[:j] + (exps[j] + d,) + exps[j + 1 :], c * cf)
            for exps, c in out.items()
            for d, cf in factor.items()
            if sum(exps) + d <= order
        )
    return out


def lie_from_group(tower: OreTower, hopf, names: Optional[Sequence[str]] = None) -> LieAlgebra:
    """Structure constants from the second-order term of the group law read
    off the coproduct: [e_a, e_b] = B(a,b) - B(b,a)."""
    ctx = tower.context
    n = tower.nlevels
    names = tuple(names) if names else tuple(g.name for g in tower.generators)
    B = [
        [[ctx.zero] * n for _ in range(n)] for _ in range(n)
    ]  # B[k][a][b]
    for k in range(n):
        dval = hopf.coproduct_map.images[k]
        const = ctx.zero
        lin_left = [ctx.zero] * n
        lin_right = [ctx.zero] * n
        center_k = ctx.one if tower.generators[k].invertible else ctx.zero
        for (m1, m2), c in dval.terms.items():
            left = _centered_leg(tower, m1)
            right = _centered_leg(tower, m2)
            for e1, c1 in left.items():
                d1 = sum(e1)
                for e2, c2 in right.items():
                    d2 = sum(e2)
                    if d1 + d2 > 2:
                        continue
                    coeff = c * c1 * c2
                    if d1 == 0 and d2 == 0:
                        const = const + coeff
                    elif d1 == 1 and d2 == 0:
                        lin_left[e1.index(1)] = lin_left[e1.index(1)] + coeff
                    elif d1 == 0 and d2 == 1:
                        lin_right[e2.index(1)] = lin_right[e2.index(1)] + coeff
                    elif d1 == 1 and d2 == 1:
                        a = e1.index(1)
                        b = e2.index(1)
                        B[k][a][b] = B[k][a][b] + coeff
        if const != center_k:
            raise LieError(
                f"coproduct of {names[k]} is not group-like-compatible at the "
                "identity (wrong constant term)"
            )
        for a in range(n):
            want = ctx.one if a == k else ctx.zero
            if lin_left[a] != want or lin_right[a] != want:
                raise LieError(
                    f"coproduct of {names[k]} is not group-like-compatible at "
                    "the identity (wrong linear term)"
                )
    constants = {}
    for a in range(n):
        for b in range(a + 1, n):
            vec = {}
            for k in range(n):
                c = B[k][a][b] - B[k][b][a]
                if c:
                    vec[k] = c
            constants[(a, b)] = vec
    return LieAlgebra(ctx, names, constants)


def linearize_poisson(P: PoissonStructure, names: Optional[Sequence[str]] = None) -> Cocommutator:
    """Differentiate the bracket table at the identity: the wedge
    coefficient of delta(e_k) on e_i^e_j is the linear coefficient of the
    k-th centered coordinate in {x_i, x_j}."""
    tower = P.tower
    ctx = tower.context
    n = tower.nlevels
    pairs = {k: [] for k in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            val = P.bracket_gens(i, j)
            for mono in val.terms:
                if any(
                    e < 0 for e in mono
                ):
                    raise LieError(
                        "bracket value has a nonpolynomial residue after "
                        "centering (negative exponent)"
                    )
            # expand in centered coordinates, keep the linear part
            lin = [ctx.zero] * n
            for mono, c in val.terms.items():
                leg = _centered_leg(tower, mono, order=1)
                for exps, cc in leg.items():
                    if sum(exps) == 1:
                        lin[exps.index(1)] = lin[exps.index(1)] + c * cc
            for k in range(n):
                pairs[k].append(((i, j), lin[k]))
    values = {k: WedgeBivector(ctx, n, pairs[k]) for k in range(n)}
    return Cocommutator(n, ctx, values)


# ---------------------------------------------------------------------------
# Bialgebra conditions
# ---------------------------------------------------------------------------


def cocycle_cojacobi_report(
    g: LieAlgebra, delta: Cocommutator, suite="bialgebra"
) -> CheckReport:
    """delta([a,b]) = ad_a delta(b) - ad_b delta(a) on all basis pairs, and
    the co-Jacobi identity (cyclic sum of (delta x id) delta = 0)."""
    rep = CheckReport(suite)
    ctx = g.ctx
    n = g.dim
    for a in range(n):
        for b in range(a + 1, n):
            lhs = WedgeBivector(ctx, n, [
                (key, c * cw)
                for k, c in g.bracket_basis(a, b).items()
                for key, cw in delta.of(k).coeffs.items()
            ])
            rhs = ad_wedge(g, a, delta.of(b)) - ad_wedge(g, b, delta.of(a))
            rep.verdict(
                f"cocycle-({g.names[a]},{g.names[b]})",
                lhs == rhs,
                lhs=lhs.text(g.names),
                rhs=rhs.text(g.names),
                witness="cocycle condition violated",
            )
    # co-Jacobi via antisymmetric matrices D_k
    def D(k, i, j):
        w = delta.of(k)
        if i == j:
            return ctx.zero
        if i < j:
            return w.coeffs.get((i, j), ctx.zero)
        return -w.coeffs.get((j, i), ctx.zero)

    for k in range(n):
        bad = None
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    total = ctx.zero
                    for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                        for i in range(n):
                            total = total + D(k, i, z) * D(i, x, y)
                    if total:
                        bad = (a, b, c, total)
                        break
                if bad:
                    break
            if bad:
                break
        a, b, c, total = bad or (0, 0, 0, ctx.zero)
        rep.verdict(
            f"cojacobi-{g.names[k]}",
            bad is None,
            lhs=str(total),
            rhs="0",
            witness=f"slot ({g.names[a]},{g.names[b]},{g.names[c]})",
        )
    return rep


class CoboundarySolution(AffineSolutions):
    __slots__ = ("pairs",)
    _fields = AffineSolutions._fields + __slots__

    def __init__(self, particular: Optional[list], nullspace: list, pairs: list):
        super().__init__(particular, nullspace)
        self.pairs = pairs  # wedge index pairs (i, j), i < j, one per column

    def witness(self, ctx, dim) -> Optional[WedgeBivector]:
        if self.particular is None:
            return None
        return WedgeBivector(
            ctx, dim, {p: c for p, c in zip(self.pairs, self.particular)}
        )

    def contains(self, ctx, candidate: WedgeBivector) -> bool:
        vec = [candidate.coeffs.get(p, ctx.zero) for p in self.pairs]
        return self.contains_solution(vec, ctx)


def coboundary_solve(g: LieAlgebra, delta: Cocommutator) -> CoboundarySolution:
    """Exact affine solution set of delta(e_k) = ad_{e_k} r over unknown
    r in the wedge square, one equation per (k, (i, j)); empty means
    non-coboundary."""
    ctx = g.ctx
    n = g.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def terms(wedges):
        return {(k, p): c for k, w in enumerate(wedges) for p, c in w.coeffs.items()}

    cols = [
        terms(ad_wedge(g, k, WedgeBivector(ctx, n, {p: ctx.one})) for k in range(n))
        for p in pairs
    ]
    sol = solve_terms(terms(delta.of(k) for k in range(n)), cols, ctx)
    out = CoboundarySolution(sol.particular, sol.nullspace, pairs)
    # self-consistency: the witness reproduces delta
    w = out.witness(ctx, n)
    if w is not None and any(ad_wedge(g, k, w) != delta.of(k) for k in range(n)):
        raise LieError("coboundary witness fails to reproduce delta")
    return out


def coboundary_cocommutator(g: LieAlgebra, r: WedgeBivector) -> Cocommutator:
    values = {k: ad_wedge(g, k, r) for k in range(g.dim)}
    return Cocommutator(g.dim, g.ctx, values)


# ---------------------------------------------------------------------------
# Stabilizer invariance for homogeneous-space bivectors
# ---------------------------------------------------------------------------


def stabilizer_invariance_check(
    ctx: ScalarContext,
    pushforward,        # rows: algebra dim, cols: 2 (Scalar entries)
    stab_action,        # 2 x 2 matrix of Scalars
    delta_stab: WedgeBivector,  # cocommutator image of the stabilizer generator
    rho: Scalar,        # coefficient of e1^e2 in the candidate bivector
    suite="stabilizer",
) -> CheckReport:
    """Evaluates (phi_0)_* delta(X) + X . rho = 0 exactly, the action of a
    generator on a bivector being the derivation extension
    (A.rho)^{ij} = A^i_k rho^{kj} + A^j_k rho^{ik}."""
    rep = CheckReport(suite)
    dim = len(pushforward)
    if any(len(row) != 2 for row in pushforward) or len(stab_action) != 2:
        raise LieError("tangent space dimension must be 2")
    # Lambda^2 of the pushforward applied to delta_stab
    pushed = ctx.zero
    for (i, j), c in delta_stab.coeffs.items():
        minor = (
            pushforward[i][0] * pushforward[j][1]
            - pushforward[i][1] * pushforward[j][0]
        )
        pushed = pushed + c * minor
    # trace part of the action on rho (2-dim top wedge)
    act = (stab_action[0][0] + stab_action[1][1]) * rho
    total = pushed + act
    rep.verdict(
        "stabilizer-invariance",
        not total,
        lhs=str(total),
        rhs="0",
        witness="invariance condition violated",
    )
    return rep

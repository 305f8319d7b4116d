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

from itertools import combinations
from typing import Optional, Sequence

from . import exprio
from .ncalg import AffineSolutions, OreTower, TermVector, collect, solve_terms
from .poisson import PoissonStructure
from .report import CheckReport
from .scalars import Scalar, ScalarContext


class LieError(ValueError):
    pass


class LieAlgebra:
    """Finite-dimensional Lie algebra over a scalar context, checked for
    Jacobi when built."""

    def __init__(self, ctx: ScalarContext, names: Sequence[str], constants: dict):
        self.ctx = ctx
        self.names = tuple(names)
        self.dim = len(self.names)
        self._c = _bracket_table(
            (p, k, c) for p, vec in constants.items() for k, c in vec.items()
        )
        bad = next(iter(_jacobiator(self._c, self.dim)), None)
        if bad:
            raise LieError("Jacobi fails on basis triple "
                           f"({','.join(self.names[i] for i in bad)})")

    @classmethod
    def load(cls, ctx: ScalarContext, spec: dict) -> "LieAlgebra":
        names = list(spec["basis"])
        idx = {n: i for i, n in enumerate(names)}
        return cls(ctx, names, {
            p: {idx[t]: _scalar_expr(ctx, expr) for t, expr in vec.items()}
            for p, vec in _pairs(idx, spec["brackets"]).items()
        })

    def bracket_basis(self, i: int, j: int) -> dict:
        return self._c.get((i, j), {})

    def __repr__(self):
        return f"LieAlgebra({', '.join(self.names)})"


def _bracket_table(entries) -> dict:
    """The table {(i, j): {k: c}} of the antisymmetric bracket whose
    entries ((i, j), k, c) read [e_i, e_j] has c e_k: both orientations of
    each pair, and no zero value."""
    table = {}
    for (i, j), k, c in entries:
        if c:
            if i == j:
                raise LieError("[x,x] must vanish")
            table.setdefault((i, j), {})[k] = c
            table.setdefault((j, i), {})[k] = -c
    return table


def _jacobiator(table: dict, n: int) -> dict:
    """{(i, j, k): sum_cyc [[e_i, e_j], e_k]} over the basis triples
    i < j < k where the bracket of ``table`` fails Jacobi, in order.  The
    Jacobiator is alternating, so these triples decide every triple."""
    out = {}
    for i, j, k in combinations(range(n), 3):
        total = collect(
            (t, cm * ct)
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j))
            for m, cm in table.get((x, y), {}).items()
            for t, ct in table.get((m, z), {}).items()
        )
        if total:
            out[(i, j, k)] = total
    return out


def _pairs(idx: dict, table: dict) -> dict:
    """{(i, j): value} from a table keyed "a,b" by basis names; a pair may
    be named once, in either orientation."""
    out = {}
    for key, value in table.items():
        i, j = (idx[s.strip()] for s in key.split(","))
        if (i, j) in out or (j, i) in out:
            raise LieError(f"the pair {key!r} is named twice")
        out[(i, j)] = value
    return out


def _scalar_expr(ctx: ScalarContext, text: str) -> Scalar:
    try:
        return exprio.parse_scalar(ctx, text)
    except (ValueError, KeyError) as e:
        raise LieError(f"bad scalar expression {text!r}: {e}")


class WedgeBivector(TermVector):
    """Element of the wedge square, stored on i < j with Scalar entries.

    ``terms`` is a map or a sequence of ((i, j), c) pairs meaning
    c * e_i^e_j; each pair is oriented to i < j and the pairs are summed."""

    __slots__ = ("ctx", "dim")

    def __init__(self, ctx: ScalarContext, dim: int, terms=None):
        self.ctx = ctx
        self.dim = dim
        pairs = terms.items() if isinstance(terms, dict) else terms or ()
        oriented = []
        for (i, j), c in pairs:
            if i == j and c:
                raise LieError("diagonal wedge coefficient")
            oriented.append(((i, j), c) if i < j else ((j, i), -c))
        self.terms = collect(oriented)

    @property
    def space(self):
        return self.dim

    def _vector(self, terms):
        return WedgeBivector(self.ctx, self.dim, terms)

    def text(self, names) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms):
            c = self.terms[(i, j)]
            parts.append(f"({c}) {names[i]}^{names[j]}")
        return " + ".join(parts)

    def __str__(self):
        return str(self.terms)


def load_cocommutator(ctx: ScalarContext, names: Sequence[str], spec: dict) -> tuple:
    """The cocommutator table {basis name: {"a,b": scalar}} as the tuple of
    its values delta(e_k), zero where the table has no entry."""
    idx = {n: i for i, n in enumerate(names)}
    values = [WedgeBivector(ctx, len(names))] * len(names)
    for gname, vec in spec.items():
        values[idx[gname]] = WedgeBivector(ctx, len(names), {
            p: _scalar_expr(ctx, expr) for p, expr in _pairs(idx, vec).items()
        })
    return tuple(values)


def ad_wedge(g: LieAlgebra, k: int, w: WedgeBivector) -> WedgeBivector:
    """ad_{e_k} acting on a wedge as a derivation:
    ad_k (e_i ^ e_j) = [e_k, e_i] ^ e_j + e_i ^ [e_k, e_j]."""
    pairs = []
    for (i, j), c in w.terms.items():
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


def _unit_exponents(n: int) -> list:
    """The degree-1 keys of a centered term map, one per coordinate."""
    return [tuple(int(i == k) for i in range(n)) for k in range(n)]


def lie_from_group(tower: OreTower, hopf, names: Optional[Sequence[str]] = None) -> LieAlgebra:
    """Structure constants from the second-order term of the group law read
    off the coproduct: [e_a, e_b] = B(a,b) - B(b,a).

    Each Delta(x_k) is collected once in centered coordinates, up to total
    degree 2, as a term map {(left exponents, right exponents) -> Scalar};
    its constant, linear and bilinear coefficients are read by key."""
    ctx = tower.context
    n = tower.nlevels
    names = tuple(names) if names else tuple(g.name for g in tower.generators)
    origin = (0,) * n
    unit = _unit_exponents(n)
    constants = {(a, b): {} for a in range(n) for b in range(a + 1, n)}
    for k in range(n):
        pairs = []
        for (m1, m2), c in hopf.coproduct_map.images[k].terms.items():
            right = _centered_leg(tower, m2).items()
            pairs += [
                ((e1, e2), c * c1 * c2)
                for e1, c1 in _centered_leg(tower, m1).items()
                for e2, c2 in right
                if sum(e1) + sum(e2) <= 2
            ]
        centered = collect(pairs)
        center_k = ctx.one if tower.generators[k].invertible else ctx.zero
        if centered.get((origin, origin), ctx.zero) != center_k:
            raise LieError(
                f"coproduct of {names[k]} is not group-like-compatible at the "
                "identity (wrong constant term)"
            )
        for a in range(n):
            want = ctx.one if a == k else ctx.zero
            if (centered.get((unit[a], origin), ctx.zero) != want
                    or centered.get((origin, unit[a]), ctx.zero) != want):
                raise LieError(
                    f"coproduct of {names[k]} is not group-like-compatible at "
                    "the identity (wrong linear term)"
                )
        for (a, b), vec in constants.items():
            c = (centered.get((unit[a], unit[b]), ctx.zero)
                 - centered.get((unit[b], unit[a]), ctx.zero))
            if c:
                vec[k] = c
    return LieAlgebra(ctx, names, constants)


def linearize_poisson(P: PoissonStructure, names: Optional[Sequence[str]] = None) -> tuple:
    """Differentiate the bracket table at the identity: the wedge
    coefficient of delta(e_k) on e_i^e_j is the linear coefficient of the
    k-th centered coordinate in {x_i, x_j}, read by key from the term map
    of {x_i, x_j} collected in centered coordinates up to degree 1."""
    tower = P.tower
    ctx = tower.context
    n = tower.nlevels
    unit = _unit_exponents(n)
    pairs = {k: [] for k in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            val = P.bracket_gens(i, j)
            if any(e < 0 for mono in val.terms for e in mono):
                raise LieError(
                    "bracket value has a nonpolynomial residue after "
                    "centering (negative exponent)"
                )
            centered = collect(
                (exps, c * cc)
                for mono, c in val.terms.items()
                for exps, cc in _centered_leg(tower, mono, order=1).items()
            )
            for k in range(n):
                pairs[k].append(((i, j), centered.get(unit[k], ctx.zero)))
    return tuple(WedgeBivector(ctx, n, pairs[k]) for k in range(n))


# ---------------------------------------------------------------------------
# Bialgebra conditions
# ---------------------------------------------------------------------------


def cocycle_cojacobi_report(g: LieAlgebra, delta: Sequence[WedgeBivector]) -> CheckReport:
    """delta([a,b]) = ad_a delta(b) - ad_b delta(a) on all basis pairs, and
    co-Jacobi: the Jacobi identity of the dual bracket on g*, whose
    record ``cojacobi-<e_k>`` reads component k of its Jacobiator at the
    first failing basis triple."""
    rep = CheckReport("bialgebra")
    ctx = g.ctx
    n = g.dim
    for a in range(n):
        for b in range(a + 1, n):
            lhs = WedgeBivector(ctx, n, [
                (key, c * cw)
                for k, c in g.bracket_basis(a, b).items()
                for key, cw in delta[k].terms.items()
            ])
            rhs = ad_wedge(g, a, delta[b]) - ad_wedge(g, b, delta[a])
            rep.verdict(
                f"cocycle-({g.names[a]},{g.names[b]})",
                lhs == rhs,
                lhs=lhs.text(g.names),
                rhs=rhs.text(g.names),
                witness="cocycle condition violated",
            )
    # co-Jacobi is Jacobi of the dual bracket [e^i, e^j] = sum_k delta(e_k)^{ij} e^k
    dual = _jacobiator(_bracket_table(
        (p, k, c) for k, w in enumerate(delta) for p, c in w.terms.items()
    ), n)
    for k in range(n):
        slot = next((t for t, total in dual.items() if k in total), None)
        rep.verdict(
            f"cojacobi-{g.names[k]}",
            slot is None,
            lhs=str(dual[slot][k] if slot else ctx.zero),
            rhs="0",
            witness=f"slot ({','.join(g.names[i] for i in slot or ())})",
        )
    return rep


def coboundary_solve(g: LieAlgebra, delta: Sequence[WedgeBivector]) -> AffineSolutions:
    """Exact affine solution set of delta(e_k) = ad_{e_k} r over unknown
    r in the wedge square, one equation per (k, (i, j)) and one column per
    wedge pair (i, j), i < j, labelled by it; empty means non-coboundary."""
    ctx = g.ctx
    n = g.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def terms(wedges):
        return {(k, p): c for k, w in enumerate(wedges) for p, c in w.terms.items()}

    cols = {
        p: terms(ad_wedge(g, k, WedgeBivector(ctx, n, {p: ctx.one})) for k in range(n))
        for p in pairs
    }
    sol = solve_terms(terms(delta), cols, ctx)
    # self-consistency: the particular solution reproduces delta
    w = WedgeBivector(ctx, n, sol.particular)
    if not sol.empty and any(ad_wedge(g, k, w) != delta[k] for k in range(n)):
        raise LieError("coboundary witness fails to reproduce delta")
    return sol


def coboundary_cocommutator(g: LieAlgebra, r: WedgeBivector) -> tuple:
    """The cocommutator delta(e_k) = ad_{e_k} r of the coboundary of r."""
    return tuple(ad_wedge(g, k, r) for k in range(g.dim))


# ---------------------------------------------------------------------------
# Stabilizer invariance for homogeneous-space bivectors
# ---------------------------------------------------------------------------


def stabilizer_invariance_check(
    ctx: ScalarContext,
    pushforward,        # rows: algebra dim, cols: 2 (Scalar entries)
    stab_action,        # 2 x 2 matrix of Scalars
    delta_stab: WedgeBivector,  # cocommutator image of the stabilizer generator
    rho: Scalar,        # coefficient of e1^e2 in the candidate bivector
) -> CheckReport:
    """Evaluates (phi_0)_* delta(X) + X . rho = 0 exactly, the action of a
    generator on a bivector being the derivation extension
    (A.rho)^{ij} = A^i_k rho^{kj} + A^j_k rho^{ik}."""
    rep = CheckReport("stabilizer")
    dim = len(pushforward)
    if any(len(row) != 2 for row in pushforward) or len(stab_action) != 2:
        raise LieError("tangent space dimension must be 2")
    # Lambda^2 of the pushforward applied to delta_stab
    pushed = ctx.zero
    for (i, j), c in delta_stab.terms.items():
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

"""Registered verification suites.

Each check compares engine-derived values against the claims and displayed
values of the source manuscript and yields pass/fail/discrepancy records;
``discrepancy`` marks an engine value that contradicts a displayed value
while the enclosing statement's conclusion still verifies.  What the
manuscript printed for a discrepancy record is in the ledger ``DISPLAYED``,
by check id, or in one of three preset keys: ``coaction-cylinder``'s
``printed_family`` and ``quantum-cylinder``'s star table and level-``m``
relation.  A ledger entry's run gets its display as a second argument
(``_run``), so its status depends on that display alone;
``s.displayed[check_id] = value`` (or ``s[preset_id] = bundle``) substitutes
it.

A check is one entry ``(check id, paper anchor, run)``.  ``run`` takes the
inputs that the checks of one run share (``_Inputs``) and returns either a
verdict, the tuple ``(ok, lhs, rhs[, witness[, bad]])`` of
``CheckReport.verdict`` with the engine value as ``lhs`` and the displayed
one as ``rhs``, or a sub-report, which ``_summarize`` collapses into one
record.  ``_record`` runs entries in order, each in its own ``try``: as a
sub-check does, a check that raises a domain error fails under its own id;
one that raises anything else becomes the fail record
``internal-error[<check id>]``; and the checks after it still run.

The entries live in one table, ``CHECKS``: suite name -> its entries, in
report run order.  ``SUITES`` and the ``suite_<name>`` functions derive from
it, and each suite function reads its row when called.  ``run_check(id,
inputs)`` runs one entry alone, on inputs ``s`` that a test may change.

Entries reach the engine through this module's globals when they run, never
through a stored function object, so a wrapper bound in a function's place
(a test's patch, the benchmark tracer) sees every call.
"""

from __future__ import annotations

import random
from functools import cached_property

from . import catalog, exprio
from .hopf import AlgebraMorphism, hopf_axioms_report, respects_relations_report
from .homspace import (
    coideal_report,
    coinvariance_check,
    coinvariance_residual,
    hopf_star_ideal_report,
    ideal_member,
    quotient_check,
    sigma_generators,
)
from .liebialg import (
    WedgeBivector,
    coboundary_solve,
    cocycle_cojacobi_report,
    lie_from_group,
    linearize_poisson,
    stabilizer_invariance_check,
)
from .ncalg import (
    NCPoly,
    commutator,
    decide_confluence,
    graded_degree,
    load_tower,
    normal_form,
    span_solve,
)
from .poisson import (
    PoissonStructure,
    covariant_family_solve,
    field_relation,
    jacobi_report,
    poisson_ideal_check,
    poisson_matrix_rank,
    poisson_morphism_report,
)
from .report import DISCREPANCY, FAIL, PASS, CheckReport, _domain_errors
from .scalars import QI

LIE_NAMES = ("J", "X", "Y")

# What the manuscript printed, by the discrepancy record that compares it:
# an expression (a gloss "  (= ...)" may follow), a relation "lhs = rhs", a
# wedge "c A^B" (P1 = X + Y, P2 = X - Y), a table of texts, or a tensor leg
DISPLAYED = {
    "bracket-table-std-n-nb": "n*nb",
    "bracket-table-nonstd-n-nb": "omega*n - omega*nb",
    "covariance-plane-orientation": {"z": "v (x) z + n (x) 1", "zb": "vb (x) zb + nb (x) 1"},
    "prop32-bracket-printed": "-omega*(v^2 - 1)",
    "field-relation-std-printed": {"v": "v*n*nb", "n": "nb", "nb": "n"},
    "field-relation-nonstd-printed": {"n": "v - v^2", "nb": "v - 1", "v": "nb - n"},
    "bialg-delta-p2-printed": "+omega P2^P1",
    "bialg-delta-j-printed": "omega J^P2",
    "tower-printed-nonstd-sign": {"gen": "nb", "sigma": {"v": "v", "n": "n + omega"},
                                  "delta": {"v": "omega*v^2 - omega*v", "n": "-omega*n"}},
    "def41-second-relation-printed": "vb*m = m*vb + omega*(vb - vb^2)",
    "closure-coinvariance-side-printed": "left",
    "closure-sigma-m-printed": "n - nb",
    "closure-s-v-minus-1-sign": "-vb*(1 - v)  (= 1 - vb)",
}


class _Inputs(dict):
    """What the checks of one run share, each made at most once:
    ``s[preset_id]`` is a preset, ``s.displayed`` a copy of the ledger, and
    the properties are values that several checks use, among them the joins
    ``pi`` and ``cylinder``, built from the presets ``s`` holds.
    ``run_suite`` makes one per run, so nothing carries over between runs."""

    def __init__(self, degree_bound: int):
        self.degree_bound = degree_bound
        self.displayed = dict(DISPLAYED)

    def __missing__(self, preset_id):
        self[preset_id] = preset = catalog.get_preset(preset_id)
        return preset

    def qe2(self, text):
        """An element of the ambient algebra qe2-nonstd."""
        return self["qe2-nonstd"].tower.poly(text)

    @cached_property
    def pi(self):
        """The quotient by I: quotient-I as a map on qe2-nonstd."""
        return catalog.quotient_on(self["qe2-nonstd"].tower, self["quotient-I"].raw)

    @cached_property
    def cylinder(self):
        """The quantum cylinder embedded in qe2-nonstd."""
        return catalog.subalgebra_on(self["qe2-nonstd"].tower, self["quantum-cylinder"].raw)

    @cached_property
    def m(self):
        """The generator of the embedded quantum cylinder."""
        return self.cylinder.generators["m"]

    @cached_property
    def g_std(self):
        return lie_from_group(self["std-poisson"].tower, self["std-poisson"].hopf,
                              names=LIE_NAMES)

    @cached_property
    def g_ns(self):
        return lie_from_group(self["nonstd-poisson"].tower, self["nonstd-poisson"].hopf,
                              names=LIE_NAMES)

    @cached_property
    def d_std(self):
        return linearize_poisson(self["std-poisson"].poisson, names=LIE_NAMES)

    @cached_property
    def d_ns(self):
        return linearize_poisson(self["nonstd-poisson"].poisson, names=LIE_NAMES)

    @cached_property
    def cylinder_family(self):
        cc = self["coaction-cylinder"]
        return covariant_family_solve(cc.coaction, cc.group_poisson, cc.ansatz)

    @cached_property
    def sigma1(self):
        """(S - eps)(b) for b in {v, vb, m}, by label."""
        return dict(sigma_generators(self.cylinder, self["qe2-nonstd"].hopf, max_power=1))


def _summarize(rep_out: CheckReport, check_id, anchor, source: CheckReport):
    worst = source.worst
    bad = next((r for r in source.records if r.status != PASS), None)
    c = source.counts
    detail = f"{c[PASS]}/{len(source.records)} sub-checks pass"
    rep_out.add(
        check_id,
        anchor=anchor,
        status=worst,
        lhs=bad.lhs if bad else "",
        rhs=bad.rhs if bad else "",
        witness=f"{bad.check_id}: {bad.witness}" if bad else detail,
    )


def _run(s: _Inputs, check_id, run):
    """What the entry ``check_id`` gives on ``s``; a ledger entry's ``run``
    gets its display as a second argument."""
    return run(s, s.displayed[check_id]) if check_id in s.displayed else run(s)


def _record(rep: CheckReport, s: _Inputs, checks):
    """Run each entry of ``checks`` on ``s`` and record it, in order, each on
    its own."""
    for check_id, anchor, run in checks:
        try:
            out = _run(s, check_id, run)
            if isinstance(out, CheckReport):
                _summarize(rep, check_id, anchor, out)
            else:
                rep.verdict(check_id, *out, anchor=anchor)
        except _domain_errors() as e:  # an input outside what the engine defines
            rep.add(check_id, anchor=anchor, status=FAIL, witness=str(e))
        except Exception as e:  # confined to its own check
            rep.add(f"internal-error[{check_id}]", status=FAIL,
                    witness=f"{type(e).__name__}: {e}")


def _agrees(engine, tower, shown, witness="", bad=FAIL):
    """The verdict that an element of ``tower`` equals the display ``shown``."""
    return engine == tower.poly(shown.split("  (=")[0]), engine, shown, witness, bad


def _printed_bracket(b, f, g, shown, witness):
    """The bracket {f, g} of the Poisson preset ``b`` against its displayed
    value."""
    t = b.tower
    engine = b.poisson.bracket(t.poly(f), t.poly(g))
    return _agrees(engine, t, shown, witness, DISCREPANCY)


def _coproduct_is_poisson(b):
    return poisson_morphism_report(b.hopf.coproduct_map, b.poisson, (b.poisson, b.poisson))


def _coaction_is_poisson(b, bracket=None):
    """Whether the coaction of preset ``b`` is a Poisson map, with the
    space's own bracket or with {z1, z2} = ``bracket``."""
    space = b.space_poisson if bracket is None else _space_bracket(b, bracket)
    return poisson_morphism_report(b.coaction, space, (b.group_poisson, space))


def _space_bracket(b, text):
    return PoissonStructure(b.space_tower, {(0, 1): b.space_tower.poly(text)})


def _plane_orientation(s, alpha):
    cp = s["coaction-plane"]
    space, group = cp.space_tower, cp.group_tower
    literal = AlgebraMorphism.load(space, (group, space), alpha)
    literal_fam = covariant_family_solve(literal, cp.group_poisson, cp.ansatz)
    # z pairs with the group element that alpha(z) tensors with 1
    paired = next(group.tower_mono(ml) for ml, mr in literal.images[0].terms if not any(mr))
    return (
        literal_fam.contains(space.poly("z*zb + k").terms),
        "alpha(z) = v (x) z + nb (x) 1 (z paired with nb)",
        f"alpha(z) = {alpha['z']} (z paired with {exprio.format_canonical(paired)})",
        "the displayed pairing admits no covariant bracket at all "
        f"(family empty: {literal_fam.empty}); the engine pairing carries the "
        "displayed family z*zb + k",
        DISCREPANCY,
    )


def _projection_obstructed(s):
    cp = s["coaction-plane"]
    return (
        not poisson_morphism_report(cp.projection, cp.space_poisson, cp.group_poisson).clean,
        "projection fails to be Poisson for symbolic k",
        "k = 0 is the only induced member",
        "symbolic-k projection unexpectedly passed",
    )


def _stabilizer(b):
    st = b.stabilizer
    return stabilizer_invariance_check(
        b.context, st["pushforward"], st["action"], st["delta_image"], st["rho"]
    )


def _one_parameter(fam, tower, *members):
    """Whether the family is one affine line through the given brackets."""
    return (
        not fam.empty
        and fam.dimension == 1
        and all(fam.contains(tower.poly(x).terms) for x in members)
    )


def _plane_family(s):
    cp = s["coaction-plane"]
    fam = covariant_family_solve(cp.coaction, cp.group_poisson, cp.ansatz)
    return (
        _one_parameter(fam, cp.space_tower, "z*zb", "z*zb + k"),
        f"affine dimension {fam.dimension}, contains z*zb and z*zb + k",
        "one-parameter family z*zb + k",
        "plane family does not match the displayed one",
    )


def _cylinder_family(s):
    cc = s["coaction-cylinder"]
    return (
        _one_parameter(s.cylinder_family, cc.space_tower,
                       cc.raw["engine_family_member"], "omega*(v - 1)^2"),
        f"affine dimension {s.cylinder_family.dimension}; "
        "family omega*v^2 + beta*v + omega",
        "one-parameter affine family",
        "cylinder family mismatch",
    )


def _cylinder_printed_member(s):
    cc = s["coaction-cylinder"]
    printed = cc.raw["printed_family"]
    return (
        s.cylinder_family.contains(cc.space_tower.poly(printed).terms),
        "solved family: omega*v^2 + beta*v + omega (beta free); equivalently "
        "omega*(v-1)^2 + k*v",
        printed,
        "the displayed family -omega*(v^2-1) + k solves the covariance "
        "identity for no value of the free coefficient",
        DISCREPANCY,
    )


def _at(text):
    """The point ``"v=i, n=0"``: each name mapped to its value in Q(i)."""
    pairs = (pair.split("=") for pair in text.split(",") if pair)
    return {name.strip(): exprio.parse_scalar(QI, value) for name, value in pairs}


def _ranks(b, params, points, expected, lhs, rhs):
    """The verdict that the bracket matrix of ``b`` has the expected rank at
    each point, with the parameters at ``params``; ``{ranks}`` in ``lhs``
    shows the ranks found."""
    params = _at(params)
    ranks = [poisson_matrix_rank(b.poisson, _at(pt), params) for pt in points]
    return ranks == expected, lhs.format(ranks=ranks), rhs, f"ranks {ranks}"


def _field_relation(b, coeffs, lhs, rhs, witness="", bad=FAIL):
    """The verdict that the combination of Hamiltonian fields vanishes;
    ``{where}`` in ``witness`` shows the first nonzero component."""
    ok, where = field_relation(b.poisson, {g: b.tower.poly(c) for g, c in coeffs.items()})
    return ok, lhs, rhs, witness.format(where=where), bad


def _poisson_ideal(b, quotient):
    """Whether the kernel of the quotient preset, as a map on ``b``, is closed
    under the bracket of ``b``, i.e. its locus is a Poisson subgroup."""
    pi = catalog.quotient_on(b.tower, quotient.raw)
    return poisson_ideal_check(b.poisson, pi.kernel_gens, pi)


# the vectors that the displayed wedges name, in the basis (J, X, Y)
_WEDGE_BASIS = {"J": {0: 1}, "P1": {1: 1, 2: 1}, "P2": {1: 1, 2: -1}}


def _wedge(ctx, shown):
    """The displayed wedge ``"c A^B"`` of the three-dimensional Lie algebra."""
    coeff, pair = shown.rsplit(" ", 1)
    c = exprio.parse_scalar(ctx, coeff.removeprefix("+"))
    a, b = (_WEDGE_BASIS[x] for x in pair.split("^"))
    return WedgeBivector(ctx, 3, [((i, j), c if ci == cj else -c)
                                  for i, ci in a.items() for j, cj in b.items() if i != j])


def _delta_p2(s, shown):
    # delta(P2) = delta(X) - delta(Y) = -2 omega X^Y = -omega P2^P1
    dp2 = s.d_ns[1] - s.d_ns[2]
    ref = s["nonstd-bialg"].cocommutator
    if not dp2 == ref[1] - ref[2]:
        return False, dp2.text(LIE_NAMES), "-omega P2^P1"
    return (
        dp2 == _wedge(dp2.ctx, shown),
        "delta(P2) = -omega P2^P1  (= -2*omega X^Y)",
        f"delta(P2) = {shown}",
        "sign differs from the display under P1 = X+Y, P2 = X-Y; the "
        "engine value is the one reproduced by the displayed r-matrix",
        DISCREPANCY,
    )


def _std_coboundary(s):
    sol = coboundary_solve(s.g_std, s.d_std)
    return (
        sol.empty,
        "coboundary equation has no solution",
        "the standard cocommutator is non-coboundary",
        f"delta = ad r for r = {WedgeBivector(s.g_std.ctx, 3, sol.particular).text(LIE_NAMES)}",
    )


def _rmatrix(s):
    r = "omega J^P2"  # displayed, and verified: no ledger entry
    return (
        coboundary_solve(s.g_ns, s.d_ns).contains(_wedge(s.g_ns.ctx, r).terms),
        "solution set omega*J^(X-Y) + c*X^Y",
        f"displayed r-matrix {r} lies in the solution set",
        "displayed r-matrix not recovered",
    )


def _confluent(b):
    res = b.tower.confluence
    return (
        res.ok and res.weights is not None,
        "all overlap words reduce consistently",
        "PBW normal forms are well defined",
        res.describe(),
    )


def _printed_tower(s, level):
    """Whether qe2-nonstd with the displayed level ``nb`` is confluent."""
    raw = s["qe2-nonstd"].raw
    printed = {**raw, "tower": raw["tower"][:2] + [level]}
    res = decide_confluence(load_tower(printed, validate=False))
    return (
        res.ok,
        "engine tower: sigma(n) = n - omega, delta(n) = omega*n "
        "([n,nb] = omega*(nb-n)) is confluent",
        "displayed commutator [n,nb] = omega*(n-nb) quantizes to a "
        "non-confluent tower",
        f"witness overlap: {res.describe()}",
        DISCREPANCY,
    )


def _cylinder_star(s):
    sub = respects_relations_report(
        s["quantum-cylinder"].tower, None, star_status_on_fail=DISCREPANCY
    )
    if sub.worst != DISCREPANCY:
        return sub
    bad = next(r for r in sub.records if r.status == DISCREPANCY)
    return (
        False,
        bad.lhs,
        bad.rhs,
        "the displayed star table (m* = -m) is inconsistent with the "
        "displayed relations when omega* = -omega: (v*m)* and "
        "(m*v - omega*(v^2-1))* differ by 2*omega*(v^-2 - 1); the embedded "
        "star is m* = -m + omega*(v - v^-1)",
        DISCREPANCY,
    )


def _second_relation(s, relation):
    # Def. 4.1's second displayed relation in the cylinder of the first
    t = s["quantum-cylinder"].tower
    left, right = (t.poly(side) for side in relation.split(" = "))
    return (
        left == right,
        f"m*vb = {exprio.format_canonical(t.poly('m*vb'))}  "
        "(vb*m = m*vb + omega*(1 - vb^2))",
        relation,
        "the displayed second relation contradicts the one derived from "
        "v*vb = 1 and the first relation",
        DISCREPANCY,
    )


def _first_relation(s):
    qc, amb = s["quantum-cylinder"], s["qe2-nonstd"].tower
    embedded = commutator(amb.gen("v"), s.m)
    standalone = commutator(qc.tower.gen("v"), qc.tower.gen("m"))
    embed = AlgebraMorphism.load(qc.tower, amb, qc.raw["embedding"]["images"])
    return (
        embed.apply(standalone) == embedded,
        f"embedded [v, vb*nb - v*n] = {exprio.format_canonical(embedded)}",
        f"standalone [v, m] = {exprio.format_canonical(standalone)}",
        "the standalone cylinder uses the displayed bracket; the embedded "
        "generator satisfies the covariant one (omega*(v-1)^2)",
        DISCREPANCY,
    )


def _delta_m(s):
    amb = s["qe2-nonstd"].tower
    expected = exprio.elaborate_expr(
        exprio.parse_expr("1 (x) (vb*nb - v*n) + vb*nb (x) vb - v*n (x) v"),
        (amb, amb),
    )
    engine = s["qe2-nonstd"].hopf.coproduct(s.m)
    return engine == expected, engine, "1 (x) m + vb*nb (x) vb - v*n (x) v"


def _pbw_basis(s):
    # v^r m^s independent, standalone and embedded
    t, amb = s["quantum-cylinder"].tower, s["qe2-nonstd"].tower
    powers = [(r, k) for r in range(-3, 4) for k in range(4)]
    m_pows = [s.m ** k for k in range(4)]
    sols = (
        span_solve(NCPoly.zero(t), {
            (r, k): normal_form(t, [("v", r), ("m", k)]) for r, k in powers}),
        span_solve(NCPoly.zero(amb), {
            (r, k): normal_form(amb, [("v", r)]) * m_pows[k] for r, k in powers}),
    )
    dependency = next((sorted(v) for sol in sols for v in sol.nullspace.values()), None)
    return (
        dependency is None,
        "28 elements (|r| <= 3, s <= 3), standalone and embedded",
        "v^r m^s is a vector-space basis",
        f"v^r m^s are dependent at (r, s) in {dependency}",
    )


def _degm_additivity(s):
    t = s["quantum-cylinder"].tower
    rng = random.Random(20240)
    for _ in range(100):
        p = q = NCPoly.zero(t)
        while p.is_zero():
            p = _random_cyl(t, rng, s.degree_bound)
        while q.is_zero():
            q = _random_cyl(t, rng, s.degree_bound)
        ok = graded_degree(p * q, "m") == graded_degree(p, "m") + graded_degree(q, "m")
        if not ok:
            break
    return (
        ok,
        "deg_m(p*q) = deg_m(p) + deg_m(q) on 100 random pairs",
        "the cylinder is a domain graded by deg_m",
    )


def _random_cyl(t, rng, degree_bound):
    # v^r m^s is already a normal monomial of the cylinder tower (v, m)
    terms = []
    for _ in range(rng.randint(1, 3)):
        r = rng.randint(-degree_bound // 2, degree_bound // 2)
        s = rng.randint(0, max(1, degree_bound // 2))
        terms.append(((r, s), t.context.from_int(rng.randint(-4, 4))))
    return NCPoly.from_terms(t, terms)


def _coinvariant(s, x, side="right"):
    """Whether x in qe2-nonstd is coinvariant, on that side, for the
    quotient by I."""
    return coinvariance_check(x, s.pi, s["qe2-nonstd"].hopf, side)


def _in_closure(s, x):
    return (
        _coinvariant(s, x),
        "(id (x) pi) Delta(b) = b (x) 1",
        "b lies in the coinvariant subalgebra",
        "b is not right coinvariant",
    )


def _displayed_side(s, side):
    residual = coinvariance_residual(s.m, s.pi, s["qe2-nonstd"].hopf, side)
    maps, value = ("pi (x) id", "1 (x) m") if side == "left" else ("id (x) pi", "m (x) 1")
    return (
        residual.is_zero(),
        "(id (x) pi) Delta(m) = m (x) 1 holds (right coinvariant)",
        f"({maps}) Delta(m) = {value} as displayed",
        f"the displayed {side}-side computation regroups terms across the tensor "
        f"sign; the actual {side} residual is {exprio.format_canonical(residual)}",
        DISCREPANCY,
    )


def _bounded_coinvariants(s):
    amb = s["qe2-nonstd"].tower
    m_pows = [s.m ** k for k in range(3)]
    balanced = [normal_form(amb, [("v", r)]) * mk for r in range(-2, 3) for mk in m_pows]
    bad = next((exprio.format_canonical(x) for x in balanced if not _coinvariant(s, x)),
               None) or next((x for x in ("v*n", "nb") if _coinvariant(s, s.qe2(x))), None)
    return (
        bad is None,
        "every v^r m^s (|r| <= 2, s <= 2) is right coinvariant; unbalanced "
        "monomials are not",
        "the cylinder matches the coinvariant subalgebra at desk scale",
        f"the first monomial misclassified: {bad}",
    )


def _sigma_in_ideal(s):
    sig = sigma_generators(s.cylinder, s["qe2-nonstd"].hopf, max_power=2)
    bad = next((label for label, val in sig if not ideal_member(val, s.pi)), None)
    return (
        bad is None,
        "(S^p - eps)(b) in I for b in {v, vb, m}, p <= 2",
        "Sigma(C) is contained in I",
        f"{bad} lies outside I",
    )


def _generators_recovered(s):
    # I = <v - 1, n - nb>, against (S - eps)(vb) and (S - eps)(m)
    outputs = (s.sigma1["(S^1 - eps)(vb)"], s.sigma1["(S^1 - eps)(m)"])
    return (
        all(ideal_member(g - out, s.pi) for g, out in zip(s.pi.kernel_gens, outputs)),
        "each generator of I differs from a Sigma output by a kernel element",
        "I is contained in the Sigma-generated ideal",
    )


CHECKS = {
    "jacobi": (
        ("jacobi-std-poisson", "Prop. 2.2", lambda s: jacobi_report(s["std-poisson"].poisson)),
        ("jacobi-nonstd-poisson", "Sec. 3",
         lambda s: jacobi_report(s["nonstd-poisson"].poisson)),
        ("bracket-table-std-n-nb", "Sec. 2", lambda s, shown: _printed_bracket(
            s["std-poisson"], "n", "nb", shown,
            "multiplicativity of the coproduct (Prop. 2.2) forces {n,nb} = -n*nb; "
            "with the displayed sign the coproduct is not a Poisson morphism")),
        ("bracket-table-nonstd-n-nb", "Sec. 3", lambda s, shown: _printed_bracket(
            s["nonstd-poisson"], "n", "nb", shown,
            "the Jacobi identity forces {n,nb} = omega*(nb-n); the displayed sign "
            "leaves the cyclic sum 2*omega^2*(v-1)^2")),
    ),
    "multiplicativity": (
        ("multiplicativity-std-poisson", "Prop. 2.2",
         lambda s: _coproduct_is_poisson(s["std-poisson"])),
        ("multiplicativity-nonstd-poisson", "Sec. 3",
         lambda s: _coproduct_is_poisson(s["nonstd-poisson"])),
    ),
    "covariance": (
        ("covariance-plane-coaction-k-symbolic", "Prop. 2.6",
         lambda s: _coaction_is_poisson(s["coaction-plane"])),
        ("covariance-plane-orientation", "Cor. 2.4 / Prop. 2.6", _plane_orientation),
        ("covariance-plane-projection-k0", "Cor. 2.4", lambda s: poisson_morphism_report(
            s["coaction-plane"].projection,
            _space_bracket(s["coaction-plane"], "z*zb"),
            s["coaction-plane"].group_poisson,
        )),
        ("covariance-plane-projection-k-obstruction", "Cor. 2.4", _projection_obstructed),
        ("covariance-cylinder-engine-member", "Prop. 3.2", lambda s: _coaction_is_poisson(
            s["coaction-cylinder"], s["coaction-cylinder"].raw["engine_family_member"])),
        ("prop32-bracket-printed", "Prop. 3.2", lambda s, shown: _printed_bracket(
            s["nonstd-poisson"], "v", "vb*nb - v*n", shown,
            "Leibniz expansion of {v, vb*nb - v*n} gives omega*(v-1)^2; the "
            "displayed value is not even covariant (see the families suite)")),
        ("stabilizer-plane", "Sec. 2", lambda s: _stabilizer(s["coaction-plane"])),
        ("stabilizer-cylinder", "Rem. 3.4", lambda s: _stabilizer(s["coaction-cylinder"])),
    ),
    "families": (
        ("family-plane-dimension", "Prop. 2.6", _plane_family),
        ("family-cylinder-dimension", "Prop. 3.5", _cylinder_family),
        ("family-cylinder-printed-member", "Prop. 3.5", _cylinder_printed_member),
    ),
    "foliation": (
        ("rank-std-circle-points", "Rem. 2.3", lambda s: _ranks(
            s["std-poisson"], "",
            ["v=1, n=0, nb=0", "v=i, n=0, nb=0", "v=3/5 + 4/5*i, n=0, nb=0"], [0, 0, 0],
            "ranks {ranks} at v0 in (1, i, (3+4i)/5), n = nb = 0",
            "0-dimensional leaves along the circle subgroup")),
        ("rank-std-generic", "Rem. 2.3", lambda s: _ranks(
            s["std-poisson"], "", ["v=1, n=1, nb=2"], [2],
            "rank 2 at a generic point", "generic leaves are 2-dimensional")),
        ("rank-nonstd-line", "Rem. 3.1", lambda s: _ranks(
            s["nonstd-poisson"], "omega=1", ["v=1, n=0, nb=0", "v=1, n=1, nb=1"], [0, 0],
            "ranks {ranks} at v = 1, n = nb",
            "0-dimensional leaves along the real line subgroup")),
        ("rank-nonstd-circle-point", "Rem. 3.1", lambda s: _ranks(
            s["nonstd-poisson"], "omega=1", ["v=i, n=0, nb=0"], [2],
            "rank 2 at (i, 0, 0), omega = 1",
            "the circle is not a union of 0-dimensional leaves")),
        ("rank-cylinder-degenerate", "Rem. 3.6", lambda s: _ranks(
            s["cylinder-poisson"], "omega=1, k=-2", ["v=i, m=0", "v=-i, m=0"], [0, 0],
            "ranks {ranks} at v = +/- i (omega = 1, k = -2)",
            "omega*v^2 + omega + k = 0 locus has 0-dimensional leaves")),
        ("rank-cylinder-regular", "Rem. 3.6", lambda s: _ranks(
            s["cylinder-poisson"], "omega=1, k=-2", ["v=1, m=0"], [2],
            "rank 2 at v = 1",
            "points off the degenerate locus lie in 2-dimensional leaves")),
        ("rank-plane-hyperbolic", "Rem. 2.7", lambda s: _ranks(
            s["plane-poisson"], "k=-2", ["z=1 + i, zb=1 - i", "z=1, zb=1"], [0, 2],
            "rank 0 on z*zb = -k, rank 2 off it (k = -2)",
            "degenerate locus z*zb = -k")),
        # Hamiltonian field relations
        ("field-relation-std-engine", "Rem. 2.3", lambda s: _field_relation(
            s["std-poisson"], {"v": "v^-1*n*nb", "n": "nb", "nb": "-n"},
            "v^-1*n*nb X_v + nb X_n - n X_nb = 0",
            "a pointwise linear relation bounds the leaves by dimension 2")),
        ("field-relation-std-printed", "Rem. 2.3", lambda s, shown: _field_relation(
            s["std-poisson"], shown,
            "vanishing combination: v^-1*n*nb X_v + nb X_n - n X_nb",
            "displayed combination: " + " + ".join(f"{c} X_{g}" for g, c in shown.items()),
            "displayed combination does not vanish ({where}); the geometric "
            "conclusion (generic rank 2) verifies via the engine relation",
            DISCREPANCY)),
        ("field-relation-nonstd-engine", "Rem. 3.1", lambda s: _field_relation(
            s["nonstd-poisson"], {"n": "v - v^2", "nb": "v - 1", "v": "n - nb"},
            "(v - v^2) X_n + (v - 1) X_nb + (n - nb) X_v = 0",
            "distribution at most 2-dimensional everywhere")),
        ("field-relation-nonstd-printed", "Rem. 3.1", lambda s, shown: _field_relation(
            s["nonstd-poisson"], shown,
            "vanishing combination carries (n - nb) on X_v",
            f"displayed combination carries ({shown['v']}) on X_v",
            "displayed combination does not vanish under the corrected bracket "
            "table ({where})",
            DISCREPANCY)),
        # Poisson subgroup loci
        ("poisson-subgroup-circle-std", "Rem. 2.3", lambda s: _poisson_ideal(
            s["std-poisson"], s["quotient-circle"])),
        ("poisson-subgroup-line-nonstd", "Rem. 3.1", lambda s: _poisson_ideal(
            s["nonstd-poisson"], s["quotient-I"])),
        ("circle-not-poisson-subgroup-nonstd", "Rem. 3.1", lambda s: (
            not _poisson_ideal(s["nonstd-poisson"], s["quotient-circle"]).clean,
            "restriction of {v,n} to the circle is omega*(1-u) != 0",
            "the circle is not a Poisson subgroup of the nonstandard structure",
            "circle unexpectedly closed under the nonstandard bracket")),
    ),
    "bialgebra": (
        ("bialg-lie-constants", "Sec. 2", lambda s: (
            (pair := next((
                f"[{LIE_NAMES[i]},{LIE_NAMES[j]}]" for i in range(3) for j in range(i + 1, 3)
                if s.g_std.bracket_basis(i, j) != s["e2-lie"].lie.bracket_basis(i, j)
            ), None)) is None,
            "[J,X] = -X, [J,Y] = Y, [X,Y] = 0",
            "tangent algebra of the displayed group law",
            f"the brackets first differ at {pair}")),
        ("bialg-linearize-std", "Sec. 2", lambda s: (
            s.d_std == s["std-bialg"].cocommutator,
            "delta(J) = 0, delta(X) = J^X, delta(Y) = J^Y",
            "displayed standard cocommutator",
            "linearized " + ", ".join(
                f"delta({x}) = {d.text(LIE_NAMES)}" for x, d in zip(LIE_NAMES, s.d_std)))),
        ("bialg-linearize-nonstd-p1", "Sec. 3", lambda s: (
            (p1 := s.d_ns[1] + s.d_ns[2]).is_zero(),
            "delta(P1) = 0 with P1 = X + Y",
            "displayed delta(P1) = 0",
            f"delta(P1) = {p1.text(LIE_NAMES)}")),
        ("bialg-delta-p2-printed", "Sec. 3", _delta_p2),
        ("bialg-delta-j-printed", "Sec. 3", lambda s, shown: (
            s.d_ns[0] == _wedge(s.d_ns[0].ctx, shown),
            f"delta(J) = {s.d_ns[0].text(LIE_NAMES)}  (= omega P1^J)",
            f"delta(J) = {shown}",
            "the linearized delta(J) is proportional to J^P1, not J^P2, under "
            "every natural identification tried",
            DISCREPANCY)),
        ("bialg-cocycle-std", "Sec. 2", lambda s: cocycle_cojacobi_report(s.g_std, s.d_std)),
        ("bialg-cocycle-nonstd", "Sec. 3", lambda s: cocycle_cojacobi_report(s.g_ns, s.d_ns)),
        ("bialg-coboundary-std-empty", "Sec. 2", _std_coboundary),
        ("bialg-coboundary-nonstd-rmatrix", "Sec. 3", _rmatrix),
    ),
    "diamond": (
        ("diamond-qe2-nonstd", "Sec. 4", lambda s: _confluent(s["qe2-nonstd"])),
        ("diamond-quantum-cylinder", "Def. 4.1", lambda s: _confluent(s["quantum-cylinder"])),
        ("diamond-quantum-plane", "Rem. 2.5", lambda s: _confluent(s["quantum-plane"])),
        ("tower-printed-nonstd-sign", "Sec. 3 / Sec. 4", _printed_tower),
    ),
    "hopf-axioms": (
        ("hopf-axioms-fun-e2", "Sec. 2", lambda s: hopf_axioms_report(s["fun-e2"].hopf)),
        ("hopf-axioms-qe2-nonstd", "Sec. 4",
         lambda s: hopf_axioms_report(s["qe2-nonstd"].hopf)),
    ),
    "relations": (
        ("relations-fun-e2", "Sec. 2",
         lambda s: respects_relations_report(s["fun-e2"].tower, s["fun-e2"].hopf)),
        ("relations-qe2-nonstd", "Sec. 4",
         lambda s: respects_relations_report(s["qe2-nonstd"].tower, s["qe2-nonstd"].hopf)),
        ("relations-quantum-plane-star", "Rem. 2.5",
         lambda s: respects_relations_report(s["quantum-plane"].tower, None)),
        ("relations-quantum-cylinder-star", "Def. 4.1", _cylinder_star),
        ("def41-second-relation-printed", "Def. 4.1", _second_relation),
        ("def41-first-relation-vs-embedded", "Def. 4.1 / Prop. 3.2", _first_relation),
    ),
    "coideal": (
        ("coideal-cylinder", "Prop. 4.2",
         lambda s: coideal_report(s.cylinder, s["qe2-nonstd"].hopf)),
        ("coideal-delta-m-exact", "Prop. 4.2", _delta_m),
        ("basis-v-r-m-s-independent", "Prop. 4.2", _pbw_basis),
        ("degm-additivity", "Prop. 4.2", _degm_additivity),
    ),
    "hopf-ideal": (
        ("quotient-I-well-defined", "Prop. 4.4", lambda s: quotient_check(s.pi)),
        ("hopf-star-ideal-I", "Prop. 4.4", lambda s: hopf_star_ideal_report(
            s.pi.kernel_gens, s.pi, s["qe2-nonstd"].hopf)),
    ),
    "closure": (
        ("closure-coinvariance-v", "Prop. 4.4", lambda s: _in_closure(s, s.qe2("v"))),
        ("closure-coinvariance-vb", "Prop. 4.4", lambda s: _in_closure(s, s.qe2("v^-1"))),
        ("closure-coinvariance-m", "Prop. 4.4", lambda s: _in_closure(s, s.m)),
        ("closure-coinvariance-n-excluded", "Prop. 4.4", lambda s: (
            not _coinvariant(s, s.qe2("n")) and not _coinvariant(s, s.qe2("n"), "left"),
            "n fails coinvariance on both sides",
            "n does not belong to the closure")),
        ("closure-coinvariance-side-printed", "Prop. 4.4", _displayed_side),
        ("closure-coinvariants-bounded", "Prop. 4.4", _bounded_coinvariants),
        ("closure-sigma-outputs-in-ideal", "Prop. 4.4", _sigma_in_ideal),
        ("closure-sigma-vb-exact", "Prop. 4.4", lambda s: _agrees(
            s.sigma1["(S^1 - eps)(vb)"], s["qe2-nonstd"].tower, "v - 1")),
        ("closure-sigma-m-printed", "Prop. 4.4", lambda s, shown: _agrees(
            s.sigma1["(S^1 - eps)(m)"], s["qe2-nonstd"].tower, shown,
            "difference omega*(v^-1 - v) lies in I (ideal_member true), so the "
            "closure conclusion is unaffected",
            DISCREPANCY)),
        ("closure-s-n-minus-nb", "Prop. 4.4", lambda s: _agrees(
            s["qe2-nonstd"].hopf.antipode(s.qe2("n - nb")), s["qe2-nonstd"].tower,
            "vb*nb - v*n  (= m)")),
        ("closure-s-v-minus-1-sign", "Prop. 4.4", lambda s, shown: _agrees(
            s["qe2-nonstd"].hopf.antipode(s.qe2("v - 1")), s["qe2-nonstd"].tower, shown,
            "overall sign differs from the display; immaterial to ideal membership",
            DISCREPANCY)),
        ("closure-ideal-generators-recovered", "Prop. 4.4", _generators_recovered),
    ),
}


def _suite(name):
    """The suite function of ``name``; it reads ``CHECKS[name]`` when called."""
    def suite(rep: CheckReport, s: _Inputs):
        _record(rep, s, CHECKS[name])
    suite.__name__ = suite.__qualname__ = "suite_" + name.replace("-", "_")
    return suite


# suite name -> its suite functions, each also bound here as suite_<name>
SUITES = {name: (_suite(name),) for name in CHECKS}
SUITES["all"] = tuple(fn for fns in SUITES.values() for fn in fns)
globals().update((fn.__name__, fn) for fn in SUITES["all"])


def run_suite(suite: str, degree_bound: int = 4) -> CheckReport:
    """Run every registered check of the suite; failing checks never abort
    the run.  The checks are symbolic or use the pinned evaluation points
    of the acceptance criteria."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    if degree_bound < 2:
        raise ValueError("degree bound must be >= 2")
    rep = CheckReport(suite)
    s = _Inputs(degree_bound)  # one per run: each join is built once
    for fn in SUITES[suite]:
        fn(rep, s)
    return rep


def run_check(check_id: str, inputs: _Inputs | None = None):
    """Run the one entry ``check_id`` on ``inputs``, or on fresh inputs at
    degree bound 4, and return its record."""
    entry = next((e for es in CHECKS.values() for e in es if e[0] == check_id), None)
    if entry is None:
        raise KeyError(f"unknown check {check_id!r}")
    rep = CheckReport(check_id)
    _record(rep, _Inputs(4) if inputs is None else inputs, (entry,))
    return rep.records[0]

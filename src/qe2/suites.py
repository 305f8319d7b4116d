"""Registered verification suites.

Each check compares engine-derived values against the claims and displayed
values of the source manuscript and yields pass/fail/discrepancy records;
``discrepancy`` marks an engine value that contradicts a displayed value
while the enclosing statement's conclusion still verifies.  Suites never
abort on a failing check.
"""

from __future__ import annotations

import random

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
from .report import DISCREPANCY, FAIL, PASS, CheckReport
from .scalars import GaussRational

LIE_NAMES = ("J", "X", "Y")


def _summarize(rep_out: CheckReport, check_id, anchor, source: CheckReport, note=""):
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
        witness=(f"{bad.check_id}: {bad.witness}" if bad else detail)
        + (f"; {note}" if note else ""),
    )


# ---------------------------------------------------------------------------
# jacobi
# ---------------------------------------------------------------------------


def suite_jacobi(rep: CheckReport, degree_bound: int):
    std = catalog.get_preset("std-poisson")
    nonstd = catalog.get_preset("nonstd-poisson")
    _summarize(rep, "jacobi-std-poisson", "Prop. 2.2", jacobi_report(std.poisson))
    _summarize(rep, "jacobi-nonstd-poisson", "Sec. 3", jacobi_report(nonstd.poisson))
    t = std.tower
    engine = std.poisson.bracket(t.gen("n"), t.gen("nb"))
    rep.verdict(
        "bracket-table-std-n-nb",
        engine == t.poly("n*nb"),
        anchor="Sec. 2",
        lhs=engine,
        rhs="n*nb",
        witness="multiplicativity of the coproduct (Prop. 2.2) forces {n,nb} = -n*nb; "
        "with the displayed sign the coproduct is not a Poisson morphism",
        bad=DISCREPANCY,
    )
    tn = nonstd.tower
    engine = nonstd.poisson.bracket(tn.gen("n"), tn.gen("nb"))
    rep.verdict(
        "bracket-table-nonstd-n-nb",
        engine == tn.poly("omega*n - omega*nb"),
        anchor="Sec. 3",
        lhs=engine,
        rhs="omega*n - omega*nb",
        witness="the Jacobi identity forces {n,nb} = omega*(nb-n); the displayed sign "
        "leaves the cyclic sum 2*omega^2*(v-1)^2",
        bad=DISCREPANCY,
    )


# ---------------------------------------------------------------------------
# multiplicativity
# ---------------------------------------------------------------------------


def suite_multiplicativity(rep: CheckReport, degree_bound: int):
    for pid, anchor in (("std-poisson", "Prop. 2.2"), ("nonstd-poisson", "Sec. 3")):
        b = catalog.get_preset(pid)
        sub = poisson_morphism_report(
            b.hopf.coproduct_map, b.poisson, (b.poisson, b.poisson)
        )
        _summarize(rep, f"multiplicativity-{pid}", anchor, sub)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------


def suite_covariance(rep: CheckReport, degree_bound: int):
    cp = catalog.get_preset("coaction-plane")
    sub = poisson_morphism_report(
        cp.coaction, cp.space_poisson, (cp.group_poisson, cp.space_poisson)
    )
    _summarize(rep, "covariance-plane-coaction-k-symbolic", "Prop. 2.6", sub)

    space, group = cp.space_tower, cp.group_tower
    literal = AlgebraMorphism.load(
        space,
        (group, space),
        {"z": "v (x) z + n (x) 1", "zb": "vb (x) zb + nb (x) 1"},
    )
    literal_fam = covariant_family_solve(literal, cp.group_poisson, cp.ansatz)
    rep.verdict(
        "covariance-plane-orientation",
        literal_fam.contains_bracket(space.poly("z*zb + k")),
        anchor="Cor. 2.4 / Prop. 2.6",
        lhs="alpha(z) = v (x) z + nb (x) 1 (z paired with nb)",
        rhs="alpha(z) = v (x) z + n (x) 1 (z paired with n)",
        witness="the displayed pairing admits no covariant bracket at all "
        f"(family empty: {literal_fam.empty}); the engine pairing carries the "
        "displayed family z*zb + k",
        bad=DISCREPANCY,
    )

    proj = cp.projection
    p_m0 = PoissonStructure(space, {(0, 1): space.poly("z*zb")})
    rep0 = poisson_morphism_report(proj, p_m0, cp.group_poisson)
    _summarize(rep, "covariance-plane-projection-k0", "Cor. 2.4", rep0)
    rep_sym = poisson_morphism_report(proj, cp.space_poisson, cp.group_poisson)
    rep.verdict(
        "covariance-plane-projection-k-obstruction",
        not rep_sym.clean,
        anchor="Cor. 2.4",
        lhs="projection fails to be Poisson for symbolic k",
        rhs="k = 0 is the only induced member",
        witness="symbolic-k projection unexpectedly passed",
    )

    cc = catalog.get_preset("coaction-cylinder")
    engine_member = cc.space_tower.poly(cc.raw["engine_family_member"])
    p_m = PoissonStructure(cc.space_tower, {(0, 1): engine_member})
    sub = poisson_morphism_report(cc.coaction, p_m, (cc.group_poisson, p_m))
    _summarize(rep, "covariance-cylinder-engine-member", "Prop. 3.2", sub)

    nonstd = catalog.get_preset("nonstd-poisson")
    tn = nonstd.tower
    engine_bracket = nonstd.poisson.bracket(tn.gen("v"), tn.poly("vb*nb - v*n"))
    rep.verdict(
        "prop32-bracket-printed",
        engine_bracket == tn.poly("-omega*(v^2 - 1)"),
        anchor="Prop. 3.2",
        lhs=engine_bracket,
        rhs="-omega*(v^2 - 1)",
        witness="Leibniz expansion of {v, vb*nb - v*n} gives omega*(v-1)^2; the "
        "displayed value is not even covariant (see the families suite)",
        bad=DISCREPANCY,
    )

    for pid, anchor, cid in (
        ("coaction-plane", "Sec. 2", "stabilizer-plane"),
        ("coaction-cylinder", "Rem. 3.4", "stabilizer-cylinder"),
    ):
        b = catalog.get_preset(pid)
        st = b.stabilizer
        sub = stabilizer_invariance_check(
            b.context, st["pushforward"], st["action"], st["delta_image"], st["rho"]
        )
        _summarize(rep, cid, anchor, sub)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def suite_families(rep: CheckReport, degree_bound: int):
    cp = catalog.get_preset("coaction-plane")
    fam = covariant_family_solve(cp.coaction, cp.group_poisson, cp.ansatz)
    space = cp.space_tower
    ok = (
        not fam.empty
        and fam.dimension == 1
        and fam.contains_bracket(space.poly("z*zb"))
        and fam.contains_bracket(space.poly("z*zb + k"))
    )
    rep.verdict(
        "family-plane-dimension",
        ok,
        anchor="Prop. 2.6",
        lhs=f"affine dimension {fam.dimension}, contains z*zb and z*zb + k",
        rhs="one-parameter family z*zb + k",
        witness="plane family does not match the displayed one",
    )

    cc = catalog.get_preset("coaction-cylinder")
    fam_c = covariant_family_solve(cc.coaction, cc.group_poisson, cc.ansatz)
    sp = cc.space_tower
    rep.verdict(
        "family-cylinder-dimension",
        (not fam_c.empty)
        and fam_c.dimension == 1
        and fam_c.contains_bracket(sp.poly(cc.raw["engine_family_member"]))
        and fam_c.contains_bracket(sp.poly("omega*(v - 1)^2")),
        anchor="Prop. 3.5",
        lhs=f"affine dimension {fam_c.dimension}; family omega*v^2 + beta*v + omega",
        rhs="one-parameter affine family",
        witness="cylinder family mismatch",
    )
    rep.verdict(
        "family-cylinder-printed-member",
        fam_c.contains_bracket(sp.poly(cc.raw["printed_family"])),
        anchor="Prop. 3.5",
        lhs="solved family: omega*v^2 + beta*v + omega (beta free); equivalently "
        "omega*(v-1)^2 + k*v",
        rhs=cc.raw["printed_family"],
        witness="the displayed family -omega*(v^2-1) + k solves the covariance "
        "identity for no value of the free coefficient",
        bad=DISCREPANCY,
    )


# ---------------------------------------------------------------------------
# foliation
# ---------------------------------------------------------------------------


def suite_foliation(rep: CheckReport, degree_bound: int):
    std = catalog.get_preset("std-poisson")
    nonstd = catalog.get_preset("nonstd-poisson")
    one = GaussRational(1)
    zero = GaussRational(0)
    i = GaussRational(0, 1)

    pts = [one, i, GaussRational(3) / 5 + (GaussRational(4) / 5) * i]
    ranks = [
        poisson_matrix_rank(std.poisson, {"v": v0, "n": zero, "nb": zero}, {})
        for v0 in pts
    ]
    rep.verdict(
        "rank-std-circle-points",
        ranks == [0, 0, 0],
        anchor="Rem. 2.3",
        lhs=f"ranks {ranks} at v0 in (1, i, (3+4i)/5), n = nb = 0",
        rhs="0-dimensional leaves along the circle subgroup",
    )
    rep.verdict(
        "rank-std-generic",
        poisson_matrix_rank(
            std.poisson, {"v": one, "n": one, "nb": GaussRational(2)}, {}
        )
        == 2,
        anchor="Rem. 2.3",
        lhs="rank 2 at a generic point",
        rhs="generic leaves are 2-dimensional",
    )
    w1 = {"omega": one}
    rline = [
        poisson_matrix_rank(nonstd.poisson, {"v": one, "n": t, "nb": t}, w1)
        for t in (zero, one)
    ]
    rep.verdict(
        "rank-nonstd-line",
        rline == [0, 0],
        anchor="Rem. 3.1",
        lhs=f"ranks {rline} at v = 1, n = nb",
        rhs="0-dimensional leaves along the real line subgroup",
    )
    rep.verdict(
        "rank-nonstd-circle-point",
        poisson_matrix_rank(nonstd.poisson, {"v": i, "n": zero, "nb": zero}, w1) == 2,
        anchor="Rem. 3.1",
        lhs="rank 2 at (i, 0, 0), omega = 1",
        rhs="the circle is not a union of 0-dimensional leaves",
    )

    cyl = catalog.get_preset("cylinder-poisson")
    params = {"omega": one, "k": GaussRational(-2)}
    degenerate = [
        poisson_matrix_rank(cyl.poisson, {"v": pt, "m": zero}, params)
        for pt in (i, -i)
    ]
    rep.verdict(
        "rank-cylinder-degenerate",
        degenerate == [0, 0],
        anchor="Rem. 3.6",
        lhs=f"ranks {degenerate} at v = +/- i (omega = 1, k = -2)",
        rhs="omega*v^2 + omega + k = 0 locus has 0-dimensional leaves",
    )
    rep.verdict(
        "rank-cylinder-regular",
        poisson_matrix_rank(cyl.poisson, {"v": one, "m": zero}, params) == 2,
        anchor="Rem. 3.6",
        lhs="rank 2 at v = 1",
        rhs="points off the degenerate locus lie in 2-dimensional leaves",
    )

    plane = catalog.get_preset("plane-poisson")
    pk = {"k": GaussRational(-2)}
    rep.verdict(
        "rank-plane-hyperbolic",
        poisson_matrix_rank(
            plane.poisson, {"z": GaussRational(1, 1), "zb": GaussRational(1, -1)}, pk
        )
        == 0
        and poisson_matrix_rank(plane.poisson, {"z": one, "zb": one}, pk) == 2,
        anchor="Rem. 2.7",
        lhs="rank 0 on z*zb = -k, rank 2 off it (k = -2)",
        rhs="degenerate locus z*zb = -k",
    )

    # Hamiltonian field relations
    ts = std.tower
    ok_engine, _ = field_relation(
        std.poisson,
        {"v": ts.poly("v^-1*n*nb"), "n": ts.poly("nb"), "nb": ts.poly("-n")},
    )
    rep.verdict(
        "field-relation-std-engine",
        ok_engine,
        anchor="Rem. 2.3",
        lhs="v^-1*n*nb X_v + nb X_n - n X_nb = 0",
        rhs="a pointwise linear relation bounds the leaves by dimension 2",
    )
    printed_ok, witness = field_relation(
        std.poisson,
        {"v": ts.poly("v*n*nb"), "n": ts.poly("nb"), "nb": ts.poly("n")},
    )
    rep.verdict(
        "field-relation-std-printed",
        printed_ok,
        anchor="Rem. 2.3",
        lhs="vanishing combination: v^-1*n*nb X_v + nb X_n - n X_nb",
        rhs="displayed combination: v*n*nb X_v + nb X_n + n X_nb",
        witness=f"displayed combination does not vanish ({witness}); the geometric "
        "conclusion (generic rank 2) verifies via the engine relation",
        bad=DISCREPANCY,
    )

    tn = nonstd.tower
    ok_engine, _ = field_relation(
        nonstd.poisson,
        {"n": tn.poly("v - v^2"), "nb": tn.poly("v - 1"), "v": tn.poly("n - nb")},
    )
    rep.verdict(
        "field-relation-nonstd-engine",
        ok_engine,
        anchor="Rem. 3.1",
        lhs="(v - v^2) X_n + (v - 1) X_nb + (n - nb) X_v = 0",
        rhs="distribution at most 2-dimensional everywhere",
    )
    printed_ok, witness = field_relation(
        nonstd.poisson,
        {"n": tn.poly("v - v^2"), "nb": tn.poly("v - 1"), "v": tn.poly("nb - n")},
    )
    rep.verdict(
        "field-relation-nonstd-printed",
        printed_ok,
        anchor="Rem. 3.1",
        lhs="vanishing combination carries (n - nb) on X_v",
        rhs="displayed combination carries (nb - n) on X_v",
        witness=f"displayed combination does not vanish under the corrected bracket "
        f"table ({witness})",
        bad=DISCREPANCY,
    )

    # Poisson subgroup loci
    circle = catalog.get_preset("quotient-circle")
    sub = poisson_ideal_check(
        std.poisson,
        [std.tower.gen("n"), std.tower.gen("nb")],
        catalog.quotient_on(std.tower, circle.raw),
    )
    _summarize(rep, "poisson-subgroup-circle-std", "Rem. 2.3", sub)
    qi = catalog.get_preset("quotient-I")
    sub = poisson_ideal_check(
        nonstd.poisson,
        [tn.poly("v - 1"), tn.poly("n - nb")],
        catalog.quotient_on(tn, qi.raw),
    )
    _summarize(rep, "poisson-subgroup-line-nonstd", "Rem. 3.1", sub)
    bad = poisson_ideal_check(
        nonstd.poisson,
        [tn.gen("n"), tn.gen("nb")],
        catalog.quotient_on(tn, circle.raw),
    )
    rep.verdict(
        "circle-not-poisson-subgroup-nonstd",
        not bad.clean,
        anchor="Rem. 3.1",
        lhs="restriction of {v,n} to the circle is omega*(1-u) != 0",
        rhs="the circle is not a Poisson subgroup of the nonstandard structure",
        witness="circle unexpectedly closed under the nonstandard bracket",
    )


# ---------------------------------------------------------------------------
# bialgebra
# ---------------------------------------------------------------------------


def suite_bialgebra(rep: CheckReport, degree_bound: int):
    std = catalog.get_preset("std-poisson")
    nonstd = catalog.get_preset("nonstd-poisson")
    lie_preset = catalog.get_preset("e2-lie")
    g_std = lie_from_group(std.tower, std.hopf, names=LIE_NAMES)
    same = all(
        g_std.bracket_basis(i, j) == lie_preset.lie.bracket_basis(i, j)
        for i in range(3)
        for j in range(3)
    )
    rep.verdict(
        "bialg-lie-constants",
        same,
        anchor="Sec. 2",
        lhs="[J,X] = -X, [J,Y] = Y, [X,Y] = 0",
        rhs="tangent algebra of the displayed group law",
    )

    d_std = linearize_poisson(std.poisson, names=LIE_NAMES)
    rep.verdict(
        "bialg-linearize-std",
        d_std == catalog.get_preset("std-bialg").cocommutator,
        anchor="Sec. 2",
        lhs="delta(J) = 0, delta(X) = J^X, delta(Y) = J^Y",
        rhs="displayed standard cocommutator",
    )

    d_ns = linearize_poisson(nonstd.poisson, names=LIE_NAMES)
    ctxn = nonstd.tower.context
    w = ctxn.param("omega")
    rep.verdict(
        "bialg-linearize-nonstd-p1",
        (d_ns.of(1) + d_ns.of(2)).is_zero(),
        anchor="Sec. 3",
        lhs="delta(P1) = 0 with P1 = X + Y",
        rhs="displayed delta(P1) = 0",
    )
    # delta(P2) = delta(X) - delta(Y) = -2 omega X^Y = -omega P2^P1
    dp2 = d_ns.of(1) - d_ns.of(2)
    ref = catalog.get_preset("nonstd-bialg").cocommutator
    engine_txt = "delta(P2) = -omega P2^P1  (= -2*omega X^Y)"
    if dp2 == ref.of(1) - ref.of(2):
        rep.verdict(
            "bialg-delta-p2-printed",
            dp2 == WedgeBivector(ctxn, 3, {(1, 2): w + w}),
            anchor="Sec. 3",
            lhs=engine_txt,
            rhs="delta(P2) = +omega P2^P1",
            witness="sign differs from the display under P1 = X+Y, P2 = X-Y; the "
            "engine value is the one reproduced by the displayed r-matrix",
            bad=DISCREPANCY,
        )
    else:
        rep.add("bialg-delta-p2-printed", anchor="Sec. 3", status=FAIL,
                lhs=dp2.text(LIE_NAMES), rhs="-omega P2^P1")
    printed_r = WedgeBivector(ctxn, 3, {(0, 1): w, (0, 2): -w})  # omega J^P2
    rep.verdict(
        "bialg-delta-j-printed",
        d_ns.of(0) == printed_r,
        anchor="Sec. 3",
        lhs=f"delta(J) = {d_ns.of(0).text(LIE_NAMES)}  (= omega P1^J)",
        rhs="delta(J) = omega J^P2",
        witness="the linearized delta(J) is proportional to J^P1, not J^P2, under "
        "every natural identification tried",
        bad=DISCREPANCY,
    )

    g_ns = lie_from_group(nonstd.tower, nonstd.hopf, names=LIE_NAMES)
    for pid, anchor, g, d in (
        ("std", "Sec. 2", g_std, d_std),
        ("nonstd", "Sec. 3", g_ns, d_ns),
    ):
        _summarize(rep, f"bialg-cocycle-{pid}", anchor, cocycle_cojacobi_report(g, d))

    sol_std = coboundary_solve(g_std, d_std)
    rep.verdict(
        "bialg-coboundary-std-empty",
        sol_std.empty,
        anchor="Sec. 2",
        lhs="coboundary equation has no solution",
        rhs="the standard cocommutator is non-coboundary",
    )
    sol_ns = coboundary_solve(g_ns, d_ns)
    rep.verdict(
        "bialg-coboundary-nonstd-rmatrix",
        (not sol_ns.empty) and sol_ns.contains(ctxn, printed_r),
        anchor="Sec. 3",
        lhs="solution set omega*J^(X-Y) + c*X^Y",
        rhs="displayed r-matrix omega J^P2 lies in the solution set",
        witness="displayed r-matrix not recovered",
    )


# ---------------------------------------------------------------------------
# diamond
# ---------------------------------------------------------------------------


def suite_diamond(rep: CheckReport, degree_bound: int):
    for pid, anchor in (
        ("qe2-nonstd", "Sec. 4"),
        ("quantum-cylinder", "Def. 4.1"),
        ("quantum-plane", "Rem. 2.5"),
    ):
        res = catalog.get_preset(pid).tower.confluence
        rep.verdict(
            f"diamond-{pid}",
            res.ok and res.weights is not None,
            anchor=anchor,
            lhs="all overlap words reduce consistently",
            rhs="PBW normal forms are well defined",
            witness=res.describe(),
        )
    raw = dict(catalog.get_preset("qe2-nonstd").raw)
    printed = {
        **raw,
        "tower": [
            raw["tower"][0],
            raw["tower"][1],
            {
                "gen": "nb",
                "sigma": {"v": "v", "n": "n + omega"},
                "delta": {"v": "omega*v^2 - omega*v", "n": "-omega*n"},
            },
        ],
    }
    res = decide_confluence(load_tower(printed, validate=False))
    if res.ok:
        rep.add("tower-printed-nonstd-sign", anchor="Sec. 3 / Sec. 4", status=FAIL,
                witness="printed tower unexpectedly confluent")
    else:
        rep.verdict(
            "tower-printed-nonstd-sign",
            False,
            anchor="Sec. 3 / Sec. 4",
            lhs="engine tower: sigma(n) = n - omega, delta(n) = omega*n "
            "([n,nb] = omega*(nb-n)) is confluent",
            rhs="displayed commutator [n,nb] = omega*(n-nb) quantizes to a "
            "non-confluent tower",
            witness=f"witness overlap: {res.describe()}",
            bad=DISCREPANCY,
        )


# ---------------------------------------------------------------------------
# hopf-axioms / relations
# ---------------------------------------------------------------------------


def suite_hopf_axioms(rep: CheckReport, degree_bound: int):
    for pid, anchor in (("fun-e2", "Sec. 2"), ("qe2-nonstd", "Sec. 4")):
        b = catalog.get_preset(pid)
        sub = hopf_axioms_report(b.hopf)
        _summarize(rep, f"hopf-axioms-{pid}", anchor, sub)


def suite_relations(rep: CheckReport, degree_bound: int):
    for pid, anchor in (("fun-e2", "Sec. 2"), ("qe2-nonstd", "Sec. 4")):
        b = catalog.get_preset(pid)
        sub = respects_relations_report(b.tower, b.hopf)
        _summarize(rep, f"relations-{pid}", anchor, sub)
    qp = catalog.get_preset("quantum-plane")
    _summarize(
        rep,
        "relations-quantum-plane-star",
        "Rem. 2.5",
        respects_relations_report(qp.tower, None),
    )
    qc = catalog.get_preset("quantum-cylinder")
    sub = respects_relations_report(qc.tower, None, star_status_on_fail=DISCREPANCY)
    if sub.worst == DISCREPANCY:
        bad = next(r for r in sub.records if r.status == DISCREPANCY)
        rep.verdict(
            "relations-quantum-cylinder-star",
            False,
            anchor="Def. 4.1",
            lhs=bad.lhs,
            rhs=bad.rhs,
            witness="the displayed star table (m* = -m) is inconsistent with the "
            "displayed relations when omega* = -omega: (v*m)* and "
            "(m*v - omega*(v^2-1))* differ by 2*omega*(v^-2 - 1); the embedded "
            "star is m* = -m + omega*(v - v^-1)",
            bad=DISCREPANCY,
        )
    else:
        _summarize(rep, "relations-quantum-cylinder-star", "Def. 4.1", sub)

    # Def. 4.1's second displayed relation vs the rule derived from the first
    engine_rhs = qc.tower.poly("m*vb")
    printed_rhs = qc.tower.poly("vb*m + omega*vb - omega*vb^2")
    rep.verdict(
        "def41-second-relation-printed",
        engine_rhs == printed_rhs,
        anchor="Def. 4.1",
        lhs=f"m*vb = {exprio.format_canonical(engine_rhs)}  "
        "(vb*m = m*vb + omega*(1 - vb^2))",
        rhs="vb*m = m*vb + omega*(vb - vb^2)",
        witness="the displayed second relation contradicts the one derived from "
        "v*vb = 1 and the first relation",
        bad=DISCREPANCY,
    )

    amb = catalog.get_preset("qe2-nonstd").tower
    embedded = commutator(amb.gen("v"), amb.poly("vb*nb - v*n"))
    standalone = commutator(qc.tower.gen("v"), qc.tower.gen("m"))
    embed = AlgebraMorphism.load(qc.tower, amb, qc.raw["embedding"]["images"])
    rep.verdict(
        "def41-first-relation-vs-embedded",
        embed.apply(standalone) == embedded,
        anchor="Def. 4.1 / Prop. 3.2",
        lhs=f"embedded [v, vb*nb - v*n] = {exprio.format_canonical(embedded)}",
        rhs=f"standalone [v, m] = {exprio.format_canonical(standalone)}",
        witness="the standalone cylinder uses the displayed bracket; the embedded "
        "generator satisfies the covariant one (omega*(v-1)^2)",
        bad=DISCREPANCY,
    )


# ---------------------------------------------------------------------------
# coideal / hopf-ideal / closure
# ---------------------------------------------------------------------------


def suite_coideal(rep: CheckReport, degree_bound: int):
    qc = catalog.get_preset("quantum-cylinder")
    qe2 = catalog.get_preset("qe2-nonstd")
    B = qc.embedded_subalgebra
    sub = coideal_report(B, qe2.hopf)
    _summarize(rep, "coideal-cylinder", "Prop. 4.2", sub)

    amb = qe2.tower
    m = amb.poly("vb*nb - v*n")
    dm = qe2.hopf.coproduct(m)
    expected = exprio.elaborate_expr(
        exprio.parse_expr("1 (x) (vb*nb - v*n) + vb*nb (x) vb - v*n (x) v"),
        (amb, amb),
    )
    rep.verdict(
        "coideal-delta-m-exact",
        dm == expected,
        anchor="Prop. 4.2",
        lhs=dm,
        rhs="1 (x) m + vb*nb (x) vb - v*n (x) v",
    )

    # PBW basis: v^r m^s independent, standalone and embedded
    t = qc.tower
    basis = []
    for r in range(-3, 4):
        for s in range(4):
            basis.append(normal_form(t, [("v", r), ("m", s)]))
    sol = span_solve(NCPoly.zero(t), basis)
    ok_standalone = sol.unique and all(not c for c in sol.particular)
    m_pows = [m ** s for s in range(4)]
    emb = []
    for r in range(-3, 4):
        for ms in m_pows:
            emb.append(normal_form(amb, [("v", r)]) * ms)
    ok_embedded = span_solve(NCPoly.zero(amb), emb).unique
    rep.verdict(
        "basis-v-r-m-s-independent",
        ok_standalone and ok_embedded,
        anchor="Prop. 4.2",
        lhs="28 elements (|r| <= 3, s <= 3), standalone and embedded",
        rhs="v^r m^s is a vector-space basis",
    )

    rng = random.Random(20240)
    ok_deg = True
    for _ in range(100):
        p = NCPoly.zero(t)
        q = NCPoly.zero(t)
        while p.is_zero():
            p = _random_cyl(t, rng, degree_bound)
        while q.is_zero():
            q = _random_cyl(t, rng, degree_bound)
        if graded_degree(p * q, "m") != graded_degree(p, "m") + graded_degree(
            q, "m"
        ):
            ok_deg = False
            break
    rep.verdict(
        "degm-additivity",
        ok_deg,
        anchor="Prop. 4.2",
        lhs="deg_m(p*q) = deg_m(p) + deg_m(q) on 100 random pairs",
        rhs="the cylinder is a domain graded by deg_m",
    )


def _random_cyl(t, rng, degree_bound):
    # v^r m^s is already a normal monomial of the cylinder tower (v, m)
    terms = []
    for _ in range(rng.randint(1, 3)):
        r = rng.randint(-degree_bound // 2, degree_bound // 2)
        s = rng.randint(0, max(1, degree_bound // 2))
        terms.append(((r, s), t.context.from_int(rng.randint(-4, 4))))
    return NCPoly.from_terms(t, terms)


def suite_hopf_ideal(rep: CheckReport, degree_bound: int):
    qi = catalog.get_preset("quotient-I")
    qe2 = catalog.get_preset("qe2-nonstd")
    _summarize(rep, "quotient-I-well-defined", "Prop. 4.4", quotient_check(qi.quotient))
    gens = [qe2.tower.poly("v - 1"), qe2.tower.poly("n - nb")]
    sub = hopf_star_ideal_report(gens, qi.quotient, qe2.hopf)
    _summarize(rep, "hopf-star-ideal-I", "Prop. 4.4", sub)


def suite_closure(rep: CheckReport, degree_bound: int):
    qe2 = catalog.get_preset("qe2-nonstd")
    qi = catalog.get_preset("quotient-I")
    qc = catalog.get_preset("quantum-cylinder")
    amb, H, pi = qe2.tower, qe2.hopf, qi.quotient
    m = amb.poly("vb*nb - v*n")

    for cid, x in (
        ("closure-coinvariance-v", amb.gen("v")),
        ("closure-coinvariance-vb", amb.poly("v^-1")),
        ("closure-coinvariance-m", m),
    ):
        rep.verdict(
            cid,
            coinvariance_check(x, pi, H, "right"),
            anchor="Prop. 4.4",
            lhs="(id (x) pi) Delta(b) = b (x) 1",
            rhs="b lies in the coinvariant subalgebra",
        )
    rep.verdict(
        "closure-coinvariance-n-excluded",
        not coinvariance_check(amb.gen("n"), pi, H, "right")
        and not coinvariance_check(amb.gen("n"), pi, H, "left"),
        anchor="Prop. 4.4",
        lhs="n fails coinvariance on both sides",
        rhs="n does not belong to the closure",
    )
    residual = coinvariance_residual(m, pi, H, "left")
    rep.verdict(
        "closure-coinvariance-side-printed",
        residual.is_zero(),
        anchor="Prop. 4.4",
        lhs="(id (x) pi) Delta(m) = m (x) 1 holds (right coinvariant)",
        rhs="(pi (x) id) Delta(m) = 1 (x) m as displayed",
        witness="the displayed left-side computation regroups terms across the tensor "
        f"sign; the actual left residual is {exprio.format_canonical(residual)}",
        bad=DISCREPANCY,
    )

    ok_bounded = True
    m_pows = [m ** s for s in range(3)]
    for r in range(-2, 3):
        for ms in m_pows:
            x = normal_form(amb, [("v", r)]) * ms
            if not coinvariance_check(x, pi, H, "right"):
                ok_bounded = False
    for bad in (amb.poly("v*n"), amb.gen("nb")):
        if coinvariance_check(bad, pi, H, "right"):
            ok_bounded = False
    rep.verdict(
        "closure-coinvariants-bounded",
        ok_bounded,
        anchor="Prop. 4.4",
        lhs="every v^r m^s (|r| <= 2, s <= 2) is right coinvariant; unbalanced "
        "monomials are not",
        rhs="the cylinder matches the coinvariant subalgebra at desk scale",
    )

    B = qc.embedded_subalgebra
    sig = sigma_generators(B, H, max_power=2)
    all_in = all(ideal_member(val, pi) for _, val in sig)
    rep.verdict(
        "closure-sigma-outputs-in-ideal",
        all_in,
        anchor="Prop. 4.4",
        lhs="(S^p - eps)(b) in I for b in {v, vb, m}, p <= 2",
        rhs="Sigma(C) is contained in I",
    )
    sig1 = dict(sigma_generators(B, H, max_power=1))
    rep.verdict(
        "closure-sigma-vb-exact",
        sig1["(S^1 - eps)(vb)"] == amb.poly("v - 1"),
        anchor="Prop. 4.4",
        lhs=sig1["(S^1 - eps)(vb)"],
        rhs="v - 1",
    )
    s_m = sig1["(S^1 - eps)(m)"]
    rep.verdict(
        "closure-sigma-m-printed",
        s_m == amb.poly("n - nb"),
        anchor="Prop. 4.4",
        lhs=s_m,
        rhs="n - nb",
        witness="difference omega*(v^-1 - v) lies in I (ideal_member true), so the "
        "closure conclusion is unaffected",
        bad=DISCREPANCY,
    )
    engine_snnb = H.antipode(amb.poly("n - nb"))
    rep.verdict(
        "closure-s-n-minus-nb",
        engine_snnb == m,
        anchor="Prop. 4.4",
        lhs=engine_snnb,
        rhs="vb*nb - v*n  (= m)",
    )
    engine_sv = H.antipode(amb.poly("v - 1"))
    rep.verdict(
        "closure-s-v-minus-1-sign",
        engine_sv == amb.poly("-vb*(1 - v)"),
        anchor="Prop. 4.4",
        lhs=engine_sv,
        rhs="-vb*(1 - v)  (= 1 - vb)",
        witness="overall sign differs from the display; immaterial to ideal membership",
        bad=DISCREPANCY,
    )
    gens_ok = ideal_member(
        amb.poly("v - 1") - sig1["(S^1 - eps)(vb)"], pi
    ) and ideal_member(amb.poly("n - nb") - sig1["(S^1 - eps)(m)"], pi)
    rep.verdict(
        "closure-ideal-generators-recovered",
        gens_ok,
        anchor="Prop. 4.4",
        lhs="each generator of I differs from a Sigma output by a kernel element",
        rhs="I is contained in the Sigma-generated ideal",
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


SUITES = {
    "jacobi": (suite_jacobi,),
    "multiplicativity": (suite_multiplicativity,),
    "covariance": (suite_covariance,),
    "families": (suite_families,),
    "foliation": (suite_foliation,),
    "bialgebra": (suite_bialgebra,),
    "diamond": (suite_diamond,),
    "hopf-axioms": (suite_hopf_axioms,),
    "relations": (suite_relations,),
    "coideal": (suite_coideal,),
    "hopf-ideal": (suite_hopf_ideal,),
    "closure": (suite_closure,),
}
SUITES["all"] = tuple(fn for name in (
    "jacobi",
    "multiplicativity",
    "covariance",
    "families",
    "foliation",
    "bialgebra",
    "diamond",
    "hopf-axioms",
    "relations",
    "coideal",
    "hopf-ideal",
    "closure",
) for fn in SUITES[name])


def run_suite(suite: str, degree_bound: int = 4) -> CheckReport:
    """Run every registered check of the suite; failing checks never abort
    the run.  The checks are symbolic or use the pinned evaluation points
    of the acceptance criteria."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    if degree_bound < 2:
        raise ValueError("degree bound must be >= 2")
    rep = CheckReport(suite)
    for fn in SUITES[suite]:
        try:
            fn(rep, degree_bound)
        except Exception as e:  # register, never abort
            rep.add(
                f"internal-error[{fn.__name__}]",
                status=FAIL,
                witness=f"{type(e).__name__}: {e}",
            )
    return rep

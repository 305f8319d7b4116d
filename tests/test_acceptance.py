"""Acceptance criteria for the verification engine.

One test per criterion; each prints a pass line (run with ``pytest -s``
to see them).  Where the manuscript's displayed value is refuted by the
engine, the criterion is satisfied by the documented discrepancy-class
outcome: the engine value is asserted exactly and the displayed value is
recorded as a discrepancy (never silently skipped, never a failure).
"""

import copy
import time

from qe2 import catalog, exprio, suites
from qe2.hopf import hopf_axioms_report, respects_relations_report
from qe2.homspace import (
    coideal_report,
    coinvariance_check,
    hopf_star_ideal_report,
    ideal_member,
    sigma_generators,
)
from qe2.liebialg import (
    WedgeBivector,
    coboundary_solve,
    cocycle_cojacobi_report,
    lie_from_group,
    linearize_poisson,
)
from qe2.ncalg import (
    NCPoly,
    diamond_check,
    graded_degree,
    load_tower,
    normal_form,
    span_solve,
)
from qe2.poisson import (
    PoissonStructure,
    covariant_family_solve,
    field_relation,
    jacobi_report,
    poisson_matrix_rank,
    poisson_morphism_report,
)
from qe2.report import DISCREPANCY, FAIL, PASS
from qe2.scalars import GaussRational

LIE_NAMES = ("J", "X", "Y")


def _line(num, text):
    print(f"criterion {num:02d}: PASS - {text}")


class _Clock:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.2f}s exceeds {self.limit}s"
            )
        return False


def test_criterion_01_jacobi():
    with _Clock(1.0) as c:
        std = catalog.get_preset("std-poisson")
        nonstd = catalog.get_preset("nonstd-poisson")
        assert jacobi_report(std.poisson).clean
        assert jacobi_report(nonstd.poisson).clean
    _line(1, f"Jacobi passes for std and nonstd symbolically in omega "
             f"({c.elapsed:.2f}s)")


def test_criterion_02_multiplicativity():
    with _Clock(2.0) as c:
        for pid in ("std-poisson", "nonstd-poisson"):
            b = catalog.get_preset(pid)
            phi = b.hopf.coproduct_map
            assert poisson_morphism_report(phi, b.poisson, (b.poisson, b.poisson)).clean
    _line(2, f"the coproduct is a Poisson morphism for both structures "
             f"({c.elapsed:.2f}s)")


def test_criterion_03_plane_family():
    with _Clock(2.0) as c:
        cp = catalog.get_preset("coaction-plane")
        fam = covariant_family_solve(cp.coaction, cp.group_poisson, cp.ansatz)
        space = cp.space_tower
        assert not fam.empty
        assert fam.dimension == 1
        assert fam.contains(space.poly("z*zb").terms)
        assert fam.contains(space.poly("z*zb + k").terms)
    _line(3, f"plane family is 1-dimensional and contains z*zb and z*zb + k, "
             f"k symbolic ({c.elapsed:.2f}s)")


def test_criterion_04_cylinder_family():
    with _Clock(2.0) as c:
        cc = catalog.get_preset("coaction-cylinder")
        fam = covariant_family_solve(cc.coaction, cc.group_poisson, cc.ansatz)
        sp = cc.space_tower
        assert not fam.empty and fam.dimension == 1
        printed_in_family = fam.contains(sp.poly(cc.raw["printed_family"]).terms)
        assert not printed_in_family
        rep = suites.run_suite("families")
        statuses = {r.check_id: r.status for r in rep.records}
        assert statuses["family-cylinder-printed-member"] == DISCREPANCY
        assert rep.counts[FAIL] == 0
    _line(4, f"cylinder family is 1-dimensional; displayed member is outside it, "
             f"recorded as pass-with-discrepancy ({c.elapsed:.2f}s)")


def test_criterion_05_field_relations():
    with _Clock(1.0) as c:
        nonstd = catalog.get_preset("nonstd-poisson")
        tn = nonstd.tower
        ok, _ = field_relation(
            nonstd.poisson,
            {"n": tn.poly("v - v^2"), "nb": tn.poly("v - 1"), "v": tn.poly("n - nb")},
        )
        assert ok
        printed_ns, _ = field_relation(
            nonstd.poisson,
            {"n": tn.poly("v - v^2"), "nb": tn.poly("v - 1"), "v": tn.poly("nb - n")},
        )
        std = catalog.get_preset("std-poisson")
        ts = std.tower
        ok, _ = field_relation(
            std.poisson,
            {"v": ts.poly("v^-1*n*nb"), "n": ts.poly("nb"), "nb": ts.poly("-n")},
        )
        assert ok
        printed_std, _ = field_relation(
            std.poisson,
            {"v": ts.poly("v*n*nb"), "n": ts.poly("nb"), "nb": ts.poly("n")},
        )
        # the displayed combinations are refuted and surfaced as discrepancies
        assert not printed_ns and not printed_std
        rep = suites.run_suite("foliation")
        statuses = {r.check_id: r.status for r in rep.records}
        assert statuses["field-relation-std-engine"] == PASS
        assert statuses["field-relation-nonstd-engine"] == PASS
        assert statuses["field-relation-std-printed"] == DISCREPANCY
        assert statuses["field-relation-nonstd-printed"] == DISCREPANCY
        assert rep.counts[FAIL] == 0
    _line(5, "pointwise field relations hold exactly in corrected form; the "
             f"displayed combinations are refuted as discrepancies ({c.elapsed:.2f}s)")


def test_criterion_06_ranks():
    with _Clock(1.0) as c:
        std = catalog.get_preset("std-poisson")
        nonstd = catalog.get_preset("nonstd-poisson")
        cyl = catalog.get_preset("cylinder-poisson")
        one, zero, i = GaussRational(1), GaussRational(0), GaussRational(0, 1)
        for v0 in (one, i, GaussRational(3) / 5 + (GaussRational(4) / 5) * i):
            assert poisson_matrix_rank(
                std.poisson, {"v": v0, "n": zero, "nb": zero}, {}
            ) == 0
        for t in (zero, one):
            assert poisson_matrix_rank(
                nonstd.poisson, {"v": one, "n": t, "nb": t}, {"omega": one}
            ) == 0
        assert poisson_matrix_rank(
            nonstd.poisson, {"v": i, "n": zero, "nb": zero}, {"omega": one}
        ) == 2
        params = {"omega": one, "k": GaussRational(-2)}
        assert poisson_matrix_rank(cyl.poisson, {"v": i, "m": zero}, params) == 0
        assert poisson_matrix_rank(cyl.poisson, {"v": -i, "m": zero}, params) == 0
        assert poisson_matrix_rank(cyl.poisson, {"v": one, "m": zero}, params) == 2
    _line(6, f"all pinned rank checks exact ({c.elapsed:.2f}s)")


def test_criterion_07_bialgebra():
    with _Clock(1.0) as c:
        std = catalog.get_preset("std-poisson")
        nonstd = catalog.get_preset("nonstd-poisson")
        g_std = lie_from_group(std.tower, std.hopf, names=LIE_NAMES)
        d_std = linearize_poisson(std.poisson, names=LIE_NAMES)
        assert coboundary_solve(g_std, d_std).empty
        g_ns = lie_from_group(nonstd.tower, nonstd.hopf, names=LIE_NAMES)
        d_ns = linearize_poisson(nonstd.poisson, names=LIE_NAMES)
        sol = coboundary_solve(g_ns, d_ns)
        assert not sol.empty
        ctx = nonstd.tower.context
        w = ctx.param("omega")
        assert sol.contains(WedgeBivector(ctx, 3, {(0, 1): w, (0, 2): -w}).terms)
        assert cocycle_cojacobi_report(g_std, d_std).clean
        assert cocycle_cojacobi_report(g_ns, d_ns).clean
    _line(7, "standard cocommutator non-coboundary; nonstandard coboundary with "
             f"the displayed r-matrix; cocycle/co-Jacobi pass ({c.elapsed:.2f}s)")


def test_criterion_08_diamond():
    with _Clock(2.0) as c:
        for pid in ("qe2-nonstd", "quantum-cylinder", "quantum-plane"):
            assert diamond_check(catalog.get_preset(pid).tower).ok
        desc = dict(catalog.get_preset("qe2-nonstd").raw)
        desc = {
            **desc,
            "tower": [
                desc["tower"][0],
                {**desc["tower"][1], "delta": {"v": "omega*v^2"}},
                desc["tower"][2],
            ],
        }
        broken = load_tower(desc, validate=False)
        res = diamond_check(broken)
        assert not res.ok
        assert res.witness_word is not None
        assert res.left_form != res.right_form
    _line(8, "diamond passes for the three quantum presets; the corrupted "
             f"control fails with a witness word ({c.elapsed:.2f}s)")


def test_criterion_09_hopf_axioms_and_relations():
    with _Clock(5.0) as c:
        for pid in ("fun-e2", "qe2-nonstd"):
            b = catalog.get_preset(pid)
            assert hopf_axioms_report(b.hopf).clean
            assert respects_relations_report(b.tower, b.hopf).clean
    _line(9, "Hopf axioms and well-definedness on all relations pass for "
             f"fun-e2 and qe2-nonstd, star included ({c.elapsed:.2f}s)")


def test_criterion_10_prop42_suite():
    with _Clock(10.0) as c:
        qc = catalog.get_preset("quantum-cylinder")
        qe2 = catalog.get_preset("qe2-nonstd")
        t = qc.tower
        # literal index set |r| <= 3, s <= 3 (28 elements) ...
        basis = {
            (r, s): normal_form(t, [("v", r), ("m", s)])
            for r in range(-3, 4)
            for s in range(4)
        }
        sol = span_solve(NCPoly.zero(t), basis)
        assert not sol.empty and sol.unique
        # ... plus a padded embedded set beyond 64 columns of evidence
        amb = qe2.tower
        m = amb.poly("vb*nb - v*n")
        emb = {
            (r, s): normal_form(amb, [("v", r)]) * m ** s
            for r in range(-4, 5)
            for s in range(4)
        }
        assert len(emb) >= 36
        sol_e = span_solve(NCPoly.zero(amb), emb)
        assert not sol_e.empty and sol_e.unique
        # deg_m additivity on 100 randomized pairs
        import random

        rng = random.Random(1234)

        def rand_elt():
            out = NCPoly.zero(t)
            while out.is_zero():
                for _ in range(rng.randint(1, 3)):
                    r = rng.randint(-2, 2)
                    s = rng.randint(0, 2)
                    out = out + normal_form(t, [("v", r), ("m", s)]).scale(
                        t.context.from_int(rng.randint(-4, 4))
                    )
            return out

        for _ in range(100):
            p, q = rand_elt(), rand_elt()
            assert graded_degree(p * q, "m") == graded_degree(p, "m") + graded_degree(q, "m")
        # coideal with the exact displayed coproduct of m
        rep = coideal_report(catalog.subalgebra_on(amb, qc.raw), qe2.hopf)
        assert rep.clean, rep.to_text()
        dm = qe2.hopf.coproduct(m)
        expected = exprio.elaborate_expr(
            exprio.parse_expr("1 (x) (vb*nb - v*n) + vb*nb (x) vb - v*n (x) v"),
            (amb, amb),
        )
        assert dm == expected
    _line(10, "v^r m^s linearly independent (standalone and embedded); deg_m "
              f"additive on 100 pairs; coideal passes with the exact displayed "
              f"Delta(m) ({c.elapsed:.2f}s)")


def _random_cyl_via_normal_form(t, rng, degree_bound):
    # the suite's former construction: each term through the rewriting engine
    out = NCPoly.zero(t)
    for _ in range(rng.randint(1, 3)):
        r = rng.randint(-degree_bound // 2, degree_bound // 2)
        s = rng.randint(0, max(1, degree_bound // 2))
        c = t.context.from_int(rng.randint(-4, 4))
        out = out + normal_form(t, [("v", r), ("m", s)]).scale(c)
    return out


def test_random_cylinder_elements_match_the_normal_form_construction():
    import random

    t = catalog.get_preset("quantum-cylinder").tower
    for degree_bound in range(2, 7):
        fast, slow = random.Random(degree_bound), random.Random(degree_bound)
        for _ in range(100):
            assert suites._random_cyl(t, fast, degree_bound) == (
                _random_cyl_via_normal_form(t, slow, degree_bound)
            )
        # both draw the same numbers, so the streams stay in step
        assert fast.random() == slow.random()


def test_criterion_11_prop44_suite():
    with _Clock(5.0) as c:
        qe2 = catalog.get_preset("qe2-nonstd")
        qi = catalog.get_preset("quotient-I")
        qc = catalog.get_preset("quantum-cylinder")
        amb, H = qe2.tower, qe2.hopf
        pi = catalog.quotient_on(amb, qi.raw)
        gens = [amb.poly("v - 1"), amb.poly("n - nb")]
        assert hopf_star_ideal_report(gens, pi, H).clean
        m = amb.poly("vb*nb - v*n")
        # the correct coinvariance side is the right one; the displayed left
        # form fails for m (invalid tensor regrouping) and is recorded as a
        # discrepancy by the closure suite
        for x in (amb.gen("v"), amb.poly("v^-1"), m):
            assert coinvariance_check(x, pi, H, "right")
        assert not coinvariance_check(amb.gen("n"), pi, H, "right")
        assert not coinvariance_check(m, pi, H, "left")
        rep = suites.run_suite("closure")
        statuses = {r.check_id: r.status for r in rep.records}
        assert statuses["closure-coinvariance-side-printed"] == DISCREPANCY
        assert rep.counts[FAIL] == 0
        sig = dict(sigma_generators(catalog.subalgebra_on(amb, qc.raw), H, max_power=2))
        assert all(ideal_member(val, pi) for val in sig.values())
        assert sig["(S^1 - eps)(vb)"] == amb.poly("v - 1")
    _line(11, "Hopf-*-ideal checks pass for I; coinvariance true for v, vb, m "
              "and false for n (on the verifying side, the displayed side "
              f"recorded as a discrepancy); Sigma outputs lie in I with "
              f"(S - eps)(vb) = v - 1 exactly ({c.elapsed:.2f}s)")


def test_criterion_12_discrepancy_ledger():
    rep = suites.run_suite("all")
    statuses = {r.check_id: r.status for r in rep.records}
    assert statuses["prop32-bracket-printed"] in (PASS, DISCREPANCY)
    assert statuses["def41-second-relation-printed"] in (PASS, DISCREPANCY)
    # on the shipped presets both are genuine discrepancies
    assert statuses["prop32-bracket-printed"] == DISCREPANCY
    assert statuses["def41-second-relation-printed"] == DISCREPANCY
    assert rep.exit_code() in (0, 2)
    assert rep.exit_code() != 1
    assert rep.counts[FAIL] == 0
    _line(12, f"`all` suite emits {rep.counts[DISCREPANCY]} discrepancy records, "
              f"0 failures; exit code {rep.exit_code()}")


def test_discrepancy_ledger_passes_an_agreeing_printed_value():
    # with the displayed table {n,nb} = n*nb the engine agrees with the
    # printed value, so the record is a pass, not a discrepancy
    std = catalog.get_preset("std-poisson")
    table = {**std.raw["poisson"], "n,nb": "n*nb"}
    printed = copy.copy(std)
    printed.poisson = PoissonStructure.load(std.tower, table)
    s = suites._Inputs(4)
    s["std-poisson"] = printed
    rec = suites.run_check("bracket-table-std-n-nb", s)
    assert rec.status == PASS
    assert rec.lhs_canonical == rec.rhs_canonical == "n*nb"
    assert rec.witness == ""


def test_criterion_13_determinism():
    with _Clock(60.0) as c:
        from qe2 import __version__

        digests = catalog.preset_digests()
        r1 = suites.run_suite("all").to_json(__version__, digests)
        r2 = suites.run_suite("all").to_json(__version__, digests)
        assert r1 == r2
    _line(13, f"two consecutive all-suite runs produce byte-identical bodies "
              f"({c.elapsed:.2f}s)")

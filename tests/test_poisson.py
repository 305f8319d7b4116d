import random

import pytest
from hypothesis import given, settings, strategies as st

from qe2.hopf import load_hopf
from qe2.ncalg import NCPoly, collect, load_tower, normal_form
from qe2.poisson import (
    AlgebraMorphism,
    PoissonStructure,
    _partial,
    covariant_family_solve,
    hamiltonian_fields,
    jacobi_report,
    poisson_ideal_check,
    poisson_matrix_rank,
    poisson_morphism_report,
)
from qe2.scalars import GaussRational

from conftest import preset_dict


def _poisson(name):
    desc = preset_dict(name)
    tower = load_tower(desc)
    P = PoissonStructure.load(tower, desc["poisson"])
    hopf = load_hopf(tower, desc["hopf"]) if "hopf" in desc else None
    return tower, P, hopf


@pytest.fixture(scope="module")
def std():
    return _poisson("std-poisson")


@pytest.fixture(scope="module")
def nonstd():
    return _poisson("nonstd-poisson")


@pytest.fixture(scope="module")
def plane_coaction():
    desc = preset_dict("coaction-plane")
    from qe2.ncalg import load_tower as lt
    from qe2.scalars import Parameter, ScalarContext

    ctx = ScalarContext([Parameter(p["name"], p.get("star", "fixed")) for p in desc["parameters"]])
    group = lt({**desc["group"], "parameters": desc["parameters"]}, context=ctx)
    space = lt({**desc["space"], "parameters": desc["parameters"]}, context=ctx)
    P_G = PoissonStructure.load(group, desc["group"]["poisson"])
    P_M = PoissonStructure.load(space, desc["space"]["poisson"])
    coact = AlgebraMorphism.load(space, (group, space), desc["coaction"])
    return desc, group, space, P_G, P_M, coact


# -- brackets -----------------------------------------------------------------


def test_bracket_values_std(std):
    tower, P, _ = std
    n, nb = tower.gen("n"), tower.gen("nb")
    v = tower.gen("v")
    assert P.bracket(v, n) == tower.poly("v*n")
    # corrected sign (multiplicativity forces it; display prints +n*nb)
    assert P.bracket(n, nb) == tower.poly("-n*nb")
    # Leibniz from v*vb = 1
    assert P.bracket(tower.poly("v^-1"), n) == tower.poly("-v^-1*n")


def test_bracket_embedded_m_nonstd(nonstd):
    tower, P, _ = nonstd
    m = tower.poly("vb*nb - v*n")
    v = tower.gen("v")
    # omega*(v-1)^2, not the displayed -omega*(v^2-1)
    assert P.bracket(v, m) == tower.poly("omega*(v - 1)^2")
    assert P.bracket(v, m) != tower.poly("-omega*(v^2 - 1)")


def test_bracket_leibniz_random(nonstd):
    tower, P, _ = nonstd
    rng = random.Random(23)

    def rand():
        out = NCPoly.zero(tower)
        for _ in range(rng.randint(1, 3)):
            w = [(rng.randrange(3), rng.choice([-1, 1]) if False else 1) for _ in range(rng.randint(0, 2))]
            out = out + normal_form(tower, w).scale(tower.context.from_int(rng.randint(-3, 3)))
        return out

    for _ in range(10):
        f, g, h = rand(), rand(), rand()
        assert P.bracket(f, g) == -P.bracket(g, f)
        assert P.bracket(f, g * h) == P.bracket(f, g) * h + g * P.bracket(f, h)


# -- the bracket table against the Leibniz extension by partial derivatives ----


def _commutative_product(p, q):
    """p*q on a commutative tower by adding exponents term by term."""
    return NCPoly(p.tower, collect(
        (tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
        for m1, c1 in p.terms.items()
        for m2, c2 in q.terms.items()
    ))


def leibniz_bracket(P, f, g):
    """Reference {f, g} = sum_{i<j} (df/dx_i dg/dx_j - df/dx_j dg/dx_i) P_ij,
    by exact partial derivatives and a product that adds exponents."""
    tower = P.tower
    n = tower.nlevels
    dfs = [_partial(f, i) for i in range(n)]
    dgs = [_partial(g, j) for j in range(n)]
    out = NCPoly.zero(tower)
    for i in range(n):
        for j in range(i + 1, n):
            term = _commutative_product(dfs[i], dgs[j]) - _commutative_product(
                dfs[j], dgs[i]
            )
            out = out + _commutative_product(term, P.bracket_gens(i, j))
    return out


# (v, n, nb) exponents, negative powers of the invertible v included
_exponents = st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(0, 3))
_coeff_data = st.tuples(
    st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2)
).filter(lambda t: t[0] or t[1] or t[2])
_element_data = st.lists(st.tuples(_exponents, _coeff_data), min_size=1, max_size=3)


def _element(tower, data):
    """Terms ((a + b*i) + c*omega) / (1 + omega)^k times v^e0 n^e1 nb^e2; on
    a context without omega the omega part is 0 and the denominator 1 + i."""
    ctx = tower.context
    w = ctx.param("omega") if ctx.has_param("omega") else ctx.zero
    den = ctx.one + w if w else ctx.from_gauss(GaussRational(1, 1))
    return NCPoly.from_terms(tower, [
        (mono, (ctx.from_gauss(GaussRational(a, b)) + ctx.from_int(c) * w) / den**k)
        for mono, (a, b, c, k) in data
    ])


@pytest.mark.parametrize("preset", ["nonstd", "std"])
@given(f_data=_element_data, g_data=_element_data)
@settings(max_examples=120, deadline=None)
def test_bracket_table_matches_leibniz(std, nonstd, preset, f_data, g_data):
    tower, P, _ = nonstd if preset == "nonstd" else std
    f, g = _element(tower, f_data), _element(tower, g_data)
    want = leibniz_bracket(P, f, g)
    assert P.bracket(f, g) == want
    # again, now every monomial pair comes from the table
    assert P.bracket(f, g) == want
    assert P.bracket(g, f) == -want


# -- Jacobi ---------------------------------------------------------------------


def test_jacobi_std_nonstd(std, nonstd):
    for tower, P, _ in (std, nonstd):
        rep = jacobi_report(P)
        assert rep.clean, rep.to_text()


def test_jacobi_negative_control(std):
    tower, _, _ = std
    table = {
        (0, 1): tower.gen("n"),        # corrupted {v,n} = n
        (0, 2): tower.poly("v*nb"),
        (1, 2): tower.poly("-n*nb"),
    }
    P = PoissonStructure(tower, table)
    rep = jacobi_report(P)
    assert not rep.clean
    assert any(r.status == "fail" for r in rep.records)
    assert any(r.witness for r in rep.records if r.status == "fail")


def test_jacobi_printed_nonstd_table_fails():
    # the Sec. 3 display with {n,nb} = omega*(n - nb) violates Jacobi:
    # the cyclic sum is 2*omega^2*(v-1)^2
    desc = preset_dict("nonstd-poisson")
    tower = load_tower(desc)
    printed = {
        (0, 1): tower.poly("omega*(1 - v)"),
        (0, 2): tower.poly("-omega*(v^2 - v)"),
        (1, 2): tower.poly("omega*(n - nb)"),
    }
    P = PoissonStructure(tower, printed)
    v, n, nb = tower.gen("v"), tower.gen("n"), tower.gen("nb")
    s = (
        P.bracket(v, P.bracket(n, nb))
        + P.bracket(n, P.bracket(nb, v))
        + P.bracket(nb, P.bracket(v, n))
    )
    assert s == tower.poly("2*omega^2*(v - 1)^2")
    assert not jacobi_report(P).clean


# -- multiplicativity -------------------------------------------------------------


def test_algebra_morphism_is_the_hopf_class():
    # one class for every structure map; bench/tracing.py wraps its
    # methods through the name qe2.poisson.AlgebraMorphism
    import qe2.hopf
    import qe2.poisson

    assert qe2.poisson.AlgebraMorphism is qe2.hopf.AlgebraMorphism


def test_coproduct_is_poisson_morphism(std, nonstd):
    for tower, P, H in (std, nonstd):
        phi = H.coproduct_map
        rep = poisson_morphism_report(phi, P, (P, P))
        assert rep.clean, rep.to_text()


def test_printed_std_table_fails_multiplicativity(std):
    tower, _, H = std
    printed = {
        (0, 1): tower.poly("v*n"),
        (0, 2): tower.poly("v*nb"),
        (1, 2): tower.poly("n*nb"),   # displayed sign
    }
    P = PoissonStructure(tower, printed)
    phi = H.coproduct_map
    rep = poisson_morphism_report(phi, P, (P, P))
    assert not rep.clean


# -- covariance ---------------------------------------------------------------------


def test_plane_family(plane_coaction):
    desc, group, space, P_G, P_M, coact = plane_coaction
    ansatz = [space.poly(t) for t in desc["ansatz"]]
    fam = covariant_family_solve(coact, P_G, ansatz)
    assert not fam.empty
    assert fam.dimension == 1
    ctx = space.context
    zero = ctx.zero
    k = ctx.param("k")
    # contains z*zb (k=0) and z*zb + k
    assert fam.contains_vector([ctx.one, zero, zero, zero])
    assert fam.contains_vector([ctx.one, zero, zero, k])
    assert fam.contains_bracket(space.poly("z*zb"))
    assert fam.contains_bracket(space.poly("z*zb + k"))
    assert not fam.contains_bracket(space.poly("z"))


def test_plane_family_symbolic_morphism(plane_coaction):
    # the k-symbolic member really is covariant for the product structure
    desc, group, space, P_G, P_M, coact = plane_coaction
    rep = poisson_morphism_report(coact, P_M, (P_G, P_M))
    assert rep.clean, rep.to_text()


def test_plane_mirrored_orientation_misses_displayed_family(plane_coaction):
    # the v-bar-mirrored coaction admits only the sign-flipped family
    # -z*zb + c, which never contains the displayed bracket z*zb (+ k)
    desc, group, space, P_G, P_M, _ = plane_coaction
    mirrored = AlgebraMorphism.load(space, (group, space), desc["mirrored_coaction"])
    fam = covariant_family_solve(mirrored, P_G, [space.poly(t) for t in desc["ansatz"]])
    assert not fam.empty and fam.dimension == 1
    assert fam.contains_bracket(space.poly("-z*zb"))
    assert not fam.contains_bracket(space.poly("z*zb"))
    assert not fam.contains_bracket(space.poly("z*zb + k"))


def test_plane_literal_pairing_with_n_fails(plane_coaction):
    # pairing z with n (the literal Cor. 2.4 reading) gives no covariant family
    desc, group, space, P_G, P_M, _ = plane_coaction
    literal = AlgebraMorphism.load(
        space,
        (group, space),
        {"z": "v (x) z + n (x) 1", "zb": "vb (x) zb + nb (x) 1"},
    )
    fam = covariant_family_solve(literal, P_G, [space.poly(t) for t in desc["ansatz"]])
    assert fam.empty


def test_plane_projection_poisson_iff_k_zero(plane_coaction):
    desc, group, space, P_G, P_M, _ = plane_coaction
    proj = AlgebraMorphism.load(space, group, desc["projection"])
    # with symbolic k the projection is NOT Poisson...
    rep = poisson_morphism_report(proj, P_M, P_G)
    assert not rep.clean
    # ... and the obstruction is exactly k: the k = 0 member passes
    P_M0 = PoissonStructure(
        space, {(0, 1): space.poly("z*zb")}
    )
    rep0 = poisson_morphism_report(proj, P_M0, P_G)
    assert rep0.clean, rep0.to_text()


def test_cylinder_family():
    desc = preset_dict("coaction-cylinder")
    from qe2.scalars import Parameter, ScalarContext

    ctx = ScalarContext(
        [Parameter(p["name"], p.get("star", "fixed")) for p in desc["parameters"]]
    )
    group = load_tower({**desc["group"], "parameters": desc["parameters"]}, context=ctx)
    space = load_tower({**desc["space"], "parameters": desc["parameters"]}, context=ctx)
    P_G = PoissonStructure.load(group, desc["group"]["poisson"])
    coact = AlgebraMorphism.load(space, (group, space), desc["coaction"])
    ansatz = [space.poly(t) for t in desc["ansatz"]]
    fam = covariant_family_solve(coact, P_G, ansatz)
    assert not fam.empty
    assert fam.dimension == 1
    # engine family: omega*v^2 + beta*v + omega; contains omega*(v-1)^2
    assert fam.contains_bracket(space.poly(desc["engine_family_member"]))
    assert fam.contains_bracket(space.poly("omega*(v - 1)^2"))
    # the displayed family member is NOT covariant (discrepancy material)
    assert not fam.contains_bracket(space.poly(desc["printed_family"]))
    # double route: the engine member makes the coaction an honest morphism
    P_M = PoissonStructure(space, {(0, 1): space.poly(desc["engine_family_member"])})
    rep = poisson_morphism_report(coact, P_M, (P_G, P_M))
    assert rep.clean, rep.to_text()
    P_bad = PoissonStructure(space, {(0, 1): space.poly(desc["printed_family"])})
    rep_bad = poisson_morphism_report(coact, P_bad, (P_G, P_bad))
    assert not rep_bad.clean


# -- ranks --------------------------------------------------------------------------


def test_rank_std(std):
    tower, P, _ = std
    i = GaussRational(0, 1)
    pts = [GaussRational(1), i, GaussRational(3) / 5 + (GaussRational(4) / 5) * i]
    for v0 in pts:
        assert (
            poisson_matrix_rank(
                P, {"v": v0, "n": GaussRational(0), "nb": GaussRational(0)}, {}
            )
            == 0
        )
    # generic point has rank 2
    assert (
        poisson_matrix_rank(
            P, {"v": GaussRational(1), "n": GaussRational(1), "nb": GaussRational(2)}, {}
        )
        == 2
    )


def test_rank_nonstd(nonstd):
    tower, P, _ = nonstd
    one = GaussRational(1)
    i = GaussRational(0, 1)
    w1 = {"omega": one}
    for t in (GaussRational(0), GaussRational(1)):
        assert poisson_matrix_rank(P, {"v": one, "n": t, "nb": t}, w1) == 0
    assert (
        poisson_matrix_rank(P, {"v": i, "n": GaussRational(0), "nb": GaussRational(0)}, w1)
        == 2
    )


def test_rank_cylinder_family():
    desc = preset_dict("cylinder-poisson")
    tower = load_tower(desc)
    P = PoissonStructure.load(tower, desc["poisson"])
    one = GaussRational(1)
    i = GaussRational(0, 1)
    params = {"omega": one, "k": GaussRational(-2)}
    zero = GaussRational(0)
    assert poisson_matrix_rank(P, {"v": i, "m": zero}, params) == 0
    assert poisson_matrix_rank(P, {"v": -i, "m": zero}, params) == 0
    assert poisson_matrix_rank(P, {"v": one, "m": zero}, params) == 2


def test_rank_always_even(nonstd):
    tower, P, _ = nonstd
    rng = random.Random(31)
    for _ in range(10):
        vals = {
            "v": GaussRational(rng.randint(1, 5), rng.randint(0, 3)),
            "n": GaussRational(rng.randint(-3, 3)),
            "nb": GaussRational(rng.randint(-3, 3)),
        }
        r = poisson_matrix_rank(P, vals, {"omega": GaussRational(0, 1)})
        assert r % 2 == 0


# -- Hamiltonian fields ----------------------------------------------------------


def test_field_relation_std(std):
    tower, P, _ = std
    fields = hamiltonian_fields(P)
    # engine identity: vb*n*nb X_v + nb X_n - n X_nb = 0
    holds, _ = fields.relation_holds(
        {
            "v": tower.poly("v^-1*n*nb"),
            "n": tower.poly("nb"),
            "nb": tower.poly("-n"),
        }
    )
    assert holds
    # the displayed combination does not vanish (v / v^-1 typo + one sign)
    printed_holds, witness = fields.relation_holds(
        {"v": tower.poly("v*n*nb"), "n": tower.poly("nb"), "nb": tower.poly("n")}
    )
    assert not printed_holds
    assert witness


def test_field_relation_nonstd(nonstd):
    tower, P, _ = nonstd
    fields = hamiltonian_fields(P)
    # engine identity: (v - v^2) X_n + (v - 1) X_nb + (n - nb) X_v = 0
    holds, _ = fields.relation_holds(
        {
            "n": tower.poly("v - v^2"),
            "nb": tower.poly("v - 1"),
            "v": tower.poly("n - nb"),
        }
    )
    assert holds
    # displayed combination carries (nb - n) on X_v
    printed_holds, _ = fields.relation_holds(
        {
            "n": tower.poly("v - v^2"),
            "nb": tower.poly("v - 1"),
            "v": tower.poly("nb - n"),
        }
    )
    assert not printed_holds


def test_field_negative_control(std):
    tower, P, _ = std
    fields = hamiltonian_fields(P)
    ok, witness = fields.relation_holds(
        {"v": tower.poly("1"), "n": tower.poly("1")}
    )
    assert not ok and witness


# -- Poisson subgroups ---------------------------------------------------------------


def _circle_vanish(tower):
    desc = preset_dict("quotient-circle")
    target = load_tower(
        {**desc["target"], "parameters": desc.get("parameters", [])},
        context=tower.context,
    )
    return AlgebraMorphism.load(tower, target, desc["images"])


def test_circle_poisson_subgroup_std(std):
    tower, P, _ = std
    vanish = _circle_vanish(tower)
    rep = poisson_ideal_check(P, [tower.gen("n"), tower.gen("nb")], vanish)
    assert rep.clean, rep.to_text()


def test_r_line_poisson_subgroup_nonstd(nonstd):
    tower, P, _ = nonstd
    desc = preset_dict("quotient-I")
    target = load_tower(
        {**desc["target"], "parameters": desc["parameters"]}, context=tower.context
    )
    vanish = AlgebraMorphism.load(tower, target, desc["images"])
    rep = poisson_ideal_check(
        P, [tower.poly("v - 1"), tower.poly("n - nb")], vanish
    )
    assert rep.clean, rep.to_text()


def test_r_line_not_poisson_subgroup_std(std):
    tower, P, _ = std
    desc = preset_dict("quotient-I")
    target = load_tower(
        {**desc["target"], "parameters": []}, context=tower.context
    )
    vanish = AlgebraMorphism.load(tower, target, desc["images"])
    rep = poisson_ideal_check(P, [tower.poly("v - 1"), tower.poly("n - nb")], vanish)
    assert not rep.clean


def test_circle_not_poisson_subgroup_nonstd(nonstd):
    tower, P, _ = nonstd
    vanish = _circle_vanish(tower)
    rep = poisson_ideal_check(P, [tower.gen("n"), tower.gen("nb")], vanish)
    assert not rep.clean

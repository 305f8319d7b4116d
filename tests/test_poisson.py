import random

import pytest
from hypothesis import given, settings, strategies as st

from qe2 import catalog
from qe2.hopf import load_hopf
from qe2.ncalg import NCPoly, collect, load_tower, normal_form
from qe2.poisson import (
    AlgebraMorphism,
    PoissonError,
    PoissonStructure,
    covariant_family_solve,
    field_relation,
    jacobi_report,
    poisson_ideal_check,
    poisson_matrix_at,
    poisson_matrix_rank,
    poisson_morphism_report,
)
from qe2.scalars import GaussRational, _triple

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


def _partial(x, idx):
    """d x / d x_idx, exponent by exponent (Laurent exponents included)."""
    return NCPoly(x.tower, collect(
        (mono[:idx] + (mono[idx] - 1,) + mono[idx + 1 :], c * mono[idx])
        for mono, c in x.terms.items()
        if mono[idx]
    ))


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


@pytest.mark.parametrize("table", [
    {"v,n": "v*n", "n,v": "v*n"},
    {"v,n": "v*n", "v, n": "n"},
])
def test_a_pair_named_twice_is_refused(std, table):
    tower, _, _ = std
    with pytest.raises(PoissonError, match="names the pair .* twice"):
        PoissonStructure.load(tower, table)


def test_a_table_that_names_both_orders_of_a_pair_is_refused(std):
    # before, the later entry won: {v, n} read -v*n
    tower, _, _ = std
    with pytest.raises(PoissonError, match="names the pair v,n in both orders"):
        PoissonStructure(tower, {(0, 1): tower.poly("v*n"), (1, 0): tower.poly("v*n")})


def test_both_orientations_read_from_one_entry(std):
    tower, P, _ = std
    assert P.bracket_gens(0, 1) == tower.poly("v*n")
    assert P.bracket_gens(1, 0) == tower.poly("-v*n")
    assert P.bracket_gens(1, 1).is_zero()


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
    k = ctx.param("k")
    # labelled by the ansatz monomials (exponents of z, zb): contains
    # z*zb (k=0) and z*zb + k
    assert fam.contains({(1, 1): ctx.one})
    assert fam.contains({(1, 1): ctx.one, (0, 0): k})
    assert fam.particular == {(1, 1): ctx.one}
    assert fam.nullspace == {(0, 0): {(0, 0): ctx.one}}
    assert fam.contains(space.poly("z*zb").terms)
    assert fam.contains(space.poly("z*zb + k").terms)
    assert not fam.contains(space.poly("z").terms)
    # a monomial outside the ansatz is never a member
    assert not fam.contains(space.poly("z*zb + z^2").terms)


@pytest.mark.parametrize("entry", ["2*z*zb", "z + zb", "0", "z"])
def test_family_ansatz_entries_are_new_monomials_with_coefficient_one(plane_coaction, entry):
    desc, group, space, P_G, P_M, coact = plane_coaction
    ansatz = [space.poly(t) for t in desc["ansatz"] + [entry]]
    with pytest.raises(PoissonError, match="not a new monomial with coefficient 1"):
        covariant_family_solve(coact, P_G, ansatz)


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
    assert fam.contains(space.poly("-z*zb").terms)
    assert not fam.contains(space.poly("z*zb").terms)
    assert not fam.contains(space.poly("z*zb + k").terms)


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
    assert fam.contains(space.poly(desc["engine_family_member"]).terms)
    assert fam.contains(space.poly("omega*(v - 1)^2").terms)
    # the displayed family member is NOT covariant (discrepancy material)
    assert not fam.contains(space.poly(desc["printed_family"]).terms)
    # double route: the engine member makes the coaction an honest morphism
    P_M = PoissonStructure(space, {(0, 1): space.poly(desc["engine_family_member"])})
    rep = poisson_morphism_report(coact, P_M, (P_G, P_M))
    assert rep.clean, rep.to_text()
    P_bad = PoissonStructure(space, {(0, 1): space.poly(desc["printed_family"])})
    rep_bad = poisson_morphism_report(coact, P_bad, (P_G, P_bad))
    assert not rep_bad.clean


@pytest.fixture(scope="module")
def families():
    """(coaction, P_G, space, ansatz, family) of coaction-plane,
    coaction-cylinder and the plane's mirrored coaction."""
    plane = catalog.get_preset("coaction-plane")
    cylinder = catalog.get_preset("coaction-cylinder")
    mirrored = AlgebraMorphism.load(
        plane.space_tower, (plane.group_tower, plane.space_tower),
        plane.raw["mirrored_coaction"],
    )
    coactions = {
        "plane": (plane, plane.coaction),
        "cylinder": (cylinder, cylinder.coaction),
        "mirrored": (plane, mirrored),
    }
    return {
        which: (coact, b.group_poisson, b.space_tower, b.ansatz,
                covariant_family_solve(coact, b.group_poisson, b.ansatz))
        for which, (b, coact) in coactions.items()
    }


@pytest.mark.parametrize("which", ["plane", "cylinder", "mirrored"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    from_family=st.booleans(),
    ints=st.lists(st.integers(-2, 2), min_size=4, max_size=4),
)
def test_family_solver_agrees_with_morphism_check(families, which, from_family, ints):
    # a candidate bracket b lies in the solved family exactly when the
    # coaction is a Poisson morphism for {x, y} = b, checked pair by pair
    coact, P_G, space, ansatz, fam = families[which]
    ctx = space.context
    if from_family:  # particular + s * nullspace, always covariant
        b = NCPoly.from_terms(space, fam.particular.items())
        for s, null in zip(ints, fam.nullspace.values()):
            b = b + NCPoly.from_terms(space, null.items()).scale(ctx.from_int(s))
    else:  # a small integer combination of the ansatz
        b = NCPoly.zero(space)
        for s, t in zip(ints, ansatz):
            b = b + t.scale(ctx.from_int(s))
    P_b = PoissonStructure(space, {(0, 1): b})
    clean = poisson_morphism_report(coact, P_b, (P_G, P_b)).clean
    assert fam.contains(b.terms) == clean
    assert clean or not from_family


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


def _reference_rank(mat):
    """Dense Gauss-Jordan rank over constant Scalar entries, as
    poisson_matrix_rank computed it before it went through
    ncalg.solve_terms."""
    n = len(mat)
    rank = 0
    rows = [list(r) for r in mat]
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# small values, 0 included, so the degenerate loci (n = nb = 0, z*zb = -k,
# omega*v^2 = omega + k, ...) are hit as well as generic points
small_gauss = st.builds(
    lambda re, im: re + GaussRational(0, im),
    st.sampled_from([-2, -1, 0, 0, 1, 1, GaussRational(1) / 2]),
    st.sampled_from([-1, 0, 0, 0, 1]),
)


@pytest.mark.parametrize(
    "name", ["std-poisson", "nonstd-poisson", "cylinder-poisson", "plane-poisson"]
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_rank_matches_sympy_and_reference(name, data):
    sympy = pytest.importorskip("sympy")
    tower, P, _ = _poisson(name)
    gens = {
        g.name: data.draw(small_gauss.filter(bool) if g.invertible else small_gauss)
        for g in tower.generators
    }
    params = {p: data.draw(small_gauss) for p in tower.context.names}
    mat = poisson_matrix_at(P, gens, params)
    dense = sympy.Matrix([
        [sympy.Rational(a, d) + sympy.I * sympy.Rational(b, d) for a, b, d in map(_triple, row)]
        for row in mat
    ])
    r = poisson_matrix_rank(P, gens, params)
    assert r == dense.rank() == _reference_rank(mat)


# -- Hamiltonian fields ----------------------------------------------------------


def test_field_relation_std(std):
    tower, P, _ = std
    # engine identity: vb*n*nb X_v + nb X_n - n X_nb = 0
    holds, _ = field_relation(
        P,
        {
            "v": tower.poly("v^-1*n*nb"),
            "n": tower.poly("nb"),
            "nb": tower.poly("-n"),
        }
    )
    assert holds
    # the displayed combination does not vanish (v / v^-1 typo + one sign)
    printed_holds, witness = field_relation(
        P,
        {"v": tower.poly("v*n*nb"), "n": tower.poly("nb"), "nb": tower.poly("n")}
    )
    assert not printed_holds
    assert witness


def test_field_relation_nonstd(nonstd):
    tower, P, _ = nonstd
    # engine identity: (v - v^2) X_n + (v - 1) X_nb + (n - nb) X_v = 0
    holds, _ = field_relation(
        P,
        {
            "n": tower.poly("v - v^2"),
            "nb": tower.poly("v - 1"),
            "v": tower.poly("n - nb"),
        }
    )
    assert holds
    # displayed combination carries (nb - n) on X_v
    printed_holds, _ = field_relation(
        P,
        {
            "n": tower.poly("v - v^2"),
            "nb": tower.poly("v - 1"),
            "v": tower.poly("nb - n"),
        }
    )
    assert not printed_holds


def test_field_negative_control(std):
    tower, P, _ = std
    ok, witness = field_relation(
        P,
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

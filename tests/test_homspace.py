import random

import pytest

from qe2 import catalog
from qe2.homspace import (
    QuotientMap,
    Subalgebra,
    coideal_report,
    coinvariance_check,
    coinvariance_residual,
    hopf_star_ideal_report,
    ideal_member,
    quotient_check,
    sigma_generators,
    subalgebra_membership,
)
from qe2.hopf import load_hopf
from qe2.ncalg import NCPoly, load_tower, normal_form
from qe2.report import FAIL, PASS

from conftest import preset_dict


@pytest.fixture(scope="module")
def qe2():
    desc = preset_dict("qe2-nonstd")
    tower = load_tower(desc)
    return tower, load_hopf(tower, desc["hopf"])


@pytest.fixture(scope="module")
def cylinder_sub(qe2):
    tower, _ = qe2
    return Subalgebra(
        tower,
        {
            "v": tower.gen("v"),
            "vb": tower.poly("v^-1"),
            "m": tower.poly("vb*nb - v*n"),
        },
        laurent="v",
        poly="m",
        counters=("n", "nb"),
    )


@pytest.fixture(scope="module")
def quotient_i(qe2):
    tower, _ = qe2
    desc = preset_dict("quotient-I")
    target = load_tower(
        {**desc["target"], "parameters": desc["parameters"]},
        context=tower.context,
    )
    images = {g: target.poly(e) for g, e in desc["images"].items()}
    kernel = [tower.poly(t) for t in desc["kernel"]]
    return QuotientMap(tower, target, images, kernel)


# -- membership -----------------------------------------------------------------


def test_membership_generator_product(qe2, cylinder_sub):
    tower, _ = qe2
    x = tower.poly("v^2*(vb*nb - v*n)")
    dec = subalgebra_membership(x, cylinder_sub)
    assert dec == {"v^2*m^1": tower.context.one}


def test_membership_n_fails(qe2, cylinder_sub):
    tower, _ = qe2
    assert subalgebra_membership(tower.gen("n"), cylinder_sub) is None


def test_membership_scalar(qe2, cylinder_sub):
    tower, _ = qe2
    w = tower.context.param("omega")
    dec = subalgebra_membership(NCPoly.constant(tower, w), cylinder_sub)
    assert dec == {"v^0*m^0": w}


def test_membership_m_star(qe2, cylinder_sub):
    from qe2.hopf import star_map

    tower, _ = qe2
    m = tower.poly("vb*nb - v*n")
    assert subalgebra_membership(star_map(tower).apply(m), cylinder_sub) is not None


# -- coideal ---------------------------------------------------------------------


def test_coideal_cylinder(qe2, cylinder_sub):
    tower, H = qe2
    rep = coideal_report(cylinder_sub, H)
    assert rep.clean, rep.to_text()
    # Delta m groups exactly over the left monomials 1, vb*nb, v*n
    ids = [r.check_id for r in rep.records if r.check_id.startswith("coideal-m-leftleg")]
    assert len(ids) == 3


def test_coideal_n_subalgebra_fails_at_star(qe2):
    tower, H = qe2
    B = Subalgebra(
        tower, {"v": tower.gen("v"), "n": tower.gen("n")},
        laurent="v", poly="n", counters=("n",),
    )
    rep = coideal_report(B, H)
    by_id = {r.check_id: r.status for r in rep.records}
    # the right legs of Delta(n) = vb (x) n + n (x) 1 do lie in the span of
    # the candidates v^r n^s; what fails is star invariance: n* = nb is outside
    assert by_id["coideal-n-star"] == FAIL
    legs = [cid for cid in by_id if cid.startswith("coideal-n-leftleg")]
    assert len(legs) == 2
    assert all(by_id[cid] == PASS for cid in legs)
    assert not rep.clean


# -- quotient -------------------------------------------------------------------


def test_quotient_check_passes(quotient_i):
    rep = quotient_check(quotient_i)
    assert rep.clean, rep.to_text()


def test_quotient_negative_control(qe2, quotient_i):
    # n is no kernel generator of I: its image t is not 0
    tower, _ = qe2
    images = {g.name: quotient_i.images[j] for j, g in enumerate(tower.generators)}
    wider = QuotientMap(tower, quotient_i.target, images, [*quotient_i.kernel_gens, tower.gen("n")])
    status = {r.check_id: r.status for r in quotient_check(wider).records}
    assert {c for c, st in status.items() if st != PASS} == {"kernel-gen-2"}
    assert status["kernel-gen-2"] == FAIL


def test_quotient_circle():
    source = load_tower(preset_dict("fun-e2"))
    pi = catalog.quotient_on(source, preset_dict("quotient-circle"))
    assert pi.source is source and pi.target.context is source.context
    assert quotient_check(pi).clean


def test_quotient_noninvertible_image_rejected(qe2):
    tower, _ = qe2
    desc = preset_dict("quotient-I")
    target = load_tower(
        {**desc["target"], "parameters": desc["parameters"]},
        context=tower.context,
    )
    pi = QuotientMap(
        tower,
        target,
        {"v": target.gen("t"), "n": target.gen("t"), "nb": target.gen("t")},
        [],
    )
    rep = quotient_check(pi)
    assert not rep.clean


def test_ideal_member(qe2, quotient_i):
    tower, _ = qe2
    assert ideal_member(tower.poly("v - 1"), quotient_i)
    assert ideal_member(tower.poly("v - v^-1"), quotient_i)
    assert not ideal_member(tower.gen("n"), quotient_i)


def test_ideal_two_sided_random(qe2, quotient_i):
    tower, _ = qe2
    rng = random.Random(3)
    gens = [tower.poly("v - 1"), tower.poly("n - nb")]
    for _ in range(10):
        w = [(rng.randrange(3), 1) for _ in range(rng.randint(0, 2))]
        a = normal_form(tower, w)
        g = gens[rng.randrange(2)]
        assert ideal_member(g * a, quotient_i)
        assert ideal_member(a * g, quotient_i)


# -- Hopf-*-ideal -----------------------------------------------------------------


def test_hopf_star_ideal(qe2, quotient_i):
    tower, H = qe2
    gens = [tower.poly("v - 1"), tower.poly("n - nb")]
    rep = hopf_star_ideal_report(gens, quotient_i, H)
    assert rep.clean, rep.to_text()
    assert len(rep.records) == 8  # four conditions per generator


def test_hopf_star_ideal_n_fails_at_star():
    desc = preset_dict("fun-e2")
    tower = load_tower(desc)
    H = load_hopf(tower, desc["hopf"])
    # quotient by <n>: v -> u, n -> 0, nb -> w2 (a fresh polynomial gen)
    target = load_tower(
        {
            "name": "mod-n",
            "parameters": [],
            "tower": [{"gen": "u", "invertible": True}, {"gen": "w2"}],
        },
        context=tower.context,
    )
    pi = QuotientMap(
        tower,
        target,
        {"v": target.gen("u"), "n": NCPoly.zero(target), "nb": target.gen("w2")},
        [tower.gen("n")],
    )
    assert quotient_check(pi).clean
    rep = hopf_star_ideal_report([tower.gen("n")], pi, H)
    by_id = {r.check_id: r.status for r in rep.records}
    # Delta(n) = vb (x) n + n (x) 1 dies under (pi x pi); S(n) = -v*n dies;
    # the star condition is the one that fails: n* = nb maps to w2 != 0
    assert by_id["coideal[(pi x pi) delta(n)]"] == PASS
    assert by_id["antipode[pi(S(n))]"] == PASS
    assert by_id["star[pi((n)*)]"] == FAIL
    assert not rep.clean


# -- coinvariance ------------------------------------------------------------------


def test_coinvariance_right_side(qe2, quotient_i):
    tower, H = qe2
    m = tower.poly("vb*nb - v*n")
    assert coinvariance_check(tower.gen("v"), quotient_i, H, "right")
    assert coinvariance_check(tower.poly("v^-1"), quotient_i, H, "right")
    assert coinvariance_check(m, quotient_i, H, "right")
    assert not coinvariance_check(tower.gen("n"), quotient_i, H, "right")


def test_coinvariance_left_side_m_residual(qe2, quotient_i):
    # (pi x id) Delta m = 1 (x) m + t (x) (vb - v) != 1 (x) m: the displayed
    # left-side computation regroups across the tensor sign; the correct
    # coinvariance side for v, vb, m is the right one
    tower, H = qe2
    m = tower.poly("vb*nb - v*n")
    assert coinvariance_check(tower.gen("v"), quotient_i, H, "left")
    assert not coinvariance_check(m, quotient_i, H, "left")
    assert not coinvariance_check(tower.gen("n"), quotient_i, H, "left")


@pytest.mark.parametrize("side", ["Left", "middle", ""])
def test_coinvariance_unknown_side_rejected(qe2, quotient_i, side):
    tower, H = qe2
    for f in (coinvariance_check, coinvariance_residual):
        with pytest.raises(ValueError, match="left' or 'right"):
            f(tower.gen("v"), quotient_i, H, side)


def test_coinvariance_monomials_bounded(qe2, quotient_i):
    tower, H = qe2
    for r in range(-2, 3):
        for s in range(3):
            x = normal_form(tower, [("v", r)]) * tower.poly("vb*nb - v*n") ** s
            assert coinvariance_check(x, quotient_i, H, "right")
    # unbalanced (n, nb) words fail
    assert not coinvariance_check(tower.poly("v*n"), quotient_i, H, "right")
    assert not coinvariance_check(tower.poly("nb"), quotient_i, H, "right")


# -- closure (Sigma assignment) ------------------------------------------------------


def test_sigma_generators(qe2, cylinder_sub, quotient_i):
    tower, H = qe2
    out = dict(sigma_generators(cylinder_sub, H, max_power=2))
    # (S - eps)(vb) = v - 1 exactly
    assert out["(S^1 - eps)(vb)"] == tower.poly("v - 1")
    # (S - eps)(m) = n - nb + omega*(vb - v): differs from the displayed
    # n - nb by an ideal element
    s_m = out["(S^1 - eps)(m)"]
    assert s_m == tower.poly("n - nb + omega*(vb - v)")
    diff = s_m - tower.poly("n - nb")
    assert ideal_member(diff, quotient_i)
    # every Sigma output lies in I
    for label, val in out.items():
        assert ideal_member(val, quotient_i), label


def test_sigma_of_unit(qe2, cylinder_sub):
    tower, H = qe2
    B = Subalgebra(
        tower, {"one": NCPoly.one(tower)}, laurent="v", poly="one", counters=("n",)
    )
    out = dict(sigma_generators(B, H, max_power=2))
    assert out["(S^1 - eps)(one)"].is_zero()


def test_closure_recovers_ideal_generators(qe2, cylinder_sub, quotient_i):
    # each stated generator of I differs from a Sigma output by a kernel
    # element, so I is contained in the Sigma-generated ideal and the
    # reverse inclusion holds by the membership checks above
    tower, H = qe2
    out = dict(sigma_generators(cylinder_sub, H, max_power=1))
    v_minus_1 = tower.poly("v - 1")
    n_minus_nb = tower.poly("n - nb")
    assert ideal_member(v_minus_1 - out["(S^1 - eps)(vb)"], quotient_i)
    assert ideal_member(n_minus_nb - out["(S^1 - eps)(m)"], quotient_i)


def test_s_of_n_minus_nb_is_m(qe2):
    # S(n - nb) = vb*nb - v*n = m, exactly as displayed
    tower, H = qe2
    assert H.antipode(tower.poly("n - nb")) == tower.poly("vb*nb - v*n")

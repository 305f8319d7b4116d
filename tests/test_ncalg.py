import random

import pytest

from qe2 import ncalg
from qe2.exprio import format_canonical
from qe2.ncalg import (
    NCPoly,
    NonConfluentTower,
    RewriteBudgetExceeded,
    TowerError,
    commutator,
    diamond_check,
    graded_degree,
    load_tower,
    normal_form,
    span_solve,
)

from conftest import preset_dict


# -- normal forms, hand-derived oracle values --------------------------------


def test_base_laurent(qe2_tower):
    t = qe2_tower
    assert t.poly("v*vb").is_one()
    assert t.poly("vb*v").is_one()
    assert format_canonical(t.poly("v*vb")) == "1"


def test_swap_n_v(qe2_tower):
    # n.v = v.n + omega(v - 1)
    t = qe2_tower
    assert t.poly("n*v") == t.poly("v*n + omega*v - omega")


def test_swap_nb_v(qe2_tower):
    # nb.v = v.nb + omega(v^2 - v)
    t = qe2_tower
    assert t.poly("nb*v") == t.poly("v*nb + omega*v^2 - omega*v")


def test_swap_nb_n(qe2_tower):
    # two-path hand reduction: nb.n = n.nb + omega n - omega nb
    t = qe2_tower
    assert t.poly("nb*n") == t.poly("n*nb + omega*n - omega*nb")


def test_sandwich_regression(qe2_tower):
    # v n v^-1, frozen after the step-by-step sandwich reduction
    t = qe2_tower
    assert t.poly("v*n*vb") == t.poly("n + omega*v^-1 - omega")


def test_inverse_swap_rules(qe2_tower):
    # derived via sigma(x^-1) = sigma(x)^-1, delta(x^-1) = -sigma(x)^-1 delta(x) x^-1
    t = qe2_tower
    assert t.poly("n*vb") == t.poly("vb*n + omega*vb^2 - omega*vb")
    assert t.poly("nb*vb") == t.poly("vb*nb - omega + omega*vb")


def test_cylinder_swap(cylinder_tower):
    t = cylinder_tower
    assert t.poly("m*v") == t.poly("v*m + omega*v^2 - omega")
    assert t.poly("m*vb") == t.poly("vb*m + omega*vb^2 - omega")
    assert t.poly("v*vb*m") == t.poly("m")
    assert t.poly("m^2*m") == t.poly("m^3")


def test_commutators(qe2_tower, cylinder_tower):
    t = qe2_tower
    v, n = t.gen("v"), t.gen("n")
    assert commutator(v, n) == t.poly("omega - omega*v")
    assert commutator(v, v.unit_inverse()).is_zero()
    c = cylinder_tower
    assert commutator(c.gen("v"), c.gen("m")) == c.poly("-omega*(v^2 - 1)")


def test_qplane(qplane_tower):
    t = qplane_tower
    assert t.poly("zb*z") == t.poly("q^-1*z*zb")
    assert t.poly("zb*z*z") == t.poly("q^-2*z^2*zb")


# -- diamond checks ------------------------------------------------------------


def test_diamond_passes(qe2_tower, cylinder_tower, qplane_tower):
    for t in (qe2_tower, cylinder_tower, qplane_tower):
        assert diamond_check(t).ok


def test_diamond_rejects_corrupted():
    desc = preset_dict("qe2-nonstd")
    desc["tower"][1]["delta"]["v"] = "omega*v^2"  # level-2 data unchanged
    broken = load_tower(desc, validate=False)
    res = diamond_check(broken)
    assert not res.ok
    assert res.witness_word is not None
    assert res.left_form != res.right_form
    with pytest.raises(NonConfluentTower):
        load_tower(desc)


def test_rewrite_budget_is_not_a_confluence_verdict(monkeypatch):
    tower = load_tower(preset_dict("qe2-nonstd"), validate=False)
    monkeypatch.setattr(ncalg, "REWRITE_STEP_BUDGET", 3)
    with pytest.raises(RewriteBudgetExceeded) as info:
        diamond_check(tower)
    assert not isinstance(info.value, NonConfluentTower)
    assert isinstance(info.value, TowerError)


def test_forward_reference_rejected():
    desc = preset_dict("qe2-nonstd")
    desc["tower"][1]["delta"]["v"] = "nb"
    with pytest.raises(TowerError):
        load_tower(desc)


def test_noninvertible_sigma_image_rejected():
    desc = preset_dict("quantum-cylinder")
    desc["tower"][1]["sigma"]["v"] = "v + 1"
    with pytest.raises(TowerError):
        load_tower(desc, validate=False)


# -- spanning / degrees -------------------------------------------------------


def _cyl_basis(tower, rmax, smax):
    out = []
    for r in range(-rmax, rmax + 1):
        for s in range(smax + 1):
            out.append(normal_form(tower, [("v", r), ("m", s)]))
    return out


def test_span_solve_swap_relation(cylinder_tower):
    t = cylinder_tower
    x = t.poly("m*v")
    basis = _cyl_basis(t, 2, 1)
    sol = span_solve(x, basis)
    assert sol is not None and sol.unique
    named = {}
    idx = 0
    for r in range(-2, 3):
        for s in range(2):
            if sol.coefficients[idx]:
                named[(r, s)] = sol.coefficients[idx]
            idx += 1
    W = t.context.param("omega")
    assert named == {(1, 1): t.context.one, (2, 0): W, (0, 0): -W}


def test_basis_independence(cylinder_tower):
    basis = _cyl_basis(cylinder_tower, 3, 3)
    zero = NCPoly.zero(cylinder_tower)
    sol = span_solve(zero, basis)
    assert sol is not None
    assert all(not c for c in sol.coefficients)
    assert sol.unique


def test_outside_span(qe2_tower):
    # v^r m^s expansions never reach n: the (n, nb)-imbalance is off
    t = qe2_tower
    m = t.poly("vb*nb - v*n")
    basis = []
    for r in range(-2, 3):
        for s in range(3):
            basis.append(normal_form(t, [("v", r)]) * m ** s)
    assert span_solve(t.gen("n"), basis) is None


def test_graded_degree(cylinder_tower):
    t = cylinder_tower
    assert graded_degree(t.poly("v^3*m^2"), "m") == 2
    assert graded_degree(t.gen("v"), "m") == 0
    with pytest.raises(ValueError):
        graded_degree(NCPoly.zero(t), "m")


def test_degm_additive_random(cylinder_tower):
    t = cylinder_tower
    rng = random.Random(7)

    def rand_elt():
        out = NCPoly.zero(t)
        for _ in range(rng.randint(1, 3)):
            r = rng.randint(-2, 2)
            s = rng.randint(0, 2)
            c = t.context.from_int(rng.randint(1, 5))
            out = out + normal_form(t, [("v", r), ("m", s)]).scale(c)
        return out

    for _ in range(25):
        p, q = rand_elt(), rand_elt()
        assert graded_degree(p * q, "m") == graded_degree(p, "m") + graded_degree(q, "m")


# -- algebra laws on random elements ------------------------------------------


def _rand_poly(tower, rng, deg=2):
    gens = tower.generators
    out = NCPoly.zero(tower)
    for _ in range(rng.randint(1, 3)):
        word = []
        for _ in range(rng.randint(0, deg)):
            j = rng.randrange(len(gens))
            e = rng.choice([-1, 1]) if gens[j].invertible else 1
            word.append((j, e))
        term = normal_form(tower, word).scale(tower.context.from_int(rng.randint(-3, 3)))
        out = out + term
    return out


@pytest.mark.parametrize("seed", range(6))
def test_mul_associative_random(qe2_tower, seed):
    rng = random.Random(seed)
    a, b, c = (_rand_poly(qe2_tower, rng) for _ in range(3))
    assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("seed", range(4))
def test_normal_form_idempotent(qe2_tower, seed):
    rng = random.Random(100 + seed)
    a = _rand_poly(qe2_tower, rng)
    rebuilt = NCPoly.from_terms(
        qe2_tower,
        [
            (m, c)
            for m, c in a.terms.items()
        ],
    )
    assert rebuilt == a
    # multiplying by 1 re-runs the engine and must not change anything
    assert a * NCPoly.one(qe2_tower) == a
    assert NCPoly.one(qe2_tower) * a == a

import random

import pytest
from hypothesis import given, settings, strategies as st

from qe2 import catalog, exprio
from qe2.hopf import (
    TensorElement,
    _outer,
    hopf_axioms_report,
    load_hopf,
    respects_relations_report,
    star_apply,
)
from qe2.ncalg import NCPoly, TowerError, collect, load_tower, normal_form
from qe2.report import DISCREPANCY, FAIL
from qe2.scalars import GaussRational

from conftest import preset_dict


@pytest.fixture(scope="module")
def fun_e2():
    desc = preset_dict("fun-e2")
    tower = load_tower(desc)
    return tower, load_hopf(tower, desc["hopf"])


@pytest.fixture(scope="module")
def qe2():
    desc = preset_dict("qe2-nonstd")
    tower = load_tower(desc)
    return tower, load_hopf(tower, desc["hopf"])


def tensor(tower, text):
    return exprio.elaborate_expr(exprio.parse_expr(text), (tower, tower))


# -- coproduct -----------------------------------------------------------------


def test_coproduct_vn(fun_e2):
    tower, H = fun_e2
    assert H.coproduct(tower.poly("v*n")) == tensor(tower, "1 (x) v*n + v*n (x) v")


def test_coproduct_unit(fun_e2):
    tower, H = fun_e2
    assert H.coproduct(NCPoly.one(tower)) == TensorElement.unit((tower, tower))


def test_coproduct_m_embedded(qe2):
    tower, H = qe2
    m = tower.poly("vb*nb - v*n")
    expected = tensor(
        tower, "1 (x) (vb*nb - v*n) + vb*nb (x) vb - v*n (x) v"
    )
    assert H.coproduct(m) == expected


def test_coproduct_laurent_powers(fun_e2):
    tower, H = fun_e2
    assert H.coproduct(tower.poly("v^-3")) == tensor(tower, "v^-3 (x) v^-3")


def test_coproduct_is_morphism_random(qe2):
    tower, H = qe2
    rng = random.Random(11)
    for _ in range(10):
        words = []
        for _ in range(2):
            w = []
            for _ in range(rng.randint(0, 3)):
                j = rng.randrange(3)
                e = rng.choice([-1, 1]) if tower.generators[j].invertible else 1
                w.append((j, e))
            words.append(normal_form(tower, w))
        x, y = words
        assert H.coproduct(x * y) == H.coproduct(x) * H.coproduct(y)


# -- antipode / counit / star ---------------------------------------------------


def test_antipode_values(fun_e2, qe2):
    tower, H = fun_e2
    assert H.antipode(tower.gen("n")) == tower.poly("-v*n")
    assert H.antipode(NCPoly.one(tower)) == NCPoly.one(tower)
    qt, QH = qe2
    # S^2(n) = v n v^-1, frozen sandwich value
    assert QH.antipode(QH.antipode(qt.gen("n"))) == qt.poly("n + omega*v^-1 - omega")
    assert QH.antipode(QH.antipode(qt.gen("nb"))) == qt.poly("nb + omega*v - omega")


def _random_element(tower, rng):
    """One to three words of up to three letters (inverse letters
    included), with coefficients in i and omega."""
    ctx = tower.context
    w = ctx.param("omega")
    out = NCPoly.zero(tower)
    for _ in range(rng.randint(1, 3)):
        word = []
        for _ in range(rng.randint(0, 3)):
            j = rng.randrange(tower.nlevels)
            e = rng.choice([-1, 1]) if tower.generators[j].invertible else 1
            word.append((j, e))
        c = ctx.from_int(rng.randint(-2, 2)) + ctx.i * ctx.from_int(rng.choice([-1, 1]))
        c = c + w * ctx.from_int(rng.randint(-1, 1))
        out = out + normal_form(tower, word).scale(c)
    return out


def test_antipode_antimorphism_random(qe2):
    tower, H = qe2
    rng = random.Random(5)
    c = tower.context.i + tower.context.param("omega")
    for _ in range(8):
        x = normal_form(tower, [(rng.randrange(3), 1) for _ in range(rng.randint(0, 2))])
        y = normal_form(tower, [(rng.randrange(3), 1) for _ in range(rng.randint(0, 2))])
        assert H.antipode(x * y) == H.antipode(y) * H.antipode(x)
    for _ in range(8):
        x, y = _random_element(tower, rng), _random_element(tower, rng)
        assert H.antipode(x * y) == H.antipode(y) * H.antipode(x)
        # linear, not antilinear
        assert H.antipode(x.scale(c)) == H.antipode(x).scale(c)


def test_antipode_squared_identity_classical(fun_e2):
    tower, H = fun_e2
    rng = random.Random(9)
    for _ in range(8):
        x = normal_form(
            tower,
            [
                (rng.randrange(3), rng.choice([-1, 1]) if tower.generators[0].invertible and False else 1)
                for _ in range(rng.randint(0, 3))
            ],
        )
        assert H.antipode(H.antipode(x)) == x


def test_counit_values(fun_e2):
    tower, H = fun_e2
    ctx = tower.context
    assert H.counit(tower.poly("v^3*n")) == ctx.zero
    assert H.counit(tower.poly("v + 1")) == ctx.from_int(2)
    assert H.counit(tower.poly("v^-1")) == ctx.one


def test_star_values(fun_e2, qe2):
    tower, _ = fun_e2
    assert star_apply(tower.poly("v*n")) == tower.poly("vb*nb")
    qt, _ = qe2
    m = qt.poly("vb*nb - v*n")
    assert star_apply(m) == qt.poly("-(vb*nb - v*n) + omega*v - omega*vb")


def test_star_involution_random(qe2):
    qt, _ = qe2
    rng = random.Random(13)
    for _ in range(10):
        w = []
        for _ in range(rng.randint(0, 3)):
            j = rng.randrange(3)
            e = rng.choice([-1, 1]) if qt.generators[j].invertible else 1
            w.append((j, e))
        x = normal_form(qt, w).scale(qt.context.param("omega") + qt.context.i)
        assert star_apply(star_apply(x)) == x


def test_star_antimorphism_random(qe2):
    qt, _ = qe2
    rng = random.Random(17)
    ctx = qt.context
    for _ in range(8):
        x = normal_form(qt, [(rng.randrange(3), 1) for _ in range(rng.randint(0, 2))])
        y = normal_form(qt, [(rng.randrange(3), 1) for _ in range(rng.randint(0, 2))])
        assert star_apply(x * y) == star_apply(y) * star_apply(x)
    # omega* = -omega on this tower, so (i + omega)* = -(i + omega)
    c = ctx.i + ctx.param("omega")
    assert c.conjugate() == -c
    assert star_apply(NCPoly.constant(qt, c)) == NCPoly.constant(qt, -c)
    for _ in range(8):
        x, y = _random_element(qt, rng), _random_element(qt, rng)
        assert star_apply(x * y) == star_apply(y) * star_apply(x)
        assert star_apply(x.scale(c)) == star_apply(x).scale(-c)


# -- axiom reports -----------------------------------------------------------


def test_hopf_axioms_pass(fun_e2, qe2):
    for tower, H in (fun_e2, qe2):
        rep = hopf_axioms_report(H)
        assert rep.clean, rep.to_text()


@pytest.mark.parametrize("table", ["delta", "counit", "antipode"])
def test_load_hopf_rejects_unknown_generator(table):
    desc = preset_dict("fun-e2")
    desc["hopf"][table]["zz"] = desc["hopf"][table]["v"]
    tower = load_tower(desc)
    with pytest.raises(TowerError, match="'zz'"):
        load_hopf(tower, desc["hopf"])


def test_hopf_axioms_negative_control():
    desc = preset_dict("fun-e2")
    desc["hopf"]["antipode"]["n"] = "-n"
    tower = load_tower(desc)
    H = load_hopf(tower, desc["hopf"])
    rep = hopf_axioms_report(H)
    failing = [r for r in rep.records if r.status == FAIL]
    assert failing
    assert any("antipode" in r.check_id and "-n" in r.check_id for r in failing)


def test_respects_relations_pass(fun_e2, qe2):
    for tower, H in (fun_e2, qe2):
        rep = respects_relations_report(tower, H)
        assert rep.clean, rep.to_text()


def test_cylinder_standalone_star_inconsistent(cylinder_tower):
    # (v*m)* and (m*v - omega*(v^2-1))* differ by 2*omega*(v^-2 - 1) under
    # the printed table m* = -m: reported, not fatal
    rep = respects_relations_report(
        cylinder_tower, None, star_status_on_fail=DISCREPANCY
    )
    statuses = {r.check_id: r.status for r in rep.records}
    assert statuses["star-on[m*v]"] == DISCREPANCY
    assert rep.counts[FAIL] == 0
    assert rep.counts[DISCREPANCY] >= 1


def test_quantum_plane_star_consistent(qplane_tower):
    rep = respects_relations_report(qplane_tower, None)
    assert rep.clean, rep.to_text()


def test_tensor_componentwise_product(fun_e2):
    tower, _ = fun_e2
    a = tensor(tower, "v (x) n")
    b = tensor(tower, "vb (x) 1 + n (x) v")
    assert a * b == tensor(tower, "1 (x) n + v*n (x) n*v")


# -- leg surgery against its term-by-term definition ---------------------------


def _random_tensor(tower, rng, arity):
    ctx = tower.context
    gens = tower.generators
    out = TensorElement.zero((tower,) * arity)
    for _ in range(rng.randint(1, 3)):
        polys = []
        for _ in range(arity):
            word = []
            for _ in range(rng.randint(0, 2)):
                j = rng.randrange(len(gens))
                e = rng.choice([-1, 1]) if gens[j].invertible else 1
                word.append((j, e))
            polys.append(normal_form(tower, word))
        # complex coefficients, so that a missing conjugation shows
        c = ctx.from_int(rng.randint(1, 3)) + ctx.i * ctx.from_int(rng.randint(-2, 2))
        if rng.random() < 0.5:
            c = c * ctx.param("omega")
        out = out + TensorElement.from_legs(out.legs, polys).scale(c)
    return out


def _leg_polys(t, monos):
    return [tower.tower_mono(m) for tower, m in zip(t.legs, monos)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("arity", [2, 3])
def test_leg_surgery_matches_term_by_term(seed, arity):
    b = catalog.get_preset("qe2-nonstd")
    tower, H = b.tower, b.hopf
    pi = catalog.get_preset("quotient-I").quotient
    rng = random.Random(1000 * arity + seed)
    t = _random_tensor(tower, rng, arity)
    assert not t.is_zero()
    for j in range(arity):
        for f, new_tower, conj in (
            (H.antipode, None, False),
            (H.star, None, True),
            (pi.apply, pi.target, False),
        ):
            legs = t.legs[:j] + (new_tower or tower,) + t.legs[j + 1 :]
            want = TensorElement.zero(legs)
            for monos, c in t.terms.items():
                polys = _leg_polys(t, monos)
                polys[j] = f(polys[j])
                want = want + TensorElement.from_legs(legs, polys).scale(
                    c.conjugate() if conj else c
                )
            got = t.map_leg(j, f, new_tower=new_tower, conjugate_coeff=conj)
            assert got.legs == legs and got == want

        legs = t.legs[:j] + (tower, tower) + t.legs[j + 1 :]
        want = TensorElement.zero(legs)
        for monos, c in t.terms.items():
            polys = _leg_polys(t, monos)
            for m2, c2 in H.coproduct(polys[j]).terms.items():
                mid = [tower.tower_mono(m) for m in m2]
                want = want + TensorElement.from_legs(
                    legs, polys[:j] + mid + polys[j + 1 :]
                ).scale(c * c2)
        got = t.expand_leg(j, H.coproduct)
        assert got.legs == legs and got == want

        legs = t.legs[:j] + t.legs[j + 1 :]
        want = TensorElement.zero(legs)
        for monos, c in t.terms.items():
            polys = _leg_polys(t, monos)
            want = want + TensorElement.from_legs(
                legs, polys[:j] + polys[j + 1 :]
            ).scale(c * H.counit(polys[j]))
        got = t.contract_leg(j, H.counit)
        assert got.legs == legs and got == want


# -- tensor products against the term-by-term outer product ----------------------


def _leg_product(tower, a, b):
    """a*b for two normal monomials, by rewriting the word a b."""
    return tower.word_to_poly([(j, e) for m in (a, b) for j, e in enumerate(m) if e])


def _tensor_product_reference(s, t):
    pairs = []
    for m1, c1 in s.terms.items():
        for m2, c2 in t.terms.items():
            pairs += _outer(c1 * c2, [
                _leg_product(tower, a, b).terms.items()
                for tower, a, b in zip(s.legs, m1, m2)
            ])
    return TensorElement(s.legs, collect(pairs))


_leg_mono = st.tuples(st.integers(-1, 1), st.integers(0, 2), st.integers(0, 1))
_coeff = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-1, 1))


def _tensor_data(arity):
    return st.lists(
        st.tuples(st.tuples(*[_leg_mono] * arity), _coeff), min_size=1, max_size=3
    )


def _tensor(legs, data):
    ctx = legs[0].context
    w = ctx.param("omega")
    return TensorElement(legs, collect(
        (monos, ctx.from_gauss(GaussRational(a, b)) + ctx.from_int(c) * w)
        for monos, (a, b, c) in data
    ))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_tensor_mul_matches_term_by_term(data):
    # the noncommutative qe2-nonstd and the commutative nonstd-poisson tower
    # share monomials and scalars, so a product table must be keyed by legs
    A = catalog.get_preset("qe2-nonstd").tower
    P = catalog.get_preset("nonstd-poisson").tower
    arity = data.draw(st.sampled_from([2, 3]))
    s_data = data.draw(_tensor_data(arity))
    t_data = data.draw(_tensor_data(arity))
    for legs in ((A,) * arity, (A, P) + (A,) * (arity - 2), (P, A) + (P,) * (arity - 2)):
        s, t = _tensor(legs, s_data), _tensor(legs, t_data)
        want = _tensor_product_reference(s, t)
        assert s * t == want
        assert s * t == want  # now from the table

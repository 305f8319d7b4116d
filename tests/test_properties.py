"""Cross-module invariants: grammar totality, axiom extension to whole
elements, determinism of grouped reports."""

import random

from hypothesis import given, settings, strategies as st

from qe2 import catalog
from qe2.exprio import GrammarError, parse_expr
from qe2.homspace import Subalgebra, coideal_report
from qe2.hopf import TensorElement, star_map
from qe2.ncalg import NCPoly, normal_form


@given(st.text(alphabet="vn b*+-^()x123/ ", max_size=30))
@settings(max_examples=300, deadline=None)
def test_parser_total_with_positions(text):
    # every input either parses or fails with a GrammarError carrying the
    # offending offset; no other exception ever escapes
    try:
        parse_expr(text)
    except GrammarError as e:
        assert isinstance(e.position, int)
        assert 0 <= e.position <= len(text)


def _random_qe2_element(tower, rng, deg=3):
    out = NCPoly.zero(tower)
    for _ in range(rng.randint(1, 3)):
        word = []
        for _ in range(rng.randint(0, deg)):
            j = rng.randrange(3)
            e = rng.choice([-1, 1]) if tower.generators[j].invertible else 1
            word.append((j, e))
        c = tower.context.from_int(rng.randint(-3, 3))
        if rng.random() < 0.3:
            c = c * tower.context.param("omega")
        out = out + normal_form(tower, word).scale(c)
    return out


def test_hopf_axioms_extend_to_degree_three_elements():
    # generator-level axiom passes plus well-definedness on the relations
    # imply the axioms on the whole algebra; spot-verify the implication
    b = catalog.get_preset("qe2-nonstd")
    tower, H = b.tower, b.hopf
    star = star_map(tower)
    rng = random.Random(77)
    for _ in range(6):
        x = _random_qe2_element(tower, rng)
        dx = H.coproduct(x)
        assert dx.map_leg(0, H.coproduct_map) == dx.map_leg(1, H.coproduct_map)
        assert dx.map_leg(0, H.counit_map).as_poly_times_unit(1) == x
        assert dx.map_leg(1, H.counit_map).as_poly_times_unit(0) == x
        eta_eps = NCPoly.constant(tower, H.counit(x))
        assert dx.map_leg(0, H.antipode_map).multiply_out() == eta_eps
        assert dx.map_leg(1, H.antipode_map).multiply_out() == eta_eps
        star_dx = H.coproduct(star.apply(x))
        assert star_dx == dx.map_leg(0, star, conjugate_coeff=True).map_leg(1, star)


def test_coideal_report_order_independent():
    qe2 = catalog.get_preset("qe2-nonstd")
    qc = catalog.get_preset("quantum-cylinder")
    B = catalog.subalgebra_on(qe2.tower, qc.raw)
    # same generators inserted in reversed order
    rev = Subalgebra(
        B.ambient,
        dict(reversed(list(B.generators.items()))),
        laurent=B.laurent,
        poly=B.poly,
        counters=B.counters,
    )
    r1 = coideal_report(B, qe2.hopf)
    r2 = coideal_report(rev, qe2.hopf)
    s1 = {(r.check_id, r.status) for r in r1.records}
    s2 = {(r.check_id, r.status) for r in r2.records}
    assert s1 == s2


def test_tensor_sum_insertion_order_independent():
    b = catalog.get_preset("fun-e2")
    t = b.tower
    legs = (t, t)
    a1 = TensorElement.from_legs(legs, [t.gen("v"), t.gen("n")])
    a2 = TensorElement.from_legs(legs, [t.gen("n"), NCPoly.one(t)])
    assert a1 + a2 == a2 + a1
    assert (a1 + a2) - a1 == a2

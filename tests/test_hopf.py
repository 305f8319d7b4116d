import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qe2 import catalog, exprio
from qe2.hopf import (
    AlgebraMorphism,
    TensorElement,
    _outer,
    hopf_axioms_report,
    load_hopf,
    respects_relations_report,
    star_map,
)
from qe2.ncalg import NCPoly, TowerError, collect, load_tower, normal_form
from qe2.poisson import PoissonStructure
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
    assert star_map(tower).apply(tower.poly("v*n")) == tower.poly("vb*nb")
    qt, _ = qe2
    m = qt.poly("vb*nb - v*n")
    assert star_map(qt).apply(m) == qt.poly("-(vb*nb - v*n) + omega*v - omega*vb")


def test_star_involution_random(qe2):
    qt, _ = qe2
    star = star_map(qt).apply
    rng = random.Random(13)
    for _ in range(10):
        w = []
        for _ in range(rng.randint(0, 3)):
            j = rng.randrange(3)
            e = rng.choice([-1, 1]) if qt.generators[j].invertible else 1
            w.append((j, e))
        x = normal_form(qt, w).scale(qt.context.param("omega") + qt.context.i)
        assert star(star(x)) == x


def test_star_antimorphism_random(qe2):
    qt, _ = qe2
    star = star_map(qt).apply
    rng = random.Random(17)
    ctx = qt.context
    for _ in range(8):
        x = normal_form(qt, [(rng.randrange(3), 1) for _ in range(rng.randint(0, 2))])
        y = normal_form(qt, [(rng.randrange(3), 1) for _ in range(rng.randint(0, 2))])
        assert star(x * y) == star(y) * star(x)
    # omega* = -omega on this tower, so (i + omega)* = -(i + omega)
    c = ctx.i + ctx.param("omega")
    assert c.conjugate() == -c
    assert star(NCPoly.constant(qt, c)) == NCPoly.constant(qt, -c)
    for _ in range(8):
        x, y = _random_element(qt, rng), _random_element(qt, rng)
        assert star(x * y) == star(y) * star(x)
        assert star(x.scale(c)) == star(x).scale(-c)


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


def _axiom_statuses(desc):
    tower = load_tower(desc)
    rep = hopf_axioms_report(load_hopf(tower, desc["hopf"]))
    return {r.check_id: r.status for r in rep.records}


def test_a_one_sided_counit_fails_on_its_side_only():
    # with Delta(n) + 1 (x) n, (eps (x) id) Delta(n) = 2n while
    # (id (x) eps) Delta(n) = n: a counit map applied on the wrong leg swaps
    # the two verdicts
    desc = preset_dict("fun-e2")
    desc["hopf"]["delta"]["n"] += " + 1 (x) n"
    status = _axiom_statuses(desc)
    assert status["counit-left-n"] == FAIL
    assert status["counit-right-n"] == "pass"


def test_star_coproduct_conjugates_gaussian_coefficients():
    # fun-e2 in the coordinate w = i*v: Delta(w) = -i w (x) w and
    # Delta(n) = i wb (x) n + n (x) 1, with w* = wb.  The star of a tensor
    # conjugates these coefficients; without it every star-coproduct check
    # of w, n and nb fails
    desc = preset_dict("fun-e2")
    desc["tower"][0]["gen"] = "w"
    desc["star"] = {"w": "wb", "n": "nb", "nb": "n"}
    desc["hopf"] = {
        "delta": {"w": "-i*w (x) w", "n": "i*wb (x) n + n (x) 1",
                  "nb": "-i*w (x) nb + nb (x) 1"},
        "counit": {"w": "i", "n": "0", "nb": "0"},
        "antipode": {"w": "-wb", "n": "i*w*n", "nb": "-i*wb*nb"},
    }
    status = _axiom_statuses(desc)
    assert set(status.values()) == {"pass"}
    assert {"star-coproduct-w", "star-coproduct-n", "star-coproduct-nb"} <= set(status)


def test_morphism_negative_control(qe2):
    # n -> n + 1 keeps the four v-rules of qe2-nonstd and breaks nb*n by omega
    tower, _ = qe2
    shifted = AlgebraMorphism.load(tower, tower, {"v": "v", "n": "n + 1", "nb": "nb"})
    records = shifted.validate().records
    status = {r.check_id: r.status for r in records}
    assert len(status) == 5
    assert {c for c, st in status.items() if st == FAIL} == {"respects[nb*n]"}
    assert {r.witness for r in records if r.status == FAIL} == {
        "left and right canonical forms differ"}


def test_a_map_that_cannot_image_a_word_fails_only_those_records():
    # v* = n: the star of v^-1 needs the inverse of n, which does not exist
    desc = preset_dict("fun-e2")
    desc["star"]["v"] = "n"
    tower = load_tower(desc)
    rep = respects_relations_report(tower, load_hopf(tower, desc["hopf"]))
    assert len(rep.records) == 20  # 5 derived rules, 4 maps each
    failed = {r.check_id: r.witness for r in rep.records if r.status != "pass"}
    assert failed == {
        "star-on[n*v^-1]": "cannot invert monomial containing n",
        "star-on[nb*v^-1]": "cannot invert monomial containing n",
    }
    failed = {r.check_id: r.witness for r in star_map(tower).validate().records
              if r.status != "pass"}
    assert failed == {
        "respects[n*v^-1]": "cannot invert monomial containing n",
        "respects[nb*v^-1]": "cannot invert monomial containing n",
    }


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
    out = TensorElement((tower,) * arity, {})
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
    pi = catalog.quotient_on(tower, catalog.get_preset("quotient-I").raw)
    rng = random.Random(1000 * arity + seed)
    t = _random_tensor(tower, rng, arity)
    assert not t.is_zero()
    star, eps = star_map(tower), H.counit_map
    for j in range(arity):
        for phi, f, conj in (
            (H.antipode_map, H.antipode, False),
            (star, star.apply, True),
            (pi, pi.apply, False),
            (eps, lambda p: NCPoly.constant(eps.target, H.counit(p)), False),
        ):
            legs = t.legs[:j] + (phi.target,) + t.legs[j + 1 :]
            want = TensorElement(legs, {})
            for monos, c in t.terms.items():
                polys = _leg_polys(t, monos)
                polys[j] = f(polys[j])
                want = want + TensorElement.from_legs(legs, polys).scale(
                    c.conjugate() if conj else c
                )
            got = t.map_leg(j, phi, conjugate_coeff=conj)
            assert got.legs == legs and got == want

        legs = t.legs[:j] + (tower, tower) + t.legs[j + 1 :]
        want = TensorElement(legs, {})
        for monos, c in t.terms.items():
            polys = _leg_polys(t, monos)
            for m2, c2 in H.coproduct(polys[j]).terms.items():
                mid = [tower.tower_mono(m) for m in m2]
                want = want + TensorElement.from_legs(
                    legs, polys[:j] + mid + polys[j + 1 :]
                ).scale(c * c2)
        got = t.map_leg(j, H.coproduct_map)
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


# -- monomial images by one-letter extension -----------------------------------


def _shipped_morphisms():
    """(id, morphism) for every structure map the shipped presets build:
    coproducts, counits and antipodes, the star of every tower, the
    coactions and projections, and the quotient maps, each on the tower of
    its source preset."""
    out, towers = [], {}
    for pid in catalog.PRESET_IDS:
        b = catalog.get_preset(pid)
        if b.hopf is not None:
            out += [
                (f"{pid}.coproduct", b.hopf.coproduct_map),
                (f"{pid}.counit", b.hopf.counit_map),
                (f"{pid}.antipode", b.hopf.antipode_map),
            ]
        for name in ("coaction", "projection"):
            if getattr(b, name) is not None:
                out.append((f"{pid}.{name}", getattr(b, name)))
        if b.kind == "quotient":
            source = catalog.get_preset(b.raw["source"]).tower
            out.append((f"{pid}.quotient", catalog.quotient_on(source, b.raw)))
        for t in (b.tower, b.group_tower, b.space_tower):
            if t is not None and t.star_table is not None:
                towers.setdefault(id(t), (f"{pid}.star[{t.name}]", t))
    out += [(name, star_map(t)) for name, t in towers.values()]
    return out


def _letter_product(m, mono):
    """m's image of a normal monomial as the product, left to right (right
    to left for an antihomomorphism), of its letters' images, each image
    or inverse computed afresh with ``**``."""
    letters = [m.images[j] ** (1 if e > 0 else -1)
               for j, e in enumerate(mono) for _ in range(abs(e))]
    if m.reverse:
        letters.reverse()
    out = m.one
    for g in letters:
        out = out * g
    return out


def _image_or_error(f):
    try:
        return f()
    except TowerError as e:
        return f"TowerError: {e}"


@pytest.mark.parametrize(
    "name,m", [pytest.param(name, m, id=name) for name, m in _shipped_morphisms()]
)
def test_monomial_images_match_letter_word_products(name, m):
    # invertible generators in [-2, 2], the others in [0, 2]; a fresh copy
    # with empty caches takes the monomials from the largest down, so each
    # image extends a chain of uncached ones, and the shipped map takes them
    # with whatever its caches hold
    src = m.source
    box = sorted(product(*[
        range(-2, 3) if g.invertible else range(0, 3) for g in src.generators
    ]), reverse=True)
    fresh = AlgebraMorphism(
        src, m.target, {g.name: m.images[j] for j, g in enumerate(src.generators)},
        reverse=m.reverse, antilinear=m.antilinear,
    )
    one = src.context.one
    for f in (fresh, m):
        for mono in box:
            want = _image_or_error(lambda: _letter_product(m, mono))
            got = _image_or_error(lambda: f.apply(NCPoly(src, {mono: one})))
            assert got == want, (name, mono)
            word = [(j, e) for j, e in enumerate(mono) if e]
            assert _image_or_error(lambda: f.word_image(word)) == want, (name, mono)


def _bench_workloads():
    """bench/workloads.py, executed from its source (not imported)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    namespace = {"__name__": "bench_workloads"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def test_unit_inverse_runs_once_per_generator_over_an_identity_chunk(monkeypatch):
    # a random-identities chunk on fresh structures: each (morphism,
    # generator) inverts its image at most once, however many monomials
    # carry a negative power of the generator
    wl = _bench_workloads()
    desc = preset_dict("qe2-nonstd")
    H = load_hopf(load_tower(desc, validate=False), desc["hopf"])
    desc = preset_dict("nonstd-poisson")
    P = PoissonStructure.load(load_tower(desc, validate=False), desc["poisson"])
    receivers = []
    for cls in (NCPoly, TensorElement):
        def counted(self, _inv=cls.unit_inverse):
            receivers.append(self)
            return _inv(self)
        monkeypatch.setattr(cls, "unit_inverse", counted)
    negative = 0
    for ident in wl["identity_chunk"](1, 0):
        tower = P.tower if ident["law"] in ("leibniz", "jacobi") else H.tower
        els = [wl["build_element"](tower, terms) for terms in ident["elements"]]
        negative += ident["law"] in ("coproduct", "antipode") and any(
            mono[0] < 0 for terms in ident["elements"] for mono, _ in terms
        )
        lhs, rhs = wl["law_sides"](ident["law"], H, P, els)
        assert lhs == rhs
    assert negative > 1
    maps = (H.coproduct_map, H.counit_map, H.antipode_map)
    calls = {
        (k, j): sum(r is f.images[j] for r in receivers)
        for k, f in enumerate(maps) for j in f.images
    }
    assert max(calls.values()) == 1
    assert calls[0, 0] == calls[2, 0] == 1  # v^-1 under the coproduct and antipode

import random
from types import SimpleNamespace

import pytest

from qe2.hopf import AlgebraMorphism, load_hopf
from qe2.liebialg import (
    LieAlgebra,
    LieError,
    WedgeBivector,
    coboundary_cocommutator,
    coboundary_solve,
    cocycle_cojacobi_report,
    lie_from_group,
    linearize_poisson,
    load_cocommutator,
    stabilizer_invariance_check,
)
from qe2.ncalg import load_tower
from qe2.poisson import PoissonStructure
from qe2.scalars import Parameter, ScalarContext

from conftest import preset_dict


@pytest.fixture(scope="module")
def std():
    desc = preset_dict("std-poisson")
    tower = load_tower(desc)
    H = load_hopf(tower, desc["hopf"])
    P = PoissonStructure.load(tower, desc["poisson"])
    return tower, H, P


@pytest.fixture(scope="module")
def nonstd():
    desc = preset_dict("nonstd-poisson")
    tower = load_tower(desc)
    H = load_hopf(tower, desc["hopf"])
    P = PoissonStructure.load(tower, desc["poisson"])
    return tower, H, P


NAMES = ("J", "X", "Y")


def test_lie_from_group(std):
    tower, H, _ = std
    g = lie_from_group(tower, H, names=NAMES)
    # [J,X] = -X, [J,Y] = Y, [X,Y] = 0 (frozen from the hand expansion of
    # the second-order group law)
    ctx = tower.context
    assert g.bracket_basis(0, 1) == {1: -ctx.one}
    assert g.bracket_basis(0, 2) == {2: ctx.one}
    assert g.bracket_basis(1, 2) == {}


def test_lie_from_group_matches_preset(std):
    tower, H, _ = std
    g = lie_from_group(tower, H, names=NAMES)
    desc = preset_dict("e2-lie")
    preset = LieAlgebra.load(ScalarContext([]), desc)
    assert all(g.bracket_basis(i, j) == preset.bracket_basis(i, j)
               for i in range(3) for j in range(3))
    assert g.names == preset.names


def test_abelian_coproduct_gives_zero_constants():
    # all generators primitive and commuting -> zero structure constants
    desc = {
        "name": "abelian",
        "parameters": [],
        "tower": [{"gen": "a"}, {"gen": "b"}],
        "hopf": {
            "delta": {"a": "a (x) 1 + 1 (x) a", "b": "b (x) 1 + 1 (x) b"},
            "counit": {"a": "0", "b": "0"},
            "antipode": {"a": "-a", "b": "-b"},
        },
    }
    tower = load_tower(desc)
    H = load_hopf(tower, desc["hopf"])
    g = lie_from_group(tower, H)
    assert g.bracket_basis(0, 1) == {}


@pytest.mark.parametrize("a_image, term", [
    ("a (x) 1 + 1 (x) a + 1 (x) 1", "constant"),
    ("a (x) 1 + 1 (x) a + a (x) 1", "linear"),
    ("a (x) 1 + 1 (x) b", "linear"),
])
def test_lie_from_group_rejects_a_coproduct_off_the_identity(a_image, term):
    # Delta(a) must read 0 + a (x) 1 + 1 (x) a to first order
    tower = load_tower({"name": "ab", "tower": [{"gen": "a"}, {"gen": "b"}]})
    images = {"a": a_image, "b": "b (x) 1 + 1 (x) b"}
    hopf = SimpleNamespace(coproduct_map=AlgebraMorphism.load(tower, (tower, tower), images))
    with pytest.raises(LieError, match=rf"coproduct of a .* \(wrong {term} term\)"):
        lie_from_group(tower, hopf)


def test_linearize_std(std):
    tower, _, P = std
    ctx = tower.context
    d = linearize_poisson(P, names=NAMES)
    assert d[0].is_zero()                                   # delta(J) = 0
    assert d[1] == WedgeBivector(ctx, 3, {(0, 1): ctx.one})  # J^X
    assert d[2] == WedgeBivector(ctx, 3, {(0, 2): ctx.one})  # J^Y


def test_linearize_nonstd(nonstd):
    tower, _, P = nonstd
    ctx = tower.context
    w = ctx.param("omega")
    d = linearize_poisson(P, names=NAMES)
    assert d[0] == WedgeBivector(ctx, 3, {(0, 1): -w, (0, 2): -w})
    assert d[1] == WedgeBivector(ctx, 3, {(1, 2): -w})
    assert d[2] == WedgeBivector(ctx, 3, {(1, 2): w})
    # in the P1 = X+Y, P2 = X-Y basis: delta(P1) = 0 and
    # delta(P2) = -2 omega X^Y = -omega P2^P1 (the display has +omega P2^P1)
    assert (d[1] + d[2]).is_zero()
    assert d[1] - d[2] == WedgeBivector(ctx, 3, {(1, 2): -(w + w)})


def test_linearize_rejects_laurent():
    ctx = ScalarContext([])
    desc = preset_dict("std-poisson")
    tower = load_tower(desc)
    P = PoissonStructure(tower, {(0, 1): tower.poly("v^-1*n")})
    with pytest.raises(LieError):
        linearize_poisson(P)


def test_bad_scalar_in_lie_preset_is_a_lie_error():
    ctx = ScalarContext([])
    spec = {"basis": ["J", "X"], "brackets": {"J,X": {"X": "X"}}}
    with pytest.raises(LieError):
        LieAlgebra.load(ctx, spec)
    with pytest.raises(LieError):
        load_cocommutator(ctx, ["J", "X"], {"J": {"J,X": "1 (x) 1"}})


def test_a_pair_named_twice_is_refused():
    ctx = ScalarContext([])
    spec = {"basis": ["J", "X"], "brackets": {"J,X": {"X": "-1"}, "X,J": {"X": "-1"}}}
    with pytest.raises(LieError, match="the pair 'X,J' is named twice"):
        LieAlgebra.load(ctx, spec)
    with pytest.raises(LieError, match="the pair 'X,J' is named twice"):
        load_cocommutator(ctx, ["J", "X"], {"X": {"J,X": "1", "X,J": "1"}})


def test_constants_that_name_both_orders_of_a_pair_are_refused():
    # before, the later entry won: [J, X] read X
    ctx = ScalarContext([])
    constants = {(0, 1): {1: -ctx.one}, (1, 0): {1: -ctx.one}}
    with pytest.raises(LieError, match="the pair J,X is named in both orders"):
        LieAlgebra(ctx, ("J", "X"), constants)


def test_a_lie_algebra_that_fails_jacobi_is_refused():
    # [a,b] = b, [b,c] = a, [a,c] = 0: sum_cyc [[e_a, e_b], e_c] = a
    ctx = ScalarContext([])
    constants = {(0, 1): {1: ctx.one}, (1, 2): {0: ctx.one}}
    with pytest.raises(LieError, match=r"Jacobi fails on basis triple \(a,b,c\)"):
        LieAlgebra(ctx, ("a", "b", "c"), constants)


def test_load_cocommutator_fills_the_basis_elements_without_an_entry():
    ctx = ScalarContext([])
    d = load_cocommutator(ctx, ["J", "X", "Y"], {"X": {"J,X": "1", "Y,J": "2"}})
    assert d == (
        WedgeBivector(ctx, 3),
        WedgeBivector(ctx, 3, {(0, 1): ctx.one, (0, 2): -ctx.from_int(2)}),
        WedgeBivector(ctx, 3),
    )
    with pytest.raises(KeyError):
        load_cocommutator(ctx, ["J", "X"], {"Z": {}})


def test_wedge_pairs_are_oriented_and_summed():
    ctx = ScalarContext([])
    one = ctx.one
    assert WedgeBivector(ctx, 3, [((1, 0), one), ((0, 1), one)]).is_zero()
    w = WedgeBivector(ctx, 3, [((2, 0), one), ((0, 2), one + one), ((1, 2), one)])
    assert w.terms == {(0, 2): one, (1, 2): one}
    with pytest.raises(LieError):
        WedgeBivector(ctx, 3, {(1, 1): one})


def test_zero_bracket_zero_cocommutator(std):
    tower, _, _ = std
    P = PoissonStructure(tower, {})
    d = linearize_poisson(P)
    assert all(d[k].is_zero() for k in range(3))


def test_cocycle_cojacobi(std, nonstd):
    for tower, H, P in (std, nonstd):
        g = lie_from_group(tower, H, names=NAMES)
        d = linearize_poisson(P, names=NAMES)
        rep = cocycle_cojacobi_report(g, d)
        assert rep.clean, rep.to_text()


def test_cocycle_fails_for_printed_nonstd_sign(nonstd):
    tower, H, _ = nonstd
    ctx = tower.context
    w = ctx.param("omega")
    g = lie_from_group(tower, H, names=NAMES)
    printed = (
        WedgeBivector(ctx, 3, {(0, 1): -w, (0, 2): -w}),
        WedgeBivector(ctx, 3, {(1, 2): w}),   # displayed sign
        WedgeBivector(ctx, 3, {(1, 2): -w}),
    )
    rep = cocycle_cojacobi_report(g, printed)
    assert not rep.clean


def test_trivial_cocommutator_abelian():
    ctx = ScalarContext([])
    g = LieAlgebra(ctx, ("a", "b"), {(0, 1): {}})
    d = (WedgeBivector(ctx, 2, {(0, 1): ctx.one}), WedgeBivector(ctx, 2))
    rep = cocycle_cojacobi_report(g, d)
    assert rep.clean


def test_cojacobi_fails_alone_on_a_cocycle():
    # abelian g, so every cocycle record passes; the dual bracket
    # [e^a, e^b] = e^a, [e^b, e^c] = e^b, [e^a, e^c] = -e^c has the
    # Jacobiator sum_cyc [[e^a, e^b], e^c] = -e^a - e^b - e^c
    ctx = ScalarContext([])
    g = LieAlgebra(ctx, ("a", "b", "c"), {})
    one = ctx.one
    d = (
        WedgeBivector(ctx, 3, {(0, 1): one}),
        WedgeBivector(ctx, 3, {(1, 2): one}),
        WedgeBivector(ctx, 3, {(0, 2): -one}),
    )
    records = {r.check_id: r for r in cocycle_cojacobi_report(g, d).records}
    assert all(r.status == "pass" for cid, r in records.items() if cid.startswith("cocycle-"))
    for x in "abc":
        r = records[f"cojacobi-{x}"]
        assert (r.status, r.lhs, r.rhs, r.witness) == ("fail", "-1", "0", "slot (a,b,c)")


def test_coboundary_std_empty(std):
    tower, H, P = std
    g = lie_from_group(tower, H, names=NAMES)
    d = linearize_poisson(P, names=NAMES)
    sol = coboundary_solve(g, d)
    assert sol.empty


def test_coboundary_nonstd_contains_printed_r(nonstd):
    tower, H, P = nonstd
    ctx = tower.context
    w = ctx.param("omega")
    g = lie_from_group(tower, H, names=NAMES)
    d = linearize_poisson(P, names=NAMES)
    sol = coboundary_solve(g, d)
    assert not sol.empty
    assert sol.dimension == 1
    # r = omega J^P2 = omega (J^X - J^Y): the displayed r-matrix, exactly
    printed_r = WedgeBivector(ctx, 3, {(0, 1): w, (0, 2): -w})
    assert sol.contains(printed_r.terms)
    # the solution set is printed_r + c X^Y, labelled by wedge pairs
    assert sol.particular == printed_r.terms
    assert sol.nullspace == {(1, 2): {(1, 2): ctx.one}}
    assert sol.contains((printed_r + WedgeBivector(ctx, 3, {(1, 2): w})).terms)
    assert not sol.contains((printed_r + printed_r).terms)
    # self-consistency: the witness reproduces delta
    r = WedgeBivector(ctx, 3, sol.particular)
    assert coboundary_cocommutator(g, r) == d


def test_coboundary_abelian_everything():
    ctx = ScalarContext([])
    g = LieAlgebra(ctx, ("a", "b", "c"), {})
    d = (WedgeBivector(ctx, 3),) * 3
    sol = coboundary_solve(g, d)
    assert not sol.empty
    assert sol.dimension == 3  # all of wedge^2


def test_coboundary_deltas_pass_cocycle_random(nonstd):
    tower, H, _ = nonstd
    ctx = tower.context
    g = lie_from_group(tower, H, names=NAMES)
    rng = random.Random(41)
    for _ in range(6):
        r = WedgeBivector(
            ctx,
            3,
            {
                (0, 1): ctx.from_int(rng.randint(-3, 3)),
                (0, 2): ctx.from_int(rng.randint(-3, 3)),
                (1, 2): ctx.from_int(rng.randint(-3, 3)),
            },
        )
        d = coboundary_cocommutator(g, r)
        rep = cocycle_cojacobi_report(g, d)
        assert rep.clean


def test_stabilizer_plane():
    ctx = ScalarContext([Parameter("k")])
    k = ctx.param("k")
    rot = [[ctx.zero, -ctx.one], [ctx.one, ctx.zero]]
    push = [[ctx.zero, ctx.zero], [ctx.zero, ctx.one], [ctx.one, ctx.zero]]
    dj = WedgeBivector(ctx, 3)  # delta(J) = 0
    rep = stabilizer_invariance_check(ctx, push, rot, dj, k)
    assert rep.clean


def test_stabilizer_cylinder():
    ctx = ScalarContext([Parameter("omega", "negated"), Parameter("k")])
    k = ctx.param("k")
    zero2 = [[ctx.zero, ctx.zero], [ctx.zero, ctx.zero]]
    push = [
        [ctx.one, ctx.zero],
        [ctx.zero, -ctx.one],
        [ctx.zero, ctx.one],
    ]
    dp1 = WedgeBivector(ctx, 3)  # delta(P1) = 0
    rep = stabilizer_invariance_check(ctx, push, zero2, dp1, k)
    assert rep.clean


def test_stabilizer_negative_control():
    ctx = ScalarContext([Parameter("k")])
    k = ctx.param("k")
    shear = [[ctx.zero, ctx.one], [ctx.zero, ctx.zero]]
    push = [[ctx.one, ctx.zero], [ctx.zero, ctx.one], [ctx.zero, ctx.zero]]
    dx = WedgeBivector(ctx, 3, {(0, 1): ctx.one})
    rep = stabilizer_invariance_check(ctx, push, shear, dx, k)
    assert not rep.clean

import random

import pytest

from qe2.hopf import load_hopf
from qe2.liebialg import (
    Cocommutator,
    LieAlgebra,
    LieError,
    WedgeBivector,
    coboundary_cocommutator,
    coboundary_solve,
    cocycle_cojacobi_report,
    lie_from_group,
    linearize_poisson,
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
    assert [g.bracket_basis(i, j) == preset.bracket_basis(i, j)
            for i in range(3) for j in range(3)]
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


def test_linearize_std(std):
    tower, _, P = std
    ctx = tower.context
    d = linearize_poisson(P, names=NAMES)
    assert d.of(0).is_zero()                                   # delta(J) = 0
    assert d.of(1) == WedgeBivector(ctx, 3, {(0, 1): ctx.one})  # J^X
    assert d.of(2) == WedgeBivector(ctx, 3, {(0, 2): ctx.one})  # J^Y


def test_linearize_nonstd(nonstd):
    tower, _, P = nonstd
    ctx = tower.context
    w = ctx.param("omega")
    d = linearize_poisson(P, names=NAMES)
    assert d.of(0) == WedgeBivector(ctx, 3, {(0, 1): -w, (0, 2): -w})
    assert d.of(1) == WedgeBivector(ctx, 3, {(1, 2): -w})
    assert d.of(2) == WedgeBivector(ctx, 3, {(1, 2): w})
    # in the P1 = X+Y, P2 = X-Y basis: delta(P1) = 0 and
    # delta(P2) = -2 omega X^Y = -omega P2^P1 (the display has +omega P2^P1)
    assert (d.of(1) + d.of(2)).is_zero()
    assert d.of(1) - d.of(2) == WedgeBivector(ctx, 3, {(1, 2): -(w + w)})


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
        Cocommutator.load(ctx, ["J", "X"], {"J": {"J,X": "1 (x) 1"}})


def test_wedge_pairs_are_oriented_and_summed():
    ctx = ScalarContext([])
    one = ctx.one
    assert WedgeBivector(ctx, 3, [((1, 0), one), ((0, 1), one)]).is_zero()
    w = WedgeBivector(ctx, 3, [((2, 0), one), ((0, 2), one + one), ((1, 2), one)])
    assert w.coeffs == {(0, 2): one, (1, 2): one}
    with pytest.raises(LieError):
        WedgeBivector(ctx, 3, {(1, 1): one})


def test_zero_bracket_zero_cocommutator(std):
    tower, _, _ = std
    P = PoissonStructure(tower, {})
    d = linearize_poisson(P)
    assert all(d.of(k).is_zero() for k in range(3))


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
    printed = Cocommutator(
        3,
        ctx,
        {
            0: WedgeBivector(ctx, 3, {(0, 1): -w, (0, 2): -w}),
            1: WedgeBivector(ctx, 3, {(1, 2): w}),   # displayed sign
            2: WedgeBivector(ctx, 3, {(1, 2): -w}),
        },
    )
    rep = cocycle_cojacobi_report(g, printed)
    assert not rep.clean


def test_trivial_cocommutator_abelian():
    ctx = ScalarContext([])
    g = LieAlgebra(ctx, ("a", "b"), {(0, 1): {}})
    d = Cocommutator(2, ctx, {0: WedgeBivector(ctx, 2, {(0, 1): ctx.one})})
    rep = cocycle_cojacobi_report(g, d)
    assert rep.clean


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
    assert sol.contains(ctx, printed_r)
    # self-consistency: the witness reproduces delta
    r = sol.witness(ctx, 3)
    assert coboundary_cocommutator(g, r) == d


def test_coboundary_abelian_everything():
    ctx = ScalarContext([])
    g = LieAlgebra(ctx, ("a", "b", "c"), {})
    d = Cocommutator(3, ctx, {})
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

"""The Sec. 4 quantum algebras quantize the Sec. 2-3 Poisson structures:
with normal-ordered monomials read as commutative ones, [f, g] equals
{f, g} up to omega^2.

The two sides share no code above the scalars: the commutator goes through
the tower's rewriting, the bracket through the Poisson structure's
monomial table.  If [x_i, x_j] = P_ij exactly and every P_ij is O(omega),
reordering a product costs O(omega), so by the Leibniz rule on both sides
[f, g] = {f, g} + O(omega^2) for all f and g."""

import pytest
from hypothesis import given, settings, strategies as st

from qe2 import catalog
from qe2.ncalg import NCPoly
from qe2.poisson import PoissonStructure
from qe2.scalars import GaussRational, _pack, _scalar, _unpack


def _lift(c, ctx):
    """The polynomial Scalar c, over a prefix of ctx's parameters, in ctx."""
    assert c.is_polynomial(), c
    pad = (0,) * (ctx.nvars - c.ctx.nvars)
    num = {_pack(_unpack(e, c.ctx.nvars) + pad): t for e, t in c.num.items()}
    return _scalar(ctx, num, ctx._den_one)


def _first_order_defect(P, f, g):
    """The terms of [f, g] - {f, g} of omega-degree below 2 at k = 0, where
    f and g are quantum elements and their normal-ordered monomials are
    read in P's commutative tower."""
    tower, ctx = P.tower, P.tower.context

    def commutative(x):
        return NCPoly.from_terms(tower, [(m, _lift(c, ctx)) for m, c in x.terms.items()])

    diff = commutative(f * g - g * f) - P.bracket(commutative(f), commutative(g))
    bad = {}
    for mono, c in diff.terms.items():
        assert c.is_polynomial(), f"non-unit denominator at {mono}: {c}"
        for key in c.num:
            exps = dict(zip(ctx.names, _unpack(key, ctx.nvars)))
            if not exps.get("k") and exps["omega"] < 2:
                bad[mono] = c
    return bad


_coefficients = st.builds(GaussRational, st.integers(-2, 2), st.integers(-1, 1)).filter(bool)


def _element(draw, tower, exponents):
    """A Laurent element of 1 or 2 normal-ordered terms with Q(i)
    coefficients; exponents holds one strategy per level."""
    ctx = tower.context
    terms = [
        (tuple(draw(e) for e in exponents), ctx.from_gauss(draw(_coefficients)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    return NCPoly.from_terms(tower, terms)


def _in_v_and_m(draw, tower):
    """A sum of 1 or 2 terms c*v^a*m^b of qe2-nonstd, with m the embedded
    generator vb*nb - v*n of quantum-cylinder."""
    ctx, m = tower.context, tower.poly("vb*nb - v*n")
    out = NCPoly.zero(tower)
    for _ in range(draw(st.integers(1, 2))):
        a, b = draw(st.integers(-1, 1)), draw(st.integers(0, 2))
        out = out + (tower.poly(f"v^{a}") * m**b).scale(ctx.from_gauss(draw(_coefficients)))
    return out


_LAURENT = st.integers(-2, 2)
_POLY = st.integers(0, 2)
CASES = {
    "qe2-nonstd": ("nonstd-poisson", lambda d, t: _element(d, t, (_LAURENT, _POLY, _POLY))),
    "quantum-cylinder": ("cylinder-poisson", lambda d, t: _element(d, t, (_LAURENT, _POLY))),
    "embedded-m": ("nonstd-poisson", _in_v_and_m),
}


def _quantum_tower(case):
    return catalog.get_preset("qe2-nonstd" if case == "embedded-m" else case).tower


@pytest.mark.parametrize("case", sorted(CASES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_commutators_equal_the_poisson_bracket_to_first_order(case, data):
    poisson, element = CASES[case]
    tower, P = _quantum_tower(case), catalog.get_preset(poisson).poisson
    f, g = element(data.draw, tower), element(data.draw, tower)
    assert _first_order_defect(P, f, g) == {}


def test_the_printed_n_nb_sign_fails_the_cross_check():
    tower = _quantum_tower("qe2-nonstd")
    P = catalog.get_preset("nonstd-poisson").poisson
    printed = PoissonStructure(P.tower, {
        (0, 1): P.bracket_gens(0, 1),
        (0, 2): P.bracket_gens(0, 2),
        (1, 2): -P.bracket_gens(1, 2),  # the displayed {n, nb} = omega*(n - nb)
    })
    n, nb = tower.poly("n"), tower.poly("nb")
    assert _first_order_defect(P, n, nb) == {}
    assert _first_order_defect(printed, n, nb)
    # and so it does on elements whose products reorder n past nb
    f, g = tower.poly("(1+i)*v^-1*n*nb - 2*v"), tower.poly("i*v^2*n + nb")
    assert _first_order_defect(P, f, g) == {}
    assert _first_order_defect(printed, f, g)

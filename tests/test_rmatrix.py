"""The Poisson structures on E(2) and the plane, derived without the
engine.

The paper's Sec. 3 bracket is the Sklyanin bracket of the coboundary
r = omega (J (x) P2 - P2 (x) J), P2 = X - Y:

    {f, g} = sum_ab r^ab (L_a f L_b g - R_a f R_b g)

with L_a, R_a the left- and right-invariant vector fields.  Here the group
law is read off the coproduct in the preset JSON, the invariant fields are
derivatives of that law along the one-parameter subgroups, and everything
is computed with sympy; nothing is imported from ``qe2``.

The standard bracket is checked against the same group law: the coproduct
is a Poisson map E(2) x E(2) -> E(2) for the product bracket, and the
projection of the plane coaction carries it to the plane bracket
{z, zb} = z*zb of Cor. 2.4.
"""

import json
from pathlib import Path

import sympy as sp

PRESETS = Path(__file__).resolve().parent.parent / "src" / "qe2" / "presets"
GENS = ("v", "n", "nb")
v, n, nb, t, omega = sp.symbols("v n nb t omega")
POINT = dict(zip(GENS, (v, n, nb)))
IDENTITY = {v: 1, n: 0, nb: 0}
# exp(tZ) for the basis J, X, Y of the Lie algebra, in coordinates (v, n, nb)
EXP = {
    "J": {"v": sp.exp(t), "n": 0, "nb": 0},
    "X": {"v": 1, "n": t, "nb": 0},
    "Y": {"v": 1, "n": 0, "nb": t},
}
# r = omega J^P2 with P2 = X - Y and a^b = a (x) b - b (x) a
R_MATRIX = {("J", "X"): omega, ("J", "Y"): -omega, ("X", "J"): -omega, ("Y", "J"): omega}
# the {n, nb} entry as the Sec. 3 display prints it
PRINTED_N_NB = omega * (n - nb)


def _preset(name):
    return json.loads((PRESETS / f"{name}.json").read_text())


def _expr(text, at):
    """A preset expression evaluated at the point ``at`` (generator ->
    value); ``vb`` is 1/v."""
    names = {**at, "vb": 1 / at["v"], "omega": omega}
    return sp.sympify(text.replace("^", "**"), locals=names)


def _product(g, h, name="nonstd-poisson"):
    """g*h in coordinates: x(g*h) is Delta(x) of the preset ``name`` with
    the left leg at g and the right leg at h."""
    delta = _preset(name)["hopf"]["delta"]
    out = {}
    for x, text in delta.items():
        legs = (term.split(" (x) ") for term in text.split(" + "))
        out[x] = sum(_expr(left, g) * _expr(right, h) for left, right in legs)
    return out


def _field(a, left):
    """The left-invariant (f(g exp(tZ_a))') or right-invariant
    (f(exp(tZ_a) g)') field of the basis element a, as f -> its derivative."""
    moved = _product(POINT, EXP[a]) if left else _product(EXP[a], POINT)
    subs = {POINT[x]: moved[x] for x in GENS}
    return lambda f: sp.diff(f.subs(subs, simultaneous=True), t).subs(t, 0)


L = {a: _field(a, True) for a in EXP}
R = {a: _field(a, False) for a in EXP}


def _sklyanin(f, g):
    return sum(c * (L[a](f) * L[b](g) - R[a](f) * R[b](g)) for (a, b), c in R_MATRIX.items())


def _table(entries, at=POINT):
    """Every ordered pair of generators -> its bracket at the point ``at``,
    from the antisymmetric table ``{"x,y": text}``."""
    out = {(x, x): 0 for x in at}
    for pair, text in entries.items():
        x, y = pair.split(",")
        out[x, y] = _expr(text, at)
        out[y, x] = -out[x, y]
    return out


def _bracket(entries, *points):
    """The bracket of the table ``entries`` on one factor per point
    (generator -> coordinate symbol): the product bracket when there are
    several."""
    tables = [(_table(entries, at), at) for at in points]
    return lambda f, g: sum(
        value * sp.diff(f, at[x]) * sp.diff(g, at[y])
        for table, at in tables
        for (x, y), value in table.items()
    )


def _agrees(bracket, table):
    return all(sp.simplify(bracket(POINT[x], POINT[y]) - value) == 0
               for (x, y), value in table.items())


def test_the_fields_carry_the_lie_algebra_of_the_preset():
    # [L_a, L_b] = sum_c c_ab^c L_c on each coordinate function
    brackets = _preset("nonstd-bialg")["brackets"]
    for pair, image in brackets.items():
        a, b = pair.split(",")
        for x in POINT.values():
            lhs = L[a](L[b](x)) - L[b](L[a](x))
            rhs = sum(sp.Rational(c) * L[k](x) for k, c in image.items())
            assert sp.simplify(lhs - rhs) == 0, (pair, x)


def test_the_sklyanin_bracket_of_r_is_the_nonstandard_table():
    table = _table(_preset("nonstd-poisson")["poisson"])
    assert len(table) == 9
    assert _agrees(_sklyanin, table)
    # with the displayed sign of {n, nb} the table is not the bracket of r
    printed = {**table, ("n", "nb"): PRINTED_N_NB, ("nb", "n"): -PRINTED_N_NB}
    assert not _agrees(_sklyanin, printed)


def test_the_linearization_of_the_bracket_is_the_nonstandard_cocommutator():
    # delta(Z_c) = sum_{a<b} Z_c({x^a, x^b})(e) Z_a^Z_b, with coordinates
    # x^J = v - 1, x^X = n, x^Y = nb vanishing at the identity and dual to
    # J, X, Y there
    coords = {"J": v - 1, "X": n, "Y": nb}
    for a, xa in coords.items():
        for b, xb in coords.items():
            assert L[a](xb).subs(IDENTITY) == (a == b)
    basis = list(coords)

    def delta(c):
        out = {}
        for i, a in enumerate(basis):
            for b in basis[i + 1:]:
                value = sp.simplify(L[c](_sklyanin(coords[a], coords[b])).subs(IDENTITY))
                if value != 0:
                    out[f"{a},{b}"] = value
        return out

    cocommutator = _preset("nonstd-bialg")["cocommutator"]
    for c in basis:
        expected = {pair: _expr(text, POINT) for pair, text in cocommutator[c].items()}
        assert delta(c) == expected, c
    # the displayed delta(J) = omega J^P2 is not it
    assert delta("J") != {"J,X": omega, "J,Y": -omega}


def _std_with_printed_sign():
    # the Sec. 2 display prints {n, nb} = +n*nb
    return {**_preset("std-poisson")["poisson"], "n,nb": "n*nb"}


def test_the_standard_coproduct_is_a_poisson_map():
    # {Delta x, Delta y} for the product bracket on E(2) x E(2) is
    # Delta {x, y}: the bracket at the product g*h
    g, h = ({x: sp.Symbol(f"{x}{j}") for x in GENS} for j in (1, 2))
    product = _product(g, h, "std-poisson")

    def multiplicative(entries):
        bracket, at_gh = _bracket(entries, g, h), _table(entries, product)
        return all(sp.simplify(bracket(product[x], product[y]) - at_gh[x, y]) == 0
                   for x in GENS for y in GENS)

    assert multiplicative(_preset("std-poisson")["poisson"])
    assert not multiplicative(_std_with_printed_sign())


def test_the_projection_carries_the_standard_bracket_to_the_plane():
    # z and zb pull back to the coordinates that coaction-plane's projection
    # names (z <-> nb, zb <-> n); their standard bracket is the pull-back of
    # plane-poisson's {z, zb} at k = 0, which is Cor. 2.4's z*zb
    projection = _preset("coaction-plane")["projection"]
    plane = _preset("plane-poisson")["poisson"]
    assert list(plane) == ["z,zb"]

    def pushed(entries, pairing):
        bracket = _bracket(entries, POINT)
        at = {z: _expr(text, POINT) for z, text in pairing.items()}
        value = sp.sympify(plane["z,zb"], locals={**at, "k": 0})
        return sp.simplify(bracket(at["z"], at["zb"]) - value) == 0

    std = _preset("std-poisson")["poisson"]
    assert pushed(std, projection)
    # the literal Cor. 2.4 reading z <-> n gives -z*zb, and so does the
    # printed sign of {n, nb}
    assert not pushed(std, {"z": "n", "zb": "nb"})
    assert not pushed(_std_with_printed_sign(), projection)

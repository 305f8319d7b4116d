"""Negative controls: each check below runs on inputs where it must fail.

A passing record looks the same whether its check is sound or has gone
vacuous, so each case breaks one input of one check and asserts a fail
record under the check's own id, with a witness, and never an
``internal-error[...]`` record.  A broken preset is a copy of its JSON
with one edit, loaded by ``catalog.load_bundle`` and put under its id in
the check inputs (``s[preset_id] = bundle``); the joins of two presets
(``s.pi``, ``s.cylinder``) are built from what the inputs hold, so they see
it too.  Nothing under ``qe2/presets/`` changes.
"""

import pytest

from qe2 import catalog, suites
from qe2.report import FAIL


def _set(path, value):
    """The edit that sets ``raw[path[0]]...[path[-1]]`` to ``value``."""
    def edit(raw):
        for key in path[:-1]:
            raw = raw[key]
        raw[path[-1]] = value
    return edit


def _drop_ansatz_entry(entry):
    def edit(raw):
        raw["ansatz"].remove(entry)
    return edit


def _nonstd_table(raw):
    nonstd = catalog._read("nonstd-poisson")
    raw["poisson"] = nonstd["poisson"]
    raw["parameters"] = nonstd["parameters"]


def _double_table(raw):
    raw["poisson"] = {pair: f"2*({value})" for pair, value in raw["poisson"].items()}


# v (x) n has no inverse, so the coproduct of vb cannot be imaged
_DELTA_V_IS_V_N = _set(("hopf", "delta", "v"), "v (x) n")
# pi(n - nb) = -1
_NB_IS_T_PLUS_1 = _set(("images", "nb"), "t + 1")

# check id -> (preset id, the edit of its JSON that must fail the check)
BROKEN_PRESETS = {
    "family-plane-dimension": ("coaction-plane", _drop_ansatz_entry("1")),
    "family-cylinder-dimension": ("coaction-cylinder", _drop_ansatz_entry("v")),
    "bialg-coboundary-std-empty": ("std-poisson", _nonstd_table),
    "bialg-coboundary-nonstd-rmatrix": ("nonstd-poisson", _double_table),
    "coideal-cylinder": ("quantum-cylinder", _set(("embedding", "images", "m"), "n")),
    # one bracket edit per rank check, which moves a point onto another leaf
    "rank-std-circle-points": ("std-poisson", _set(("poisson", "n,nb"), "-n*nb + 1")),
    # a 3 x 3 bracket matrix has rank 0 only where all three brackets vanish
    "rank-std-generic": ("std-poisson", _set(("poisson",), {})),
    "rank-nonstd-line": (
        "nonstd-poisson", _set(("poisson", "n,nb"), "omega*(nb - n) + omega")),
    "rank-nonstd-circle-point": (
        "nonstd-poisson", _set(("poisson",), catalog._read("std-poisson")["poisson"])),
    "rank-cylinder-degenerate": (
        "cylinder-poisson", _set(("poisson", "v,m"), "-omega*(v^2 - 1) + k + 1")),
    "rank-cylinder-regular": ("cylinder-poisson", _set(("poisson", "v,m"), "-omega*(v^2 - 1)")),
    "rank-plane-hyperbolic": ("plane-poisson", _set(("poisson", "z,zb"), "z*zb - k")),
    # v* = n leaves the star of v^-1 without an image
    "relations-fun-e2": ("fun-e2", _set(("star", "v"), "n")),
    "bialg-lie-constants": ("e2-lie", _set(("brackets", "J,X"), {"X": "1"})),
    "bialg-linearize-std": ("std-bialg", _set(("cocommutator", "X"), {"J,X": "-1"})),
    "bialg-linearize-nonstd-p1": (
        "nonstd-poisson", _set(("poisson", "n,nb"), "-omega*n - omega*nb")),
    "bialg-cocycle-std": ("std-poisson", _set(("poisson", "v,n"), "v*n + n")),
    "bialg-cocycle-nonstd": (
        "nonstd-poisson", _set(("poisson", "v,n"), "omega*(v - 1) + omega*n")),
    "jacobi-std-poisson": ("std-poisson", _set(("poisson", "n,nb"), "v")),
    "jacobi-nonstd-poisson": (
        "nonstd-poisson", _set(("poisson", "n,nb"), "omega*n - omega*nb")),
    "multiplicativity-std-poisson": ("std-poisson", _set(("poisson", "n,nb"), "n*nb")),
    "multiplicativity-nonstd-poisson": (
        "nonstd-poisson", _set(("poisson", "v,n"), "omega*(1 - v) + n")),
    # the sub-checks that need the coproduct of vb fail on their own, and
    # the others still run
    "hopf-axioms-qe2-nonstd": ("qe2-nonstd", _DELTA_V_IS_V_N),
    # v -> t leaves the image of v^-1 without an inverse
    "quotient-I-well-defined": ("quotient-I", _set(("images", "v"), "t")),
    # pi(n - nb) = -1: the stated generator n - nb is not killed
    "hopf-star-ideal-I": ("quotient-I", _NB_IS_T_PLUS_1),
    # the shipped delta image is zero and tr(action) = 0, so the shipped
    # check holds for every rho; a nonzero trace leaves tr(action)*rho = k
    "stabilizer-plane": ("coaction-plane", _set(("stabilizer", "action"), [[1, -1], [1, 0]])),
    "stabilizer-cylinder": ("coaction-cylinder", _set(("stabilizer", "action"), [[1, 0], [0, 0]])),
    # {v, n} = u on the circle v -> u, n = nb = 0
    "poisson-subgroup-circle-std": ("std-poisson", _set(("poisson", "v,n"), "v*n + v")),
    # {v - 1, n} = omega on the line v = 1, n = nb
    "poisson-subgroup-line-nonstd": (
        "nonstd-poisson", _set(("poisson", "v,n"), "omega*(1 - v) + omega")),
    # Delta(v) = v (x) n: (id (x) pi) Delta(v) = v (x) t
    "closure-coinvariance-v": ("qe2-nonstd", _DELTA_V_IS_V_N),
    # pi(m) = (t + 1) - t = 1: (id (x) pi) Delta(m) = m (x) 1 + 1 (x) 1, and
    # pi((S - eps)(m)) = -1
    "closure-coinvariance-m": ("quotient-I", _NB_IS_T_PLUS_1),
    "closure-coinvariants-bounded": ("quotient-I", _NB_IS_T_PLUS_1),
    "closure-sigma-outputs-in-ideal": ("quotient-I", _NB_IS_T_PLUS_1),
}


def _inputs_with(preset_id, edit):
    """Fresh check inputs whose preset ``preset_id`` is its JSON after
    ``edit``."""
    raw = catalog._read(preset_id)
    edit(raw)
    s = suites._Inputs(4)
    s[preset_id] = catalog.load_bundle(preset_id, raw, raw.get("kind", "algebra"))
    return s


def _assert_fails(check_id, s):
    """The record of ``check_id`` on ``s``, asserted to be a fail under its
    own id, with a witness."""
    record = suites.run_check(check_id, s)
    assert record.check_id == check_id, record.witness
    assert record.status == FAIL
    assert record.witness
    return record


@pytest.mark.parametrize("check_id", sorted(BROKEN_PRESETS))
def test_a_broken_preset_fails_its_check(check_id):
    assert suites.run_check(check_id).status == "pass"
    _assert_fails(check_id, _inputs_with(*BROKEN_PRESETS[check_id]))


def test_a_substituted_qe2_reaches_both_joins():
    s = _inputs_with("qe2-nonstd", _DELTA_V_IS_V_N)
    assert s.pi.source is s.cylinder.ambient is s["qe2-nonstd"].tower
    coideal = _assert_fails("coideal-cylinder", s)
    assert coideal.witness == (
        "coideal-v-leftleg[v]: right leg of Delta(v) grouped at v is outside B")
    ideal = _assert_fails("hopf-star-ideal-I", s)
    assert ideal.witness == "coideal[(pi x pi) delta(-1 + v)]: nonzero residual"


# the checks whose own run, not a sub-check, needs the coproduct of vb
@pytest.mark.parametrize("check_id", [
    "coideal-delta-m-exact",
    "closure-coinvariance-vb",
    "closure-coinvariance-m",
    "closure-coinvariance-side-printed",
    "closure-coinvariants-bounded",
])
def test_a_domain_error_of_a_check_fails_it_under_its_own_id(check_id):
    s = _inputs_with("qe2-nonstd", _DELTA_V_IS_V_N)
    assert _assert_fails(check_id, s).witness == "cannot invert monomial containing n"


def test_a_dependent_basis_fails_independence():
    s = suites._Inputs(4)
    s.__dict__["m"] = s.qe2("v + 1")  # m = v + 1 makes v^r m^s dependent
    record = _assert_fails("basis-v-r-m-s-independent", s)
    # v^-3 m = v^-2 + v^-3
    assert record.witness == "v^r m^s are dependent at (r, s) in [(-3, 0), (-3, 1), (-2, 0)]"


def test_the_rank_controls_move_the_circle_points():
    s = _inputs_with(*BROKEN_PRESETS["rank-std-circle-points"])
    record = suites.run_check("rank-std-circle-points", s)
    assert record.lhs.startswith("ranks [2, 2, 2]")
    assert record.witness == "ranks [2, 2, 2]"


def test_the_coboundary_witness_is_the_r_found():
    s = _inputs_with(*BROKEN_PRESETS["bialg-coboundary-std-empty"])
    record = _assert_fails("bialg-coboundary-std-empty", s)
    # the nonstandard cocommutator is the coboundary of omega J^P2, P2 = X - Y
    assert record.witness == "delta = ad r for r = (omega) J^X + (-omega) J^Y"


# the witness of each bialgebra control: where its check fails
BIALGEBRA_WITNESSES = {
    "bialg-lie-constants": "the brackets first differ at [J,X]",
    "bialg-linearize-std": "linearized delta(J) = 0, delta(X) = (1) J^X, delta(Y) = (1) J^Y",
    "bialg-linearize-nonstd-p1": "delta(P1) = (-2*omega) X^Y",
    "bialg-cocycle-std": "cocycle-(X,Y): cocycle condition violated",
    "bialg-cocycle-nonstd": "cocycle-(J,Y): cocycle condition violated",
}


@pytest.mark.parametrize("check_id", sorted(BIALGEBRA_WITNESSES))
def test_the_bialgebra_controls_say_where_they_fail(check_id):
    s = _inputs_with(*BROKEN_PRESETS[check_id])
    assert _assert_fails(check_id, s).witness == BIALGEBRA_WITNESSES[check_id]

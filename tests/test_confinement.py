"""One rule for sub-checks: a domain error fails its own sub-record.

``CheckReport.check`` records a sub-check from a thunk.  A ``TowerError``,
``ScalarError``, ``PoissonError`` or ``LieError`` raised inside the thunk
becomes that sub-record's fail, with the error text as witness; any other
exception propagates, so ``suites._record`` still turns an engine bug into
``internal-error[<check id>]``.

Each report builder gets an input that raises a domain error in some of its
sub-checks, made by one edit of an input on which the same sub-checks run
without error.  The edited report must keep every sub-record id of the
intact one, in order, and fail the raising ones with the error text.

A guard (``CheckReport.guard``) is what the sub-checks after it take for
granted, such as an ideal generator that the quotient map kills.  It is
recorded only when it fails, so an intact input keeps its sub-record ids; a
failing guard adds one record and the sub-checks still run, except those
that need what the guard could not give (the left legs of a coproduct that
cannot be computed).
"""

import pytest

from qe2 import catalog
from qe2.hopf import AlgebraMorphism, hopf_axioms_report, respects_relations_report
from qe2.homspace import coideal_report, hopf_star_ideal_report, quotient_check
from qe2.liebialg import (
    LieAlgebra,
    LieError,
    WedgeBivector,
    cocycle_cojacobi_report,
    stabilizer_invariance_check,
)
from qe2.ncalg import TowerError, load_tower
from qe2.poisson import (
    PoissonError,
    PoissonStructure,
    jacobi_report,
    poisson_ideal_check,
    poisson_morphism_report,
)
from qe2.report import FAIL, PASS, CheckReport
from qe2.scalars import Parameter, ScalarContext, ScalarError

from conftest import preset_dict

# a parameter power at the exponent bound's edge: one more factor of omega
# in a product raises ScalarError
BIG = "omega^2147483647"
OVERFLOW = "a parameter's exponent reached the bound 2147483648"
NO_INVERSE_N = "cannot invert monomial containing n"


# -- the method itself -----------------------------------------------------------


@pytest.mark.parametrize("error", [TowerError, ScalarError, PoissonError, LieError])
def test_a_domain_error_fails_its_own_record(error):
    rep = CheckReport("s")

    def raising():
        raise error("no such element")

    rep.check("before", lambda: (True, "", ""))
    rec = rep.check("raising", raising)
    rep.check("after", lambda: (False, "l", "r", "w"))
    assert rec.as_dict() == {
        "id": "raising", "paper_anchor": "", "status": FAIL,
        "lhs_canonical": "", "rhs_canonical": "", "witness": "no such element",
    }
    assert [(r.check_id, r.status) for r in rep.records] == [
        ("before", PASS), ("raising", FAIL), ("after", FAIL)]


def test_a_recorded_thunk_gives_what_verdict_records():
    by_check, by_verdict = CheckReport("s"), CheckReport("s")
    by_check.check("c", lambda: (False, "l", "r", "w", "discrepancy"))
    by_verdict.verdict("c", False, "l", "r", "w", "discrepancy")
    assert by_check == by_verdict


@pytest.mark.parametrize("error", [RuntimeError, ValueError, KeyError, ArithmeticError])
def test_any_other_error_propagates(error):
    rep = CheckReport("s")

    def raising():
        raise error("engine bug")

    with pytest.raises(error):
        rep.check("c", raising)
    assert rep.records == []


# -- every report builder ----------------------------------------------------------


def _bundle(preset_id, edit=None):
    raw = preset_dict(preset_id)
    if edit:
        edit(raw)
    return catalog.load_bundle(preset_id, raw, raw["kind"])


def _star_v_is_n(raw):
    # v* = n leaves the star of v^-1 without an image
    raw["star"]["v"] = "n"


def _hopf_axioms(broken):
    def edit(raw):
        raw["hopf"]["delta"]["v"] = "v (x) n"
    return hopf_axioms_report(_bundle("qe2-nonstd", edit if broken else None).hopf)


def _relations(broken):
    b = _bundle("fun-e2", _star_v_is_n if broken else None)
    return respects_relations_report(b.tower, b.hopf)


def _quotient(broken):
    tower = _bundle("qe2-nonstd").tower
    raw = preset_dict("quotient-I")
    if broken:
        raw["images"]["v"] = "t"  # v is invertible, t is not
    return quotient_check(catalog.quotient_on(tower, raw))


def _delta_v_is_v_n(raw):
    # v (x) n has no inverse, so neither has the coproduct of v^-1
    raw["hopf"]["delta"]["v"] = "v (x) n"


def _coideal_on(b):
    return coideal_report(catalog.subalgebra_on(b.tower, preset_dict("quantum-cylinder")), b.hopf)


def _coideal(broken):
    return _coideal_on(_bundle("qe2-nonstd", _star_v_is_n if broken else None))


def _coideal_coproduct(broken):
    return _coideal_on(_bundle("qe2-nonstd", _delta_v_is_v_n if broken else None))


def _hopf_star_ideal(broken, unkilled=False):
    b = _bundle("qe2-nonstd", _star_v_is_n if broken and not unkilled else None)
    raw = preset_dict("quotient-I")
    if broken and unkilled:
        raw["images"]["nb"] = "t + 1"  # pi(n - nb) = -1
    pi = catalog.quotient_on(b.tower, raw)
    return hopf_star_ideal_report([b.tower.poly("vb - 1"), b.tower.poly("n - nb")], pi, b.hopf)


def _four_generators():
    """A commutative tower on a, b, c, d with the parameter omega."""
    return load_tower({
        "name": "c4", "parameters": [{"name": "omega", "star": "negated"}],
        "tower": [{"gen": g} for g in "abcd"],
    })


def _bracket(tower, broken):
    """{a, b} = BIG*c (c when intact) and {c, d} = omega*d: only the
    brackets that multiply {a, b} by omega pass the exponent bound."""
    ab = f"{BIG}*c" if broken else "c"
    return PoissonStructure.load(tower, {"a,b": ab, "c,d": "omega*d"})


def _jacobi(broken):
    return jacobi_report(_bracket(_four_generators(), broken))


def _poisson_morphism(broken):
    t = _four_generators()
    phi = AlgebraMorphism.load(t, t, {"a": "omega*a", "b": "b", "c": "c", "d": "d"})
    return poisson_morphism_report(phi, PoissonStructure(t, {}), _bracket(t, broken))


def _poisson_ideal(broken, unkilled=False):
    t = _four_generators()
    b = "a" if broken and unkilled else "0"
    vanish = AlgebraMorphism.load(t, t, {"a": "a", "b": b, "c": "c", "d": "d"})
    return poisson_ideal_check(_bracket(t, broken and not unkilled), [t.poly("omega*b")], vanish)


def _cocycle(broken):
    # [J, X] = omega*X, delta(Y) = BIG J^X: ad_J delta(Y) passes the bound
    ctx = ScalarContext([Parameter("omega", "negated")])
    w = ctx.param("omega")
    g = LieAlgebra(ctx, "JXY", {(0, 1): {1: w}})
    zero = WedgeBivector(ctx, 3)
    big = w ** 2147483647 if broken else ctx.one
    return cocycle_cojacobi_report(g, (zero, zero, WedgeBivector(ctx, 3, {(0, 1): big})))


def _stabilizer(broken):
    b = catalog.get_preset("coaction-plane")
    st = b.stabilizer
    push = st["pushforward"]
    if broken:
        push = [row + [b.context.one] for row in push]  # a 3-dimensional tangent space
    return stabilizer_invariance_check(b.context, push, st["action"], st["delta_image"],
                                       st["rho"])


# report function (and what its broken input breaks) -> (the report on the intact or
# broken input, the sub-records that the broken input fails with their
# witness[, the guards among them, the intact sub-records that they stand in for])
CASES = {
    "hopf_axioms_report": (_hopf_axioms, {
        "star-coproduct-v": NO_INVERSE_N, "coassoc-n": NO_INVERSE_N}),
    "_relations_report": (_relations, {
        "star-on[n*v^-1]": NO_INVERSE_N, "star-on[nb*v^-1]": NO_INVERSE_N}),
    "quotient_check": (_quotient, {
        "invertible-image-v": "cannot invert monomial containing t",
        "respects[n*v^-1]": "cannot invert monomial containing t",
        "respects[nb*v^-1]": "cannot invert monomial containing t"}),
    "coideal_report": (_coideal, {
        "coideal-m-star": NO_INVERSE_N, "coideal-vb-star": NO_INVERSE_N}),
    "coideal_report, coproduct": (_coideal_coproduct, {
        "coideal-m-coproduct": NO_INVERSE_N, "coideal-vb-coproduct": NO_INVERSE_N},
        {"coideal-m-coproduct", "coideal-vb-coproduct"}, {
        "coideal-m-leftleg[1]", "coideal-m-leftleg[v*n]", "coideal-m-leftleg[v^-1*nb]",
        "coideal-vb-leftleg[v^-1]"}),
    "hopf_star_ideal_report": (_hopf_star_ideal, {
        "star[pi((v^-1 - 1)*)]": NO_INVERSE_N}),
    "hopf_star_ideal_report, unkilled generator": (
        lambda broken: _hopf_star_ideal(broken, unkilled=True),
        {"generator[pi(-nb + n)]": "pi does not kill the stated ideal generator -nb + n"},
        {"generator[pi(-nb + n)]"}, set()),
    "jacobi_report": (_jacobi, {"jacobi-(a,b,d)": OVERFLOW}),
    "poisson_morphism_report": (_poisson_morphism, {"poisson-morphism-(a,b)": OVERFLOW}),
    "poisson_ideal_check": (_poisson_ideal, {"poisson-ideal-gen0-vs-a": OVERFLOW}),
    "poisson_ideal_check, unkilled generator": (
        lambda broken: _poisson_ideal(broken, unkilled=True),
        {"poisson-ideal-gen0-killed":
         "the vanish morphism does not kill the stated ideal generator omega*b"},
        {"poisson-ideal-gen0-killed"}, set()),
    "cocycle_cojacobi_report": (_cocycle, {"cocycle-(J,Y)": OVERFLOW}),
    "stabilizer_invariance_check": (_stabilizer, {
        "stabilizer-invariance": "tangent space dimension must be 2"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_domain_error_fails_only_its_sub_record(case):
    make, raising, *extra = CASES[case]
    guards, replaced = extra or (set(), set())
    intact, broken = make(False), make(True)
    ids = [r.check_id for r in intact.records]
    # a guard that holds leaves no record
    assert guards <= set(raising) and not guards & set(ids)
    assert set(raising) - guards <= set(ids)
    assert replaced <= set(ids)
    assert [r.check_id for r in broken.records if r.check_id not in guards] == [
        i for i in ids if i not in replaced]
    by_id = {r.check_id: r for r in broken.records}
    assert {r.check_id for r in broken.records if r.witness in raising.values()} == set(raising)
    for check_id, witness in raising.items():
        rec = by_id[check_id]
        assert (rec.status, rec.witness) == (FAIL, witness)
        if check_id not in guards:
            assert (rec.lhs, rec.rhs) == ("", "")
    # the same sub-checks run without an error on the intact input
    assert not any(r.witness in raising.values() for r in intact.records)


def test_an_unkilled_generator_is_one_failing_record():
    rep = _hopf_star_ideal(True, unkilled=True)
    rec = next(r for r in rep.records if r.check_id == "generator[pi(-nb + n)]")
    assert (rec.lhs_canonical, rec.rhs_canonical) == ("-1", "0")
    # it stands before the sub-checks of its generator, which still run
    ids = [r.check_id for r in rep.records]
    assert ids[ids.index(rec.check_id) + 1] == "coideal[(pi x pi) delta(-nb + n)]"
    assert len(ids) == 9

"""A discrepancy's status depends on its display alone.

Each discrepancy record compares an engine value with what the manuscript
printed.  Thirteen displays are the ledger ``suites.DISPLAYED``, substituted
by ``s.displayed[check_id] = value``; three live in a shipped preset and are
substituted with the preset.  Putting the engine's value in place of a
display must turn that record into a pass and leave every other record as
it was, except where two records read the same display.
"""

import pytest

from qe2 import catalog, suites
from qe2.report import DISCREPANCY, PASS

# check id -> the engine's value, written as the ledger writes the display
ENGINE = {
    "bracket-table-std-n-nb": "-n*nb",
    "bracket-table-nonstd-n-nb": "omega*nb - omega*n",
    "covariance-plane-orientation": catalog._read("coaction-plane")["coaction"],
    "prop32-bracket-printed": "omega*(v - 1)^2",
    "field-relation-std-printed": {"v": "v^-1*n*nb", "n": "nb", "nb": "-n"},
    "field-relation-nonstd-printed": {"n": "v - v^2", "nb": "v - 1", "v": "n - nb"},
    "bialg-delta-p2-printed": "-omega P2^P1",
    "bialg-delta-j-printed": "omega P1^J",
    "tower-printed-nonstd-sign": catalog._read("qe2-nonstd")["tower"][2],
    "def41-second-relation-printed": "vb*m = m*vb + omega*(1 - vb^2)",
    "closure-coinvariance-side-printed": "right",
    "closure-sigma-m-printed": "n - nb + omega*(v^-1 - v)",
    "closure-s-v-minus-1-sign": "vb - 1",
}

# the discrepancies whose display is a key of a shipped preset
PRESET_HELD = (
    "family-cylinder-printed-member",  # coaction-cylinder's printed_family
    "relations-quantum-cylinder-star",  # quantum-cylinder's star table
    "def41-first-relation-vs-embedded",  # quantum-cylinder's level m
)


def _records(s):
    """Every record of the report, run on the inputs ``s``, by id."""
    return {
        check_id: suites.run_check(check_id, s).as_dict()
        for entries in suites.CHECKS.values() for check_id, _, _ in entries
    }


def _moved(s, shipped):
    """The records that differ from the shipped ones: id -> status."""
    records = _records(s)
    return {i: r["status"] for i, r in records.items() if r != shipped[i]}


@pytest.fixture(scope="module")
def shipped():
    return _records(suites._Inputs(4))


def test_every_discrepancy_has_one_display(shipped):
    discrepancies = {i for i, r in shipped.items() if r["status"] == DISCREPANCY}
    assert len(discrepancies) == 16
    assert set(suites.DISPLAYED) | set(PRESET_HELD) == discrepancies
    assert not set(suites.DISPLAYED) & set(PRESET_HELD)
    assert set(ENGINE) == set(suites.DISPLAYED)


@pytest.mark.parametrize("check_id", sorted(ENGINE))
def test_the_engine_value_as_display_passes(shipped, check_id):
    s = suites._Inputs(4)
    s.displayed[check_id] = ENGINE[check_id]
    assert _moved(s, shipped) == {check_id: PASS}
    # the substitution stays in its own inputs
    assert suites._Inputs(4).displayed == suites.DISPLAYED


def _inputs_with(preset_id, raw):
    """Fresh inputs whose preset ``preset_id`` has the presentation ``raw``."""
    s = suites._Inputs(4)
    s[preset_id] = catalog.load_bundle(preset_id, raw, raw["kind"])
    return s


def test_the_engine_family_member_as_printed_family_passes(shipped):
    raw = catalog._read("coaction-cylinder")
    s = _inputs_with("coaction-cylinder", {**raw, "printed_family": raw["engine_family_member"]})
    assert _moved(s, shipped) == {"family-cylinder-printed-member": PASS}


def test_a_star_table_that_agrees_passes(shipped):
    raw = catalog._read("quantum-cylinder")
    s = _inputs_with("quantum-cylinder", {**raw, "star": {**raw["star"], "m": "m"}})
    assert _moved(s, shipped) == {"relations-quantum-cylinder-star": PASS}


def test_the_covariant_first_relation_passes(shipped):
    # v*m = m*v + omega*(v - 1)^2, the bracket of the embedded m
    raw = catalog._read("quantum-cylinder")
    level = {**raw["tower"][1], "delta": {"v": "-omega*v^2 + 2*omega*v - omega"}}
    s = _inputs_with("quantum-cylinder", {**raw, "tower": [raw["tower"][0], level]})
    # the star table and the second relation are read against the same
    # relation: the star now agrees, and the second display still does not
    assert _moved(s, shipped) == {
        "def41-first-relation-vs-embedded": PASS,
        "relations-quantum-cylinder-star": PASS,
        "def41-second-relation-printed": DISCREPANCY,
    }

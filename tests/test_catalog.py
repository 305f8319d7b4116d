import pytest

from qe2 import catalog
from qe2.liebialg import cocycle_cojacobi_report
from qe2.ncalg import diamond_check
from qe2.poisson import jacobi_report


def test_every_preset_loads_and_self_checks():
    for pid, _, _ in catalog.list_presets():
        b = catalog.get_preset(pid)
        assert b.preset_id == pid
        if b.tower is not None and not b.tower.commutative:
            assert diamond_check(b.tower).ok
        if b.poisson is not None:
            assert jacobi_report(b.poisson).clean
        if b.kind == "coaction":
            assert jacobi_report(b.group_poisson).clean
            assert jacobi_report(b.space_poisson).clean
        if b.cocommutator is not None:
            assert cocycle_cojacobi_report(b.lie, b.cocommutator).clean


def test_list_presets():
    listed = catalog.list_presets()
    assert len(listed) >= 15
    ids = [pid for pid, _, _ in listed]
    assert "quantum-cylinder" in ids
    anchors = dict((pid, anchor) for pid, anchor, _ in listed)
    assert "4.1" in anchors["quantum-cylinder"]
    for pid in ids:
        assert catalog.get_preset(pid).preset_id == pid


def test_get_preset_idempotent():
    a = catalog.get_preset("qe2-nonstd")
    b = catalog.get_preset("qe2-nonstd")
    assert a is b


def test_unknown_preset():
    with pytest.raises(catalog.UnknownPreset):
        catalog.get_preset("does-not-exist")


def test_qe2_bundle_contents():
    b = catalog.get_preset("qe2-nonstd")
    assert b.tower.nlevels == 3
    assert b.hopf is not None
    assert b.context.names == ("omega",)
    assert b.context.parameters[0].star_rule == "negated"


def test_quantum_plane_relation():
    b = catalog.get_preset("quantum-plane")
    t = b.tower
    assert t.poly("zb*z") == t.poly("q^-1*z*zb")


def test_quantum_cylinder_embedding():
    amb = catalog.get_preset("qe2-nonstd").tower
    B = catalog.subalgebra_on(amb, catalog.get_preset("quantum-cylinder").raw)
    assert B.ambient is amb
    assert list(B.generators) == ["v", "m", "vb"]
    assert B.generators["m"] == amb.poly("vb*nb - v*n")
    assert B.generators["vb"] == amb.poly("v^-1")


def test_a_preset_loads_from_its_own_file_alone(monkeypatch):
    monkeypatch.setattr(catalog, "_CACHE", {})
    qc = catalog.get_preset("quantum-cylinder")
    qi = catalog.get_preset("quotient-I")
    assert list(catalog._CACHE) == ["quantum-cylinder", "quotient-I"]
    # each holds the tower of its own file: the standalone cylinder, and
    # the quotient's target
    assert [g.name for g in qc.tower.generators] == ["v", "m"]
    assert [g.name for g in qi.tower.generators] == ["t"]
    assert not {"quotient", "embedded_subalgebra"} & set(catalog.PresetBundle._fields)


# the part of a bundle that each kind of preset builds
KIND_PARTS = {
    "hopf-algebra": "hopf", "algebra": "tower", "poisson": "poisson", "quotient": "tower",
    "coaction": "coaction", "lie": "lie", "bialgebra": "cocommutator",
}


def test_load_bundle_builds_every_kind():
    kinds = set()
    for pid in catalog.PRESET_IDS:
        raw = catalog._read(pid)
        b = catalog.load_bundle(pid, raw, raw["kind"])
        assert getattr(b, KIND_PARTS[b.kind]) is not None, pid
        kinds.add(b.kind)
    assert kinds == set(KIND_PARTS)
    with pytest.raises(catalog.UnknownPreset, match="unknown kind 'group'"):
        catalog.load_bundle("x", {"tower": []}, "group")


def test_digests_stable():
    d1 = catalog.preset_digests()
    d2 = catalog.preset_digests()
    assert d1 == d2
    assert len(d1) == 15

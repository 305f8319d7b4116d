"""Which layers a fresh process loads.  Loading a preset imports the
analysis layers (``homspace``, ``liebialg``) only when that preset builds
objects from them, printing or diamond-checking a tower never imports
the tensor layer, only ``qe2 check`` imports the suites, and no qe2 run
imports ``fractions``.  Each check runs in a subprocess, because the test
session itself has imported every module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qe2

SRC = Path(qe2.__file__).resolve().parents[1]

LIGHT_PRESETS = (
    "fun-e2", "std-poisson", "nonstd-poisson", "plane-poisson",
    "cylinder-poisson", "qe2-nonstd", "quantum-plane",
)
WATCHED = ("qe2.homspace", "qe2.liebialg", "qe2.suites", "qe2.cli", "_hashlib")


def _run(code: str):
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize(
    "preset,brings",
    [
        ("quotient-I", "qe2.homspace"),
        ("quantum-cylinder", "qe2.homspace"),
        ("e2-lie", "qe2.liebialg"),
        ("coaction-plane", "qe2.liebialg"),
    ],
)
def test_preset_loads_import_only_the_layers_they_use(preset, brings):
    code = (
        "import json, sys\n"
        "from qe2 import catalog\n"
        f"watched = {WATCHED!r}\n"
        "loaded = lambda: [m for m in watched if m in sys.modules]\n"
        f"for pid in {LIGHT_PRESETS!r}:\n"
        "    catalog.get_preset(pid)\n"
        "light = loaded()\n"
        f"catalog.get_preset({preset!r})\n"
        "print(json.dumps([light, loaded()]))\n"
    )
    light, heavy = _run(code)
    assert light == []
    assert heavy == [brings]


def test_printing_and_a_failing_diamond_check_leave_the_tensor_layer_unloaded():
    # the manuscript's printed (n, nb) rule: not confluent, so the check
    # formats both reductions of its witness word
    code = (
        "import importlib.resources, json, sys\n"
        "import qe2\n"
        "ref = importlib.resources.files('qe2') / 'presets' / 'qe2-nonstd.json'\n"
        "raw = json.loads(ref.read_text())\n"
        "nb = {'gen': 'nb', 'sigma': {'v': 'v', 'n': 'n + omega'},\n"
        "      'delta': {'v': 'omega*v^2 - omega*v', 'n': '-omega*n'}}\n"
        "tower = qe2.load_tower({**raw, 'tower': raw['tower'][:2] + [nb]}, validate=False)\n"
        "res = qe2.diamond_check(tower, 3)\n"
        "text = qe2.format_canonical(tower.poly('nb*n'))\n"
        "print(json.dumps([res.ok, res.left_form, text, 'qe2.hopf' in sys.modules]))\n"
    )
    ok, left_form, text, hopf_loaded = _run(code)
    assert not ok and left_form
    # nb*n = sigma(n)*nb + delta(n) = (n + omega)*nb - omega*n
    assert text == "omega*nb - omega*n + n*nb"
    assert not hopf_loaded


def test_a_one_shot_command_leaves_the_suites_and_analysis_layers_unloaded():
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qe2", "normal-form", "qe2-nonstd", "n*v"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert (out.returncode, out.stdout) == (0, "-omega + omega*v + v*n\n")
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in out.stderr.splitlines() if line.startswith("import time:")
    }
    assert {"qe2.cli", "qe2.catalog", "qe2.hopf"} <= imported
    assert not imported & {"qe2.suites", "qe2.homspace", "qe2.liebialg"}


def test_fractions_stays_off_the_import_path():
    # a rational literal, a non-integral point and a whole check run make
    # no Fraction; scalars._Q still names the type of GaussRational.re
    code = (
        "import contextlib, io, json, sys\n"
        "import qe2, qe2.catalog, qe2.cli\n"
        "from qe2 import catalog\n"
        "for pid in catalog.PRESET_IDS:\n"
        "    catalog.get_preset(pid)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [\n"
        "        qe2.cli.main(['normal-form', 'qe2-nonstd', '3/4*v - 1/2*omega^-1']),\n"
        "        qe2.cli.main(['rank', 'nonstd-poisson', '--at', 'v=3/5,n=1/2,nb=0', '--param', 'omega=1']),\n"
        "        qe2.cli.main(['check', 'all', '--format', 'json']),\n"
        "    ]\n"
        "loaded = [m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules]\n"
        "half = qe2.GaussRational(1) / 2\n"
        "print(json.dumps([codes, loaded, str(half.re), repr(qe2.scalars._Q)]))\n"
    )
    codes, loaded, re, q = _run(code)
    assert codes == [0, 0, 2]
    assert loaded == []
    assert re == "1/2" and q == "<class 'fractions.Fraction'>"

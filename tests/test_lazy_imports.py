"""Which layers a fresh process loads.  Loading a preset imports the
analysis layer ``liebialg`` only when that preset builds objects from it,
``homspace`` loads with the first join of two presets, printing or
diamond-checking a tower never imports the tensor layer, only ``qe2
check`` imports the suites, no qe2 run imports ``fractions``, and a gcd
loads Brown's algorithm (``modgcd``) only when neither the images nor a
linear operand settle it.  Each check runs in
a subprocess, because the test session itself has imported every module."""

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
    "cylinder-poisson", "qe2-nonstd", "quantum-plane", "quantum-cylinder",
    "quotient-I",
)
WATCHED = ("qe2.homspace", "qe2.liebialg", "qe2.suites", "qe2.cli", "_hashlib")


def _run(code: str, *flags):
    out = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _after_the_light_presets(step):
    """The watched modules loaded after the light presets, and after
    ``step`` too."""
    code = (
        "import json, sys\n"
        "from qe2 import catalog\n"
        f"watched = {WATCHED!r}\n"
        "loaded = lambda: [m for m in watched if m in sys.modules]\n"
        f"for pid in {LIGHT_PRESETS!r}:\n"
        "    catalog.get_preset(pid)\n"
        "light = loaded()\n"
        f"{step}\n"
        "print(json.dumps([light, loaded()]))\n"
    )
    return _run(code)


@pytest.mark.parametrize(
    "preset,brings",
    [
        ("e2-lie", "qe2.liebialg"),
        ("coaction-plane", "qe2.liebialg"),
    ],
)
def test_preset_loads_import_only_the_layers_they_use(preset, brings):
    light, heavy = _after_the_light_presets(f"catalog.get_preset({preset!r})")
    assert light == []
    assert heavy == [brings]


@pytest.mark.parametrize(
    "preset,join",
    [("quotient-I", "quotient_on"), ("quantum-cylinder", "subalgebra_on")],
)
def test_a_join_imports_homspace(preset, join):
    # the preset itself loaded with the light ones; only its join on the
    # tower of qe2-nonstd brings the homogeneous-space layer
    light, heavy = _after_the_light_presets(
        f"catalog.{join}(catalog.get_preset('qe2-nonstd').tower, "
        f"catalog.get_preset({preset!r}).raw)"
    )
    assert light == []
    assert heavy == ["qe2.homspace"]


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
    # no Fraction; scalars._Q still names Fraction, the backend that the
    # benchmark worker stamps its runs with
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
        "print(json.dumps([codes, loaded, str(half), repr(qe2.scalars._Q)]))\n"
    )
    codes, loaded, re, q = _run(code)
    assert codes == [0, 0, 2]
    assert loaded == []
    assert re == "1/2" and q == "<class 'fractions.Fraction'>"


def test_a_multivariate_gcd_imports_neither_random_nor_fractions():
    # x / y needs gcd(num x, num y) = 1 in three parameters, which the
    # primitive PRS took minutes to find.  The gcd uses fixed tables of
    # primes and points, so it needs no random source, and images prove this
    # pair coprime, so Brown's algorithm (qe2.modgcd) is not even loaded.
    # -S leaves out site, whose .pth files may import random themselves.
    code = (
        "import json, sys\n"
        "from qe2.scalars import GaussRational as G, Parameter, ScalarContext\n"
        "ctx = ScalarContext([Parameter('omega', 'negated'), Parameter('k'), Parameter('q')])\n"
        "w, k, q = (ctx.param(n) for n in ('omega', 'k', 'q'))\n"
        "c = lambda re, im, d=1: ctx.from_gauss(G(re, im)) / d\n"
        "x = -c(1, -13, 17)*w**5 - c(1, 4, 17)*w**4*k - c(14, 5, 17)\n"
        "y = (c(1, 1)*w**6*k*q - c(3, 1)*w**5 - c(1, 3)*q) / (c(2, 3)*w*k - c(3, -3)*k*q)\n"
        "text = (x / y).text()\n"
        "watched = ('random', 'fractions', 'qe2.modgcd')\n"
        "print(json.dumps([text, [m for m in watched if m in sys.modules]]))\n"
    )
    text, loaded = _run(code, "-S")
    assert loaded == []
    assert text == (
        "(-(9/17-32/17*i)*omega^6*k - (1/34+21/34*i)*omega^5*k^2"
        " - (39/17+3/17*i)*omega^5*k*q + (12/17-3/17*i)*omega^4*k^2*q"
        " - (65/34+39/34*i)*omega*k + (15/17-42/17*i)*k*q)"
        "/(omega^6*k*q - (2-i)*omega^5 - (2+i)*q)"
    )


def test_gcds_with_one_plus_omega_leave_brown_unloaded():
    # the gcds that the benchmark's random identities take: 1 + omega
    # against a multiple of it, which images cannot prove coprime, so a
    # linear operand settles them without Brown's algorithm (qe2.modgcd)
    code = (
        "import json, sys\n"
        "from qe2.scalars import Parameter, ScalarContext\n"
        "w = ScalarContext([Parameter('omega', 'negated')]).param('omega')\n"
        "texts = [((w**2 - 1) / (w + 1)).text(), (1 / (1 + w)**3 + w / (1 + w)**3).text()]\n"
        "print(json.dumps([texts, 'qe2.modgcd' in sys.modules]))\n"
    )
    texts, loaded = _run(code)
    assert texts == ["omega - 1", "(1)/(omega^2 + 2*omega + 1)"]
    assert not loaded

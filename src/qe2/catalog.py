"""Preset catalog: every structure ships as a canonical JSON file under
``qe2/presets/`` and loads into a typed bundle.

Bundles are cached, so repeated ``get_preset`` calls return the identical
object graph.  ``preset_digests`` gives the sha256 of each canonicalized
file, which the report emitter embeds for reproducibility.

Importing the catalog loads the tower, Hopf and Poisson layers, which
every algebra, Hopf-algebra, Poisson and coaction preset builds.  The
analysis layers load with the first preset that needs them: ``homspace``
with a quotient preset and with quantum-cylinder's embedding,
``liebialg`` with a coaction stabilizer and with the lie and bialgebra
presets.
"""

from __future__ import annotations

import importlib.resources
import json
from typing import TYPE_CHECKING

from . import exprio

# hopf and poisson stay eager: the benchmark's tracer wraps only modules
# already imported when it installs
from .hopf import AlgebraMorphism, load_hopf
from .ncalg import OreTower, load_tower
from .poisson import PoissonStructure
from .record import Record
from .scalars import Parameter, Scalar, ScalarContext

if TYPE_CHECKING:
    from .homspace import QuotientMap

PRESET_IDS = (
    "fun-e2",
    "std-poisson",
    "nonstd-poisson",
    "plane-poisson",
    "cylinder-poisson",
    "qe2-nonstd",
    "quantum-plane",
    "quantum-cylinder",
    "quotient-I",
    "quotient-circle",
    "coaction-plane",
    "coaction-cylinder",
    "e2-lie",
    "std-bialg",
    "nonstd-bialg",
)


class UnknownPreset(KeyError):
    pass


class PresetBundle(Record):
    """One loaded preset.  Which of the optional parts (the slots after
    ``context``) are set depends on ``kind``; the others stay None, and
    ``ansatz`` an empty list."""

    __slots__ = _fields = (
        "preset_id", "kind", "anchor", "description", "raw", "context",
        "tower", "hopf", "poisson",
        # quotient bundles
        "source_id", "quotient",
        # coaction bundles
        "group_tower", "space_tower", "group_poisson", "space_poisson",
        "coaction", "projection", "ansatz", "stabilizer",
        # lie / bialgebra bundles
        "lie", "cocommutator",
        # embedded realization (quantum cylinder inside qe2-nonstd)
        "embedded_subalgebra", "embedded_ambient",
    )

    def __init__(
        self,
        preset_id: str,
        kind: str,
        anchor: str,
        description: str,
        raw: dict,
        context: ScalarContext,
    ):
        self.preset_id = preset_id
        self.kind = kind
        self.anchor = anchor
        self.description = description
        self.raw = raw
        self.context = context
        for name in self._fields[6:]:
            setattr(self, name, None)
        self.ansatz = []


_CACHE: dict = {}


def _read(preset_id: str) -> dict:
    try:
        ref = importlib.resources.files("qe2") / "presets" / f"{preset_id}.json"
        text = ref.read_text()
    except FileNotFoundError:
        raise UnknownPreset(preset_id) from None
    return json.loads(text)


def _context_of(raw: dict) -> ScalarContext:
    return ScalarContext(
        [Parameter(p["name"], p.get("star", "fixed")) for p in raw.get("parameters", ())]
    )


def quotient_on(source: OreTower, raw: dict) -> QuotientMap:
    """The quotient preset ``raw`` as a map on the tower ``source``: the
    target tower is built over the source's scalar context, the images are
    parsed in the target and the kernel generators in ``source``."""
    from .homspace import QuotientMap

    target = load_tower(
        {**raw["target"], "parameters": raw.get("parameters", [])},
        context=source.context,
    )
    return QuotientMap.load_quotient(source, target, raw)


def _matrix(ctx, rows):
    return [
        [c if isinstance(c, Scalar) else ctx.from_int(c) for c in row] for row in rows
    ]


_ALGEBRA_KINDS = ("hopf-algebra", "algebra", "poisson")


def load_bundle(preset_id: str, raw: dict, kind: str) -> PresetBundle:
    """A bundle of the presentation ``raw``: the parts every kind has, and
    for an algebra kind its tower, and its Hopf structure and Poisson
    bracket when ``raw`` has them."""
    bundle = PresetBundle(
        preset_id, kind, raw.get("anchor", ""), raw.get("description", ""),
        raw, _context_of(raw),
    )
    if kind in _ALGEBRA_KINDS:
        tower = bundle.tower = load_tower(raw, context=bundle.context)
        if "hopf" in raw:
            bundle.hopf = load_hopf(tower, raw["hopf"])
        if "poisson" in raw:
            bundle.poisson = PoissonStructure.load(tower, raw["poisson"])
    return bundle


def get_preset(preset_id: str) -> PresetBundle:
    """Load (and cache) a preset bundle; unknown ids raise UnknownPreset."""
    if preset_id in _CACHE:
        return _CACHE[preset_id]
    if preset_id not in PRESET_IDS:
        raise UnknownPreset(preset_id)
    raw = _read(preset_id)
    kind = raw.get("kind", "algebra")
    bundle = load_bundle(preset_id, raw, kind)
    ctx = bundle.context
    if kind in _ALGEBRA_KINDS:
        if "embedding" in raw:
            from .homspace import Subalgebra

            amb = get_preset(raw["embedding"]["ambient"])
            images = raw["embedding"]["images"]
            gens = {name: amb.tower.poly(expr) for name, expr in images.items()}
            gens["vb"] = amb.tower.poly("v^-1")
            bundle.embedded_ambient = amb
            bundle.embedded_subalgebra = Subalgebra(
                amb.tower, gens, laurent="v", poly="m", counters=("n", "nb")
            )
    elif kind == "quotient":
        bundle.source_id = raw["source"]
        bundle.quotient = quotient_on(get_preset(raw["source"]).tower, raw)
        bundle.tower = bundle.quotient.target
    elif kind == "coaction":
        group = load_tower(
            {**raw["group"], "parameters": raw["parameters"]}, context=ctx
        )
        space = load_tower(
            {**raw["space"], "parameters": raw["parameters"]}, context=ctx
        )
        bundle.group_tower = group
        bundle.space_tower = space
        bundle.group_poisson = PoissonStructure.load(group, raw["group"]["poisson"])
        bundle.space_poisson = PoissonStructure.load(space, raw["space"]["poisson"])
        bundle.coaction = AlgebraMorphism.load(space, (group, space), raw["coaction"])
        if "projection" in raw:
            bundle.projection = AlgebraMorphism.load(
                space, group, raw["projection"]
            )
        bundle.ansatz = [space.poly(t) for t in raw.get("ansatz", ())]
        if "stabilizer" in raw:
            from .liebialg import WedgeBivector

            st = raw["stabilizer"]
            dim = len(st["pushforward"])
            # delta_image ships as an (i, j) upper-triangular matrix of
            # wedge coefficients (zero matrices in the current presets,
            # kept explicit for auditability)
            coeffs = {}
            for i, row in enumerate(st.get("delta_image", ())):
                for j, v in enumerate(row):
                    if i < j and v:
                        coeffs[(i, j)] = ctx.from_int(v)
            bundle.stabilizer = {
                "action": _matrix(ctx, st["action"]),
                "delta_image": WedgeBivector(ctx, dim, coeffs),
                "pushforward": _matrix(ctx, st["pushforward"]),
                "rho": exprio.parse_scalar(ctx, st["rho"]),
            }
    elif kind in ("lie", "bialgebra"):
        from .liebialg import Cocommutator, LieAlgebra

        bundle.lie = LieAlgebra.load(ctx, raw)
        if kind == "bialgebra":
            bundle.cocommutator = Cocommutator.load(ctx, raw["basis"], raw["cocommutator"])
    else:
        raise UnknownPreset(f"{preset_id}: unknown kind {kind!r}")
    _CACHE[preset_id] = bundle
    return bundle


def list_presets():
    """Stable-order (id, anchor, one-line description) triples."""
    out = []
    for pid in PRESET_IDS:
        raw = _read(pid)
        out.append((pid, raw.get("anchor", ""), raw.get("description", "")))
    return out


def preset_digests():
    """sha256 of each preset's canonicalized JSON, by id."""
    import hashlib

    return {
        pid: hashlib.sha256(
            json.dumps(_read(pid), sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        for pid in PRESET_IDS
    }

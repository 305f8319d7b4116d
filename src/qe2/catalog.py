"""Preset catalog: every structure ships as a canonical JSON file under
``qe2/presets/`` and loads into a typed bundle.

Bundles are cached, so repeated ``get_preset`` calls return the identical
object graph; the digest field is the sha256 of the canonicalized file
content, which the report emitter embeds for reproducibility.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
from typing import Optional

from . import exprio
from .hopf import AlgebraMorphism, HopfStructure, load_hopf
from .homspace import QuotientMap, Subalgebra
from .liebialg import Cocommutator, LieAlgebra, WedgeBivector
from .ncalg import OreTower, load_tower
from .poisson import PoissonStructure
from .record import Record
from .scalars import Parameter, Scalar, ScalarContext

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
    """One loaded preset.  Which of the optional parts are set depends on
    ``kind``."""

    __slots__ = _fields = (
        "preset_id", "kind", "anchor", "description", "raw", "digest", "context",
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
        digest: str,
        context: ScalarContext,
        tower: Optional[OreTower] = None,
        hopf: Optional[HopfStructure] = None,
        poisson: Optional[PoissonStructure] = None,
        source_id: Optional[str] = None,
        quotient: Optional[QuotientMap] = None,
        group_tower: Optional[OreTower] = None,
        space_tower: Optional[OreTower] = None,
        group_poisson: Optional[PoissonStructure] = None,
        space_poisson: Optional[PoissonStructure] = None,
        coaction: Optional[AlgebraMorphism] = None,
        projection: Optional[AlgebraMorphism] = None,
        ansatz: Optional[list] = None,
        stabilizer: Optional[dict] = None,
        lie: Optional[LieAlgebra] = None,
        cocommutator: Optional[Cocommutator] = None,
        embedded_subalgebra: Optional[Subalgebra] = None,
        embedded_ambient: Optional["PresetBundle"] = None,
    ):
        self.preset_id = preset_id
        self.kind = kind
        self.anchor = anchor
        self.description = description
        self.raw = raw
        self.digest = digest
        self.context = context
        self.tower = tower
        self.hopf = hopf
        self.poisson = poisson
        self.source_id = source_id
        self.quotient = quotient
        self.group_tower = group_tower
        self.space_tower = space_tower
        self.group_poisson = group_poisson
        self.space_poisson = space_poisson
        self.coaction = coaction
        self.projection = projection
        self.ansatz = [] if ansatz is None else ansatz
        self.stabilizer = stabilizer
        self.lie = lie
        self.cocommutator = cocommutator
        self.embedded_subalgebra = embedded_subalgebra
        self.embedded_ambient = embedded_ambient


_CACHE: dict = {}


def _read(preset_id: str) -> tuple:
    try:
        ref = importlib.resources.files("qe2") / "presets" / f"{preset_id}.json"
        text = ref.read_text()
    except FileNotFoundError:
        raise UnknownPreset(preset_id) from None
    raw = json.loads(text)
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return raw, digest


def _context_of(raw: dict) -> ScalarContext:
    return ScalarContext(
        [Parameter(p["name"], p.get("star", "fixed")) for p in raw.get("parameters", ())]
    )


def quotient_on(source: OreTower, raw: dict) -> QuotientMap:
    """The quotient preset ``raw`` as a map on the tower ``source``: the
    target tower is built over the source's scalar context, the images are
    parsed in the target and the kernel generators in ``source``."""
    target = load_tower(
        {**raw["target"], "parameters": raw.get("parameters", [])},
        context=source.context,
    )
    return QuotientMap.load_quotient(source, target, raw)


def _matrix(ctx, rows):
    return [
        [c if isinstance(c, Scalar) else ctx.from_int(c) for c in row] for row in rows
    ]


def get_preset(preset_id: str) -> PresetBundle:
    """Load (and cache) a preset bundle; unknown ids raise UnknownPreset."""
    if preset_id in _CACHE:
        return _CACHE[preset_id]
    if preset_id not in PRESET_IDS:
        raise UnknownPreset(preset_id)
    raw, digest = _read(preset_id)
    kind = raw.get("kind", "algebra")
    ctx = _context_of(raw)
    bundle = PresetBundle(
        preset_id=preset_id,
        kind=kind,
        anchor=raw.get("anchor", ""),
        description=raw.get("description", ""),
        raw=raw,
        digest=digest,
        context=ctx,
    )
    if kind in ("hopf-algebra", "algebra", "poisson"):
        tower = load_tower(raw, context=ctx)
        bundle.tower = tower
        if "hopf" in raw:
            bundle.hopf = load_hopf(tower, raw["hopf"])
        if "poisson" in raw:
            bundle.poisson = PoissonStructure.load(tower, raw["poisson"])
        if "embedding" in raw:
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
    elif kind == "lie":
        bundle.lie = LieAlgebra.load(ctx, raw)
    elif kind == "bialgebra":
        bundle.lie = LieAlgebra.load(ctx, raw)
        bundle.cocommutator = Cocommutator.load(ctx, raw["basis"], raw["cocommutator"])
    else:
        raise UnknownPreset(f"{preset_id}: unknown kind {kind!r}")
    _CACHE[preset_id] = bundle
    return bundle


def list_presets():
    """Stable-order (id, anchor, one-line description) triples."""
    out = []
    for pid in PRESET_IDS:
        raw, _ = _read(pid)
        out.append((pid, raw.get("anchor", ""), raw.get("description", "")))
    return out


def preset_digests():
    return {pid: _read(pid)[1] for pid in PRESET_IDS}

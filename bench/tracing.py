"""Span tracing for the traced benchmark run, installed from outside qe2.

``Tracer.install`` wraps the public functions of each layer listed in
``SPAN_TARGETS``, at every place a qe2 module binds them (``suites`` takes
``hopf_axioms_report`` and friends by ``from ... import``, and keeps its
suite functions in the ``SUITES`` registry).  Each call records a span
``[id, parent_id, name, start, end]`` in memory.  The ``scalars`` layer is
too hot for a span per call: its operations are counted and their busy
time summed instead.  ``Tracer.uninstall`` puts every original back, and
``leaks`` finds any wrapper left behind.

A span's self time is its duration minus the time its direct children
cover; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

perf = time.perf_counter

# span name -> (module, class or None, attribute) of each wrapped function
SPAN_TARGETS = {
    "ncalg.diamond": [("qe2.ncalg", None, "diamond_check")],
    "ncalg.mul": [("qe2.ncalg", "OreTower", "mul")],
    "ncalg.normal_form": [("qe2.ncalg", "OreTower", "word_to_poly")],
    "ncalg.span_solve": [("qe2.ncalg", None, "span_solve")],
    "ncalg.load_tower": [("qe2.ncalg", None, "load_tower")],
    "exprio.parse": [
        ("qe2.exprio", None, "parse_expr"),
        ("qe2.exprio", None, "elaborate_expr"),
    ],
    "exprio.format": [("qe2.exprio", None, "format_canonical")],
    "hopf.coproduct": [("qe2.hopf", "HopfStructure", "coproduct")],
    "hopf.antipode": [("qe2.hopf", "HopfStructure", "antipode")],
    "hopf.tensor_mul": [("qe2.hopf", "TensorElement", "__mul__")],
    "hopf.reports": [
        ("qe2.hopf", None, "hopf_axioms_report"),
        ("qe2.hopf", None, "respects_relations_report"),
    ],
    "poisson.bracket": [("qe2.poisson", "PoissonStructure", "bracket")],
    "poisson.reports": [
        ("qe2.poisson", None, "jacobi_report"),
        ("qe2.poisson", None, "poisson_morphism_report"),
        ("qe2.poisson", None, "poisson_ideal_check"),
        ("qe2.poisson", "AlgebraMorphism", "validate"),
    ],
    "poisson.family_solve": [("qe2.poisson", None, "covariant_family_solve")],
    "poisson.rank": [("qe2.poisson", None, "poisson_matrix_rank")],
    "homspace.coinvariance": [
        ("qe2.homspace", None, "coinvariance_check"),
        ("qe2.homspace", None, "coinvariance_residual"),
    ],
    "homspace.ideal_member": [("qe2.homspace", None, "ideal_member")],
    "catalog.get_preset": [("qe2.catalog", None, "get_preset")],
    "report.emit": [("qe2.report", "CheckReport", "to_json")],
    "cli.main": [("qe2.cli", None, "main")],
}
for _fn in (
    "ad_wedge", "lie_from_group", "linearize_poisson", "cocycle_cojacobi_report",
    "coboundary_solve", "coboundary_cocommutator", "stabilizer_invariance_check",
):
    SPAN_TARGETS[f"liebialg.{_fn}"] = [("qe2.liebialg", None, _fn)]
for _fn in (
    "subalgebra_membership", "quotient_check", "coideal_report",
    "hopf_star_ideal_report", "sigma_generators",
):
    SPAN_TARGETS[f"homspace.{_fn}"] = [("qe2.homspace", None, _fn)]
SUITE_FUNCTIONS = (
    "jacobi", "multiplicativity", "covariance", "families", "foliation",
    "bialgebra", "diamond", "hopf_axioms", "relations", "coideal",
    "hopf_ideal", "closure",
)
for _fn in SUITE_FUNCTIONS:
    SPAN_TARGETS[f"suites.{_fn}"] = [("qe2.suites", None, f"suite_{_fn}")]

# scalar operation -> the Scalar methods counted as it (aliases such as
# __radd__ = __add__ are found and wrapped too)
SCALAR_OPS = {
    "mul": ("__mul__",),
    "add": ("__add__", "__sub__", "__rsub__"),
    "div": ("__truediv__", "__rtruediv__"),
}

# counted by the hooks in Tracer, not derived from spans
COUNTERS = ("ncalg.diamond_words", "catalog.presets_loaded")

WRAPPER_MARK = "_qe2bench_wrapper"

# (metric, unit, better) of the traced run.  "<span>_calls" counts calls of
# that span name, "<span>_s" is its busy time (a call nested in a call of the
# same name counted once), "suites.<fn>_s" is self time, "<layer>.busy_s"
# the busy time of every span of that layer; the rest are named below.
#
# The end-to-end metric each group should move, and on which workload:
#   scalars.*           job_s everywhere; general_den_share is 0 on check-all
#                       and diamond-deep, so a gcd-path change moves only
#                       random-identities
#   ncalg.diamond_*     job_s on diamond-deep (most of it); on check-all job_s
#                       through the diamond suite and setup_s through the
#                       degree-3 check at load; 0 on random-identities
#   other ncalg.*       job_s everywhere; load_tower_s moves setup_s
#   exprio.*            on check-all, setup_s (parse) and job_s (format)
#   hopf.*, poisson.*   job_s on random-identities, then check-all
#   liebialg, homspace  job_s on check-all only
#   catalog.*           setup_s
#   suites.*            job_s on check-all
#   report, cli, import process_s and setup_s
PER_LAYER = (
    [
        ("scalars.mul_calls", "count", "lower"),
        ("scalars.add_calls", "count", "lower"),
        ("scalars.div_calls", "count", "lower"),
        ("scalars.busy_s", "s", "lower"),
        ("scalars.general_den_share", "share", "lower"),
        ("ncalg.diamond_calls", "count", "lower"),
        ("ncalg.diamond_s", "s", "lower"),
        ("ncalg.diamond_words", "count", "lower"),
        ("ncalg.mul_calls", "count", "lower"),
        ("ncalg.mul_s", "s", "lower"),
        ("ncalg.normal_form_calls", "count", "lower"),
        ("ncalg.normal_form_s", "s", "lower"),
        ("ncalg.span_solve_calls", "count", "lower"),
        ("ncalg.span_solve_s", "s", "lower"),
        ("ncalg.load_tower_s", "s", "lower"),
        ("exprio.parse_calls", "count", "lower"),
        ("exprio.parse_s", "s", "lower"),
        ("exprio.format_calls", "count", "lower"),
        ("exprio.format_s", "s", "lower"),
        ("hopf.coproduct_calls", "count", "lower"),
        ("hopf.coproduct_s", "s", "lower"),
        ("hopf.antipode_s", "s", "lower"),
        ("hopf.tensor_mul_calls", "count", "lower"),
        ("hopf.tensor_mul_s", "s", "lower"),
        ("hopf.reports_s", "s", "lower"),
        ("poisson.bracket_calls", "count", "lower"),
        ("poisson.bracket_s", "s", "lower"),
        ("poisson.reports_s", "s", "lower"),
        ("poisson.family_solve_s", "s", "lower"),
        ("poisson.rank_s", "s", "lower"),
        ("liebialg.busy_s", "s", "lower"),
        ("homspace.busy_s", "s", "lower"),
        ("homspace.coinvariance_calls", "count", "lower"),
        ("homspace.ideal_member_calls", "count", "lower"),
        ("catalog.get_preset_s", "s", "lower"),
        ("catalog.presets_loaded", "count", "lower"),
    ]
    + [(f"suites.{fn}_s", "s", "lower") for fn in SUITE_FUNCTIONS]
    + [
        ("report.emit_s", "s", "lower"),
        ("cli.main_s", "s", "lower"),
        ("process.import_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def descending_words(tower, degree: int) -> int:
    """Number of letter words of the given length whose generator levels
    never increase: the overlap words ``diamond_check`` must reduce.  A
    generator contributes two letters when it is invertible."""
    ways = [1] + [0] * degree  # ways[k]: words of length k over levels seen
    for g in tower.generators:
        letters = 2 if g.invertible else 1
        for k in range(1, degree + 1):
            ways[k] += letters * ways[k - 1]
    return ways[degree]


class Tracer:
    """Spans and scalar counts of one traced worker."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counters = Counter()
        self.scalar_calls = Counter()
        self.scalar_results = 0
        self.scalar_general = 0
        self.scalar_busy = 0.0
        self._in_scalar = False
        self._patches = []

    # -- wrappers ------------------------------------------------------------
    def _span_wrapper(self, name, fn, before=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf()
                stack.pop()

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def _scalar_wrapper(self, op, fn):
        # Only the outermost scalar operation is counted and timed: __sub__
        # calls __add__, and a nested count would say nothing about the caller.
        @functools.wraps(fn)
        def wrapper(a, b):
            if self._in_scalar:
                return fn(a, b)
            self._in_scalar = True
            t0 = perf()
            try:
                r = fn(a, b)
            finally:
                self.scalar_busy += perf() - t0
                self._in_scalar = False
            self.scalar_calls[op] += 1
            den = getattr(r, "den", None)
            if den is not None:
                self.scalar_results += 1
                if len(den) > 1:
                    self.scalar_general += 1
            return r

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def _count_words(self, args, kwargs):
        degree = kwargs.get("degree", args[1] if len(args) > 1 else 3)
        self.counters["ncalg.diamond_words"] += descending_words(args[0], degree)

    def _count_load(self, args, kwargs):
        pid = args[0] if args else kwargs.get("preset_id")
        if pid not in sys.modules["qe2.catalog"]._CACHE:
            self.counters["catalog.presets_loaded"] += 1

    # -- installation --------------------------------------------------------
    def _patch(self, owner, key, value, item=False):
        old = owner[key] if item else getattr(owner, key)
        self._patches.append((owner, key, old, item))
        if item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def _rebind(self, orig, wrapper):
        """Point every binding of ``orig`` in qe2 at ``wrapper``."""
        for owner in _namespaces():
            for key, value in list(vars(owner).items()):
                if value is orig:
                    self._patch(owner, key, wrapper)
        registry = getattr(sys.modules.get("qe2.suites"), "SUITES", {})
        for key, fns in list(registry.items()):
            if orig in fns:
                new = tuple(wrapper if f is orig else f for f in fns)
                self._patch(registry, key, new, item=True)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {"ncalg.diamond": self._count_words,
                 "catalog.get_preset": self._count_load}
        for name, targets in SPAN_TARGETS.items():
            for module, cls, attr in targets:
                owner = sys.modules.get(module)
                if owner is None:  # never imported, so never called
                    continue
                if cls is not None:
                    owner = getattr(owner, cls)
                orig = vars(owner)[attr]
                self._rebind(orig, self._span_wrapper(name, orig, hooks.get(name)))
        scalar = sys.modules["qe2.scalars"].Scalar
        for op, methods in SCALAR_OPS.items():
            for attr in methods:
                orig = vars(scalar)[attr]
                self._rebind(orig, self._scalar_wrapper(op, orig))

    def uninstall(self):
        while self._patches:
            owner, key, old, item = self._patches.pop()
            if item:
                owner[key] = old
            else:
                setattr(owner, key, old)

    # -- results -------------------------------------------------------------
    def raw(self) -> dict:
        """Per-name and per-layer times plus counters, as plain data."""
        names, layers = span_times(self.spans)
        return {
            "names": names,
            "layers": layers,
            "counters": dict(self.counters),
            "scalars": {
                **{f"{op}_calls": self.scalar_calls[op] for op in SCALAR_OPS},
                "busy_s": self.scalar_busy,
                "results": self.scalar_results,
                "general": self.scalar_general,
            },
        }


def _namespaces():
    """Every qe2 module and every class defined in one."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qe2" or mod_name.startswith("qe2.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod_name:
                yield value


def leaks() -> list:
    """Places in qe2 that still hold a benchmark wrapper."""
    found = []
    for owner in _namespaces():
        for key, value in vars(owner).items():
            if getattr(value, WRAPPER_MARK, False):
                found.append(f"{getattr(owner, '__name__', owner)}.{key}")
    registry = getattr(sys.modules.get("qe2.suites"), "SUITES", {})
    for key, fns in registry.items():
        if any(getattr(f, WRAPPER_MARK, False) for f in fns):
            found.append(f"qe2.suites.SUITES[{key!r}]")
    return found


def self_times(spans) -> list:
    """Self time of every span: duration minus its direct children's."""
    out = [end - start for _, _, _, start, end in spans]
    for _, parent, _, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def span_times(spans):
    """``({name: [calls, busy_s, self_s]}, {layer: busy_s})``.

    Busy time counts a span only when no enclosing span has the same name
    (for a name) or the same layer, the part of the name before the first
    dot (for a layer).  Spans are in opening order, so a sweep with a stack
    of open spans sees each span's ancestors.
    """
    names, layers = {}, {}
    open_names, open_layers = Counter(), Counter()
    stack = []
    for (sid, parent, name, start, end), own in zip(spans, self_times(spans)):
        while stack and stack[-1][0] != parent:
            _, n, layer = stack.pop()
            open_names[n] -= 1
            open_layers[layer] -= 1
        layer = name.split(".", 1)[0]
        entry = names.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += own
        if not open_names[name]:
            entry[1] += end - start
        if not open_layers[layer]:
            layers[layer] = layers.get(layer, 0.0) + end - start
        stack.append((sid, name, layer))
        open_names[name] += 1
        open_layers[layer] += 1
    return names, layers


def per_layer_metrics(raws, import_s: float, overhead_s: float) -> dict:
    """The PER_LAYER metrics of one pass: the raw traces of its traced
    workers summed, the import time and the tracing overhead given."""
    names, layers, counters, scalars = {}, Counter(), Counter(), Counter()
    for raw in raws:
        for name, vals in raw["names"].items():
            acc = names.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        layers.update(raw["layers"])
        counters.update(raw["counters"])
        scalars.update(raw["scalars"])
    special = {
        "scalars.general_den_share": (
            scalars["general"] / scalars["results"] if scalars["results"] else 0.0
        ),
        "process.import_s": import_s,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for metric, _, _ in PER_LAYER:
        layer, rest = metric.split(".", 1)
        if metric in special:
            value = special[metric]
        elif layer == "scalars":
            value = scalars[rest]
        elif metric in COUNTERS:
            value = counters[metric]
        elif rest == "busy_s":
            value = layers[layer]
        elif rest.endswith("_calls"):
            value = names.get(metric[: -len("_calls")], [0, 0.0, 0.0])[0]
        else:
            stats = names.get(metric[: -len("_s")], [0, 0.0, 0.0])
            value = stats[2] if layer == "suites" else stats[1]
        out[metric] = value
    return out

"""One benchmark job in a fresh process: import qe2, set up, run, check.

Reads a JSON job description on stdin::

    {"workload": ..., "label": ..., "trace": bool, "out_dir": ..., "identities": [...]}

and prints one JSON line with its timings and verdicts.  A worker that
cannot import qe2 from the checkout's ``src`` or cannot set up exits with
status 3; a wrong or failed verdict is counted, never fatal.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _import_qe2(workload):
    import qe2

    if Path(qe2.__file__).resolve().parent != ROOT / "src" / "qe2":
        raise ImportError(f"qe2 imported from {qe2.__file__}, not from {ROOT / 'src'}")
    import qe2.catalog
    import qe2.ncalg

    if workload == "check-all":
        import qe2.cli  # noqa: F401
        import qe2.suites  # noqa: F401
    return qe2


def _raw_preset(pid):
    import importlib.resources

    return json.loads((importlib.resources.files("qe2") / "presets" / f"{pid}.json").read_text())


# -- per-workload set-up and job -------------------------------------------------
# A set-up returns the job's state.  A job returns (ops, verdicts): the
# latency of each op, and per verdict the list of its problems (empty when
# the verdict matches the known answer).


def setup_check_all(qe2, job):
    for pid in qe2.catalog.PRESET_IDS:
        qe2.catalog.get_preset(pid)
    return Path(job["out_dir"]) / "check-all-report.json"


def run_check_all(qe2, out_path):
    # An op is one suite of the run, what ``qe2 check <suite>`` would cost;
    # timing the 12 registry entries adds microseconds to a 1 s job.
    ops = []

    def timed(fn):
        def suite(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                ops.append(time.perf_counter() - t0)
        return suite

    registry = qe2.suites.SUITES
    plain = registry["all"]
    registry["all"] = tuple(timed(fn) for fn in plain)
    try:
        rc = qe2.cli.main(["check", "all", "--format", "json", "--out", str(out_path)])
        problems = workloads.check_report(out_path.read_bytes(), rc)
    except Exception as e:
        problems = [f"{type(e).__name__}: {e}"]
    finally:
        registry["all"] = plain
    return ops, [problems]


def setup_diamond(qe2, job):
    load = qe2.ncalg.load_tower
    towers = {pid: load(_raw_preset(pid), validate=False) for pid in workloads.DIAMOND_TOWERS}
    raw = _raw_preset("qe2-nonstd")
    printed = {**raw, "tower": raw["tower"][:2] + [workloads.PRINTED_NB_LEVEL]}
    towers["printed-nonstd"] = load(printed, validate=False)
    return towers


def run_diamond(qe2, towers):
    # An op is the whole job: its four checks differ in cost about 200-fold,
    # so a median over single checks would fall in the gap between two of
    # them and move with their extremes.
    verdicts = []
    t0 = time.perf_counter()
    for pid, tower in towers.items():
        degree = workloads.PRINTED_DEGREE if pid == "printed-nonstd" else workloads.DIAMOND_DEGREE
        try:
            res = qe2.ncalg.diamond_check(tower, degree)
            problems = workloads.check_diamond(pid, res.ok, res.witness_word)
        except Exception as e:
            problems = [f"{pid}: {type(e).__name__}: {e}"]
        verdicts.append(problems)
    return [time.perf_counter() - t0], verdicts


def setup_identities(qe2, job):
    # Built from the preset files without the load-time diamond check, so
    # this workload runs no ncalg.diamond_check at all.
    from qe2.hopf import load_hopf
    from qe2.poisson import PoissonStructure

    raw = _raw_preset("qe2-nonstd")
    H = load_hopf(qe2.ncalg.load_tower(raw, validate=False), raw["hopf"])
    raw = _raw_preset("nonstd-poisson")
    P = PoissonStructure.load(qe2.ncalg.load_tower(raw, validate=False), raw["poisson"])
    cases = []
    for ident in job["identities"]:
        tower = P.tower if ident["law"] in ("leibniz", "jacobi") else H.tower
        els = [workloads.build_element(tower, terms) for terms in ident["elements"]]
        cases.append((ident["law"], els))
    return H, P, cases


def run_identities(qe2, state):
    H, P, cases = state
    ops, verdicts = [], []
    for law, els in cases:
        t0 = time.perf_counter()
        verdicts.append(workloads.check_identity(lambda: workloads.law_sides(law, H, P, els)))
        ops.append(time.perf_counter() - t0)
    return ops, verdicts


JOBS = {
    "check-all": (setup_check_all, run_check_all),
    "diamond-deep": (setup_diamond, run_diamond),
    "random-identities": (setup_identities, run_identities),
}


def main():
    job = json.load(sys.stdin)
    workload = job["workload"]
    setup, run = JOBS[workload]
    try:
        qe2 = _import_qe2(workload)
    except ImportError as e:
        print(f"worker: cannot import qe2: {e}", file=sys.stderr)
        return 3
    t_imported = time.perf_counter()
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        try:
            state = setup(qe2, job)
        except Exception as e:
            print(f"worker: set-up failed: {type(e).__name__}: {e}", file=sys.stderr)
            return 3
        t_setup = time.perf_counter()
        ops, verdicts = run(qe2, state)
        t_job = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "import_s": t_imported - T_START,
        "setup_s": t_setup - T_START,
        "job_s": t_job - t_setup,
        "op_s": ops,
        "failures": [p for problems in verdicts for p in problems],
        "failed": sum(bool(problems) for problems in verdicts),
        "attempted": len(verdicts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": "{0.__module__}.{0.__qualname__}".format(sys.modules["qe2.scalars"]._Q),
    }
    if tracer is not None:
        left = tracing.leaks()
        if left:
            result["failures"].append(f"tracing wrappers left installed: {left}")
            result["failed"] += 1
        result["layers"] = tracer.raw()
        spans_path = Path(job["out_dir"]) / f"spans-{job['label']}.json"
        with open(spans_path, "w") as f:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": tracer.spans}, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

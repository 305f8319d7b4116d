"""qe2 benchmark: generates the load, runs the workers, prints the result.

    python3 bench/run.py --workload check-all --seed 1 --seconds 40 --trace 0

Runs from the root of a qe2 checkout and measures the ``qe2`` package under
``src/``.  Every job runs in a fresh worker process (``worker.py``), one at
a time from this single process, so every job starts with the empty caches
a CLI user gets.  The loop is closed: the next worker starts when the last
one has exited.  Workers run in passes (one pass covers every job of the
workload once); passes repeat while another one still fits in
``--seconds``, and there is always at least one.

The host's speed drifts (on a shared 2-core x86-64 host, by up to 40%
within seconds and by 25% between minutes), and a qe2 worker's times drift
with it.  So the runner pins itself and its workers to one core and runs a
fixed standard-library probe (``probe``) before and after every worker.
A worker's times are scaled by ``PROBE_REF_S / probe_s``, where
``probe_s`` is the geometric mean of those two probes: the printed times
are seconds at the speed where the probe takes ``PROBE_REF_S``.  The probe
runs no qe2 code, so a change to qe2 moves the scaled times as it moves
the raw ones.  The written result also holds the unscaled metrics and
every worker's raw times.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each job
untraced and then traced, and prints the per-layer metrics of the traced
workers (see ``tracing.py``) with the tracing overhead.  A human-readable
table comes first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The whole result, stamped with
the Python version, core count, qe2 commit and rational backend, is also
written to ``.bench_out/``.

Exit status 0 when a result was printed (a wrong verdict makes
``correct`` false, it does not abort the run); 2 when there is no qe2
source to measure or a worker could not set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Seed to keep out of development: a claimed gain must also hold on it.
HELD_OUT_SEED = 7919
WORKER_TIMEOUT_S = 60  # a job takes seconds; a run must end within 180 s

# (metric, unit) printed with --trace 0, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("process_s", "s"),
    ("job_s", "s"),
    ("identities_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("peak_rss_mb", "MB"),
)


# The probe's time, in seconds, at the reference speed (an unloaded core of
# a 2-core x86-64 host, Python 3.11); scaled times are seconds at that speed.
PROBE_REF_S = 0.02
PROBE_REPS = 5


class _Term:
    __slots__ = ("word", "coeff")

    def __init__(self, word, coeff):
        self.word = word
        self.coeff = coeff


def _probe_work():
    # the kind of work qe2 does, written without qe2: products of sparse
    # polynomials with tuple keys and Fraction coefficients, small objects
    # and a sort
    p = {(i % 7, i % 5, i % 3, i % 2): Fraction(3 * i + 1, 2 * i + 5) for i in range(40)}
    for _ in range(3):
        acc = {}
        for k1, x in p.items():
            for k2, y in p.items():
                t = _Term(tuple(a + b for a, b in zip(k1, k2)), x * y)
                acc[t.word] = acc.get(t.word, 0) + t.coeff
        out = sorted(acc.items())
    return out


def probe() -> float:
    """Seconds the fixed probe takes now: the median of PROBE_REPS runs."""
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def pin_to_one_core():
    """Run the probe and every worker (which inherit it) on one core, so
    the probe measures the core the worker ran on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def plan(workload: str, seed: int) -> list:
    """The jobs of one pass.  Only random-identities uses the seed."""
    if workload != "random-identities":
        return [{"workload": workload, "label": workload}]
    return [
        {
            "workload": workload,
            "label": f"{workload}-chunk{c}",
            "identities": workloads.identity_chunk(seed, c),
        }
        for c in range(workloads.CHUNKS)
    ]


def expected_verdicts(job) -> int:
    if job["workload"] == "check-all":
        return 1
    if job["workload"] == "diamond-deep":
        return len(workloads.DIAMOND_TOWERS) + 1
    return len(job["identities"])


def spawn(job: dict, out_dir: Path) -> dict:
    """Run one worker to completion; its record, with process_s added."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    payload = json.dumps({**job, "out_dir": str(out_dir)})
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=payload, capture_output=True, text=True, env=env,
            cwd=ROOT, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        n = expected_verdicts(job)
        return {"label": job["label"], "traced": job["trace"], "crashed": True,
                "attempted": n, "failed": n,
                "failures": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
    process_s = time.perf_counter() - t0
    if proc.returncode == 3:
        raise BenchError(proc.stderr.strip() or "worker could not set up")
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        n = expected_verdicts(job)
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"label": job["label"], "traced": job["trace"], "crashed": True,
                "attempted": n, "failed": n,
                "failures": [f"worker exit {proc.returncode}: {tail[0]}"]}
    return {"label": job["label"], "traced": job["trace"], "crashed": False,
            "process_s": process_s, **rec}


def p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(passes: list, scaled: bool = True) -> dict:
    """(value, samples) of each end-to-end metric, in scaled seconds.

    Each worker's times are multiplied by its ``scale`` (see the module
    docstring), or by 1 when ``scaled`` is false.  The workload's job is
    one pass; on random-identities the seed's identities are split over
    several workers, whose process and job times add up.  setup_s is the
    median over workers, process_s and job_s the medians over passes;
    op_s.p50 and op_s.p90 are percentiles of the ops of every worker:
    identities, suites of the check-all run or whole diamond-deep jobs.
    """
    passes = [p for p in passes if not any(r["crashed"] for r in p)]
    if not passes:
        raise BenchError("no pass completed")

    def scale(r):
        return r["scale"] if scaled else 1.0

    workers = [r for p in passes for r in p]
    jobs = [sum(r["job_s"] * scale(r) for r in p) for p in passes]
    processes = [sum(r["process_s"] * scale(r) for r in p) for p in passes]
    ops = [t * scale(r) for r in workers for t in r["op_s"]]
    verified = sum(r["attempted"] - r["failed"] for r in workers)
    return {
        "setup_s": (statistics.median(r["setup_s"] * scale(r) for r in workers), len(workers)),
        "process_s": (statistics.median(processes), len(processes)),
        "job_s": (statistics.median(jobs), len(jobs)),
        "identities_per_s": (verified / sum(jobs), verified),
        "op_s.p50": (statistics.median(ops), len(ops)),
        "op_s.p90": (p90(ops), len(ops)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in workers), len(workers)),
    }


def per_layer(passes: list) -> dict:
    """(value, samples) of each per-layer metric: per pass, the traced
    workers' traces are summed; the median over passes is reported."""
    per_pass = []
    for records in passes:
        if any(r["crashed"] for r in records):
            continue
        traced = [r for r in records if r["traced"]]
        plain = [r for r in records if not r["traced"]]
        overhead = sum(r["job_s"] for r in traced) - sum(r["job_s"] for r in plain)
        import_s = statistics.median(r["import_s"] for r in records)
        per_pass.append(tracing.per_layer_metrics(
            [r["layers"] for r in traced], import_s, overhead))
    if not per_pass:
        raise BenchError("no traced pass completed")
    return {
        metric: (statistics.median(p[metric] for p in per_pass), len(per_pass))
        for metric, _, _ in tracing.PER_LAYER
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qe2").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(args, out_dir: Path) -> tuple:
    jobs = plan(args.workload, args.seed)
    modes = (False, True) if args.trace else (False,)
    passes = []
    pin_to_one_core()
    start = time.perf_counter()
    before = probe()
    while True:
        t_pass = time.perf_counter()
        records = []
        passes.append(records)
        for job in jobs:
            for traced in modes:
                rec = spawn({**job, "trace": traced}, out_dir)
                after = probe()
                rec["probe_s"] = math.sqrt(before * after)
                rec["scale"] = PROBE_REF_S / rec["probe_s"]
                before = after
                records.append(rec)
                if rec["crashed"]:
                    return jobs, passes
        now = time.perf_counter()
        if now - start + (now - t_pass) > args.seconds:
            return jobs, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qe2" / "__init__.py").is_file():
        print(f"bench: no qe2 source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        nproc = len(os.sched_getaffinity(0))  # before measure pins to one core
        jobs, passes = measure(args, out_dir)
        records = [r for p in passes for r in p]
        if args.trace:
            metrics = per_layer(passes)
            units = {m: u for m, u, _ in tracing.PER_LAYER}
        else:
            metrics = end_to_end(passes)
            units = dict(END_TO_END)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    done = [r for r in records if not r["crashed"]]
    env = {
        "python": platform.python_version(),
        "nproc": nproc,
        "pinned_to_core": min(os.sched_getaffinity(0)),
        "qe2_commit": git_commit(),
        "qe2_source_sha256": source_digest(),
        "rational_backend": sorted({r["backend"] for r in done}),
        "held_out_seed": HELD_OUT_SEED,
    }
    if args.workload == "random-identities":
        inputs = workloads.input_properties([j["identities"] for j in jobs])
    else:
        inputs = workloads.fixed_inputs(args.workload)
    failures = sorted({f"{r['label']}: {f}" for r in records for f in r["failures"]})

    print(f"qe2 bench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("env: " + json.dumps(env, sort_keys=True))
    print("inputs: " + json.dumps(inputs, sort_keys=True))
    probes = [r["probe_s"] for r in records]
    print(f"workers: {len(records)} in {len(passes)} pass(es), one at a time; "
          f"probe {statistics.median(probes):.4g} s median, "
          f"{min(probes):.4g}-{max(probes):.4g} s (reference {PROBE_REF_S} s)")
    for name, (value, n) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]:<6} n={n}")
    print(f"  {'error_rate':<32} {failed / attempted:>14.6g} {'share':<6} "
          f"({failed} of {attempted} verdicts wrong)")
    for f in failures:
        print(f"  FAILED {f}")

    result = {
        "correct": failed == 0 and len(done) == len(records),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, (v, _) in metrics.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "inputs": inputs,
        "samples": {m: n for m, (_, n) in metrics.items()},
        "unscaled_metrics": (None if args.trace else
                             {m: v for m, (v, _) in end_to_end(passes, scaled=False).items()}),
        "failures": failures, **result,
        "workers": [{k: v for k, v in r.items() if k != "layers"} for r in records],
    }
    path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

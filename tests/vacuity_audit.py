"""Forced-pass audit: which passing checks can some test make fail?

A check whose logic has gone vacuous still records "pass", and that record
is byte-identical to the real one, so the report pins cannot see it.  For
each target check, this script runs the whole test suite with the check's
``suites.CHECKS`` entry replaced by a forced pass: the entry still computes
its values, but its verdict is always ``ok``.  The target is caught when a
test other than the report pins fails, and survives otherwise.

The targets are the checks that return their own verdict and pass on the
shipped presets; the other pass records summarize an engine sub-report.
One full test run per target makes it far too slow for the test suite:

    python tests/vacuity_audit.py [CHECK_ID ...]

It first makes one run with nothing forced, which must have no failures,
and stops with an error when a run does not finish normally.  It prints
one line per target and exits 1 when a target survives.  The file
is also the pytest plugin that forces the pass (``-p vacuity_audit
--force-pass CHECK_ID``, with ``tests`` on the import path); pytest does not
collect it, because its name does not start with ``test_``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the tests that pin the report's bytes, which a forced pass leaves unchanged
PINS = {
    "tests/test_cli.py::test_check_json_deterministic",
    "tests/test_report.py::test_summarized_sub_records_digest",
}


def pytest_addoption(parser):
    parser.addoption("--force-pass", metavar="CHECK_ID",
                     help="record this check as a pass whatever its verdict")


def pytest_configure(config):
    check_id = config.getoption("force_pass")
    if check_id is not None:
        force_pass(check_id)


def force_pass(check_id):
    """Replace the entry of ``check_id`` with one whose verdict is ``ok``."""
    from qe2 import suites

    for suite, entries in suites.CHECKS.items():
        for i, (cid, anchor, run) in enumerate(entries):
            if cid == check_id:
                forced = (cid, anchor, lambda s, *shown: (True, *run(s, *shown)[1:]))
                suites.CHECKS[suite] = (*entries[:i], forced, *entries[i + 1:])
                return
    raise KeyError(f"unknown check {check_id!r}")


def targets():
    """The checks that return their own verdict and pass, in run order."""
    from qe2 import suites
    from qe2.report import CheckReport

    s = suites._Inputs(4)
    return [
        cid
        for entries in suites.CHECKS.values()
        for cid, _, run in entries
        if not isinstance(out := suites._run(s, cid, run), CheckReport) and out[0]
    ]


def failed_tests(check_id=None):
    """The tests that fail or error with ``check_id`` forced to pass."""
    path = [str(ROOT / "tests"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
            "-p", "vacuity_audit"]
    if check_id is not None:
        argv += ["--force-pass", check_id]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    failed = sorted({
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in out.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    })
    if out.returncode != (1 if failed else 0):  # the run itself went wrong
        raise RuntimeError(f"pytest exited {out.returncode}:\n{out.stdout}{out.stderr}")
    return failed


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    control = failed_tests()
    if control:
        print("failing with nothing forced:", *control, sep="\n  ")
        return 2
    ids = argv or targets()
    survivors = []
    for check_id in ids:
        caught = [t for t in failed_tests(check_id) if t not in PINS]
        print(f"{check_id}: " + (f"caught by {', '.join(caught)}" if caught else "SURVIVES"),
              flush=True)
        if not caught:
            survivors.append(check_id)
    print(f"{len(ids) - len(survivors)} of {len(ids)} caught, {len(survivors)} survive")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

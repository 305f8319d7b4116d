"""Outcome records for verification checks.

A check either *passes*, *fails*, or lands in the ``discrepancy`` state:
the engine-derived value disagrees with the value printed in the source
manuscript while the surrounding statement's conclusion still verifies.
Discrepancies are first-class results (the artifact's headline finding
category), never silent.

A record keeps what its check compared: a text, or an ``NCPoly`` or
``TensorElement`` value.  Its canonical text is made when it is first read
(``lhs_canonical``, ``rhs_canonical``, and so the JSON and text bodies) and
then kept.  Most records are sub-checks that a suite summarizes into one
record of the body, so most values are never printed, and formatting them
would be wasted work.  A value of any other type is refused when the
verdict is recorded, inside the check that made it.

A report records each sub-check from a thunk (:meth:`CheckReport.check`),
so a domain error of its input fails that sub-check alone and its siblings
keep their records.
"""

from __future__ import annotations

import json
from typing import Optional

from . import exprio
from .ncalg import NCPoly, TowerError
from .record import Record
from .scalars import ScalarError

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy"

_ORDER = {PASS: 0, DISCREPANCY: 1, FAIL: 2}


def _compared(x):
    """A compared value as a record keeps it: a str, or an NCPoly or
    TensorElement to format when its text is read."""
    if x.__class__ is str or isinstance(x, NCPoly):
        return x
    # a TensorElement exists only once the tensor layer is loaded
    from .hopf import TensorElement

    if isinstance(x, TensorElement):
        return x
    raise TypeError(f"a check compares texts or algebra elements, not {type(x).__name__}")


def _domain_errors():
    """The errors that a sub-check's input raises when it lies outside what
    the engine defines.  ``poisson`` and ``liebialg`` import this module, so
    their errors are imported here, by the handler of ``CheckReport.check``,
    which calls this only once an error is raised."""
    from .liebialg import LieError
    from .poisson import PoissonError

    return TowerError, ScalarError, PoissonError, LieError


def vanishes(x, witness):
    """The verdict that the algebra element ``x`` is zero."""
    return x.is_zero(), x, "0", witness


class CheckRecord(Record):
    """One check's outcome.  ``lhs`` and ``rhs`` are what the check
    compared; ``lhs_canonical`` and ``rhs_canonical`` are their texts."""

    __slots__ = (
        "check_id", "paper_anchor", "status", "lhs", "rhs", "witness",
        "_lhs_text", "_rhs_text",
    )
    _fields = (
        "check_id", "paper_anchor", "status", "lhs_canonical", "rhs_canonical",
        "witness",
    )

    def __init__(self, check_id: str, paper_anchor: str = "", status: str = PASS,
                 lhs_canonical="", rhs_canonical="", witness: str = ""):
        self.check_id = check_id
        self.paper_anchor = paper_anchor
        self.status = status
        self.lhs = _compared(lhs_canonical)
        self.rhs = _compared(rhs_canonical)
        self.witness = witness
        self._lhs_text = self._rhs_text = None

    @property
    def lhs_canonical(self) -> str:
        if self._lhs_text is None:
            self._lhs_text = _text(self.lhs)
        return self._lhs_text

    @property
    def rhs_canonical(self) -> str:
        if self._rhs_text is None:
            self._rhs_text = _text(self.rhs)
        return self._rhs_text

    def as_dict(self):
        return {
            "id": self.check_id,
            "paper_anchor": self.paper_anchor,
            "status": self.status,
            "lhs_canonical": self.lhs_canonical,
            "rhs_canonical": self.rhs_canonical,
            "witness": self.witness,
        }


def _text(x) -> str:
    return x if x.__class__ is str else exprio.format_canonical(x)


class CheckReport(Record):
    __slots__ = _fields = ("suite", "records")

    def __init__(self, suite: str, records: Optional[list] = None):
        self.suite = suite
        self.records = [] if records is None else records

    def add(self, check_id, *, anchor="", status=PASS, lhs="", rhs="", witness=""):
        rec = CheckRecord(check_id, anchor, status, lhs, rhs, witness)
        self.records.append(rec)
        return rec

    def verdict(self, check_id, ok, lhs="", rhs="", witness="", bad=FAIL, *,
                anchor=""):
        """Record ``PASS`` without a witness when ``ok`` holds, else ``bad``
        (FAIL, or DISCREPANCY for a printed value) with the witness."""
        return self.add(check_id, anchor=anchor, status=PASS if ok else bad,
                        lhs=lhs, rhs=rhs, witness="" if ok else witness)

    def check(self, check_id, thunk):
        """Record the verdict ``thunk()`` returns, the arguments ``(ok, lhs,
        rhs[, witness[, bad]])`` of :meth:`verdict`.  A domain error raised
        inside the thunk fails this record alone, with its text as witness;
        any other exception propagates."""
        try:
            out = thunk()
        except _domain_errors() as e:
            return self.add(check_id, status=FAIL, witness=str(e))
        return self.verdict(check_id, *out)

    def guard(self, check_id, thunk):
        """:meth:`check` for what later sub-checks presume, kept only if it fails."""
        rec = self.check(check_id, thunk)
        if rec.status == PASS:
            self.records.pop()
        return rec

    # -- summaries -----------------------------------------------------------
    @property
    def counts(self):
        c = {PASS: 0, FAIL: 0, DISCREPANCY: 0}
        for r in self.records:
            c[r.status] += 1
        return c

    @property
    def worst(self):
        worst = PASS
        for r in self.records:
            if _ORDER[r.status] > _ORDER[worst]:
                worst = r.status
        return worst

    @property
    def clean(self):
        """Every record is a plain pass."""
        return self.worst == PASS

    def exit_code(self):
        c = self.counts
        if c[FAIL]:
            return 1
        if c[DISCREPANCY]:
            return 2
        return 0

    # -- serialization ---------------------------------------------------------
    def body_dict(self, tool_version="", preset_digests=None):
        """The deterministic, checksummable report body (no timestamps)."""
        recs = sorted(self.records, key=lambda r: r.check_id)
        return {
            "suite": self.suite,
            "tool_version": tool_version,
            "preset_digests": preset_digests or {},
            "counts": self.counts,
            "records": [r.as_dict() for r in recs],
        }

    def to_json(self, tool_version="", preset_digests=None) -> str:
        return json.dumps(
            self.body_dict(tool_version, preset_digests),
            sort_keys=True,
            indent=2,
        )

    def to_text(self, tool_version="", preset_digests=None) -> str:
        header = f"suite: {self.suite}"
        if tool_version:
            header += f"  (qe2 {tool_version})"
        lines = [header]
        recs = sorted(self.records, key=lambda r: r.check_id)
        width = max((len(r.check_id) for r in recs), default=10)
        for r in recs:
            line = f"  {r.check_id:<{width}}  {r.status:<11}  {r.paper_anchor}"
            lines.append(line.rstrip())
            if r.status != PASS:
                if r.lhs_canonical or r.rhs_canonical:
                    lines.append(f"    engine:  {r.lhs_canonical}")
                    lines.append(f"    printed: {r.rhs_canonical}")
                if r.witness:
                    lines.append(f"    witness: {r.witness}")
        c = self.counts
        lines.append(
            f"  totals: {c[PASS]} pass, {c[DISCREPANCY]} discrepancy, {c[FAIL]} fail"
        )
        return "\n".join(lines) + "\n"

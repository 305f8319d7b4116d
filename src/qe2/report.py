"""Outcome records for verification checks.

A check either *passes*, *fails*, or lands in the ``discrepancy`` state:
the engine-derived value disagrees with the value printed in the source
manuscript while the surrounding statement's conclusion still verifies.
Discrepancies are first-class results (the artifact's headline finding
category), never silent.
"""

from __future__ import annotations

import json
from typing import Optional

from .record import Record

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy"

_ORDER = {PASS: 0, DISCREPANCY: 1, FAIL: 2}


class CheckRecord(Record):
    __slots__ = _fields = (
        "check_id", "paper_anchor", "status", "lhs_canonical", "rhs_canonical",
        "witness",
    )

    def __init__(self, check_id: str, paper_anchor: str = "", status: str = PASS,
                 lhs_canonical: str = "", rhs_canonical: str = "", witness: str = ""):
        self.check_id = check_id
        self.paper_anchor = paper_anchor
        self.status = status
        self.lhs_canonical = lhs_canonical
        self.rhs_canonical = rhs_canonical
        self.witness = witness

    def as_dict(self):
        return {
            "id": self.check_id,
            "paper_anchor": self.paper_anchor,
            "status": self.status,
            "lhs_canonical": self.lhs_canonical,
            "rhs_canonical": self.rhs_canonical,
            "witness": self.witness,
        }


class CheckReport(Record):
    __slots__ = _fields = ("suite", "records")

    def __init__(self, suite: str, records: Optional[list] = None):
        self.suite = suite
        self.records = [] if records is None else records

    def add(self, check_id, *, anchor="", status=PASS, lhs="", rhs="", witness=""):
        rec = CheckRecord(check_id, anchor, status, lhs, rhs, witness)
        self.records.append(rec)
        return rec

    def verdict(self, check_id, ok, *, anchor="", lhs="", rhs="", witness="",
                bad=FAIL):
        """Record ``PASS`` without a witness when ``ok`` holds, else ``bad``
        (FAIL, or DISCREPANCY for a printed value) with the witness."""
        return self.add(check_id, anchor=anchor, status=PASS if ok else bad,
                        lhs=lhs, rhs=rhs, witness="" if ok else witness)

    def extend(self, other: "CheckReport"):
        self.records.extend(other.records)
        return self

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
    def passed(self):
        """No failing record (discrepancies allowed)."""
        return self.counts[FAIL] == 0

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

"""Workload definitions: seeded inputs and known-answer verdict checkers.

Nothing here imports qe2 at module level.  The runner (``run.py``) uses
this module to build inputs from the seed; the worker (``worker.py``) uses
it, with qe2 loaded, to run and check one job.

Workloads
---------
``check-all``
    One ``qe2 check all --format json`` through ``cli.main`` after all 15
    presets are loaded.  The product; touches every layer.  Fixed inputs.
``diamond-deep``
    ``diamond_check`` at degree 5 on fresh unvalidated copies of three
    shipped towers, and at degree 3 on the printed (wrong-sign) nonstd
    tower.  Loads the ``ncalg`` rewriting kernel and almost nothing else.
    Fixed inputs.
``random-identities``
    Seeded elements on ``qe2-nonstd`` (coproduct and antipode laws) and on
    ``nonstd-poisson`` (Leibniz and Jacobi).  Every identity is a theorem,
    so the known answer is "holds" whatever the engine does.  Some
    coefficients carry the non-monomial denominator ``1+omega``, which is
    the only workload input that reaches the gcd path of
    ``scalars._reduce``.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("check-all", "diamond-deep", "random-identities")

# -- check-all known answer ----------------------------------------------------
CHECK_ALL_SHA256 = "a70f9ff451e32a6ea02ff5b37d87632501075b3b6074feeca9845af6014c6998"
CHECK_ALL_EXIT = 2
CHECK_ALL_COUNTS = {"pass": 54, "discrepancy": 16, "fail": 0}

# -- diamond-deep known answer -------------------------------------------------
DIAMOND_TOWERS = ("qe2-nonstd", "quantum-cylinder", "quantum-plane")
DIAMOND_DEGREE = 5
PRINTED_DEGREE = 3
PRINTED_WITNESS = (("nb", 1), ("n", 1), ("v", 1))
# The (n, nb) commutation rule as the manuscript prints it; suites.suite_diamond
# builds the same tower.
PRINTED_NB_LEVEL = {
    "gen": "nb",
    "sigma": {"v": "v", "n": "n + omega"},
    "delta": {"v": "omega*v^2 - omega*v", "n": "-omega*n"},
}

# -- random-identities inputs --------------------------------------------------
# The four laws, in the order the generator cycles through them.
LAWS = ("coproduct", "antipode", "leibniz", "jacobi")
ARITY = {"coproduct": 2, "antipode": 2, "leibniz": 3, "jacobi": 3}
# Exponents of (v, n, nb); every generator exponent is at most 1 in size.
EXPONENT_BOUND = 1
MONOMIALS = tuple(
    (a, b, c) for a in (-1, 0, 1) for b in (0, 1) for c in (0, 1)
)
# The seed draws every coefficient.  The shape of each identity (law, term
# counts, monomials and which coefficient gets the 1+omega denominator) comes
# from a fixed balanced design that depends on the chunk index only: when
# the seed also drew monomials, the total work of a run (counted in Python
# calls) swung by about 20% between seeds, and with the design fixed by 1%.
TERM_PATTERNS = {
    2: ((1, 3), (2, 2), (3, 1), (2, 3), (3, 2), (1, 2)),
    3: ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 2, 2), (1, 1, 3), (3, 2, 1)),
}
# Every DEN_EVERY-th identity has exactly one coefficient over 1+omega.
# More general denominators per identity make single identities take
# seconds.
DEN_EVERY = 3
# Coefficients (a + b*i) + (c + d*i)*omega with every part nonzero, so each
# coefficient is a genuine degree-1 polynomial in omega.
COEFF_PARTS = (-2, -1, 1, 2)
CHUNK_SIZE = 24          # identities per worker
CHUNKS = 4               # workers per pass; a pass checks every identity once


def identity_chunk(seed: int, chunk: int) -> list:
    """The identities of one chunk as plain data.

    Each identity is ``{"law": name, "elements": [element, ...]}``; an
    element is a list of ``[monomial, [a, b, c, d, den]]`` terms meaning
    ``((a + b*i) + (c + d*i)*omega) / (1 + omega)**den`` times the monomial.
    The same (seed, chunk) always gives the same list.
    """
    design = random.Random(f"qe2-bench-design:{chunk}")
    rng = random.Random(f"qe2-bench:{seed}:{chunk}")
    deck = []

    def draw_monomials(k):
        # deal from a shuffled deck so every monomial is used equally often
        picked = []
        while len(picked) < k:
            if not deck:
                deck.extend(MONOMIALS)
                design.shuffle(deck)
            m = deck.pop()
            if m in picked:
                deck.insert(0, m)
                continue
            picked.append(m)
        return sorted(picked)

    def draw_coefficient(den):
        while True:
            a, b, c, d = (rng.choice(COEFF_PARTS) for _ in range(4))
            # a + b*i == c + d*i would make 1+omega divide the numerator
            if (a, b) != (c, d):
                return [a, b, c, d, den]

    out = []
    for i in range(CHUNK_SIZE):
        law = LAWS[i % len(LAWS)]
        counts = TERM_PATTERNS[ARITY[law]][(i // len(LAWS)) % 6]
        slots = [(e, t) for e, k in enumerate(counts) for t in range(k)]
        den_slot = design.choice(slots) if i % DEN_EVERY == 0 else None
        elements = []
        for e, k in enumerate(counts):
            elements.append([
                [list(m), draw_coefficient(int((e, t) == den_slot))]
                for t, m in enumerate(draw_monomials(k))
            ])
        out.append({"law": law, "elements": elements})
    return out


def input_properties(chunks) -> dict:
    """The recorded input properties of a list of identity chunks."""
    identities = [ident for chunk in chunks for ident in chunk]
    coeffs = [c for ident in identities for el in ident["elements"] for _, c in el]
    terms = [len(el) for ident in identities for el in ident["elements"]]
    return {
        "identities": len(identities),
        "exponent_bound": EXPONENT_BOUND,
        "terms_per_element": [min(terms), max(terms)],
        "general_denominator": "1+omega",
        "identities_with_general_denominator": sum(
            any(c[4] for el in ident["elements"] for _, c in el) for ident in identities
        ),
        "coefficient_general_den_share": sum(c[4] for c in coeffs) / len(coeffs),
        "laws": {law: sum(i["law"] == law for i in identities) for law in LAWS},
    }


def fixed_inputs(workload: str) -> dict:
    if workload == "check-all":
        return {"suite": "all", "presets": 15}
    return {
        "towers": list(DIAMOND_TOWERS),
        "degree": DIAMOND_DEGREE,
        "printed_tower_degree": PRINTED_DEGREE,
    }


# ---------------------------------------------------------------------------
# Known-answer checkers.  Each returns a list of problems; empty means the
# verdict matches.  They never raise on a wrong answer.
# ---------------------------------------------------------------------------


def check_report(body: bytes, exit_code: int) -> list:
    """Verdict on one ``check all --format json`` report body."""
    problems = []
    sha = hashlib.sha256(body).hexdigest()
    if sha != CHECK_ALL_SHA256:
        problems.append(f"report sha256 {sha} != pinned {CHECK_ALL_SHA256}")
    if exit_code != CHECK_ALL_EXIT:
        problems.append(f"exit code {exit_code} != {CHECK_ALL_EXIT}")
    try:
        counts = json.loads(body)["counts"]
    except (ValueError, KeyError, TypeError) as e:
        problems.append(f"unreadable report counts: {e!r}")
    else:
        if counts != CHECK_ALL_COUNTS:
            problems.append(f"counts {counts} != {CHECK_ALL_COUNTS}")
    return problems


def check_diamond(pid: str, ok: bool, witness) -> list:
    """Verdict on one diamond check: shipped towers are confluent, the
    printed nonstd tower fails with the known witness."""
    if pid == "printed-nonstd":
        if ok:
            return ["printed nonstd tower reported confluent"]
        if tuple(map(tuple, witness or ())) != PRINTED_WITNESS:
            return [f"printed nonstd witness {witness} != {PRINTED_WITNESS}"]
        return []
    return [] if ok else [f"{pid} reported non-confluent, witness {witness}"]


# ---------------------------------------------------------------------------
# Identities (need qe2 objects; called from the worker)
# ---------------------------------------------------------------------------


def law_sides(law: str, H, P, els):
    """(lhs, rhs) of one law; the law holds iff they are equal."""
    if law == "coproduct":
        x, y = els
        return H.coproduct(x * y), H.coproduct(x) * H.coproduct(y)
    if law == "antipode":
        x, y = els
        return H.antipode(x * y), H.antipode(y) * H.antipode(x)
    b = P.bracket
    x, y, z = els
    if law == "leibniz":
        return b(x, y * z), b(x, y) * z + y * b(x, z)
    if law == "jacobi":
        jac = b(x, b(y, z)) + b(y, b(z, x)) + b(z, b(x, y))
        return jac, type(jac).zero(jac.tower)
    raise ValueError(f"unknown law {law!r}")


def check_identity(sides) -> list:
    """Verdict on one identity given a thunk returning (lhs, rhs)."""
    try:
        lhs, rhs = sides()
    except Exception as e:  # an engine exception is a failed verdict
        return [f"{type(e).__name__}: {e}"]
    return [] if lhs == rhs else ["identity does not hold"]


def build_element(tower, terms):
    """An NCPoly on ``tower`` from the plain-data terms of identity_chunk."""
    from qe2.ncalg import NCPoly
    from qe2.scalars import GaussRational

    ctx = tower.context
    omega = ctx.param("omega")
    den = ctx.one + omega
    items = []
    for mono, (a, b, c, d, k) in terms:
        s = ctx.from_gauss(GaussRational(a, b)) + ctx.from_gauss(GaussRational(c, d)) * omega
        if k:
            s = s / den ** k
        items.append((tuple(mono), s))
    return NCPoly.from_terms(tower, items)

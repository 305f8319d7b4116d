"""Batch verification front end.

Subcommands:

    check <suite>            run a registered suite, emit a report
    bracket <preset> A B     Poisson bracket of two expressions
    normal-form <preset> E   normal form of an expression
    delta <preset> E         coproduct of an expression
    antipode <preset> E      antipode of an expression
    rank <preset> --at ...   pointwise rank of the bracket matrix
    solve-family <preset>    covariant-family solver for a coaction preset
    presets                  list the shipped presets

Exit codes: 0 all pass, 1 any fail or an internal error, 2 discrepancies
but no fails, 3 usage error or resource limit.  Errors while reading the
command line, a ``--file`` presentation, an expression or an ``--at`` value
are usage errors, and so is a result with a coefficient too long to print;
the same exception classes raised later, while computing, are internal
errors.  Rewriting past the step budget is a resource limit at any stage
of an expression command.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, catalog, exprio
from .ncalg import NCPoly, RewriteBudgetExceeded
from .poisson import covariant_family_solve, poisson_matrix_rank
from .report import CheckReport
from .scalars import QI, DigitLimit, Scalar, ScalarError


class UsageError(Exception):
    pass


def _parse_constant(text: str) -> Scalar:
    try:
        return exprio.parse_scalar(QI, text)
    except (ValueError, KeyError) as e:
        raise UsageError(f"bad value {text!r}: {e}")


def _parse_assignments(specs) -> dict:
    out = {}
    for spec in specs or ():
        for piece in spec.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise UsageError(f"expected name=value, got {piece!r}")
            name, val = piece.split("=", 1)
            out[name.strip()] = _parse_constant(val.strip())
    return out


def _emit(report: CheckReport, fmt: str, out_path):
    body = (
        report.to_json(__version__, catalog.preset_digests())
        if fmt == "json"
        else report.to_text(__version__, catalog.preset_digests())
    )
    if out_path:
        try:
            with open(out_path, "w") as f:
                f.write(body)
                if not body.endswith("\n"):
                    f.write("\n")
        except OSError as e:
            raise UsageError(f"cannot write {out_path!r}: {e}")
    else:
        sys.stdout.write(body)
        if not body.endswith("\n"):
            sys.stdout.write("\n")


def _shape_error(raw) -> str:
    """What keeps ``raw`` from having the JSON shape of a presentation
    (docs/presets.md), or "" when nothing does."""
    if not isinstance(raw, dict):
        return "the presentation must be a JSON object"
    levels = raw.get("tower")
    if not isinstance(levels, list) or not all(
        isinstance(lv, dict) and isinstance(lv.get("gen"), str) for lv in levels
    ):
        return '"tower" must be a list of objects with a string "gen"'
    params = raw.get("parameters", [])
    if not isinstance(params, list) or not all(
        isinstance(p, dict) and isinstance(p.get("name"), str) for p in params
    ):
        return '"parameters" must be a list of objects with a string "name"'
    hopf = raw.get("hopf", {})
    if not isinstance(hopf, dict):
        return '"hopf" must be an object of tables'
    maps = [(k, lv.get(k, {})) for lv in levels for k in ("sigma", "delta")]
    maps += [(k, raw.get(k, {})) for k in ("star", "poisson")]
    maps += [(f"hopf.{k}", table) for k, table in hopf.items()]
    for key, m in maps:
        if not isinstance(m, dict) or not all(isinstance(v, str) for v in m.values()):
            return f'"{key}" must map names to expression strings'
    return ""


def _load_bundle_or_file(preset, file_path):
    if file_path:
        try:
            with open(file_path) as f:
                raw = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot load presentation {file_path!r}: {e}")
        problem = _shape_error(raw)
        if problem:
            raise UsageError(f"bad presentation {file_path!r}: {problem}")
        try:
            return catalog.load_bundle(file_path, raw, "algebra")
        except RewriteBudgetExceeded:
            raise
        except (ValueError, KeyError) as e:
            raise UsageError(f"bad presentation {file_path!r}: {e}")
    if not preset:
        raise UsageError("a preset name (or --file) is required")
    try:
        return catalog.get_preset(preset)
    except catalog.UnknownPreset:
        raise UsageError(f"unknown preset {preset!r}")


def _expr_in(tower, text) -> NCPoly:
    try:
        return tower.poly(text)
    except RewriteBudgetExceeded:
        raise
    except (ValueError, KeyError, ScalarError) as e:
        # ScalarError: a product of the literals passes the exponent bound
        raise UsageError(f"bad expression {text!r}: {e}")


# The names of ``suites.SUITES``, sorted, listed here so that building the
# parser does not import ``suites`` (and through it every analysis layer);
# only ``check`` imports it.
SUITE_NAMES = (
    "all", "bialgebra", "closure", "coideal", "covariance", "diamond",
    "families", "foliation", "hopf-axioms", "hopf-ideal", "jacobi",
    "multiplicativity", "relations",
)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a usage error (exit 3), not with
    argparse's own exit status 2, which means "discrepancies" here.
    Subparsers take this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def main(argv=None) -> int:
    ap = _ArgumentParser(prog="qe2", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"qe2 {__version__}")
    sub = ap.add_subparsers(dest="command")

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=SUITE_NAMES)
    p_check.add_argument("--format", choices=("json", "text"), default="text")
    p_check.add_argument("--out", default=None)
    p_check.add_argument(
        "--degree-bound", type=int, default=4,
        help="size of the random elements of the degm-additivity check "
        "(confluence is decided at load, not sampled to this degree)",
    )

    for name, nargs in (
        ("bracket", 2),
        ("normal-form", 1),
        ("delta", 1),
        ("antipode", 1),
    ):
        p = sub.add_parser(name)
        p.add_argument("preset", nargs="?")
        p.add_argument("expr", nargs=nargs)
        p.add_argument("--file", default=None, help="external presentation file")

    p_rank = sub.add_parser("rank", help="pointwise rank of the bracket matrix")
    p_rank.add_argument("preset")
    p_rank.add_argument("--at", action="append", required=True,
                        help="generator values, e.g. v=i,n=0,nb=0")
    p_rank.add_argument("--param", action="append", default=[],
                        help="parameter values, e.g. omega=1")

    p_fam = sub.add_parser("solve-family", help="covariant bracket family")
    p_fam.add_argument("preset")
    p_fam.add_argument("--format", choices=("json", "text"), default="text")

    sub.add_parser("presets", help="list shipped presets")

    try:
        return _dispatch(_parse_args(ap, argv))
    except (UsageError, DigitLimit) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 3
    except RewriteBudgetExceeded as e:
        # a valid input whose rewriting is too long: a limit, not a bad input
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, ScalarError) as e:
        # every input stage raises UsageError, so this is the engine's fault
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def _parse_args(ap, argv):
    argv = sys.argv[1:] if argv is None else argv
    try:
        return ap.parse_args(argv)
    except UsageError as e:
        # argparse reads an expression such as "-v*n" as an unknown option
        if "--" in argv or not any(a[:1] == "-" and a[1:2] != "-" for a in argv):
            raise
        hint = ('an expression that starts with "-" goes after "--": '
                'qe2 normal-form PRESET -- "-v*n"')
        raise UsageError(f"{e} ({hint})") from None


def _dispatch(args) -> int:
    cmd = args.command
    if cmd is None:
        raise UsageError("no command given (try: qe2 presets)")

    if cmd == "check":
        from . import suites

        try:
            report = suites.run_suite(args.suite, degree_bound=args.degree_bound)
        except (KeyError, ValueError) as e:
            raise UsageError(str(e))
        _emit(report, args.format, args.out)
        return report.exit_code()

    if cmd == "presets":
        for pid, anchor, desc in catalog.list_presets():
            line = f"{pid:<18} [{anchor}] {desc}"
            print(line if len(line) <= 100 else line[:97] + "...")
        return 0

    if cmd == "rank":
        b = _load_bundle_or_file(args.preset, None)
        if b.poisson is None:
            raise UsageError(f"preset {args.preset!r} carries no Poisson structure")
        gen_values = _parse_assignments(args.at)
        params = _parse_assignments(args.param)
        from .poisson import PoissonError
        from .scalars import PoleAtPoint, UnboundParameter

        try:
            r = poisson_matrix_rank(b.poisson, gen_values, params)
        except (PoissonError, PoleAtPoint, UnboundParameter) as e:
            raise UsageError(str(e))
        print(r)
        return 0

    if cmd == "solve-family":
        try:
            b = catalog.get_preset(args.preset)
        except catalog.UnknownPreset:
            raise UsageError(f"unknown preset {args.preset!r}")
        if b.kind != "coaction":
            raise UsageError("solve-family needs a coaction preset")
        fam = covariant_family_solve(b.coaction, b.group_poisson, b.ansatz)
        labels = [exprio.format_canonical(t) for t in fam.ansatz]
        if args.format == "json":
            payload = {
                "ansatz": labels,
                "empty": fam.empty,
                "dimension": fam.dimension,
                "particular": [str(c) for c in (fam.particular or [])],
                "nullspace": [[str(c) for c in v] for v in fam.nullspace],
            }
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            if fam.empty:
                print("no covariant bracket over the given ansatz")
            else:
                terms = " + ".join(
                    f"({c})*{l}" for c, l in zip(fam.particular, labels) if c
                ) or "0"
                print(f"dimension: {fam.dimension}")
                print(f"particular: {terms}")
                for vec in fam.nullspace:
                    free = " + ".join(
                        f"({c})*{l}" for c, l in zip(vec, labels) if c
                    )
                    print(f"free direction: {free}")
        return 0

    # expression commands
    if not (args.preset or args.file) and args.expr[0] in catalog.PRESET_IDS:
        # argparse fills the expression before the optional preset
        raise UsageError(f"an expression argument after the preset {args.expr[0]!r} is missing")
    b = _load_bundle_or_file(args.preset, args.file)
    tower = b.tower
    if tower is None:
        raise UsageError("this preset carries no algebra")
    if cmd == "bracket":
        if b.poisson is None:
            raise UsageError("this preset carries no Poisson structure")
        f = _expr_in(tower, args.expr[0])
        g = _expr_in(tower, args.expr[1])
        print(exprio.format_canonical(b.poisson.bracket(f, g)))
        return 0
    if cmd == "normal-form":
        print(exprio.format_canonical(_expr_in(tower, args.expr[0])))
        return 0
    if cmd == "delta":
        if b.hopf is None:
            raise UsageError("this preset carries no Hopf structure")
        print(exprio.format_canonical(b.hopf.coproduct(_expr_in(tower, args.expr[0]))))
        return 0
    if cmd == "antipode":
        if b.hopf is None:
            raise UsageError("this preset carries no Hopf structure")
        print(exprio.format_canonical(b.hopf.antipode(_expr_in(tower, args.expr[0]))))
        return 0
    raise UsageError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())

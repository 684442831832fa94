"""Command-line front end.

Subcommands::

    hopfcheck verify --algebra abc --ring Z --maxdeg 5 --suite graded-hopf
    hopfcheck verify --spec path/to/file.hspec --suite bialgebra
    hopfcheck export --algebra abc --ring Z --maxdeg 3 --out abc.hspec
    hopfcheck list-suites

Exit codes: 0 when every check of every requested suite passed (statuses
"pass", "not-checked" and "expected-nonidentity" all count as passing),
2 when any check failed, 1 on configuration or spec-file errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify as V
from .errors import HopfcheckError
from .gmod import GradedMap
from .hopf import HopfPresentation
from .reduced import (verify_delta_degree_bound, verify_delta_factorization,
                      verify_prim_characterization)
from .rings import ring_from_string
from .specfile import export_presentation, parse_presentation_file
from .zoo import ZOO, build_algebra

DEFAULT_MAXDEG = 4

# The flags that build a zoo algebra, by argparse dest, with their defaults.
# A spec file fixes all of them, so they are rejected beside --spec; their
# argparse defaults are None to tell a given flag from an unset one.
ALGEBRA_DEFAULTS = {"ring": "Z", "maxdeg": DEFAULT_MAXDEG, "rank": 2,
                    "taft_n": 3}


def _algebra_option(args, name):
    """The value of algebra flag ``name``, or its default when unset."""
    value = getattr(args, name)
    return ALGEBRA_DEFAULTS[name] if value is None else value


def _suite_reduced(H, args):
    H.require_connected()
    return [verify_delta_factorization(H),
            verify_delta_degree_bound(H),
            verify_prim_characterization(H, seed=args.seed)]


# name -> (runner(H, args) returning reports, description).  Runners look
# the suites up on the verify module when they run, so a wrapper patched
# onto a suite there (as perfbench's tracer does) is seen.
SUITES = {
    "bialgebra": (lambda H, args: [H.verify_bialgebra()],
                  "bialgebra axioms on all basis labels"),
    "antipode-axioms": (lambda H, args: [H.verify_antipode_axioms()],
                        "both antipode convolution axioms"),
    "reduced": (_suite_reduced,
                "reduced coproduct: factorization, degree bound, primitives"),
    "graded-hopf": (lambda H, args: [V.suite_graded_hopf(H)],
                    "per-degree nilpotency of id - S^2 on a graded connected "
                    "presentation"),
    "lowered-exponent": (lambda H, args: [V.suite_lowered_exponent(H, args.p)],
                         "exponent lowering when id - S^2 kills degrees 2..p"),
    "filtered": (lambda H, args: [V.suite_corollary_filtered(
                     H, GradedMap.identity(H.basis, H.ring),
                     H.antipode_squared(), args.p)],
                 "filtered corollary for e = id, f = S^2 at the given p"),
    "theorem1": (lambda H, args: V.verify_theorem(
                     V.instance_from_hopf(H, "id", "S2", args.p)),
                 "generic nilpotency theorem: hypotheses and conclusions"),
    "binomial-identity": (lambda H, args: [V.binomial_identity_check(
                              V.instance_from_hopf(H, "id", "S2", args.p), K=3)],
                          "operator binomial expansion behind the proof"),
    "antipode-props": (lambda H, args: [V.suite_antipode_props(H)],
                       "basic antipode facts, including whether S^2 = id"),
    "oracle-agreement": (lambda H, args: [V.suite_oracle_agreement(H)],
                         "left- and right-recursion antipodes agree"),
    "taft-remark": (lambda H, args: [V.suite_taft_remark(H)],
                    "Taft algebra: S^2 has infinite nilpotency order on x"),
}

DEFAULT_SUITES_CONNECTED = ("bialgebra", "antipode-axioms", "reduced",
                            "graded-hopf", "antipode-props",
                            "oracle-agreement")
DEFAULT_SUITES_OTHER = ("bialgebra", "antipode-axioms", "antipode-props")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfcheck",
        description="Exact verification of antipode-nilpotency identities "
                    "on graded Hopf algebra presentations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_algebra_flags(p):
        p.add_argument("--algebra", choices=ZOO,
                       help="built-in algebra name")
        p.add_argument("--spec", help="path to an algebra spec file")
        p.add_argument("--ring",
                       help="coefficient ring: Z, Q, Z/m, or Z[q]/(c0,c1,...,1) "
                            "(default Z)")
        p.add_argument("--maxdeg", type=int,
                       help=f"truncation degree (default {DEFAULT_MAXDEG})")
        p.add_argument("--rank", type=int,
                       help="generator count for tensor/shuffle algebras "
                            "(default 2)")
        p.add_argument("--taft-n", type=int,
                       help="order parameter n of the Taft algebra (default 3)")

    pv = sub.add_parser("verify", help="run verification suites")
    add_algebra_flags(pv)
    pv.add_argument("--suite", action="append", choices=sorted(SUITES),
                    help="suite to run (repeatable; default depends on the "
                         "algebra)")
    pv.add_argument("--p", type=int, default=1,
                    help="annihilation bound p for the theorem/corollary suites")
    pv.add_argument("--seed", type=int, default=0,
                    help="seed for randomized element combinations")
    pv.add_argument("--format", choices=("text", "structured"), default="text")
    pv.add_argument("--out", help="write the report to this path instead of "
                                  "stdout")

    pe = sub.add_parser("export", help="write an algebra spec file")
    add_algebra_flags(pe)
    pe.add_argument("--out", help="output path (default stdout)")

    sub.add_parser("list-suites", help="list the suite catalogue")
    return parser


def load_algebra(args) -> HopfPresentation:
    if args.spec and args.algebra:
        raise HopfcheckError("give either --algebra or --spec, not both")
    if args.spec:
        for name in ALGEBRA_DEFAULTS:
            if getattr(args, name) is not None:
                flag = "--" + name.replace("_", "-")
                raise HopfcheckError(f"{flag} cannot be used with --spec: "
                                     "the spec file fixes the algebra")
        return parse_presentation_file(args.spec)
    if not args.algebra:
        raise HopfcheckError("one of --algebra or --spec is required")
    maxdeg = _algebra_option(args, "maxdeg")
    if maxdeg < 0:
        raise HopfcheckError("maxdeg must be >= 0")
    ring = ring_from_string(_algebra_option(args, "ring"))
    return build_algebra(args.algebra, ring, maxdeg,
                         rank=_algebra_option(args, "rank"),
                         taft_n=_algebra_option(args, "taft_n"))


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_verify(args) -> int:
    V.require_positive_p(args.p)
    H = load_algebra(args)
    suite_names = args.suite
    if not suite_names:
        suite_names = list(DEFAULT_SUITES_CONNECTED if H.is_connected()
                           else DEFAULT_SUITES_OTHER)
    reports = []
    for name in suite_names:
        runner, _ = SUITES[name]
        reports.extend(runner(H, args))
    ok = all(r.ok() for r in reports)
    if args.format == "structured":
        payload = {
            "algebra": H.name,
            "ring": repr(H.ring),
            "maxdeg": H.max_degree,
            "seed": args.seed,
            "p": args.p,
            "suites": [r.to_dict() for r in reports],
            "ok": ok,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(r.render_text() for r in reports) + "\n"
        text += f"overall: {'PASS' if ok else 'FAIL'}\n"
    _emit(text, args.out)
    return 0 if ok else 2


def run_export(args) -> int:
    H = load_algebra(args)
    _emit(export_presentation(H), args.out)
    return 0


def run_list_suites(args) -> int:
    width = max(len(n) for n in SUITES)
    for name in sorted(SUITES):
        sys.stdout.write(f"{name:<{width}}  {SUITES[name][1]}\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"verify": run_verify, "export": run_export,
                "list-suites": run_list_suites}
    try:
        return handlers[args.command](args)
    except HopfcheckError as exc:
        sys.stderr.write(f"hopfcheck: error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"hopfcheck: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

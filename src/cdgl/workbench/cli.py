"""Command-line interface: thin argument handling around the task layer."""

from __future__ import annotations

import argparse
import sys

from .report import render
from .tasks import Task, run_task


def _parse_range(text):
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("range must look like a..b") from None


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cdgl",
        description="Exact computer algebra for complete differential graded "
                    "Lie algebras: models, Maurer-Cartan/gauge calculus, BCH, "
                    "mapping-space and classifying-space invariants.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_range=False):
        p.add_argument("file", nargs="?", help="model file (UTF-8, # comments)")
        p.add_argument("--model", help="model name in the file, or a builtin "
                                       "like sphere(3), wedge(1,1), L1, S1, L0")
        p.add_argument("--truncate", type=int, default=None, metavar="N",
                       help="bracket-length truncation (default 5)")
        p.add_argument("--range", type=_parse_range, default=None, metavar="a..b")
        p.add_argument("--word-cap", type=int, default=3, metavar="w")
        p.add_argument("--poly-cap", type=int, default=6, metavar="p")
        p.add_argument("--format", choices=("table", "canonical"),
                       default="table")
        p.add_argument("--no-stability", action="store_true",
                       help="skip the cap+1 stability re-run")

    p = sub.add_parser("check", help="validate a model file or builtin")
    common(p)

    p = sub.add_parser("homology", help="homology table of a model")
    common(p)

    p = sub.add_parser("bch", help="Baker-Campbell-Hausdorff product")
    common(p)
    p.add_argument("-x", required=True, help="first degree-0 expression")
    p.add_argument("-y", required=True, help="second degree-0 expression")

    p = sub.add_parser("gauge", help="gauge action of x on an MC element a")
    common(p)
    p.add_argument("-x", required=True)
    p.add_argument("-a", required=True)

    p = sub.add_parser("gauge-equiv", help="decide gauge equivalence of two "
                                           "MC elements")
    common(p)
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)

    p = sub.add_parser("exp", help="exponential of a declared derivation")
    common(p)
    p.add_argument("--derivation", required=True)

    p = sub.add_parser("log", help="logarithm of a declared automorphism")
    common(p)
    p.add_argument("--morphism", required=True)

    p = sub.add_parser("h0", help="H_0 with the BCH product")
    common(p)

    p = sub.add_parser("pi-map", help="mapping-space homotopy groups at a "
                                      "morphism")
    common(p)
    p.add_argument("--morphism", default="id",
                   help="declared morphism name, or id/zero")

    p = sub.add_parser("baut", help="free classifying-space invariants")
    common(p)
    p.add_argument("--gspec", default="identity",
                   help="identity | stabilizer:<filt-name> | span:<der-names>")

    p = sub.add_parser("bautstar", help="pointed classifying-space invariants")
    common(p)
    p.add_argument("--gspec", default="identity")

    p = sub.add_parser("witness", help="verify a declared homotopy witness")
    common(p)
    p.add_argument("--homotopy", required=True)
    p.add_argument("--from", dest="from_name", required=True)
    p.add_argument("--to", dest="to_name", required=True)

    p = sub.add_parser("gamma", help="verify the suspension-comparison "
                                     "isomorphism for a morphism")
    common(p)
    p.add_argument("--morphism", default="id")

    return ap


def task_from_args(args) -> Task:
    file_text = None
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            file_text = fh.read()
    exprs = {}
    names = {}
    for key in ("x", "y", "a", "b"):
        if getattr(args, key, None) is not None:
            exprs[key] = getattr(args, key)
    for key in ("derivation", "morphism", "homotopy"):
        if getattr(args, key, None) is not None:
            names[key] = getattr(args, key)
    if getattr(args, "from_name", None):
        names["from"] = args.from_name
    if getattr(args, "to_name", None):
        names["to"] = args.to_name
    return Task(command=args.command,
                model_ref=args.model,
                file_text=file_text,
                trunc=args.truncate,
                word_cap=args.word_cap,
                poly_cap=args.poly_cap,
                degree_range=args.range,
                gspec=getattr(args, "gspec", "identity"),
                exprs=exprs,
                names=names,
                check_stability=not args.no_stability)


def _join_negative_range(argv):
    """argparse reads a value that starts with '-' as a flag, so a range with
    a negative lower end is joined to its flag: --range -1..3 -> --range=-1..3."""
    out = []
    for arg in argv:
        if out and out[-1] == "--range" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = "--range=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_range(argv))
    task = task_from_args(args)
    report = run_task(task)
    sys.stdout.write(render(report, args.format))
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: thin argument handling around the task layer."""

from __future__ import annotations

import argparse
import sys

from .parser import Diagnostic
from .report import Report, render
from .tasks import Task, run_task


def _parse_range(text):
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("range must look like a..b") from None


_COMMON = (
    ("file", dict(nargs="?", help="model file (UTF-8, # comments)")),
    ("--model", dict(help="model name in the file, or a builtin like "
                          "sphere(3), wedge(1,1), L1, S1, L0")),
    ("--truncate", dict(type=int, default=None, metavar="N",
                        help="bracket-length truncation (default 5)")),
    ("--range", dict(type=_parse_range, default=None, metavar="a..b")),
    ("--word-cap", dict(type=int, default=3, metavar="w")),
    ("--poly-cap", dict(type=int, default=6, metavar="p")),
    ("--format", dict(choices=("table", "canonical"), default="table")),
    ("--no-stability", dict(action="store_true",
                            help="skip the cap+1 stability re-run")),
)

# command -> (help line, the arguments it takes after the common ones)
COMMANDS = {
    "check": ("validate a model file or builtin", ()),
    "homology": ("homology table of a model", ()),
    "bch": ("Baker-Campbell-Hausdorff product", (
        ("-x", dict(required=True, help="first degree-0 expression")),
        ("-y", dict(required=True, help="second degree-0 expression")))),
    "gauge": ("gauge action of x on an MC element a", (
        ("-x", dict(required=True)), ("-a", dict(required=True)))),
    "gauge-equiv": ("decide gauge equivalence of two MC elements", (
        ("-a", dict(required=True)), ("-b", dict(required=True)))),
    "exp": ("exponential of a declared derivation", (("--derivation", dict(required=True)),)),
    "log": ("logarithm of a declared automorphism", (("--morphism", dict(required=True)),)),
    "h0": ("H_0 with the BCH product", ()),
    "pi-map": ("mapping-space homotopy groups at a morphism", (
        ("--morphism", dict(default="id",
                            help="declared morphism name, or id/zero")),)),
    "baut": ("free classifying-space invariants", (
        ("--gspec", dict(default="identity", help="identity | "
                         "stabilizer:<filt-name> | span:<der-names>")),)),
    "bautstar": ("pointed classifying-space invariants", (
        ("--gspec", dict(default="identity")),)),
    "witness": ("verify a declared homotopy witness", (
        ("--homotopy", dict(required=True)),
        ("--from", dict(dest="from_name", required=True)),
        ("--to", dict(dest="to_name", required=True)))),
    "gamma": ("verify the suspension-comparison isomorphism for a morphism", (
        ("--morphism", dict(default="id")),)),
}


def build_parser(argv=()):
    """The parser for argv: when argv starts with a command, only that
    command's subparser is built (the usage line still lists them all)."""
    ap = argparse.ArgumentParser(
        prog="cdgl",
        description="Exact computer algebra for complete differential graded "
                    "Lie algebras: models, Maurer-Cartan/gauge calculus, BCH, "
                    "mapping-space and classifying-space invariants.")
    names, metavar = list(COMMANDS), None
    if argv and argv[0] in COMMANDS:
        names, metavar = [argv[0]], "{%s}" % ",".join(COMMANDS)
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_line, extra = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for flag, kwargs in _COMMON + extra:
            p.add_argument(flag, **kwargs)
    return ap


def task_from_args(args):
    """The task that args describe, and the message of a model file that
    cannot be read (None when there is none)."""
    file_text = unread = None
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                file_text = fh.read()
        except OSError as exc:
            unread = "cannot read model file %s: %s" % (args.file, exc.strerror or exc)
        except UnicodeDecodeError as exc:
            unread = "cannot read model file %s: not UTF-8 text (%s)" % (
                args.file, exc.reason)
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
                check_stability=not args.no_stability), unread


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
    argv = _join_negative_range(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv).parse_args(argv)
    task, unread = task_from_args(args)
    if unread is None:
        report = run_task(task)
    else:
        report = Report(command=task.echo(), status="diagnostics",
                        diagnostics=[Diagnostic(0, 0, "error", unread)])
    sys.stdout.write(render(report, args.format))
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())

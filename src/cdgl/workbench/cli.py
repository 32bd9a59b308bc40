"""Command-line interface: thin argument handling around the task layer."""

from __future__ import annotations

import sys

from .. import __doc__ as DESCRIPTION
from .parser import Diagnostic
from .report import Report, render
from .tasks import Task, run_task


def _parse_range(text):
    lo, _, hi = text.partition("..")
    return int(lo), int(hi)


# flag -> its spec, in argparse's add_argument terms; "file" is the positional
_COMMON = (
    ("file", dict(nargs="?", help="model file (UTF-8, # comments)")),
    ("--model", dict(help="model name in the file, or a builtin like "
                          "sphere(3), wedge(1,1), L1, S1, L0")),
    ("--truncate", dict(type=int, metavar="N", help="bracket-length truncation (default 5)")),
    ("--range", dict(type=_parse_range, metavar="a..b")),
    ("--word-cap", dict(type=int, default=3, metavar="w")),
    ("--poly-cap", dict(type=int, default=6, metavar="p")),
    ("--format", dict(choices=("table", "canonical"), default="table")),
    ("--no-stability", dict(action="store_true", help="skip the cap+1 stability re-run")),
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
        ("--morphism", dict(default="id", help="declared morphism name, or id/zero")),)),
    "baut": ("free classifying-space invariants", (
        ("--gspec", dict(default="identity", help="identity | "
                         "stabilizer:<filt-name> | span:<der-names>")),)),
    "bautstar": ("pointed classifying-space invariants", (
        ("--gspec", dict(default="identity")),)),
    "witness": ("verify a declared homotopy witness", (
        ("--homotopy", dict(required=True)),
        ("--from", dict(required=True)), ("--to", dict(required=True)))),
    "gamma": ("verify the suspension-comparison isomorphism for a morphism", (
        ("--morphism", dict(default="id")),)),
}

_HELP = {"-h": dict(action="help"), "--help": dict(action="help")}


def _word(flag, spec):
    """A flag as the usage and help write it: with the value it takes."""
    if flag == "file" or "action" in spec:
        return flag
    return "%s %s" % (flag, "{%s}" % ",".join(spec["choices"]) if "choices" in spec
                      else spec.get("metavar") or flag.lstrip("-").upper())


def _exit(command, error=None):
    """Print the help and exit 0, or the usage and the error and exit 2."""
    specs = _COMMON + COMMANDS[command][1] if command else ()
    usage = " ".join(["cdgl", command, "[-h]"] + [
        ("%s" if s.get("required") else "[%s]") % _word(f, s) for f, s in specs[1:]]
        + ["[file]"]) if command else "cdgl [-h] {%s} ..." % ",".join(COMMANDS)
    if error is not None:
        sys.stderr.write("usage: %s\ncdgl%s: error: %s\n" % (
            usage, " " + command if command else "", error))
        raise SystemExit(2)
    rows = [(_word(f, s), s.get("help", "")) for f, s in specs] or [
        (name, line) for name, (line, _) in COMMANDS.items()]
    rows.append(("-h, --help", "show this help message and exit"))
    lead = "" if command else DESCRIPTION + "\n\n"
    sys.stdout.write("usage: %s\n\n%s%s\n" % (usage, lead, "\n".join(
        ("  %-26s %s" % row).rstrip() for row in rows)))
    raise SystemExit(0)


def _option(arg, flags, command):
    """(flag, inline value) as argparse reads arg: by the flag's name, as
    --flag=value or -xvalue, or by a unique prefix of a long flag.  The flag
    is None when unknown, and "" for a positional (or "-" or "--")."""
    if arg[:1] != "-" or arg in ("-", "--"):
        return "", None
    head, eq, tail = arg.partition("=")
    glued = head not in flags and arg[1] != "-"
    hits = [head] if head in flags else [
        f for f in flags if (f == arg[:2] if glued else f.startswith(head))]
    if len(hits) > 1:
        _exit(command, "ambiguous option: %s could match %s" % (head, ", ".join(hits)))
    return (hits or [None])[0], arg[2:] if glued else tail if eq else None


def read_argv(argv):
    """The values (dest -> value, with the command and the file) that argv
    gives.  A flag takes the next argument as its value, whatever it is."""
    args, command, flags, values, extra, files = iter(argv), None, _HELP, {}, [], []
    for arg in args:
        flag, inline = _option(arg, flags, command)
        spec = flags.get(flag, {})
        if arg == "--" and command:
            files += args                       # the rest are positionals
        elif flag == "" and command:
            files.append(arg)
        elif flag == "":
            if arg not in COMMANDS:
                _exit(None, "argument command: invalid choice: %r" % arg)
            command, specs = arg, _COMMON[1:] + COMMANDS[arg][1]
            flags = {**_HELP, **dict(specs)}
            values = {f: s.get("default", False if "action" in s else None) for f, s in specs}
        elif flag is None:
            extra.append(arg)
        elif "action" in spec and inline is not None:
            _exit(command, "argument %s: ignored explicit argument %r" % (flag, inline))
        elif "action" in spec:
            if spec["action"] == "help":
                _exit(command)
            values[flag] = True
        else:
            value = next(args, None) if inline is None else inline
            if value is None:
                _exit(command, "argument %s: expected one argument" % flag)
            try:
                values[flag] = spec.get("type", str)(value)
                if values[flag] not in spec.get("choices", (values[flag],)):
                    raise ValueError
            except ValueError:
                _exit(command, "argument %s: invalid value %r" % (_word(flag, spec), value))
    missing = [f for f, s in flags.items() if s.get("required") and values[f] is None]
    if command is None or missing:
        _exit(command, "the following arguments are required: " + ", ".join(missing or ["command"]))
    if extra or files[1:]:
        _exit(None, "unrecognized arguments: %s" % " ".join(extra + files[1:]))
    return dict({f.lstrip("-").replace("-", "_"): v for f, v in values.items()},
                command=command, file=(files or [None])[0])


def task_from_args(args):
    """The task that args (dest -> value) describe, and the message of a model
    file that cannot be read (None when there is none)."""
    file_text = unread = None
    if args["file"]:
        try:
            with open(args["file"], "r", encoding="utf-8") as fh:
                file_text = fh.read()
        except OSError as exc:
            unread = "cannot read model file %s: %s" % (args["file"], exc.strerror or exc)
        except UnicodeDecodeError as exc:
            unread = "cannot read model file %s: not UTF-8 text (%s)" % (
                args["file"], exc.reason)
    names = {k: args[k] for k in ("derivation", "morphism", "homotopy") if args.get(k) is not None}
    names.update((k, args[k]) for k in ("from", "to") if args.get(k))
    return Task(command=args["command"], model_ref=args["model"], file_text=file_text,
                trunc=args["truncate"], word_cap=args["word_cap"], poly_cap=args["poly_cap"],
                degree_range=args["range"], gspec=args.get("gspec", "identity"),
                exprs={k: args[k] for k in "xyab" if args.get(k) is not None},
                names=names, check_stability=not args["no_stability"]), unread


def main(argv=None):
    args = read_argv(sys.argv[1:] if argv is None else argv)
    task, unread = task_from_args(args)
    report = run_task(task) if unread is None else Report(
        command=task.echo(), status="diagnostics", diagnostics=[Diagnostic(0, 0, "error", unread)])
    sys.stdout.write(render(report, args["format"]))
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())

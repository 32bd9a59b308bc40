"""Report objects with two serializations: a human table and a canonical
structured text form.

The canonical form has stable key order, rationals printed as p/q, and no
timing, so identical invocations are bit-for-bit reproducible and golden
tests can diff it directly.
"""

from __future__ import annotations

from fractions import Fraction

from .ast import print_rational


class Report:
    __slots__ = ("command", "status", "caps", "stability", "tables", "notes",
                 "diagnostics", "timing")

    def __init__(self, command: str, status: str = "ok",
                 caps: dict | None = None, stability: str | None = None,
                 tables: dict | None = None, notes: list | None = None,
                 diagnostics: list | None = None, timing: float | None = None):
        self.command = command
        self.status = status        # ok | diagnostics | resource-limit | internal-error
        self.caps = {} if caps is None else caps
        self.stability = stability  # green | red | None
        self.tables = {} if tables is None else tables
        self.notes = [] if notes is None else notes
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.timing = timing

    def exit_code(self):
        if self.status == "internal-error":
            return 3
        if self.status == "resource-limit":
            return 2
        if self.status == "diagnostics" or any(
                d.severity == "error" for d in self.diagnostics):
            return 1
        return 0


def _fmt_value(v):
    if isinstance(v, Fraction):
        return print_rational(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt_value(x) for x in v) + "]"
    return str(v)


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for k in sorted(value, key=str):
            _flatten("%s.%s" % (prefix, k) if prefix else str(k), value[k], out)
    else:
        out.append((prefix, _fmt_value(value)))


def canonical(report: Report) -> str:
    from .. import __version__
    lines = ["command = %s" % report.command,
             "version = %s" % __version__,
             "status = %s" % report.status]
    for k in sorted(report.caps, key=str):
        lines.append("caps.%s = %s" % (k, _fmt_value(report.caps[k])))
    if report.stability is not None:
        lines.append("stability = %s" % report.stability)
    flat = []
    _flatten("", report.tables, flat)
    for k, v in flat:
        lines.append("%s = %s" % (k, v))
    for i, note in enumerate(report.notes):
        lines.append("note.%d = %s" % (i, note))
    for d in report.diagnostics:
        lines.append("diagnostic = %d:%d %s %s" % (d.line, d.col, d.severity,
                                                   d.message))
    return "\n".join(lines) + "\n"


def human(report: Report) -> str:
    lines = ["== %s ==" % report.command, "status: %s" % report.status]
    if report.caps:
        lines.append("caps: " + ", ".join("%s=%s" % (k, _fmt_value(v))
                                          for k, v in sorted(report.caps.items(),
                                                             key=lambda t: str(t[0]))))
    if report.stability is not None:
        lines.append("stability: %s" % report.stability)
    for name, table in report.tables.items():
        lines.append("")
        lines.append("[%s]" % name)
        if isinstance(table, dict):
            width = max((len(str(k)) for k in table), default=0)
            for k in sorted(table, key=str):
                lines.append("  %-*s  %s" % (width, k, _fmt_value(table[k])))
        else:
            for row in table:
                lines.append("  %s" % _fmt_value(row))
    for note in report.notes:
        lines.append("note: %s" % note)
    for d in report.diagnostics:
        lines.append(str(d))
    if report.timing is not None:
        lines.append("time: %.3fs" % report.timing)
    return "\n".join(lines) + "\n"


def render(report: Report, fmt: str) -> str:
    return canonical(report) if fmt == "canonical" else human(report)

"""AST for the model-description language, with the canonical printer.

Expressions are normalized at parse time to linear combinations of atoms
with explicit rational coefficients and t-monomial prefixes, so printing
then reparsing reproduces the same tree (round-trip identity) and printing
is idempotent on arbitrary input.
"""

from __future__ import annotations

from fractions import Fraction

from ..record import FrozenRecord


class Ref(FrozenRecord):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self._set(name)


class Br(FrozenRecord):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self._set(left, right)


class ExpAd(FrozenRecord):
    __slots__ = ("inner", "target")   # inner: the degree-0 argument of ad

    def __init__(self, inner: Expr, target: Expr):
        self._set(inner, target)


class Term(FrozenRecord):
    """atom is a Ref, Br or ExpAd, or None for a pure scalar/monomial."""

    __slots__ = ("coeff", "t_power", "dt", "atom")

    def __init__(self, coeff: Fraction, t_power: int = 0, dt: bool = False,
                 atom: object = None):
        self._set(coeff, t_power, dt, atom)


class Expr(FrozenRecord):
    __slots__ = ("terms",)   # tuple of Term

    def __init__(self, terms: tuple):
        self._set(terms)

    def __iter__(self):
        return iter(self.terms)


def expr_of(terms):
    return Expr(tuple(t for t in terms if t.coeff))


class GenDecl:
    __slots__ = ("name", "degree", "pos")

    def __init__(self, name: str, degree: int, pos: tuple = (0, 0)):
        self.name = name
        self.degree = degree
        self.pos = pos


class DiffDecl:
    __slots__ = ("gen", "expr", "pos")

    def __init__(self, gen: str, expr: Expr, pos: tuple = (0, 0)):
        self.gen = gen
        self.expr = expr
        self.pos = pos


class McDecl:
    __slots__ = ("name", "expr", "pos")

    def __init__(self, name: str, expr: Expr | None = None, pos: tuple = (0, 0)):
        self.name = name
        self.expr = expr
        self.pos = pos


class FiltDecl:
    __slots__ = ("name", "levels", "pos")

    def __init__(self, name: str, levels: tuple = (), pos: tuple = (0, 0)):
        self.name = name
        self.levels = levels     # tuple of tuples of generator names
        self.pos = pos


class TruncDecl:
    __slots__ = ("cap", "max_degree", "pos")

    def __init__(self, cap: int, max_degree: int | None = None,
                 pos: tuple = (0, 0)):
        self.cap = cap
        self.max_degree = max_degree
        self.pos = pos


class ModelNode:
    __slots__ = ("name", "decls", "pos")

    def __init__(self, name: str, decls: list | None = None,
                 pos: tuple = (0, 0)):
        self.name = name
        self.decls = [] if decls is None else decls
        self.pos = pos


class MorphismNode:
    __slots__ = ("name", "source", "target", "assigns", "pos")

    def __init__(self, name: str, source: str, target: str,
                 assigns: list | None = None, pos: tuple = (0, 0)):
        self.name = name
        self.source = source
        self.target = target
        self.assigns = [] if assigns is None else assigns   # (gen name, Expr, pos)
        self.pos = pos


class DerivationNode:
    __slots__ = ("name", "model", "degree", "assigns", "pos")

    def __init__(self, name: str, model: str, degree: int | None = None,
                 assigns: list | None = None, pos: tuple = (0, 0)):
        self.name = name
        self.model = model
        self.degree = degree
        self.assigns = [] if assigns is None else assigns
        self.pos = pos


class HomotopyNode:
    __slots__ = ("name", "source", "target", "assigns", "pos")

    def __init__(self, name: str, source: str, target: str,
                 assigns: list | None = None, pos: tuple = (0, 0)):
        self.name = name
        self.source = source
        self.target = target
        self.assigns = [] if assigns is None else assigns
        self.pos = pos


class Document:
    __slots__ = ("items",)

    def __init__(self, items: list | None = None):
        self.items = [] if items is None else items

    def models(self):
        return [i for i in self.items if isinstance(i, ModelNode)]


# -- canonical printer --------------------------------------------------------

def print_rational(c: Fraction) -> str:
    return "%d/%d" % (c.numerator, c.denominator) if c.denominator != 1 \
        else "%d" % c.numerator


def print_atom(a) -> str:
    if isinstance(a, Ref):
        return a.name
    if isinstance(a, Br):
        return "[%s, %s]" % (print_expr(a.left), print_expr(a.right))
    if isinstance(a, ExpAd):
        return "exp(ad(%s))(%s)" % (print_expr(a.inner), print_expr(a.target))
    raise TypeError("unknown atom %r" % (a,))


def print_term(t: Term) -> str:
    bits = []
    if t.coeff != 1 or (t.atom is None and not t.t_power and not t.dt):
        bits.append(print_rational(t.coeff))
    if t.t_power:
        bits.append("t" if t.t_power == 1 else "t^%d" % t.t_power)
    if t.dt:
        bits.append("dt")
    if t.atom is not None:
        bits.append(print_atom(t.atom))
    return " * ".join(bits) if bits else "1"


def print_expr(e: Expr) -> str:
    if not e.terms:
        return "0"
    return " + ".join(print_term(t) for t in e.terms)


def print_document(doc: Document) -> str:
    out = []
    for item in doc.items:
        if isinstance(item, ModelNode):
            out.append("model %s {" % item.name)
            for d in item.decls:
                if isinstance(d, TruncDecl):
                    line = "  truncate %d" % d.cap
                    if d.max_degree is not None:
                        line += " degree %d" % d.max_degree
                    out.append(line)
                elif isinstance(d, GenDecl):
                    out.append("  gen %s : %d" % (d.name, d.degree))
                elif isinstance(d, DiffDecl):
                    out.append("  d %s = %s" % (d.gen, print_expr(d.expr)))
                elif isinstance(d, McDecl):
                    if d.expr is None:
                        out.append("  mc %s" % d.name)
                    else:
                        out.append("  mc %s = %s" % (d.name, print_expr(d.expr)))
                elif isinstance(d, FiltDecl):
                    levels = " | ".join(" ".join(lv) for lv in d.levels)
                    out.append("  filtration %s { %s }" % (d.name, levels))
            out.append("}")
        elif isinstance(item, MorphismNode):
            out.append("morphism %s : %s -> %s {" % (item.name, item.source,
                                                     item.target))
            for g, e, _ in item.assigns:
                out.append("  %s -> %s" % (g, print_expr(e)))
            out.append("}")
        elif isinstance(item, DerivationNode):
            head = "derivation %s : %s" % (item.name, item.model)
            if item.degree is not None:
                head += " degree %d" % item.degree
            out.append(head + " {")
            for g, e, _ in item.assigns:
                out.append("  %s -> %s" % (g, print_expr(e)))
            out.append("}")
        elif isinstance(item, HomotopyNode):
            out.append("homotopy %s : %s -> %s {" % (item.name, item.source,
                                                     item.target))
            for g, e, _ in item.assigns:
                out.append("  %s -> %s" % (g, print_expr(e)))
            out.append("}")
        out.append("")
    return "\n".join(out).rstrip() + "\n"

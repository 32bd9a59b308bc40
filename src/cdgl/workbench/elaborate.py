"""Elaboration of parsed documents into engine objects.

Every name is resolved and every expression degree-checked before any
computation starts; problems become positioned diagnostics rather than
exceptions, so `check` can report them all at once.
"""

from __future__ import annotations

from ..cylinder import Cylinder, PolyForm, Witness
from ..derivations import Derivation
from ..dgl import (DGLMorphism, DGLPresentation, GeneratorFiltration,
                   MCElement, build_dgl, exp_ad)
from ..freelie import Generator, LieElement, Truncation, bracket
from ..models import BUILTIN_NAMES, builtin_model
from .ast import (Br, DerivationNode, Document, ExpAd, Expr, FiltDecl,
                  GenDecl, DiffDecl, HomotopyNode, McDecl, ModelNode,
                  MorphismNode, Ref, TruncDecl)
from .parser import Diagnostic, parse_document

DEFAULT_TRUNCATION = 5


class ElaborationError(ValueError):
    pass


def eval_expr(expr: Expr, L: DGLPresentation, names=None,
              cylinder: Cylinder | None = None, diags=None, pos=(0, 0)):
    """Evaluate an expression in a model (LieElement) or its cylinder
    (PolyForm when t/dt appear or a cylinder is supplied)."""
    names = names or {}

    def fail(msg):
        if diags is not None:
            diags.append(Diagnostic(pos[0], pos[1], "error", msg))
        raise ElaborationError(msg)

    def atom_value(atom):
        if isinstance(atom, Ref):
            if atom.name in names:
                return names[atom.name]
            try:
                return L.gen(atom.name)
            except KeyError:
                fail("unknown generator %s" % atom.name)
        if isinstance(atom, Br):
            left = lie_value(atom.left)
            right = lie_value(atom.right)
            return bracket(left, right)
        if isinstance(atom, ExpAd):
            if cylinder is not None:
                E = form_value(atom.inner)
                F = form_value(atom.target)
                if E.degree() not in (None, 0):
                    fail("exp(ad(...)) needs a degree-0 argument")
                return cylinder.exp_ad(E, F)
            arg = lie_value(atom.inner)
            tgt = lie_value(atom.target)
            if not arg.is_zero() and arg.degree() != 0:
                fail("exp(ad(...)) needs a degree-0 argument")
            return exp_ad(L, arg).apply(tgt)
        fail("unsupported atom %r" % (atom,))

    def lie_value(e: Expr) -> LieElement:
        out = L.zero()
        for t in e.terms:
            if t.t_power or t.dt:
                fail("t and dt are only allowed in homotopy expressions")
            if t.atom is None:
                fail("a bare rational is not an element of the algebra")
            v = atom_value(t.atom)
            if isinstance(v, PolyForm):
                fail("cylinder-valued subexpression outside a homotopy")
            out = out + v.scale(t.coeff)
        return out

    def form_value(e: Expr) -> PolyForm:
        out = cylinder.zero()
        for t in e.terms:
            if t.atom is None:
                if not t.t_power and not t.dt:
                    fail("a bare rational is not an element of the algebra")
                fail("a bare t-monomial has no Lie value")
            v = atom_value(t.atom)
            if isinstance(v, LieElement):
                v = cylinder.constant(v)
            shifted = {}
            for (k, has_dt), val in v.values.items():
                if has_dt and t.dt:
                    continue
                shifted[(k + t.t_power, has_dt or t.dt)] = val.scale(t.coeff)
            out = out + PolyForm(cylinder.L, shifted, cylinder.poly_cap)
        return out

    if cylinder is not None:
        return form_value(expr)
    value = lie_value(expr)
    if not value.is_zero() and not value.is_homogeneous():
        fail("expression is not homogeneous in degree")
    return value


class ElaboratedModel:
    def __init__(self, node: ModelNode, presentation, filtrations, mc_elements):
        self.node = node
        self.presentation = presentation
        self.filtrations = filtrations      # name -> GeneratorFiltration
        self.mc_elements = mc_elements      # name -> MCElement


class Workspace:
    """Resolved contents of a document: models, morphisms, derivations and
    homotopy witnesses, with a shared diagnostics list."""

    def __init__(self, truncation_override=None):
        self.models = {}
        self.morphisms = {}
        self.derivations = {}
        self.homotopies = {}
        self.diags = []
        self.truncation_override = truncation_override

    # -- model elaboration ------------------------------------------------

    def add_document(self, doc: Document):
        for item in doc.items:
            if isinstance(item, ModelNode):
                self._elaborate_model(item)
        for item in doc.items:
            if isinstance(item, MorphismNode):
                self._elaborate_morphism(item)
            elif isinstance(item, DerivationNode):
                self._elaborate_derivation(item)
            elif isinstance(item, HomotopyNode):
                self.homotopies[item.name] = item
        return self

    def _diag(self, pos, msg, severity="error"):
        self.diags.append(Diagnostic(pos[0], pos[1], severity, msg))

    def _elaborate_model(self, node: ModelNode):
        cap, max_degree = DEFAULT_TRUNCATION, None
        for d in node.decls:
            if isinstance(d, TruncDecl):
                cap, max_degree = d.cap, d.max_degree
        if self.truncation_override is not None:
            cap = self.truncation_override
        trunc = Truncation(cap, max_degree)
        gens = []
        seen = {}
        for d in node.decls:
            if isinstance(d, GenDecl):
                if d.name in seen:
                    self._diag(d.pos, "duplicate generator %s" % d.name)
                    continue
                if d.degree < -1:
                    self._diag(d.pos, "generator %s has degree < -1" % d.name)
                    continue
                g = Generator(d.name, d.degree)
                seen[d.name] = g
                gens.append(g)
        stub = DGLPresentation(tuple(gens), {}, trunc, name=node.name)
        d_values = {}
        for d in node.decls:
            if isinstance(d, DiffDecl):
                if d.gen not in seen:
                    self._diag(d.pos, "unknown generator %s" % d.gen)
                    continue
                try:
                    val = eval_expr(d.expr, stub, diags=self.diags, pos=d.pos)
                except ElaborationError:
                    continue
                g = seen[d.gen]
                if not val.is_zero() and val.degree() != g.degree - 1:
                    self._diag(d.pos, "d %s must have degree %d, got %s"
                               % (d.gen, g.degree - 1, val.degree()))
                    continue
                d_values[g] = val
        mc_gen_names = [d.name for d in node.decls
                        if isinstance(d, McDecl) and d.expr is None]
        mc_gens = tuple(seen[n] for n in mc_gen_names if n in seen)
        for n in mc_gen_names:
            if n not in seen:
                self._diag(node.pos, "mc declaration names unknown generator %s" % n)
        try:
            L = build_dgl(tuple(gens), d_values, trunc, mc_gens=mc_gens,
                          name=node.name)
        except ValueError as exc:
            self._diag(node.pos, "model %s is ill-formed: %s" % (node.name, exc))
            return
        filtrations = {}
        for d in node.decls:
            if isinstance(d, FiltDecl):
                try:
                    chain = []
                    for lv in d.levels:
                        level = set()
                        for name in lv:
                            if name not in seen:
                                raise ElaborationError("unknown generator %s" % name)
                            level.add(seen[name])
                        chain.append(level)
                    filtrations[d.name] = GeneratorFiltration.from_chain(chain)
                except (ElaborationError, ValueError) as exc:
                    self._diag(d.pos, "bad filtration %s: %s" % (d.name, exc))
        mc_elements = {}
        for d in node.decls:
            if isinstance(d, McDecl) and d.expr is not None:
                try:
                    val = eval_expr(d.expr, L, diags=self.diags, pos=d.pos)
                    mc_elements[d.name] = MCElement(L, val)
                except ElaborationError:
                    continue
                except ValueError as exc:
                    self._diag(d.pos, "mc %s: %s" % (d.name, exc))
        self.models[node.name] = ElaboratedModel(node, L, filtrations, mc_elements)

    def _elaborate_morphism(self, node: MorphismNode):
        src = self.models.get(node.source)
        tgt = self.models.get(node.target)
        if src is None or tgt is None:
            self._diag(node.pos, "morphism %s references unknown model" % node.name)
            return
        images = {}
        for gname, expr, pos in node.assigns:
            try:
                g = src.presentation.generator(gname)
            except KeyError:
                self._diag(pos, "unknown generator %s" % gname)
                continue
            try:
                images[g] = eval_expr(expr, tgt.presentation, diags=self.diags,
                                      pos=pos)
            except ElaborationError:
                continue
        try:
            phi = DGLMorphism(src.presentation, tgt.presentation, images,
                              name=node.name).validate()
        except ValueError as exc:
            self._diag(node.pos, "morphism %s: %s" % (node.name, exc))
            return
        self.morphisms[node.name] = phi

    def _elaborate_derivation(self, node: DerivationNode):
        mod = self.models.get(node.model)
        if mod is None:
            self._diag(node.pos, "derivation %s references unknown model %s"
                       % (node.name, node.model))
            return
        L = mod.presentation
        values = {}
        degree = node.degree
        for gname, expr, pos in node.assigns:
            try:
                g = L.generator(gname)
                val = eval_expr(expr, L, diags=self.diags, pos=pos)
            except KeyError:
                self._diag(pos, "unknown generator %s" % gname)
                continue
            except ElaborationError:
                continue
            if not val.is_zero():
                inferred = val.degree() - g.degree
                if degree is None:
                    degree = inferred
                elif degree != inferred:
                    self._diag(pos, "value of %s has degree %d, expected %d"
                               % (gname, inferred, degree))
                    continue
            values[g] = val
        self.derivations[node.name] = Derivation(L, L, degree or 0, values,
                                                 label=node.name)

    # -- lookups -------------------------------------------------------------

    def model(self, name) -> DGLPresentation:
        if name in self.models:
            return self.models[name].presentation
        raise ElaborationError("unknown model %r" % name)

    def witness(self, name, poly_cap) -> Witness:
        node = self.homotopies.get(name)
        if node is None:
            raise ElaborationError("unknown homotopy %r" % name)
        src = self.model(node.source)
        tgt = self.model(node.target)
        cyl = Cylinder(tgt, poly_cap)
        forms = {}
        for gname, expr, pos in node.assigns:
            try:
                g = src.generator(gname)
            except KeyError:
                raise ElaborationError("unknown generator %s" % gname) from None
            forms[g] = eval_expr(expr, tgt, cylinder=cyl, diags=self.diags,
                                 pos=pos)
        return Witness(src, tgt, forms, poly_cap, name=name)


def parse_builtin_ref(text):
    """sphere(3), wedge(1,1), L1, S1, L0 -> (name, params), or None when
    text does not name a builtin model."""
    text = text.strip()
    if "(" in text and text.endswith(")"):
        name, args = text.split("(", 1)
        args = args[:-1].strip()
        try:
            params = tuple(int(a) for a in args.split(",")) if args else ()
        except ValueError:
            return None
        name = name.strip()
        return (name, params) if name.lower() in BUILTIN_NAMES else None
    if text.lower() in ("l0", "l1", "s1"):
        return text, ()
    return None


def load_model(ref, truncation=None, workspace=None):
    """Resolve a model reference: builtin expression or name in a workspace.
    A builtin's own errors (a bad dimension or cap) propagate as they are."""
    builtin = parse_builtin_ref(ref)
    if builtin is not None:
        name, params = builtin
        trunc = None if truncation is None else Truncation(truncation)
        return builtin_model(name, params, trunc)
    if workspace is not None:
        return workspace.model(ref)
    raise ElaborationError("unknown model reference %r" % ref)


def workspace_from_text(text, truncation_override=None):
    doc, diags = parse_document(text)
    ws = Workspace(truncation_override=truncation_override)
    ws.diags.extend(diags)
    ws.add_document(doc)
    return ws, doc

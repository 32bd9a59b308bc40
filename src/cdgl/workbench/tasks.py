"""Task orchestration: validated parameters in, deterministic reports out.

Homology-bearing tasks compute at cap + 1 only what their stability key
compares (see _stability), which is what the stability flag certifies:
homology and pi-map read it off the length filtration, from the cap-N
answer and the layer of words of length N + 1 (_homology_again,
_pi_again); h0, baut and bautstar re-run their command at cap + 1.

Resource-limit overruns downgrade the report instead of crashing, and a
failed engine invariant is reported as an internal error, apart from the
diagnostics for a user's mistakes.
"""

from __future__ import annotations

import os
import time

from ..cylinder import CapExceededError, check_homotopy
from ..derivations import (GSpec, classifying_invariants, gamma_check,
                           mapping_space_pi)
from ..dgl import (DGLMorphism, MCElement, bch, gauge_act, gauge_equivalent,
                   h0_group, log_morphism, exp_derivation_values)
from ..exactlin import (IllFormedComplexError, InternalError, ResourceLimitError,
                        SparseVec, _vec, extension_dimensions, homology_at,
                        kernel_basis)
from ..freelie import (DegreeError, bracket, check_resource_limit, lie_basis,
                       lie_dimension, set_resource_limit)
from .ast import print_rational
from .elaborate import (ElaborationError, eval_expr, load_model,
                        workspace_from_text)
from .parser import Diagnostic
from .report import Report

DEFAULT_RESOURCE_LIMIT = 20000


class Task:
    """exprs holds named expression strings, names named object references."""

    __slots__ = ("command", "model_ref", "file_text", "trunc", "word_cap",
                 "poly_cap", "degree_range", "gspec", "exprs", "names",
                 "check_stability")

    def __init__(self, command: str, model_ref: str | None = None,
                 file_text: str | None = None, trunc: int | None = None,
                 word_cap: int = 3, poly_cap: int = 6,
                 degree_range: tuple | None = None, gspec: str = "identity",
                 exprs: dict | None = None, names: dict | None = None,
                 check_stability: bool = True):
        self.command = command
        self.model_ref = model_ref
        self.file_text = file_text
        self.trunc = trunc
        self.word_cap = word_cap
        self.poly_cap = poly_cap
        self.degree_range = degree_range
        self.gspec = gspec
        self.exprs = {} if exprs is None else exprs
        self.names = {} if names is None else names
        self.check_stability = check_stability

    def echo(self):
        bits = ["cdgl", self.command]
        if self.model_ref:
            bits.append("--model %s" % self.model_ref)
        if self.trunc is not None:
            bits.append("--truncate %d" % self.trunc)
        if self.degree_range:
            bits.append("--range %d..%d" % self.degree_range)
        if self.command in ("baut", "bautstar"):
            bits.append("--gspec %s" % self.gspec)
        for k in sorted(self.exprs):
            bits.append("--%s %r" % (k, self.exprs[k]))
        for k in sorted(self.names):
            bits.append("--%s %s" % (k, self.names[k]))
        return " ".join(bits)


def _resource_limit():
    raw = os.environ.get("CDGL_RESOURCE_LIMIT", "")
    if not raw:
        return DEFAULT_RESOURCE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError("CDGL_RESOURCE_LIMIT must be a positive integer, "
                         "got %r" % raw)
    return limit


def _load(task: Task, trunc_override=None, need_model=True,
          from_workspace=False):
    """Workspace (possibly empty) + resolved model presentation.  When none
    resolves and need_model is true, a diagnostic: the file's first error,
    else, unless the command reads only named objects of the file
    (from_workspace), a request for --model or a model file."""
    cap = task.trunc if trunc_override is None else trunc_override
    ws = None
    if task.file_text is not None:
        ws, _doc = workspace_from_text(task.file_text, truncation_override=cap)
    L = None
    if task.model_ref:
        L = load_model(task.model_ref, truncation=cap, workspace=ws)
    elif ws is not None and len(ws.models) == 1:
        L = next(iter(ws.models.values())).presentation
    errors = [d.message for d in (ws.diags if ws else ()) if d.severity == "error"]
    if L is None and need_model:
        if errors:
            raise ElaborationError(errors[0])
        if from_workspace:
            return ws, L
        if ws is not None and ws.models:
            raise ElaborationError("the file declares models %s; choose one "
                                   "with --model" % ", ".join(ws.models))
        raise ElaborationError("%s needs a model file or --model" % task.command)
    return ws, L


def _parse_expr_str(text, L):
    from .parser import Parser
    p = Parser(text)
    expr = p.parse_expr()
    errs = [d for d in p.diags if d.severity == "error"]
    if errs or not p.at("EOF"):
        raise ElaborationError("cannot parse expression %r" % text)
    return eval_expr(expr, L)


def _coords(L, e, degree, what):
    """e's coordinates on L.basis(degree); DegreeError(what) if e has another degree."""
    if not e.is_zero() and e.degree() != degree:
        raise DegreeError(what)
    return L.coords(e, degree)


def pretty_element(L, vec, degree):
    """Canonical bracket-expression string for the element of L with
    coordinates vec on basis(degree)."""
    basis = L.basis(degree)
    bits = []
    for i, c in sorted(vec.entries.items()):
        label = basis[i].label or ("e%d_%d" % (degree, i))
        bits.append(label if c == 1 else "%s * %s" % (print_rational(c), label))
    return " + ".join(bits) or "0"


def _cap_of(L):
    return L.trunc.max_bracket_length


def _degree_range(task: Task, least=None):
    """(a, b) of the task's --range a..b, which must be given, with a <= b;
    with least given, b must reach least and a is raised to it."""
    if task.degree_range is None:
        raise ValueError("%s needs an explicit --range a..b" % task.command)
    lo, hi = task.degree_range
    if lo > hi:
        raise ValueError("%s needs a range a..b with a <= b, got %d..%d"
                         % (task.command, lo, hi))
    if least is not None:
        if hi < least:
            raise ValueError("%s needs a range that reaches degree %d, got %d..%d"
                             % (task.command, least, lo, hi))
        lo = max(lo, least)
    return lo, hi


def _stability(task: Task, report: Report, L, again, now) -> Report:
    """The cap + 1 re-run: now is the stability key at cap N, again(cap)
    computes it at cap N + 1, and the report is green when the two agree.
    The engine builds what no key reads (long exact sequences, nilpotency,
    structure constants) on first read, so each re-run computes only its
    key: the homology dimensions (homology, pi-map, baut, bautstar), the
    group's dimension and, for h0, abelian up to the first nonzero bracket.
    h0, baut and bautstar re-run their command in full at cap N + 1;
    homology and pi-map read their keys off the length filtration
    (_homology_again, _pi_again).  A model ill-formed at cap N + 1, as a
    d that is a series cut at N, keeps the cap-N answer: the re-run's
    ElaborationError turns the flag red, with a note naming the cap and the
    error; an engine error is not caught."""
    if task.check_stability:
        try:
            later = again(_cap_of(L) + 1)
        except ElaborationError as exc:
            later = None
            report.notes.append("stability re-run at cap %d failed: %s" % (_cap_of(L) + 1, exc))
        report.stability = "green" if now == later else "red"
    return report


def _layer_setup(load, phi, answered, guarded, cap):
    """The set-up of the re-runs off the length filtration (_homology_again,
    _pi_again): load(cap), the morphism at cap N + 1 = cap, loaded as the
    full re-run loads it (an ill-formed model raises its ElaborationError);
    its source, target and images cut at N must be those of the answer
    run's phi (else InternalError).  Returns it with the target's layer
    dimensions at length N + 1 in the degrees guarded, from
    freelie.lie_dimension, first held to the answer run's own picks at
    length N in the degrees answered (a miscount is an InternalError, never
    a quiet flag), and held to the resource limit as the layer's bases
    would be."""
    phi1, N, T = load(cap), cap - 1, phi.target
    for now, again in ((phi.source, phi1.source), (T, phi1.target)):
        if (again.gens != now.gens or again.trunc.max_degree != now.trunc.max_degree
                or any(again.d_on_gens[g].truncated(now.trunc) != v
                       for g, v in now.d_on_gens.items())):
            raise InternalError("the cap-%d model cut at cap %d is not the cap-%d "
                                "model" % (cap, N, N))
    if any(phi1.images[g].truncated(T.trunc) != v for g, v in phi.images.items()):
        raise InternalError("the cap-%d morphism cut at cap %d is not the cap-%d "
                            "morphism" % (cap, N, N))
    for n in answered:
        _check_picks(n, N, sum(len(next(iter(e.terms))) == N for e in T.basis(n)),
                  lie_dimension(T.gens, n, N, T.trunc))
    dims = {n: lie_dimension(T.gens, n, cap, phi1.target.trunc) for n in guarded}
    for size in dims.values():
        check_resource_limit(size, "basis size")
    return phi1, dims


def _check_picks(n, length, picks, dim):
    if picks != dim:
        raise InternalError("lie_dimension miscounts degree %d, length %d: the "
                            "basis holds %d picks" % (n, length, picks))


def _layer_basis(T1, dims, n, cap):
    """lie_basis of T1 at degree n and length cap, with dims[n] picks."""
    layer = lie_basis(T1.gens, n, cap, T1.trunc)
    _check_picks(n, cap, len(layer), dims[n])
    return layer


def _layer_vector(index, parts, n, cap):
    """The (key, LieElement) pairs parts, of length N + 1 = cap, as one
    vector on the (key, word)s of the growing dict index."""
    vec = SparseVec()
    for key, e in parts:
        if any(len(w) < cap for w in e.terms):
            raise InternalError("d at degree %d has words below the layer of "
                                "length %d" % (n, cap))
        vec.entries.update((index.setdefault((key, w), len(index)), c)
                           for w, c in e.terms.items())
    return vec


def _homology_again(task: Task, L, hs, cap):
    """The homology dimensions of hs's window at cap N + 1 = cap, read off
    the length filtration instead of rebuilding the cap-(N + 1) complex.

    The model is loaded at cap N + 1 and checked by _layer_setup.  d raises
    length or keeps it, so at cap N + 1 the words of length N + 1 form a
    subcomplex, the layer, whose differential is the linear part d_1 of d;
    the quotient by the layer is the cap-N complex, with the answer run's
    reports hs; and the cross block takes a cap-N cycle to the
    length-(N + 1) part of its d.  exactlin.extension_dimensions reads the
    dimensions off the long exact sequence.  Only a model with d != 0 puts
    anything into coordinates: the cross block on the representatives hs
    holds, and, for d_1 != 0, d on the layer's basis, each as a vector on
    the words of its degree, where ranks are the same as on the layer's
    basis."""
    degrees = sorted(hs)
    phi1, dims = _layer_setup(lambda cap: DGLMorphism.identity(_load(task, cap)[1]),
                              DGLMorphism.identity(L), degrees,
                              [degrees[0] - 1] + degrees, cap)
    L1 = phi1.source
    boundary, cross = {}, {}
    if any(not v.is_zero() for v in L1.d_on_gens.values()):
        words = {}

        def column(e, n):
            """d e as a vector on the words of degree n - 1."""
            return _layer_vector(words.setdefault(n - 1, {}), [(None, L1.d(e))], n, cap)

        linear = any(len(w) == 1 for v in L1.d_on_gens.values() for w in v.terms)
        for n in degrees:
            if linear:
                boundary[n] = [v for v in (column(e, n) for e in _layer_basis(
                    L1, dims, n, cap)) if v.entries]
            cross[n] = [v for v in (column(L.from_coords(z, n).truncated(L1.trunc), n)
                                    for z in hs[n].cycle_reps) if v.entries]
    return extension_dimensions(hs, dims, boundary, cross)


def _pi_again(task: Task, phi, rep, cap):
    """(pointed, free) at cap N + 1 = cap off the length filtration, as
    _homology_again reads homology, from phi and rep of the answer run.

    D, -s d and ad_x . phi never lower the length of the target's words, so
    in T = Der(L, L'; phi) ~x sL' at cap N + 1 the slots of length N + 1
    form a subcomplex, the layer, in degree n the sum over source generators
    g of L'_{|g| + n}, plus sL'_{n - 1}; Der's slots in it are one of Der.
    The quotients are the cap-N complexes, with the reports rep.hA, rep.hB.
    The cross block takes a cap-N cycle (theta, sx) to the length-(N + 1)
    part of D theta + ad_x . phi and of -s dx, on the (g, word)s and
    (s, word)s.  At a degree n + 1 outside the key, n in it, it is taken on
    all the cap-N cycles (the connecting map kills boundaries).  A degree
    cap keeps d from being a derivation of the capped algebra, so for a
    capped L' with d != 0, d^2 = 0 is held on the lifts of the cap-N basis
    and the layer's, as the full re-run did.  Only that check and a linear
    part of d build the layer's basis."""
    keys, spaces = sorted(rep.pointed), sorted(rep.dercx.spaces)
    gens, tw = phi.source.gens, rep.twisted
    # the target degrees of the Der and sL' spaces, as the full re-run builds
    guarded = sorted({g.degree + m for g in gens for m in spaces} | {m - 1 for m in spaces})
    phi1, dims = _layer_setup(lambda cap: _morphism(task, cap), phi, guarded, guarded, cap)
    S1, T1 = phi1.source, phi1.target
    words, columns = {}, {}
    d_words = [w for L1 in (S1, T1) for v in L1.d_on_gens.values() for w in v.terms]
    dzero, linear = not d_words, any(len(w) == 1 for w in d_words)

    def d(n, theta, x):
        """d (theta, sx) at cap N + 1 as (key, element) pairs, theta a
        degree-n phi-derivation's values and x in L'_{n - 1} (None in Der);
        the key of a Der block is its generator, that of sL' None."""
        parts = []
        for h in gens:
            v = T1.zero() if x is None else bracket(x, phi1.images[h])
            if h in theta:
                v = v + T1.d(theta[h])
            if theta and S1.d_on_gens[h].terms:
                v = v - phi1.derive(theta, n, S1.d_on_gens[h]).scale((-1) ** (n % 2))
            parts.append((h, v))
        return parts if x is None else parts + [(None, -T1.d(x))]

    def column(n, theta, x):
        return _layer_vector(words.setdefault(n - 1, {}), d(n, theta, x), n, cap)

    def element(vec, degree):
        e = phi.target.from_coords(vec, degree)
        e.trunc = T1.trunc      # a word of cap N is one of cap N + 1
        return e

    def lift(n, z, free):
        """z of T_n (free) or Der_n at cap N as (theta, x), theta left out
        when d = 0, where D theta = 0."""
        nd = tw.sub.dim(n)
        theta = {} if dzero else {g: element(_vec(u), g.degree + n) for g, u in
                                  rep.dercx.space(n).values(z.entries).items()}
        x = _vec({i - nd: c for i, c in z.entries.items() if i >= nd})
        return theta, element(x, n - 1) if free else None

    def layer(n):
        """The layer's basis in degree n as (theta, x): Der's, then sL''s."""
        return ([({g: e}, None) for g in gens
                 for e in _layer_basis(T1, dims, g.degree + n, cap)],
                [({}, x) for x in _layer_basis(T1, dims, n - 1, cap)])

    if T1.trunc.max_degree is not None and any(v.terms for v in T1.d_on_gens.values()):
        for n in rep.dercx.degrees[1:]:
            for theta, x in [lift(n, SparseVec.unit(i), True)
                             for i in range(tw.total.dim(n))] + sum(layer(n), []):
                image = dict(d(n, theta, x))
                sx = image.pop(None, None)
                if any(v.terms for _, v in d(n - 1, {h: v for h, v in image.items()
                                                     if v.terms}, sx)):
                    raise IllFormedComplexError("dd != 0 from degree %d" % n)
    out = []
    for free, hQ, cx in ((False, rep.hA, tw.sub), (True, rep.hB, tw.total)):
        boundary, cross = {}, {}
        for n in keys + sorted({n + 1 for n in keys} - set(keys)):
            # with d = 0 the cross block of Der is 0
            cycles = ([] if dzero and not free else hQ[n].cycle_reps if n in keys
                      else kernel_basis(cx.d(n)) if cx.dim(n) else [])
            cross[n] = [v for v in (column(n, *lift(n, z, free)) for z in cycles) if v.entries]
            if linear:
                if n not in columns:
                    columns[n] = [[column(n, *e) for e in part] for part in layer(n)]
                der, sl = columns[n]
                boundary[n] = [v for v in der + (sl if free else []) if v.entries]
        size = {n: sum(dims[g.degree + n] for g in gens) + (dims[n - 1] if free else 0)
                for n in keys}
        out.append(extension_dimensions({n: hQ[n] for n in keys}, size, boundary, cross))
    return tuple(out)


def run_task(task: Task) -> Report:
    t0 = time.time()
    try:
        set_resource_limit(_resource_limit())
        report = _dispatch(task)
    except ResourceLimitError as exc:
        report = Report(command=task.echo(), status="resource-limit",
                        notes=["resource limit exceeded: %s" % exc])
    except CapExceededError as exc:
        report = Report(command=task.echo(), status="resource-limit",
                        notes=["polynomial cap exceeded: %s" % exc])
    except ValueError as exc:   # ElaborationError and a model's own checks
        report = Report(command=task.echo(), status="diagnostics",
                        diagnostics=[Diagnostic(0, 0, "error", str(exc))])
    except InternalError as exc:
        report = Report(command=task.echo(), status="internal-error",
                        notes=[str(exc)])
    finally:
        set_resource_limit(None)
    report.timing = time.time() - t0
    return report


def _dispatch(task: Task) -> Report:
    fn = _COMMANDS.get(task.command)
    if fn is None:
        raise ValueError("unknown command %r" % task.command)
    return fn(task)


# -- commands ------------------------------------------------------------------

def cmd_check(task: Task) -> Report:
    report = Report(command=task.echo())
    if task.file_text is None and task.model_ref is None:
        raise ValueError("check needs a file or a model reference")
    if task.file_text is not None:
        ws, _ = _load(task, need_model=False)
        report.diagnostics = list(ws.diags)
        report.tables["models"] = {name: "valid" for name in sorted(ws.models)}
        report.tables["morphisms"] = {n: "valid" for n in sorted(ws.morphisms)}
        report.tables["derivations"] = {n: "declared" for n in sorted(ws.derivations)}
        if any(d.severity == "error" for d in ws.diags):
            report.status = "diagnostics"
        else:
            report.notes.append("PASS")
    else:
        _, L = _load(task)
        report.caps["truncation"] = _cap_of(L)
        report.tables["model"] = {L.name or task.model_ref: "valid"}
        report.notes.append("PASS")
    return report


def cmd_homology(task: Task) -> Report:
    lo, hi = _degree_range(task)
    report = Report(command=task.echo())
    _, L = _load(task)
    C = L.complex(range(lo, hi + 1)).validate()
    hs = {n: homology_at(C, n) for n in range(lo, hi + 1)}
    report.caps["truncation"] = _cap_of(L)
    report.tables["homology"] = {("H_%d" % n): h.dimension for n, h in hs.items()}
    report.tables["representatives"] = {
        ("H_%d" % n): [" + ".join("%s*%s" % (c, C.basis[n][i])
                                  for i, c in sorted(z.entries.items()))
                       for z in h.cycle_reps]
        for n, h in hs.items() if h.cycle_reps}
    return _stability(task, report, L, lambda cap: _homology_again(task, L, hs, cap),
                      {n: h.dimension for n, h in hs.items()})


def cmd_bch(task: Task) -> Report:
    ws, L = _load(task)
    x = _parse_expr_str(task.exprs["x"], L)
    y = _parse_expr_str(task.exprs["y"], L)
    u, v = (_coords(L, e, 0, "BCH arguments must be degree 0") for e in (x, y))
    out = bch(L.bch_law(), u.entries, v.entries)[0]
    report = Report(command=task.echo())
    report.caps["truncation"] = _cap_of(L)
    report.tables["bch"] = {"result": pretty_element(L, out, 0)}
    return report


def cmd_gauge(task: Task) -> Report:
    ws, L = _load(task)
    x = _parse_expr_str(task.exprs["x"], L)
    a = MCElement(L, _parse_expr_str(task.exprs["a"], L))
    res = gauge_act(_coords(L, x, 0, "gauge actor must be degree 0").entries, a)
    report = Report(command=task.echo())
    report.caps["truncation"] = _cap_of(L)
    report.tables["gauge"] = {"result": pretty_element(L, res, -1),
                              "mc_check": "pass"}
    return report


def cmd_gauge_equiv(task: Task) -> Report:
    ws, L = _load(task)
    a = MCElement(L, _parse_expr_str(task.exprs["a"], L))
    b = MCElement(L, _parse_expr_str(task.exprs["b"], L))
    res = gauge_equivalent(a, b)
    report = Report(command=task.echo())
    report.caps["truncation"] = _cap_of(L)
    if res.equivalent:
        report.tables["gauge_equiv"] = {
            "equivalent": True, "witness": pretty_element(L, res.witness, 0),
            "level": res.level}
    else:
        report.tables["gauge_equiv"] = {
            "equivalent": False, "level": res.level,
            "obstruction_stage": res.failed_stage}
    return report


def cmd_exp(task: Task) -> Report:
    ws, _ = _load(task, from_workspace=True)
    name = task.names.get("derivation")
    if ws is None or name not in ws.derivations:
        raise ElaborationError("exp needs a file-declared derivation (--derivation)")
    theta = ws.derivations[name]
    if theta.degree != 0:
        raise ElaborationError("exp needs a degree-0 derivation; %r has degree %d"
                               % (name, theta.degree))
    phi = exp_derivation_values(theta.source, theta.values)
    report = Report(command=task.echo())
    report.caps["truncation"] = _cap_of(theta.source)
    report.tables["exp"] = {g.name: pretty_element(
        theta.source, theta.source.coords(img, g.degree), g.degree)
        for g, img in phi.images.items()}
    return report


def cmd_log(task: Task) -> Report:
    ws, _ = _load(task, from_workspace=True)
    name = task.names.get("morphism")
    if ws is None or name not in ws.morphisms:
        raise ElaborationError("log needs a file-declared morphism (--morphism)")
    phi = ws.morphisms[name]
    values = log_morphism(phi)
    report = Report(command=task.echo())
    report.caps["truncation"] = _cap_of(phi.source)
    report.tables["log"] = {g.name: pretty_element(
        phi.source, phi.source.coords(v, g.degree), g.degree)
        for g, v in values.items() if not v.is_zero()}
    return report


def cmd_h0(task: Task) -> Report:
    report = Report(command=task.echo())

    def group_at(trunc_override):
        _, L = _load(task, trunc_override)
        return L, h0_group(L)

    L, G = group_at(None)
    report.caps["truncation"] = _cap_of(L)
    nil = G.nilpotency_class    # builds the table, which abelian then reads
    report.tables["h0"] = {
        "dimension": G.dimension,
        "abelian": G.abelian,
        "nilpotency_class": nil,
        "malcev_stage": _cap_of(L),
    }
    consts = {}
    for (i, j), vec in sorted(G.structure.items()):
        val = " + ".join("%s*h%d" % (c, k) for k, c in sorted(vec.entries.items()))
        consts["h%d*h%d" % (i, j)] = val or "0"
    report.tables["structure_constants"] = consts
    report.tables["representatives"] = {
        "h%d" % i: pretty_element(L, z, 0)
        for i, z in enumerate(G.reports[0].cycle_reps)}
    if task.check_stability:
        report.notes.append("structure constants are the stage-%d Malcev "
                            "approximation" % _cap_of(L))
    key = lambda g: (g.dimension, g.abelian)
    return _stability(task, report, L, lambda cap: key(group_at(cap)[1]), key(G))


def _morphism(task, trunc_override=None):
    """The task's --morphism, id, zero or one of the file's, which names its
    own models, with its models loaded (_load) at the cap."""
    name = task.names.get("morphism", "id")
    ws, L = _load(task, trunc_override, from_workspace=name not in ("id", "zero"))
    if name == "id":
        return DGLMorphism.identity(L)
    if name == "zero":
        return DGLMorphism.zero_morphism(L, L)
    if ws is None or name not in ws.morphisms:
        raise ElaborationError("unknown morphism %r" % name)
    return ws.morphisms[name]


def cmd_pi_map(task: Task) -> Report:
    lo, hi = _degree_range(task, 1)
    report = Report(command=task.echo())
    phi = _morphism(task)
    rep = mapping_space_pi(phi, range(lo, hi + 1))
    report.caps["truncation"] = _cap_of(phi.source)
    report.tables["pi_pointed"] = {("pi_%d" % n): d for n, d in rep.pointed.items()}
    report.tables["pi_free"] = {("pi_%d" % n): d for n, d in rep.free.items()}
    report.tables["fiber_components_h0"] = {"dimension": rep.fiber_components_h0}
    report.notes.append("LES exactness verified at degrees %s"
                        % (rep.les.degrees,))
    return _stability(task, report, phi.source, lambda cap: _pi_again(task, phi, rep, cap),
                      (rep.pointed, rep.free))


def _resolve_gspec(task, ws, L) -> GSpec:
    spec = task.gspec or "identity"
    if spec == "identity":
        return GSpec("identity", L)
    if spec.startswith("stabilizer:"):
        name = spec.split(":", 1)[1]
        if ws is None:
            raise ElaborationError("stabilizer spec needs a model file with "
                                   "filtration %r" % name)
        for m in ws.models.values():
            if m.presentation is L and name in m.filtrations:
                return GSpec("stabilizer", L, filtration=m.filtrations[name])
        for model_name, m in ws.models.items():
            if name in m.filtrations:
                raise ElaborationError("filtration %r is declared on model %s"
                                       % (name, model_name))
        raise ElaborationError("unknown filtration %r" % name)
    if spec.startswith("span:"):
        names = [n for n in spec.split(":", 1)[1].split(",") if n]
        if ws is None:
            raise ElaborationError("span spec needs a model file with derivations")
        ders = []
        for n in names:
            if n not in ws.derivations:
                raise ElaborationError("unknown derivation %r" % n)
            if ws.derivations[n].source is not L:
                raise ElaborationError("derivation %r is declared on model %s" % (
                    n, next(name for name, m in ws.models.items()
                            if m.presentation is ws.derivations[n].source)))
            ders.append(ws.derivations[n])
        return GSpec("span", L, span=ders)
    raise ValueError("bad --gspec %r" % spec)


def _classifying(task: Task, mode) -> Report:
    lo, hi = _degree_range(task, 1)
    report = Report(command=task.echo())

    def run(trunc_override):
        ws, L = _load(task, trunc_override)
        spec = _resolve_gspec(task, ws, L)
        return L, classifying_invariants(L, spec, mode, range(lo, hi + 1))

    L, rep = run(None)
    report.caps["truncation"] = _cap_of(L)
    if mode == "FREE":
        report.tables["pi_baut"] = {("pi_%d" % (n + 1)): d
                                    for n, d in sorted(rep.pi_base.items())}
        report.tables["group"] = {
            "dimension": rep.h0_quotient.dimension,
            "ad_image_rank": rep.ad_image_rank,
            "abelian": rep.h0_quotient.abelian,
        }
    else:
        report.tables["pi_group"] = {"dimension": rep.h0_quotient.dimension,
                                     "abelian": rep.h0_quotient.abelian}
        report.tables["total_homology"] = {("H_%d" % n): d
                                           for n, d in sorted(rep.total_homology.items())}
    report.tables["invariants"] = {
        "der0_dimension": rep.der0_dimension,
        "homotopy_nilpotency": rep.nilpotency,
        "saturation": rep.saturation_flag,
    }
    key = lambda r: (r.pi_base, r.h0_quotient.dimension, r.total_homology)
    return _stability(task, report, L, lambda cap: key(run(cap)[1]), key(rep))


def cmd_baut(task: Task) -> Report:
    return _classifying(task, "FREE")


def cmd_bautstar(task: Task) -> Report:
    return _classifying(task, "POINTED")


def cmd_witness(task: Task) -> Report:
    ws, _ = _load(task, from_workspace=True)
    if ws is None:
        raise ValueError("witness checking needs a model file")
    hname = task.names.get("homotopy")
    if hname is None:
        raise ValueError("witness needs --homotopy NAME")
    w = ws.witness(hname, task.poly_cap)
    phi = ws.morphisms.get(task.names.get("from", ""))
    psi = ws.morphisms.get(task.names.get("to", ""))
    if phi is None or psi is None:
        raise ElaborationError("witness needs --from and --to morphism names")
    verdict = check_homotopy(w, phi, psi)
    report = Report(command=task.echo())
    report.caps.update(verdict.caps)
    report.tables["witness"] = {"accepted": verdict.ok,
                                "cap_stable": verdict.stable}
    if verdict.certificate:
        report.tables["certificate"] = {k: str(v)
                                        for k, v in verdict.certificate.items()}
    return report


def cmd_gamma(task: Task) -> Report:
    phi = _morphism(task)
    rep = gamma_check(phi, task.word_cap)
    report = Report(command=task.echo())
    report.caps.update(rep.caps)
    report.tables["gamma"] = {"verified": rep.ok,
                              "basis_checked": rep.basis_checked,
                              "pairs_checked": rep.pairs_checked}
    if rep.failures:
        report.tables["failures"] = [str(f) for f in rep.failures]
        report.status = "diagnostics"
    return report


_COMMANDS = {
    "check": cmd_check,
    "homology": cmd_homology,
    "bch": cmd_bch,
    "gauge": cmd_gauge,
    "gauge-equiv": cmd_gauge_equiv,
    "exp": cmd_exp,
    "log": cmd_log,
    "h0": cmd_h0,
    "pi-map": cmd_pi_map,
    "baut": cmd_baut,
    "bautstar": cmd_bautstar,
    "witness": cmd_witness,
    "gamma": cmd_gamma,
}

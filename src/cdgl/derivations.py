"""Derivation complexes, twisted products, distinguished subalgebras of
derivations, the suspension-comparison isomorphism, and the pipelines that
compute mapping-space and classifying-space invariants.

Derivations are stored by their values on source generators and extended by
the (twisted) Leibniz rule; a derivation complex is then a finite chain
complex per degree window at the ambient truncation.  The classifying
pipelines assume a connected minimal presentation (degree >= 0 generators,
decomposable differential), which is exactly the setting where degree-0
adjoint derivations are cycles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from . import exactlin
from .coalgebra import (ConvolutionDGL, HomElement, adjunction_alpha,
                        chains_functor, lie_functor)
from .dgl import (DGLMorphism, DGLPresentation, DivergenceError,
                  GeneratorFiltration, ad_values, apply_operator,
                  exp_derivation_values, log_morphism)
from .exactlin import (ChainMap, FactoredBasis, GradedChainComplex,
                       IncrementalSpan, SparseMat, SparseVec, homology_at,
                       les_of_ses)
from .freelie import LieElement, bracket


class InvalidSubgroupError(ValueError):
    """A SPAN specification fails its closure obligations."""


class NotConnectedError(ValueError):
    """A pipeline requires a connected (minimal) presentation."""


class Derivation:
    """(f-)derivation given by its values on source generators."""

    __slots__ = ("source", "target", "degree", "values", "base", "label")

    def __init__(self, source: DGLPresentation, target: DGLPresentation,
                 degree: int, values, base: DGLMorphism | None = None,
                 label=None):
        self.source = source
        self.target = target
        self.degree = degree
        self.base = base
        self.label = label
        self.values = {}
        for g in source.gens:
            v = values.get(g)
            if v is not None and not v.is_zero():
                self.values[g] = v

    def value(self, g) -> LieElement:
        v = self.values.get(g)
        return v if v is not None else self.target.zero()

    def apply(self, e: LieElement) -> LieElement:
        phi = None if self.base is None else self.base.images
        return apply_operator(self.values, self.degree, e, phi=phi, phi2=phi)

    def is_zero(self):
        return not self.values

    def __add__(self, other):
        out = {}
        for g in set(self.values) | set(other.values):
            s = self.value(g) + other.value(g)
            if not s.is_zero():
                out[g] = s
        return Derivation(self.source, self.target, self.degree, out, self.base)

    def scale(self, c):
        return Derivation(self.source, self.target, self.degree,
                          {g: v.scale(c) for g, v in self.values.items()}, self.base)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, Derivation) and self.degree == other.degree
                and self.values == other.values)

    def __repr__(self):
        bits = ["%s->%r" % (g.name, v) for g, v in sorted(self.values.items(),
                                                          key=lambda t: t[0].name)]
        return "Der[%d]{%s}" % (self.degree, "; ".join(bits[:4]))


def derivation_differential(theta: Derivation) -> Derivation:
    """D theta = d . theta - (-1)^{|theta|} theta . d."""
    src, tgt = theta.source, theta.target
    sgn = Fraction(-1) if theta.degree % 2 else Fraction(1)
    out = {}
    for g in src.gens:
        val = tgt.d(theta.value(g)) - theta.apply(src.d_on_gens[g]).scale(sgn)
        if not val.is_zero():
            out[g] = val
    return Derivation(src, tgt, theta.degree - 1, out, theta.base)


def derivation_bracket(a: Derivation, b: Derivation) -> Derivation:
    """[a, b] = a b - (-1)^{|a||b|} b a, for ordinary derivations of one L."""
    if a.base is not None or b.base is not None:
        raise ValueError("bracket is defined for Der L only")
    L = a.source
    sgn = Fraction(-1) if (a.degree * b.degree) % 2 == 0 else Fraction(1)
    out = {}
    for g in L.gens:
        val = a.apply(b.value(g)) + b.apply(a.value(g)).scale(sgn)
        if not val.is_zero():
            out[g] = val
    return Derivation(L, L, a.degree + b.degree, out)


def ad_derivation(L: DGLPresentation, x: LieElement) -> Derivation:
    deg = x.degree()
    return Derivation(L, L, 0 if deg is None else deg, ad_values(L, x),
                      label="ad")


class DerSpace:
    """Basis bookkeeping for one degree of a derivation complex.

    A derivation of degree n is coordinatized by flattening its values over
    the slots (generator g, basis of target degree |g| + n).
    """

    def __init__(self, source, target, degree, elements):
        self.source = source
        self.target = target
        self.degree = degree
        self.elements = list(elements)
        self._offsets = {}
        off = 0
        for g in source.gens:
            tgt_deg = g.degree + degree
            dim = len(target.basis(tgt_deg))
            self._offsets[g] = off
            off += dim
        self.total_slots = off
        self._factored = None

    def flatten(self, theta: Derivation) -> SparseVec:
        out = {}
        for g, v in theta.values.items():
            coords = self.target.coords(v, g.degree + self.degree)
            off = self._offsets[g]
            for i, c in coords.entries.items():
                out[off + i] = c
        return SparseVec(out)

    def coords(self, theta: Derivation) -> SparseVec:
        """Coordinates in the elements, which may be dependent: the
        free-variables-zero solution, as solve_linear would give."""
        if self._factored is None:
            self._factored = FactoredBasis(
                [self.flatten(e) for e in self.elements], self.total_slots)
        vec = self.flatten(theta)
        try:
            return self._factored.coords(vec)
        except exactlin.NotInSpanError:
            raise exactlin.NotInSpanError(
                "derivation outside the stored degree-%d space" % self.degree) from None

    def __len__(self):
        return len(self.elements)


def unit_derivations(source, target, degree, base=None):
    """The full Der_n basis: one unit table per (generator, target element)."""
    out = []
    for g in source.gens:
        for e in target.basis(g.degree + degree):
            out.append(Derivation(source, target, degree, {g: e}, base,
                                  label="%s->%s" % (g.name, e.label or "?")))
    return out


def _is_identity(phi: DGLMorphism) -> bool:
    return (phi.source is phi.target
            and all(phi.images[g] == phi.source.gen(g) for g in phi.source.gens))


class DerComplex:
    """Chain complex of (f-)derivations on a degree window."""

    def __init__(self, source, target, phi: DGLMorphism | None, degrees,
                 deg0_subspace=None):
        self.source = source
        self.target = target
        self.phi = None if (phi is None or _is_identity(phi)) else phi
        base = self.phi
        self.degrees = sorted(degrees)
        self.spaces = {}
        for n in self.degrees + [self.degrees[0] - 1]:
            if deg0_subspace is not None and n == 0:
                elems = deg0_subspace
            else:
                elems = unit_derivations(source, target, n, base)
            self.spaces[n] = DerSpace(source, target, n, elems)

    def space(self, n) -> DerSpace:
        sp = self.spaces.get(n)
        if sp is None:
            sp = DerSpace(self.source, self.target, n, [])
        return sp

    def complex(self) -> GradedChainComplex:
        basis = {}
        boundary = {}
        for n in self.spaces:
            if self.spaces[n].elements:
                basis[n] = [e.label or ("th%d_%d" % (n, i))
                            for i, e in enumerate(self.spaces[n].elements)]
        for n in self.degrees:
            src = self.space(n)
            tgt = self.space(n - 1)
            if not src.elements:
                continue
            cols = []
            for th in src.elements:
                D = derivation_differential(th)
                cols.append(tgt.coords(D) if not D.is_zero() else SparseVec())
            boundary[n] = SparseMat.from_columns(len(tgt), cols)
        meta = {"truncation": self.target.trunc.max_bracket_length,
                "der_of": self.target.name or ""}
        return GradedChainComplex(basis, boundary, meta)

    def ad_chain_map(self, Lcx: GradedChainComplex, dercx: GradedChainComplex,
                     degrees) -> ChainMap:
        """ad: L -> Der L as per-degree matrices against stored bases."""
        blocks = {}
        for n in degrees:
            cols = []
            for e in self.target.basis(n):
                theta = ad_derivation(self.target, e)
                cols.append(self.space(n).coords(theta))
            blocks[n] = SparseMat.from_columns(len(self.space(n)), cols)
        return ChainMap(Lcx, dercx, blocks)


# -- twisted complexes -------------------------------------------------------

DER_SL = "DER_SL"
L_DER = "L_DER"
FDER_SL = "FDER_SL"
HOM_DER = "HOM_DER"


@dataclass
class TwistedComplex:
    variant: str
    total: GradedChainComplex
    sub: GradedChainComplex
    quotient: GradedChainComplex
    incl: ChainMap
    proj: ChainMap
    parts: dict = field(default_factory=dict)

    def ses(self):
        return self.sub, self.total, self.quotient, self.incl, self.proj


def _shifted_l_complex(L: DGLPresentation, degrees, phi=None) -> GradedChainComplex:
    """sL as a complex: (sL)_n = L_{n-1}, boundary -s d."""
    basis = {}
    boundary = {}
    for n in sorted(degrees) + [sorted(degrees)[0] - 1]:
        b = L.basis(n - 1)
        if b:
            basis[n] = ["s(%s)" % (e.label or "?") for e in b]
    for n in sorted(degrees):
        b = L.basis(n - 1)
        if not b or not L.basis(n - 2):
            continue
        cols = [L.coords(L.d(e), n - 2).scale(-1) if not L.d(e).is_zero()
                else SparseVec() for e in b]
        boundary[n] = SparseMat.from_columns(len(L.basis(n - 2)), cols)
    return GradedChainComplex(basis, boundary,
                              {"truncation": L.trunc.max_bracket_length})


def twisted_der_sl(dercx: DerComplex, L: DGLPresentation, degrees,
                   phi: DGLMorphism | None = None,
                   variant=DER_SL) -> TwistedComplex:
    """Der (x~) sL with D sx = -s dx + ad_x (or ad_x . phi for FDER_SL)."""
    degrees = sorted(degrees)
    sub = dercx.complex()
    quot = _shifted_l_complex(L, degrees)
    src = phi.source if phi is not None else L

    basis = {}
    boundary = {}
    dims_der = {}
    dims_sl = {}
    for n in degrees + [degrees[0] - 1]:
        der_labels = [e.label or "?" for e in dercx.space(n).elements]
        sl_labels = ["s(%s)" % (e.label or "?") for e in L.basis(n - 1)]
        dims_der[n] = len(der_labels)
        dims_sl[n] = len(sl_labels)
        if der_labels or sl_labels:
            basis[n] = der_labels + sl_labels
    for n in degrees:
        entries = {}
        dsub = sub.d(n) if dims_der[n] else None
        if dsub is not None:
            for (r, c), v in dsub.entries.items():
                entries[(r, c)] = v
        # sL columns: -s dx into the sL block, ad_x (. phi) into the Der block
        for j, e in enumerate(L.basis(n - 1)):
            col = dims_der[n] + j
            dx = L.d(e)
            if not dx.is_zero():
                for i, v in L.coords(dx, n - 2).entries.items():
                    entries[(dims_der[n - 1] + i, col)] = -v
            if phi is None:
                theta = ad_derivation(L, e)
            else:
                theta = Derivation(src, L, e.degree(),
                                   {g: bracket(e, phi.images[g]) for g in src.gens},
                                   base=phi)
            if not theta.is_zero():
                for i, v in dercx.space(n - 1).coords(theta).entries.items():
                    entries[(i, col)] = entries.get((i, col), Fraction(0)) + v
        boundary[n] = SparseMat(dims_der[n - 1] + dims_sl[n - 1],
                                dims_der[n] + dims_sl[n], entries)
    total = GradedChainComplex(basis, boundary, dict(sub.meta)).validate()
    incl = ChainMap(sub, total, {
        n: SparseMat(total.dim(n), sub.dim(n),
                     {(i, i): 1 for i in range(dims_der[n])})
        for n in degrees + [degrees[0] - 1]})
    proj = ChainMap(total, quot, {
        n: SparseMat(quot.dim(n), total.dim(n),
                     {(j, dims_der[n] + j): 1 for j in range(dims_sl[n])})
        for n in degrees + [degrees[0] - 1]})
    return TwistedComplex(variant, total, sub, quot, incl, proj,
                          parts={"der": dercx, "L": L, "dims_der": dims_der,
                                 "dims_sl": dims_sl})


def twisted_l_der(L: DGLPresentation, dercx: DerComplex, degrees) -> TwistedComplex:
    """L (x~) Der with block-diagonal differential; [theta, x] = theta(x)."""
    degrees = sorted(degrees)
    Lcx = L.complex(range(degrees[0] - 1, degrees[-1] + 1))
    dcx = dercx.complex()
    basis = {}
    boundary = {}
    dims_l = {}
    dims_d = {}
    for n in degrees + [degrees[0] - 1]:
        llabels = list(Lcx.basis.get(n, []))
        dlabels = list(dcx.basis.get(n, []))
        dims_l[n], dims_d[n] = len(llabels), len(dlabels)
        if llabels or dlabels:
            basis[n] = llabels + dlabels
    for n in degrees:
        entries = {}
        for (r, c), v in Lcx.d(n).entries.items():
            entries[(r, c)] = v
        for (r, c), v in dcx.d(n).entries.items():
            entries[(dims_l[n - 1] + r, dims_l[n] + c)] = v
        boundary[n] = SparseMat(dims_l[n - 1] + dims_d[n - 1],
                                dims_l[n] + dims_d[n], entries)
    total = GradedChainComplex(basis, boundary, dict(dcx.meta)).validate()
    incl = ChainMap(Lcx, total, {
        n: SparseMat(total.dim(n), Lcx.dim(n), {(i, i): 1 for i in range(dims_l[n])})
        for n in degrees + [degrees[0] - 1]})
    proj = ChainMap(total, dcx, {
        n: SparseMat(dcx.dim(n), total.dim(n),
                     {(j, dims_l[n] + j): 1 for j in range(dims_d[n])})
        for n in degrees + [degrees[0] - 1]})
    return TwistedComplex(L_DER, total, Lcx, dcx, incl, proj,
                          parts={"der": dercx, "L": L})


def twisted_hom_der(H: ConvolutionDGL, dercx: DerComplex, degrees) -> TwistedComplex:
    """Hom(C, L) (x~) Der L with [theta, f] = theta . f."""
    degrees = sorted(degrees)
    hcx = H.complex(degrees)
    dcx = dercx.complex()
    basis = {}
    boundary = {}
    dims_h = {}
    dims_d = {}
    for n in degrees + [degrees[0] - 1]:
        hl = list(hcx.basis.get(n, []))
        dl = list(dcx.basis.get(n, []))
        dims_h[n], dims_d[n] = len(hl), len(dl)
        if hl or dl:
            basis[n] = hl + dl
    for n in degrees:
        entries = {}
        for (r, c), v in hcx.d(n).entries.items():
            entries[(r, c)] = v
        for (r, c), v in dcx.d(n).entries.items():
            entries[(dims_h[n - 1] + r, dims_h[n] + c)] = v
        boundary[n] = SparseMat(dims_h[n - 1] + dims_d[n - 1],
                                dims_h[n] + dims_d[n], entries)
    total = GradedChainComplex(basis, boundary, dict(hcx.meta)).validate()
    incl = ChainMap(hcx, total, {
        n: SparseMat(total.dim(n), hcx.dim(n), {(i, i): 1 for i in range(dims_h[n])})
        for n in degrees + [degrees[0] - 1]})
    proj = ChainMap(total, dcx, {
        n: SparseMat(dcx.dim(n), total.dim(n),
                     {(j, dims_h[n] + j): 1 for j in range(dims_d[n])})
        for n in degrees + [degrees[0] - 1]})
    tc = TwistedComplex(HOM_DER, total, hcx, dcx, incl, proj,
                        parts={"H": H, "der": dercx})
    return tc


def hom_der_bracket(H: ConvolutionDGL, theta: Derivation, f: HomElement) -> HomElement:
    """[theta, f] = theta . f in the Hom (x~) Der twisted dgl."""
    return HomElement(H, theta.degree + f.degree,
                      {i: theta.apply(v) for i, v in f.values.items()})


def der_sl_bracket(theta: Derivation, x: LieElement) -> LieElement:
    """[theta, sx] = (-1)^{|theta|} s theta(x); returns theta(x) (the
    desuspended value), the caller tracks the suspension."""
    sgn = Fraction(-1) if theta.degree % 2 else Fraction(1)
    return theta.apply(x).scale(sgn)


# -- distinguished degree-0 subalgebras ---------------------------------------

@dataclass
class GSpec:
    """Subgroup specification for the classifying pipelines."""

    kind: str                    # "identity" | "stabilizer" | "span"
    target: DGLPresentation
    filtration: GeneratorFiltration | None = None
    span: list = field(default_factory=list)   # list of Derivation
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("identity", "stabilizer", "span"):
            raise ValueError("unknown GSpec kind %r" % self.kind)
        if self.kind == "stabilizer" and self.filtration is None:
            raise ValueError("stabilizer spec needs a filtration")


def require_connected_minimal(L: DGLPresentation):
    for g in L.gens:
        if g.degree < 0:
            raise NotConnectedError(
                "classifying pipelines need a connected model; generator %s "
                "has degree %d (take a component first)" % (g.name, g.degree))
    for g, v in L.d_on_gens.items():
        if any(len(w) == 1 for w in v.terms):
            warnings.warn("differential of %s has a linear part; the model "
                          "is not minimal" % g.name)


def r0_basis(L: DGLPresentation):
    """R_0 = D(Der_1 L) + ad L_0 inside Der_0, as an independent list."""
    space0 = DerSpace(L, L, 0, unit_derivations(L, L, 0))
    span = IncrementalSpan()
    picked = []
    for th in unit_derivations(L, L, 1):
        D = derivation_differential(th)
        if D.is_zero():
            continue
        if span.add(space0.flatten(D)):
            D.label = "D(%s)" % (th.label or "?")
            picked.append(D)
    for e in L.basis(0):
        theta = ad_derivation(L, e)
        if theta.is_zero():
            continue
        if span.add(space0.flatten(theta)):
            theta.label = "ad(%s)" % (e.label or "?")
            picked.append(theta)
    return picked


def stabilizer_der0(L: DGLPresentation, filtration: GeneratorFiltration):
    """Degree-0 D-cycles theta with theta(V^i) in V^{i+1} + brackets."""
    units = unit_derivations(L, L, 0)
    space0 = DerSpace(L, L, 0, units)
    # admissible unit tables: length-1 values must raise the filtration level
    admissible = []
    for th in units:
        ((g, v),) = th.values.items()
        if v.min_length() == 1:
            ((word, _),) = v.terms.items()
            h = word[0]
            lvl = filtration.level_of(g)
            if h not in filtration.next_level(lvl):
                continue
        admissible.append(th)
    if not admissible:
        return []
    spacem1 = DerSpace(L, L, -1, unit_derivations(L, L, -1))
    cols = []
    for th in admissible:
        D = derivation_differential(th)
        cols.append(spacem1.coords(D) if not D.is_zero() else SparseVec())
    mat = SparseMat.from_columns(len(spacem1), cols)
    kernel = exactlin.kernel_basis(mat)
    out = []
    for k, vec in enumerate(kernel):
        th = Derivation(L, L, 0, {})
        for i, c in vec.entries.items():
            th = th + admissible[i].scale(c)
        th.label = "k%d" % k
        out.append(th)
    return out


@dataclass
class DerGZeroReport:
    basis: list
    contains_r0: bool
    closure_verified: bool
    saturation_flag: bool       # True = saturated under exp(R0) conjugation
    notes: list = field(default_factory=list)


def der_g_zero(spec: GSpec) -> DerGZeroReport:
    """Degree-0 part of Der^G (or Der^Pi) for the three decidable spec kinds."""
    L = spec.target
    require_connected_minimal(L)
    r0 = r0_basis(L)
    space0 = DerSpace(L, L, 0, unit_derivations(L, L, 0))
    notes = []

    if spec.kind == "identity":
        return DerGZeroReport(list(r0), True, True, True, notes)

    if spec.kind == "stabilizer":
        basis = stabilizer_der0(L, spec.filtration)
        span = IncrementalSpan()
        for th in basis:
            span.add(space0.flatten(th))
        contains = all(not span.add(space0.flatten(th)) for th in r0)
        if not contains:
            raise InvalidSubgroupError("stabilizer subspace does not contain R0 "
                                       "(is the differential decomposable?)")
        return DerGZeroReport(basis, True, True, True, notes)

    # SPAN: user span closed under bracket together with R0, D-cycles
    span_list = list(spec.span)
    for th in span_list:
        if th.degree != 0:
            raise InvalidSubgroupError("span elements must be degree-0 derivations")
        if not derivation_differential(th).is_zero():
            raise InvalidSubgroupError("span elements must be D-cycles")
    full = IncrementalSpan()
    basis = []
    for th in span_list + r0:
        if full.add(space0.flatten(th)):
            basis.append(th)
    # bracket closure obligation (Theorem on complete subgroups, shadow)
    for a in basis:
        for b in basis:
            br = derivation_bracket(a, b)
            if br.is_zero():
                continue
            if not full.contains(space0.flatten(br)):
                raise InvalidSubgroupError(
                    "span + R0 is not closed under the bracket (closure "
                    "obligation from the complete-subgroup theorem)")
    # saturation under conjugation by exp(R0): flagged, not rejected
    saturated = True
    for r in r0:
        try:
            er = exp_derivation_values(L, r.values, check_cycle=False)
            er_inv = exp_derivation_values(L, r.scale(-1).values, check_cycle=False)
        except DivergenceError:
            # the conjugation cannot be checked, so saturation is not certified
            saturated = False
            notes.append("exp(%s) diverges at this truncation; saturation "
                         "not checked" % (r.label or "r0"))
            break
        for th in basis:
            conj = {}
            for g in L.gens:
                conj[g] = er.apply(th.apply(er_inv.apply(L.gen(g))))
            conj_th = Derivation(L, L, 0, conj)
            if not full.contains(space0.flatten(conj_th)):
                saturated = False
                notes.append("conjugation by exp(%s) leaves the span" % (r.label or "r0"))
                break
        if not saturated:
            break
    return DerGZeroReport(basis, True, True, saturated, notes)


def pointed_stability_check(L: DGLPresentation, basis):
    """Pointed pipelines need the span preserved by bracketing with ad L_0."""
    space0 = DerSpace(L, L, 0, unit_derivations(L, L, 0))
    full = IncrementalSpan()
    for th in basis:
        full.add(space0.flatten(th))
    for e in L.basis(0):
        adx = ad_derivation(L, e)
        for th in basis:
            br = derivation_bracket(adx, th)
            if not br.is_zero() and not full.contains(space0.flatten(br)):
                raise InvalidSubgroupError(
                    "span is not preserved by the degree-0 adjoint action "
                    "(pointed pipelines need an action-stable span)")
    return True


# -- suspension comparison (Gamma) ---------------------------------------------

@dataclass
class GammaReport:
    ok: bool
    basis_checked: int
    pairs_checked: int
    failures: list = field(default_factory=list)
    caps: dict = field(default_factory=dict)


def _gamma_image(H: ConvolutionDGL, LC: DGLPresentation, gen_of_label,
                 theta: Derivation) -> HomElement:
    """Gamma(s^{-1} theta)(c) = (-1)^{|theta|} theta(s^{-1} c) on reduced labels."""
    sgn = Fraction(-1) if theta.degree % 2 else Fraction(1)
    values = {}
    for i, g in gen_of_label.items():
        v = theta.value(g)
        if not v.is_zero():
            values[i] = v.scale(sgn)
    return HomElement(H, theta.degree - 1, values)


def gamma_check(phi: DGLMorphism, word_cap: int, degrees=None) -> GammaReport:
    """Exact finite verification of the comparison isomorphism between the
    desuspended f-derivations of Lie(Chains(source)) and the perturbed
    convolution complex Hom(reduced Chains(source), target).

    Checks, on every stored basis element: bijectivity, the chain-map
    identity against D perturbed by the morphism's MC element, and bracket
    compatibility.
    """
    Lsrc, Ltgt = phi.source, phi.target
    C = chains_functor(Lsrc, word_cap)
    LC = lie_functor(C, Ltgt.trunc)
    alpha = adjunction_alpha(Lsrc, C, LC)
    phi_tilde = phi.compose(alpha)
    H = ConvolutionDGL(C, Ltgt)
    phibar = H.mc_of_morphism(phi)

    # generator of LC for each reduced label
    gen_of_label = {i: g for i, g in zip(C.reduced_indices(), LC.gens)}
    label_of_gen = {g: i for i, g in gen_of_label.items()}

    if degrees is None:
        lo, hi = Ltgt.degree_bounds()
        gdegs = [g.degree for g in LC.gens]
        degrees = range(lo - max(gdegs), hi - min(gdegs) + 1)

    failures = []
    basis_checked = 0
    pairs = 0

    def der_basis(n):
        return unit_derivations(LC, Ltgt, n, base=phi_tilde)

    def gamma(theta):
        return _gamma_image(H, LC, gen_of_label, theta)

    def d_lc(theta):
        return derivation_differential(theta)

    def hom_d_perturbed(f):
        return H.differential(f) + H.bracket(phibar, f)

    def conv_bracket_reduced(f, g):
        out = H.bracket(f, g)
        out.values.pop(C.counit, None)
        return out

    def der_bracket_desusp(gam, eta):
        # [s^{-1}gamma, s^{-1}eta] = s^{-1}theta with
        # theta(s^{-1}c) = -sum (-1)^{(|eta|-1)|c_i|}[gamma(s^{-1}c_i), eta(s^{-1}c_i')]
        values = {}
        for i, g in gen_of_label.items():
            acc = Ltgt.zero()
            for l, r, c in C.reduced_comul(i):
                gl = gen_of_label.get(l)
                gr = gen_of_label.get(r)
                if gl is None or gr is None:
                    continue
                gv = gam.value(gl)
                ev = eta.value(gr)
                if gv.is_zero() or ev.is_zero():
                    continue
                sgn = Fraction(-1) if ((eta.degree - 1) * C.degrees[l]) % 2 \
                    else Fraction(1)
                acc = acc + bracket(gv, ev).scale(sgn * c)
            if not acc.is_zero():
                values[g] = acc.scale(-1)
        return Derivation(LC, Ltgt, gam.degree + eta.degree - 1, values,
                          base=phi_tilde)

    for n in degrees:
        basis = der_basis(n)
        # bijectivity: Gamma maps the unit-table basis bijectively onto the
        # reduced Hom basis (label-for-label, up to sign)
        for th in basis:
            basis_checked += 1
            img = gamma(th)
            if len(img.values) != len(th.values):
                failures.append(("bijectivity", th.label))
            # chain map: Gamma(-s^{-1} D theta) = D_{phibar} Gamma(theta).
            # with |s^{-1}theta| = |theta| - 1.
            lhs = gamma(d_lc(th)).scale(-1)
            rhs = hom_d_perturbed(gamma(th))
            if lhs != rhs:
                failures.append(("chain", th.label))
        # bracket compatibility on pairs
        for th in basis:
            for et in der_basis(n):
                pairs += 1
                lhs = gamma(der_bracket_desusp(th, et))
                rhs = conv_bracket_reduced(gamma(th), gamma(et))
                if lhs != rhs:
                    failures.append(("bracket", th.label, et.label))
    return GammaReport(ok=not failures, basis_checked=basis_checked,
                       pairs_checked=pairs, failures=failures,
                       caps={"word_cap": word_cap,
                             "truncation": Ltgt.trunc.max_bracket_length})


# -- pipelines -------------------------------------------------------------------

@dataclass
class MappingSpaceReport:
    pointed: dict          # n -> dimension of H_n(Der_phi), n >= 1
    free: dict             # n -> dimension of H_n(Der_phi x~ sL), n >= 1
    fiber_components_h0: int
    les: object
    pointed_reps: dict
    free_reps: dict
    caps: dict
    minimal_warning: bool = False


def mapping_space_pi(phi: DGLMorphism, degrees) -> MappingSpaceReport:
    """Homotopy groups of the mapping space components at a morphism.

    pointed: pi_n = H_n of the f-derivation complex; free: pi_n = H_n of the
    twisted product with the suspension; both for n >= 1.  H_0 of the twisted
    complex concerns fiber components and is reported separately.
    """
    Lsrc, Ltgt = phi.source, phi.target
    minimal_warning = any(any(len(w) == 1 for w in v.terms)
                          for v in Lsrc.d_on_gens.values())
    if minimal_warning:
        warnings.warn("source model is not minimal; the derivation model of "
                      "the mapping space is only guaranteed for minimal sources")
    degrees = sorted(set(degrees) | {0, 1})
    window = range(min(degrees) - 1, max(degrees) + 2)
    base = None if _is_identity(phi) else phi
    dercx = DerComplex(Lsrc, Ltgt, base, window)
    tw = twisted_der_sl(dercx, Ltgt, window, phi=base, variant=FDER_SL)
    les = les_of_ses(tw.sub, tw.total, tw.quotient, tw.incl, tw.proj,
                     degrees=[n for n in degrees if n >= 0])
    pointed = {}
    free = {}
    preps = {}
    freps = {}
    for n in degrees:
        if n < 1:
            continue
        hp = homology_at(tw.sub, n)
        hf = homology_at(tw.total, n)
        pointed[n] = hp.dimension
        free[n] = hf.dimension
        preps[n] = hp
        freps[n] = hf
    h0 = homology_at(tw.total, 0)
    return MappingSpaceReport(pointed=pointed, free=free,
                              fiber_components_h0=h0.dimension, les=les,
                              pointed_reps=preps, free_reps=freps,
                              caps={"truncation": Ltgt.trunc.max_bracket_length},
                              minimal_warning=minimal_warning)


@dataclass
class ClassifyingReport:
    mode: str
    spec_kind: str
    pi_base: dict            # FREE: n -> dim H_n(Der^G x~ sL), n >= 1
    h0_quotient: object      # DerH0Group
    der0_dimension: int
    nilpotency: int
    postnikov: GradedChainComplex
    total_homology: dict     # POINTED: H_*(L x~ Der^Pi)
    saturation_flag: bool
    caps: dict
    der_g0: DerGZeroReport | None = None


def _der_g_complex(L: DGLPresentation, g0_basis, degrees) -> DerComplex:
    return DerComplex(L, L, None, degrees, deg0_subspace=g0_basis)


def _boundary_spans(cx: GradedChainComplex, degrees):
    spans = {}
    for n in degrees:
        sp = IncrementalSpan()
        for col in cx.d(n + 1).columns():
            sp.add(col)
        spans[n] = sp
    return spans


def _homology_nilpotency(dercx: DerComplex, cx: GradedChainComplex, degrees):
    """Windowed nilpotency index of the homology Lie algebra of a derivation
    complex: iterated brackets of homology classes, reduced mod boundaries;
    brackets landing outside the window are not seen."""
    degrees = sorted(degrees)
    spans = _boundary_spans(cx, degrees)

    def class_nonzero(th: Derivation):
        n = th.degree
        if n not in spans:
            return False
        return not spans[n].contains(dercx.space(n).coords(th))

    flat = []
    for n in degrees:
        for z in homology_at(cx, n).cycle_reps:
            flat.append(_element_of(dercx, cx, n, z))
    if not flat:
        return 0
    level = flat
    nil = 1
    for _ in range(12):
        nxt = [br for a in level for b in flat
               for br in [derivation_bracket(a, b)]
               if not br.is_zero() and class_nonzero(br)]
        if not nxt:
            return nil
        nil += 1
        level = nxt
    return nil


class DerSLElement:
    """Element of Der (x~) sL: a derivation part and a desuspended sL part."""

    def __init__(self, theta: Derivation, x: LieElement, degree: int):
        self.theta = theta
        self.x = x          # the element with s(x) in the twisted product
        self.degree = degree

    def is_zero(self):
        return self.theta.is_zero() and self.x.is_zero()


def der_sl_full_bracket(a: DerSLElement, b: DerSLElement) -> DerSLElement:
    """[(theta, sx), (eta, sy)] = ([theta, eta],
    (-1)^{|theta|} s theta(y) - (-1)^{|x||eta|} s eta(x)); sL is abelian."""
    theta, eta = a.theta, b.theta
    der = derivation_bracket(theta, eta)
    sl = theta.apply(b.x).scale(Fraction(-1) if theta.degree % 2 else Fraction(1))
    if not a.x.is_zero():
        sgn = Fraction(-1) if (a.x.degree() * eta.degree) % 2 == 0 else Fraction(1)
        sl = sl + eta.apply(a.x).scale(sgn)
    return DerSLElement(der, sl, a.degree + b.degree)


def _twisted_nilpotency(tw: TwistedComplex, dercx: DerComplex,
                        L: DGLPresentation, degrees):
    """Windowed nilpotency of H(Der^G x~ sL) with the twisted bracket."""
    degrees = sorted(degrees)
    dims_der = tw.parts["dims_der"]
    spans = _boundary_spans(tw.total, degrees)

    def unpack(n, vec: SparseVec) -> DerSLElement:
        th = Derivation(dercx.source, dercx.target, n, {})
        x = L.zero()
        nd = dims_der[n]
        for i, c in vec.entries.items():
            if i < nd:
                th = th + dercx.space(n).elements[i].scale(c)
            else:
                x = x + L.basis(n - 1)[i - nd].scale(c)
        return DerSLElement(th, x, n)

    def pack(el: DerSLElement) -> SparseVec:
        n = el.degree
        out = {}
        if not el.theta.is_zero():
            for i, c in dercx.space(n).coords(el.theta).entries.items():
                out[i] = c
        if not el.x.is_zero():
            for i, c in L.coords(el.x, n - 1).entries.items():
                out[dims_der[n] + i] = c
        return SparseVec(out)

    def class_nonzero(el: DerSLElement):
        if el.degree not in spans:
            return False
        return not spans[el.degree].contains(pack(el))

    flat = []
    for n in degrees:
        for z in homology_at(tw.total, n).cycle_reps:
            flat.append(unpack(n, z))
    if not flat:
        return 0
    level = flat
    nil = 1
    for _ in range(12):
        nxt = [br for a in level for b in flat
               for br in [der_sl_full_bracket(a, b)]
               if not br.is_zero() and class_nonzero(br)]
        if not nxt:
            return nil
        nil += 1
        level = nxt
    return nil


def _element_of(dercx: DerComplex, cx: GradedChainComplex, n, vec: SparseVec):
    out = Derivation(dercx.source, dercx.target, n, {})
    for i, c in vec.entries.items():
        out = out + dercx.space(n).elements[i].scale(c)
    return out


def classifying_invariants(L: DGLPresentation, spec: GSpec, mode: str,
                           degrees) -> ClassifyingReport:
    """Invariants of the classifying fibrations for a subgroup spec.

    FREE: homology of Der^G x~ sL (degrees >= 1 are the homotopy groups of
    the classifying space, shifted by one) and the BCH group
    H_0(Der^G)/Im H_0(ad).  POINTED: H_0(Der^Pi) as the rationalized group
    and the homology of L x~ Der^Pi.  Both modes report the homotopy
    nilpotency index and a first Postnikov-stage model.
    """
    if mode not in ("FREE", "POINTED"):
        raise ValueError("mode must be FREE or POINTED")
    require_connected_minimal(L)
    degrees = sorted(set(d for d in degrees if d >= 0) | {0, 1})
    window = range(0, max(degrees) + 2)
    report_g0 = der_g_zero(spec)
    g0 = report_g0.basis
    if mode == "POINTED":
        pointed_stability_check(L, g0)
    dercx = _der_g_complex(L, g0, window)

    if mode == "FREE":
        tw = twisted_der_sl(dercx, L, window)
        pi = {}
        for n in degrees:
            if n >= 1:
                pi[n] = homology_at(tw.total, n).dimension
        # H0(Der^G)/Im H0(ad) as a BCH group on derivation classes
        quotient = _der_h0_quotient(L, dercx, window, quotient_by_ad=True)
        nil = _twisted_nilpotency(tw, dercx, L, degrees)
        post = exactlin.postnikov_truncate(tw.total, 1)
        return ClassifyingReport(mode=mode, spec_kind=spec.kind, pi_base=pi,
                                 h0_quotient=quotient,
                                 der0_dimension=len(g0),
                                 nilpotency=nil, postnikov=post,
                                 total_homology={},
                                 saturation_flag=report_g0.saturation_flag,
                                 caps={"truncation": L.trunc.max_bracket_length},
                                 der_g0=report_g0)

    tw = twisted_l_der(L, dercx, window)
    total_h = {n: homology_at(tw.total, n).dimension for n in degrees}
    quotient = _der_h0_quotient(L, dercx, window, quotient_by_ad=False)
    nil = _homology_nilpotency(dercx, dercx.complex(), degrees)
    post = exactlin.postnikov_truncate(dercx.complex(), 1)
    return ClassifyingReport(mode=mode, spec_kind=spec.kind, pi_base={},
                             h0_quotient=quotient, der0_dimension=len(g0),
                             nilpotency=nil, postnikov=post,
                             total_homology=total_h,
                             saturation_flag=report_g0.saturation_flag,
                             caps={"truncation": L.trunc.max_bracket_length},
                             der_g0=report_g0)


class DerH0Group:
    """H_0 of a derivation complex with the BCH (composition) product,
    optionally quotiented by the image of H_0(ad)."""

    def __init__(self, L, dercx: DerComplex, quotient_by_ad):
        self.L = L
        self.dercx = dercx
        cx = dercx.complex()
        space0 = dercx.space(0)
        cycles = exactlin.kernel_basis(cx.d(0)) if cx.dim(0) else []
        boundaries = [space0.coords(derivation_differential(th))
                      for th in dercx.space(1).elements]
        ads = ([space0.coords(ad_derivation(L, e)) for e in L.basis(0)]
               if quotient_by_ad else [])
        adspan = IncrementalSpan()
        for v in ads:
            adspan.add(v)
        self.ad_image_rank = adspan.rank
        picker = IncrementalSpan()
        for v in boundaries + ads:
            picker.add(v)
        self.reps = [_element_of(dercx, cx, 0, z) for z in cycles if picker.add(z)]
        self._space0 = space0
        self._classes = FactoredBasis([space0.coords(r) for r in self.reps],
                                      len(space0), modulo=boundaries + ads)
        self.abelian = True
        self.structure = {}
        n = len(self.reps)
        for i in range(n):
            for j in range(n):
                prod = self.class_of(self.bch_der(self.reps[i], self.reps[j]))
                self.structure[(i, j)] = prod
        for i in range(n):
            for j in range(n):
                br = derivation_bracket(self.reps[i], self.reps[j])
                if not br.is_zero() and not self.class_of(br).is_zero():
                    self.abelian = False

    @property
    def dimension(self):
        return len(self.reps)

    def bch_der(self, a: Derivation, b: Derivation) -> Derivation:
        """log(exp a . exp b) via operator composition on the truncated L."""
        L = self.L
        ea = exp_derivation_values(L, a.values, check_cycle=False)
        eb = exp_derivation_values(L, b.values, check_cycle=False)
        comp = ea.compose(eb)
        return Derivation(L, L, 0, log_morphism(comp))

    def class_of(self, th: Derivation) -> SparseVec:
        return self._classes.coords(self._space0.coords(th))

    def power(self, th: Derivation, lam) -> Derivation:
        return th.scale(Fraction(lam))


def _der_h0_quotient(L, dercx, window, quotient_by_ad) -> DerH0Group:
    return DerH0Group(L, dercx, quotient_by_ad)

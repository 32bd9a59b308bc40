"""Derivation complexes, twisted products, distinguished subalgebras of
derivations, the suspension-comparison isomorphism, and the pipelines that
compute mapping-space and classifying-space invariants.

A derivation of degree n is held in slot coordinates, one block per source
generator g indexed by the target basis of degree |g| + n (DerSpace).  D,
the action on the target and the bracket of derivations read the target's
bracket table through one Leibniz rule (LeibnizTerms); a tensor-word
Derivation is built only to exponentiate one.  The classifying pipelines
assume a connected minimal presentation (degree >= 0 generators,
decomposable differential), which is exactly the setting where degree-0
adjoint derivations are cycles.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from . import exactlin
from .coalgebra import (ConvolutionDGL, adjunction_alpha, chains_functor,
                        comul_by_left, lie_functor)
from .dgl import (ClassTable, DGLMorphism, DGLPresentation, DivergenceError,
                  GeneratorFiltration, H0Group, apply_operator,
                  exp_derivation_values, nilpotency)
from .exactlin import (FactoredBasis, GradedChainComplex, IncrementalSpan,
                       InternalError, LongExactSequence, SparseMat, SparseVec,
                       TwistedComplex, _vec, homology_reports, les_of_ses,
                       twisted_product)
from .freelie import DegreeError, LieElement, LieTable


class InvalidSubgroupError(ValueError):
    """A SPAN specification fails its closure obligations."""


class NotConnectedError(ValueError):
    """A pipeline requires a connected (minimal) presentation."""


class Derivation(LieTable):
    """Derivation given by its values on source generators; keys that are
    not source generators are dropped, and the table is kept in the order
    of source.gens."""

    __slots__ = ("source", "target", "degree", "label")

    def __init__(self, source: DGLPresentation, target: DGLPresentation,
                 degree: int, values, label=None):
        index = source.gen_index
        LieTable.__init__(self, sorted(
            ((g, v) for g, v in values.items() if g in index),
            key=lambda gv: index[gv[0]]))
        self.source = source
        self.target = target
        self.degree = degree
        self.label = label

    def _zero(self):
        return self.target.zero()

    def _like(self, values):
        return Derivation(self.source, self.target, self.degree, values)

    def apply(self, e: LieElement) -> LieElement:
        return apply_operator(self.values, self.degree, e)

    def __eq__(self, other):
        return LieTable.__eq__(self, other) and self.degree == other.degree

    def __repr__(self):
        bits = ["%s->%r" % (g.name, v) for g, v in sorted(self.values.items(),
                                                          key=lambda t: t[0].name)]
        return "Der[%d]{%s}" % (self.degree, "; ".join(bits[:4]))


class DerSpace:
    """One degree n of a derivation complex.

    A derivation of degree n is flattened over the slots (g, e), one block
    per source generator g, e running over the target basis of degree
    |g| + n.  A unit space (elements None) has the slots as its basis; a
    subspace lists its elements as slot vectors, named by labels (None for
    an unnamed element), and coordinates in them go through a FactoredBasis.
    Neither holds a derivation.
    """

    def __init__(self, source, target, degree, elements=None, labels=None):
        self.source = source
        self.target = target
        self.degree = degree
        self.units = elements is None
        self.elements = None if self.units else list(elements)
        self.names = None if self.units else labels or [None] * len(self.elements)
        self.blocks = []        # (generator, offset, target basis)
        off = 0
        for g in source.gens:
            basis = target.basis(g.degree + degree)
            self.blocks.append((g, off, basis))
            off += len(basis)
        self._offsets = {g: o for g, o, _ in self.blocks}
        self.total_slots = off
        self._factored = None

    def flatten(self, values) -> SparseVec:
        """Slot coordinates of the derivation with these generator values."""
        out = {}
        for g, v in values.items():
            off = self._offsets[g]
            for i, c in self.target.coords(v, g.degree + self.degree).entries.items():
                out[off + i] = c
        return _vec(out)

    def unflatten(self, vec: SparseVec) -> Derivation:
        """The derivation with slot coordinates vec, block by block."""
        return Derivation(self.source, self.target, self.degree, {
            g: self.target.from_coords(_vec(block), g.degree + self.degree)
            for g, block in self.values(vec.entries).items()})

    def in_elements(self, vec: SparseVec) -> SparseVec:
        """Slot coordinates vec in the elements (the free-variables-zero
        solution, as FactoredBasis gives it)."""
        if self.units or not vec.entries:
            return vec
        if self._factored is None:
            self._factored = FactoredBasis(self.elements, self.total_slots)
        try:
            return self._factored.coords(vec)
        except exactlin.NotInSpanError:
            raise exactlin.NotInSpanError(
                "derivation outside the stored degree-%d space" % self.degree) from None

    def slots(self, u: dict) -> dict:
        """The slot coordinates of the element with stored coordinates u."""
        return u if self.units else SparseMat.from_columns(
            self.total_slots, self.elements).apply(_vec(u)).entries

    def values(self, slots: dict) -> dict:
        """Generator -> the target coordinates of its value (a nonzero
        block), for the derivation with these slot coordinates."""
        blocks = ((g, {i - off: c for i, c in slots.items() if off <= i < off + len(basis)})
                  for g, off, basis in self.blocks)
        return {g: block for g, block in blocks if block}

    def labels(self):
        if self.units:
            return ["%s->%s" % (g.name, e.label or "?")
                    for g, _, basis in self.blocks for e in basis]
        return [name or ("th%d_%d" % (self.degree, i))
                for i, name in enumerate(self.names)]

    def __len__(self):
        return self.total_slots if self.units else len(self.elements)


class LeibnizTerms:
    """The Leibniz rule of the f-derivations from source to target, f = phi
    (None: the identity), read off the target's bracket table: derive
    applies a degree-n f-derivation theta to a right-nested word
    [w_1,[w_2,...,w_k]] by theta[a, R] = [theta a, f R] + (-1)^{n|a|}
    [f a, theta R], from the right.  This one rule gives D's Leibniz term
    theta(d h) for the unit f-derivations theta = {g: e} (column), a
    length-k part of d h written in right-nested (Dynkin-Specht-Wever) form
    (1/k) sum_w c_w [w_1,[...,w_k]], as freelie.is_lie certifies; and, for
    f the identity of L = source = target, the action of a derivation on L
    (act), a basis pick of L being the bracket of its BracketTable.word, and
    so the bracket of two derivations (DerComplex.product).  The words of
    d h and the images f([w_i,[...,w_k]]) depend on no derivation, and are
    kept."""

    def __init__(self, source: DGLPresentation, target: DGLPresentation,
                 phi: DGLMorphism | None = None):
        self.source, self.target = source, target
        self.images = {g: target.gen(g) for g in source.gens} if phi is None else phi.images
        self._words, self._images = {}, {}

    def image(self, w):
        """(degree, coordinates) of f([w_1,[w_2,...,w_k]]) in the target."""
        got = self._images.get(w)
        if got is None:
            g, tgt = w[0], self.target
            if len(w) == 1:
                got = g.degree, tgt.coords(self.images[g], g.degree).entries
            else:
                m, tail = self.image(w[1:])
                got = g.degree + m, tgt.brackets.product(g.degree, self.image(w[:1])[1], m, tail)
            self._images[w] = got
        return got

    def derive(self, n, values, w, memo) -> dict:
        """theta([w_1,[w_2,...,w_k]]) in target coordinates, for the degree-n
        f-derivation theta with values (generator -> target coordinates);
        memo keeps theta of each word met, for this theta."""
        got = memo.get(w)
        if got is None:
            a = w[0]
            if len(w) == 1:
                got = values.get(a, {})
            else:
                T, (m, F) = self.target.brackets, self.image(w[1:])
                got = T.product(a.degree + n, values[a], m, F) if a in values else {}
                tail = self.derive(n, values, w[1:], memo)
                if tail:
                    s = -1 if n * a.degree % 2 else 1
                    exactlin.accumulate(got, ((k, s * c) for k, c in T.product(
                        a.degree, self.image(w[:1])[1], m + n, tail).items()))
            memo[w] = got
        return got

    def words(self, g):
        """(D, [(h, w, D c_w / k)]) over the users h of g and the words w of
        d h that hold g, k the length of w and D clearing the denominators."""
        if g not in self._words:
            src = self.source
            parts = {(h, w): Fraction(c, len(w))
                     for h in sorted(src.d_users.get(g, ()), key=src.gen_index.__getitem__)
                     for w, c in src.d_on_gens[h].terms.items() if g in w}
            D, cleared = exactlin.clear_denominators(parts)
            self._words[g] = D, [(h, w, c) for (h, w), c in cleared.items()]
        return self._words[g]

    def column(self, g, n, j) -> dict:
        """h -> the coordinates of theta(d h), theta = {g: e_j} and e_j the
        j-th element of the target's basis(|g| + n)."""
        (D, words), values, memo, out = self.words(g), {g: {j: 1}}, {}, {}
        for h, w, c in words:
            acc = out.setdefault(h, {})
            for k, v in self.derive(n, values, w, memo).items():
                acc[k] = acc.get(k, 0) + c * v
        return {h: {k: exactlin.exact(Fraction(t, D)) for k, t in acc.items() if t}
                for h, acc in out.items()}

    def act(self, n, values, deg, x: dict, memo) -> dict:
        """theta(x) in L's coordinates, for f the identity of L = source =
        target, theta and memo as in derive, and x the degree-deg element
        of L with coordinates x."""
        word, out = self.target.brackets.word, {}
        for b, c in x.items():
            for k, v in self.derive(n, values, word(deg, b), memo).items():
                out[k] = out.get(k, 0) + c * v
        return exactlin.settled({k: t for k, t in out.items() if t})


def unit_columns(space: DerSpace, below: DerSpace, leibniz: LeibnizTerms):
    """The columns of D: Der_n -> Der_{n-1} on the unit slots of space, in
    the slot coordinates of below.  The slot (g, e_j) gives the target's
    boundary column j at degree |g| + n in block g, and minus (-1)^n
    theta(d h), theta = {g: e_j}, in block h for each h whose d holds g."""
    sgn = 1 if space.degree % 2 else -1
    cols = []
    for g, _, _ in space.blocks:
        at = below._offsets[g]
        for j, dcol in enumerate(space.target.boundary(g.degree + space.degree)):
            col = {at + i: c for i, c in dcol.entries.items()}
            exactlin.accumulate(col, ((below._offsets[h] + i, sgn * c) for h, v in
                                      leibniz.column(g, space.degree, j).items()
                                      for i, c in v.items()))
            cols.append(_vec(col))
    return cols


class DerComplex:
    """Chain complex of f-derivations, f = phi (None: the identity), on a
    degree window: unit spaces in each degree n of the window and n - 1, or
    in degree 0 the subspace deg0_subspace = (slot vectors, their labels)."""

    def __init__(self, source, target, phi: DGLMorphism | None, degrees,
                 deg0_subspace=None):
        self.source = source
        self.target = target
        self.degrees = sorted(degrees)
        self.leibniz = LeibnizTerms(source, target, phi)
        elements, labels = deg0_subspace or (None, None)
        self.spaces = {n: DerSpace(source, target, n,
                                   elements if n == 0 else None, labels)
                       for n in sorted({m for n in self.degrees for m in (n - 1, n)})}
        self._complex = None

    def space(self, n) -> DerSpace:
        return (self.spaces[n] if n in self.spaces
                else DerSpace(self.source, self.target, n, []))

    def product(self, m, u: dict, m2, v: dict) -> dict:
        """[theta, eta] = theta eta - (-1)^{|theta||eta|} eta theta in the
        stored basis of degree m + m2 (ClassTable's product), f the identity,
        for theta, eta of degrees m, m2 with stored coordinates u, v: block g
        holds theta(eta g) - (-1)^{|theta||eta|} eta(theta g)."""
        a, b, out = self.space(m), self.space(m2), self.space(m + m2)
        tu, tv, res = a.values(a.slots(u)), b.values(b.slots(v)), {}
        for k, vals, k2, inner, s in ((m, tu, m2, tv, 1),
                                      (m2, tv, m, tu, 1 if m * m2 % 2 else -1)):
            memo = {}
            for g, x in inner.items():
                off = out._offsets[g]
                for i, c in self.leibniz.act(k, vals, g.degree + k2, x, memo).items():
                    res[off + i] = res.get(off + i, 0) + s * c
        return out.in_elements(_vec(exactlin.settled({i: c for i, c in res.items() if c}))).entries

    def product_sl(self, m, u: dict, m2, v: dict) -> dict:
        """The bracket of Der (x~) sL in twisted_der_sl's stored basis of
        degree n, the stored Der_n basis and then s of L_{n-1}'s:
        [(theta, sx), (eta, sy)] = ([theta, eta],
        (-1)^{|theta|} s theta(y) - (-1)^{|x||eta|} s eta(x)), sL abelian."""
        (theta, x), (eta, y) = (
            ({i: c for i, c in w.items() if i < nd}, {i - nd: c for i, c in w.items() if i >= nd})
            for w, nd in ((u, len(self.space(m))), (v, len(self.space(m2)))))
        out, sl = self.product(m, theta, m2, eta), {}
        for k, der, k2, z, s in ((m, theta, m2, y, -1 if m % 2 else 1),
                                 (m2, eta, m, x, 1 if (m - 1) * m2 % 2 else -1)):
            if der and z:
                sp = self.space(k)
                exactlin.accumulate(sl, ((i, s * c) for i, c in self.leibniz.act(
                    k, sp.values(sp.slots(der)), k2 - 1, z, {}).items()))
        nd = len(self.space(m + m2))
        out.update((nd + i, c) for i, c in sl.items())
        return out

    def complex(self) -> GradedChainComplex:
        """The chain complex, built on the first call and kept."""
        if self._complex is None:
            self._complex = GradedChainComplex.from_columns(
                self.degrees, lambda n: self.spaces[n].labels(), self._columns)
        return self._complex

    def _columns(self, n):
        # a subspace's columns are its elements through D on the unit slots
        sp, below = self.spaces[n], self.spaces[n - 1]
        cols = unit_columns(sp, below, self.leibniz)
        if not sp.units:
            D = SparseMat.from_columns(below.total_slots, cols)
            cols = [D.apply(v) for v in sp.elements]
        return [below.in_elements(c) for c in cols]


# -- twisted complexes -------------------------------------------------------

def _shifted_l_complex(L: DGLPresentation, degrees) -> GradedChainComplex:
    """sL as a complex: (sL)_n = L_{n-1}, boundary -s d."""
    return GradedChainComplex.from_columns(
        degrees, lambda n: ["s(%s)" % (e.label or "?") for e in L.basis(n - 1)],
        lambda n: [c.scale(-1) for c in L.boundary(n - 1)])


def ad_cross_columns(space: DerSpace, images) -> list:
    """The columns of x -> ad_x . phi = [x, phi(-)] for x in L_m, m the
    degree of space and L its target, in space's stored basis: block g holds
    [x, phi(g)] = -(-1)^{m|g|} [phi(g), x], images being phi's generator
    images, read off the rows of L's bracket table at the basis elements
    that phi(g) holds (a generator's row builds no bracket)."""
    L, m, T = space.target, space.degree, space.target.brackets
    cols = [{} for _ in L.basis(m)]
    for g, off, _ in space.blocks:
        u = L.coords(images[g], g.degree).entries
        sgn = -1 if m * g.degree % 2 == 0 else 1
        for i, col in enumerate(cols if u else ()):
            col.update((off + k, sgn * c) for k, c in T.product(g.degree, u, m, {i: 1}).items())
    return [space.in_elements(_vec(col)) for col in cols]


def twisted_der_sl(dercx: DerComplex, L: DGLPresentation, degrees,
                   phi: DGLMorphism | None = None) -> TwistedComplex:
    """Der (x~) sL with D sx = -s dx + ad_x (or ad_x . phi when phi is
    given)."""
    images = {g: L.gen(g) for g in L.gens} if phi is None else phi.images

    def cross(n):
        # ad_x (. phi) for each x in L_{n-1}, in the stored Der_{n-1} basis
        sp = dercx.space(n - 1)
        return SparseMat.from_columns(len(sp), ad_cross_columns(sp, images))

    return twisted_product(dercx.complex(), _shifted_l_complex(L, degrees),
                           degrees, cross)


# -- distinguished degree-0 subalgebras ---------------------------------------

class GSpec:
    """Subgroup specification for the classifying pipelines: kind is
    "identity", "stabilizer" or "span", and span a list of Derivations."""

    __slots__ = ("kind", "target", "filtration", "span", "name")

    def __init__(self, kind: str, target: DGLPresentation,
                 filtration: GeneratorFiltration | None = None,
                 span: list | None = None, name: str = ""):
        # the CLI builds only these kinds, a stabilizer with its filtration
        if kind not in ("identity", "stabilizer", "span"):
            raise InternalError("unknown GSpec kind %r (internal error)" % kind)
        if kind == "stabilizer" and filtration is None:
            raise InternalError("stabilizer spec needs a filtration (internal error)")
        self.kind = kind
        self.target = target
        self.filtration = filtration
        self.span = [] if span is None else span
        self.name = name


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
    """R_0 = D(Der_1 L) + ad L_0 inside Der_0, as independent slot vectors
    of DerSpace(L, L, 0) and their labels, picked from the columns of D on
    the Der_1 unit slots, then from those of ad on L_0."""
    space0, units = DerSpace(L, L, 0), DerSpace(L, L, 1)
    cols = unit_columns(units, space0, LeibnizTerms(L, L)) + ad_cross_columns(
        space0, {g: L.gen(g) for g in L.gens})
    labels = (["D(%s)" % label for label in units.labels()]
              + ["ad(%s)" % (e.label or "?") for e in L.basis(0)])
    span = IncrementalSpan()
    picked = [(col, label) for col, label in zip(cols, labels) if span.add(col)]
    return [col for col, _ in picked], [label for _, label in picked]


def _linear_slots(space0: DerSpace):
    """slot -> (g, h) for the slots of space0 whose target is one
    generator h, g the generator of the slot's block."""
    linear = {}
    for g, off, targets in space0.blocks:
        for j, e in enumerate(targets):
            if e.min_length() == 1:
                ((word, _),) = e.terms.items()
                linear[off + j] = (g, word[0])
    return linear


def stabilizer_der0(L: DGLPresentation, filtration: GeneratorFiltration):
    """Degree-0 D-cycles theta with theta(V^i) in V^{i+1} + brackets, as
    slot vectors and their labels: the kernel of D on the admissible unit
    slots of Der_0."""
    units, below = DerSpace(L, L, 0), DerSpace(L, L, -1)
    cols, linear = unit_columns(units, below, LeibnizTerms(L, L)), _linear_slots(units)
    # admissible slots: a length-1 value must raise the filtration level
    admissible = [i for i in range(len(units)) if i not in linear
                  or linear[i][1] in filtration.next_level(
                      filtration.level_of(linear[i][0]))]
    if not admissible:
        return [], []
    kernel = exactlin.kernel_basis(SparseMat.from_columns(
        len(below), [cols[i] for i in admissible]))
    return ([_vec({admissible[i]: c for i, c in vec.entries.items()})
             for vec in kernel], ["k%d" % k for k in range(len(kernel))])


def _require_nilpotent_action(space0: DerSpace, basis):
    """The linear parts of the slot vectors basis on the generators V act
    nilpotently: the flag W_0 = V, W_{k+1} = sum theta(W_k) reaches 0.  The
    flag descends, so it is stuck once a step keeps the dimension."""
    index = space0.target.gen_index
    # the slot of generator h in block g -> (h, g)
    linear = {i: (index[h], index[g]) for i, (g, h) in _linear_slots(space0).items()}
    n = len(index)
    maps = [SparseMat(n, n, {linear[i]: c for i, c in v.entries.items()
                             if i in linear}) for v in basis]
    layer = [SparseVec.unit(i) for i in range(n)]
    while layer:
        span = IncrementalSpan()
        image = [w for w in (m.apply(u) for m in maps for u in layer) if span.add(w)]
        if len(image) == len(layer):
            raise InvalidSubgroupError(
                "span + R0 does not act nilpotently on the generators (the "
                "group must act nilpotently)")
        layer = image


# basis: slot vectors of DerSpace(L, L, 0), named by labels; saturation_flag:
# the basis is saturated under exp(R0) conjugation
DerGZeroReport = namedtuple("DerGZeroReport", "basis labels saturation_flag notes")


def der_g_zero(spec: GSpec) -> DerGZeroReport:
    """Degree-0 part of Der^G (or Der^Pi) for the three decidable spec kinds.
    A span's bracket closure is tested on slot coordinates; a derivation is
    built only for its conjugation by exp(R0)."""
    L = spec.target
    require_connected_minimal(L)
    r0, r0_labels = r0_basis(L)
    notes = []

    if spec.kind == "identity":
        return DerGZeroReport(r0, r0_labels, True, notes)

    if spec.kind == "stabilizer":
        basis, labels = stabilizer_der0(L, spec.filtration)
        span = IncrementalSpan()
        for v in basis:
            span.add(v)
        if any(span.add(v) for v in r0):
            raise InvalidSubgroupError("stabilizer subspace does not contain R0 "
                                       "(is the differential decomposable?)")
        return DerGZeroReport(basis, labels, True, notes)

    # SPAN: user span closed under bracket together with R0, D-cycles
    units = DerComplex(L, L, None, [0])
    space0, D = units.spaces[0], units.complex().d(0)
    vecs = []
    for th in spec.span:
        if th.degree != 0:
            raise InvalidSubgroupError("span elements must be degree-0 derivations")
        vecs.append(space0.flatten(th.values))
        if not D.apply(vecs[-1]).is_zero():
            raise InvalidSubgroupError("span elements must be D-cycles")
    full = IncrementalSpan()
    picked = [(v, label) for v, label in zip(
        vecs + r0, [th.label for th in spec.span] + r0_labels) if full.add(v)]
    basis, labels = [v for v, _ in picked], [label for _, label in picked]
    _require_nilpotent_action(space0, basis)
    # bracket closure obligation (Theorem on complete subgroups, shadow)
    for a in basis:
        for b in basis:
            if not full.contains(_vec(units.product(0, a.entries, 0, b.entries))):
                raise InvalidSubgroupError(
                    "span + R0 is not closed under the bracket (closure "
                    "obligation from the complete-subgroup theorem)")
    # saturation under conjugation by exp(R0): flagged, not rejected
    saturated, ders = True, [space0.unflatten(v) for v in basis]
    for v, label in zip(r0, r0_labels):
        r = space0.unflatten(v)
        try:
            er = exp_derivation_values(L, r.values, check_cycle=False)
            er_inv = exp_derivation_values(L, r.scale(-1).values, check_cycle=False)
        except DivergenceError:
            # the conjugation cannot be checked, so saturation is not certified
            saturated = False
            notes.append("exp(%s) diverges at this truncation; saturation "
                         "not checked" % label)
            break
        for th in ders:
            conj = {g: er.apply(th.apply(er_inv.apply(L.gen(g)))) for g in L.gens}
            if not full.contains(space0.flatten(conj)):
                saturated = False
                notes.append("conjugation by exp(%s) leaves the span" % label)
                break
        if not saturated:
            break
    return DerGZeroReport(basis, labels, saturated, notes)


# -- suspension comparison (Gamma) ---------------------------------------------

GammaReport = namedtuple("GammaReport",
                         "ok basis_checked pairs_checked failures caps")


def gamma_check(phi: DGLMorphism, word_cap: int, degrees=None) -> GammaReport:
    """Exact finite verification of the comparison isomorphism between the
    desuspended f-derivations of Lie(Chains(source)) and the perturbed
    convolution complex Hom(reduced Chains(source), target).

    Checks, on every unit slot: bijectivity, the chain-map identity
    against D perturbed by the morphism's MC element, and bracket
    compatibility on every ordered pair of unit tables.

    LC.gens follows the reduced labels, so Gamma maps the slot (g, e) of
    Der_n to the slot (label of g, e) of Hom_{n-1} with the sign (-1)^n,
    which cancels on both sides of the chain-map identity: it holds on a
    slot when the two complexes' boundary columns there are equal.

    Bracket compatibility is checked once per pair of generator labels
    (l, r) and parity of n.  For unit slots (l, e) and (r, e') of Der_n,
    each side of the check holds in each coproduct row i the one Lie
    bracket [e, e'] times a coefficient: the derivation side reads the
    reduced rows with the desuspension sign, -(-1)^{(n-1)|l|} c per term
    (l, r, c), then Gamma's (-1)^{2n-1}; the convolution side reads the
    full rows with the convolution sign (-1)^{(n-1)|l|} c and the images'
    ((-1)^n)^2, and drops the counit row.  Both signs depend on n only
    through n % 2.  So the pair of slots fails exactly when [e, e'] != 0
    and the two row-coefficient tables of (l, r) differ, and the brackets
    are read off the target's bracket table only for the label pairs whose
    tables differ.  Every ordered pair of slots is counted as checked: a
    pair of labels that no row of either table holds has the empty table
    on both sides.

    The chains of a source with a generator of negative degree would hold
    generators of degree < -1, so such a source is refused with a
    DegreeError naming its generator, and a word cap below 1, which leaves
    the chains no generator, with a ValueError.
    """
    if word_cap < 1:
        raise ValueError("word cap must be >= 1")
    Lsrc, Ltgt = phi.source, phi.target
    for g in Lsrc.gens:
        if g.degree < 0:
            raise DegreeError("gamma needs a source with generators of degree "
                              ">= 0, but %s has degree %d" % (g.name, g.degree))
    C = chains_functor(Lsrc, word_cap)
    LC = lie_functor(C, Ltgt.trunc)
    alpha = adjunction_alpha(Lsrc, C, LC)
    phi_tilde = phi.compose(alpha)
    H = ConvolutionDGL(C, Ltgt)

    if degrees is None:
        lo, hi = Ltgt.degree_bounds()
        gdegs = [g.degree for g in LC.gens]
        degrees = range(lo - max(gdegs), hi - min(gdegs) + 1)

    degrees = sorted(degrees)
    dercx = DerComplex(LC, Ltgt, phi_tilde, degrees)
    der_cx = dercx.complex()
    hom_cx = H.complex([n - 1 for n in degrees], perturb_by=H.mc_of_morphism(phi),
                       reduced=True)
    failures = []
    basis_checked = 0
    pairs = 0

    # label of each generator of LC; label order is slot-block order
    label_of_gen = {g: i for i, g in zip(C.reduced_indices(), LC.gens)}
    reduced_by_left = comul_by_left((i, C.reduced_comul(i)) for i in C.reduced_indices())

    def sign(k):
        return -1 if k % 2 else 1

    def row_tables(by_left, sign_of):
        # (l, r) -> {row i: coefficient of [e, e'] in row i}, zeros and the
        # counit row (which only the full rows hold) dropped
        tables = {}
        for l, terms in by_left.items():
            s = sign_of(l)
            for i, _, r, c in terms:
                if i != C.counit:
                    row = tables.setdefault((l, r), {})
                    row[i] = row.get(i, 0) + s * c
        return {lr: {i: c for i, c in row.items() if c} for lr, row in tables.items()}

    # parity of n -> left label -> the sorted right labels whose two row
    # tables differ, each side's tables with its own signs
    unequal_of = {}
    for n in {n % 2 for n in degrees}:
        der_rows = row_tables(reduced_by_left, lambda l: (
            sign(2 * n - 1) * -sign((n - 1) * C.degrees[l])))
        conv_rows = row_tables(H._comul_by_left, lambda l: (
            sign((n - 1) * C.degrees[l]) * sign(n) ** 2))
        unequal = unequal_of[n] = {}
        for l, r in sorted(der_rows.keys() | conv_rows.keys()):
            if der_rows.get((l, r), {}) != conv_rows.get((l, r), {}):
                unequal.setdefault(l, []).append(r)

    for n in degrees:
        space = dercx.space(n)
        labels = space.labels()
        # bijectivity: the k-th slot (g, e) of Der_n is the k-th slot (label
        # of g, e) of the reduced Hom_{n-1}; chain map: Gamma(-s^{-1} D
        # theta) = D_phibar Gamma(theta), so the two boundary columns agree
        hom = hom_cx.basis.get(n - 1, [])
        d, dhom = der_cx.d(n), hom_cx.d(n - 1)
        differ = {k for (_, k), _ in d.entries.items() ^ dhom.entries.items()}
        slots = {}          # label -> [(slot name, key of e in T)], in slot order
        k = 0
        for g, _, basis in space.blocks:
            for j, e in enumerate(basis):
                want = "%s->%s" % (C.labels[label_of_gen[g]], e.label or repr(e))
                if hom[k:k + 1] != [want]:
                    failures.append(("bijectivity", labels[k]))
                if k in differ:
                    failures.append(("chain", labels[k]))
                slots.setdefault(label_of_gen[g], []).append((labels[k], (g.degree + n, j)))
                k += 1
        basis_checked += k
        pairs += k ** 2
        # bracket compatibility: the brackets of the slots of the label
        # pairs whose row tables differ
        unequal = unequal_of[n % 2]
        for l, left in slots.items():
            right = [p for r in unequal.get(l, ()) for p in slots.get(r, ())]
            for name, e in left:
                for name2, e2 in right:
                    if Ltgt.brackets[e, e2].entries:
                        failures.append(("bracket", name, name2))
    return GammaReport(ok=not failures, basis_checked=basis_checked,
                       pairs_checked=pairs, failures=failures,
                       caps={"word_cap": word_cap,
                             "truncation": Ltgt.trunc.max_bracket_length})


# -- pipelines -------------------------------------------------------------------

class MappingSpaceReport:
    """pointed and free: n -> dim H_n, n >= 1, of the f-derivation complex
    twisted.sub (spaces in dercx) and of its twisted product with sL, off
    their homology reports hA and hB, which the cap + 1 re-run reads
    (workbench.tasks._pi_again).  les is built on first read."""

    def __init__(self, dercx: DerComplex, twisted: TwistedComplex, hA: dict,
                 hB: dict, les_degrees, minimal_warning: bool = False):
        self.dercx, self.twisted, self.hA, self.hB = dercx, twisted, hA, hB
        self.pointed = {n: h.dimension for n, h in hA.items()}
        self.free = {n: hB[n].dimension for n in hA}
        self.fiber_components_h0 = hB[0].dimension
        self._les_degrees = les_degrees
        self.minimal_warning = minimal_warning

    @cached_property
    def les(self) -> LongExactSequence:
        return les_of_ses(self.twisted, self._les_degrees, hA=self.hA, hB=self.hB)


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
    dercx = DerComplex(Lsrc, Ltgt, phi, window)
    tw = twisted_der_sl(dercx, Ltgt, window, phi=phi)
    # pointed (sub) and free (total) homology, reused by the sequence
    les_degrees = [n for n in degrees if n >= 0]
    hA = homology_reports(tw.sub, [n for n in degrees if n >= 1])
    hB = homology_reports(tw.total, les_degrees)
    return MappingSpaceReport(dercx, tw, hA, hB, les_degrees, minimal_warning)


class ClassifyingReport:
    """nilpotency is built by build_nilpotency on first read; the builder,
    which holds the complex's homology reports, the same ones h0_quotient
    reads at degree 0, is dropped then."""

    def __init__(self, mode: str, pi_base: dict, h0_quotient: H0Group,
                 ad_image_rank: int, der0_dimension: int, build_nilpotency,
                 postnikov: GradedChainComplex, total_homology: dict,
                 saturation_flag: bool):
        self.mode = mode
        self.pi_base = pi_base              # FREE: n -> dim H_n(Der^G x~ sL), n >= 1
        self.h0_quotient = h0_quotient      # H_0(Der^G x~ sL) or H_0(Der^Pi)
        self.ad_image_rank = ad_image_rank  # FREE: rank of Im H_0(ad); 0 when POINTED
        self.der0_dimension = der0_dimension
        self._build_nilpotency = build_nilpotency
        self.postnikov = postnikov
        self.total_homology = total_homology  # POINTED: H_*(L x~ Der^Pi)
        self.saturation_flag = saturation_flag

    @cached_property
    def nilpotency(self) -> int:
        nil, self._build_nilpotency = self._build_nilpotency(), None
        return nil


def classifying_invariants(L: DGLPresentation, spec: GSpec, mode: str,
                           degrees) -> ClassifyingReport:
    """Invariants of the classifying fibrations for a subgroup spec.

    FREE: homology of Der^G x~ sL, H_0 the BCH group and degrees >= 1 the
    homotopy groups of the classifying space, shifted by one.  L is
    connected, so sL_{-1} = 0 and d_1 is D on Der_1 followed by ad on L_0:
    H_0 is H_0(Der^G)/Im H_0(ad), and the rank of Im H_0(ad) is the rank
    of d_1 less that of D on Der_1.  POINTED: H_0(Der^Pi) as the group and
    the homology of L x~ Der^Pi, whose boundary is block-diagonal, so that
    H_n = H_n(L) + H_n(Der^Pi).  Each mode takes its one complex's
    homology once, for the group and the homotopy nilpotency index, and
    reports a first Postnikov-stage model.

    Der^Pi_0 is stable under the adjoint action of L_0, as the pointed
    fibration needs, with no check: for x in L_0 and a degree-0 derivation
    theta, [ad_x, theta] = -ad_{theta(x)}, also at the truncation, since
    theta keeps degree and lowers no bracket length; ad_{theta(x)} lies in
    ad L_0, inside R_0, and every spec's basis spans R_0 (identity is R_0,
    a stabilizer is refused unless it holds R_0, and a span adds R_0).
    """
    if mode not in ("FREE", "POINTED"):   # the CLI builds only these modes
        raise InternalError("mode must be FREE or POINTED (internal error)")
    require_connected_minimal(L)
    degrees = sorted(set(d for d in degrees if d >= 0) | {0, 1})
    window = range(0, max(degrees) + 2)
    report_g0 = der_g_zero(spec)
    dercx = DerComplex(L, L, None, window, report_g0[:2])
    if mode == "FREE":
        cx = twisted_der_sl(dercx, L, window).total
        known = homology_reports(cx, degrees)
        pi = {n: known[n].dimension for n in degrees if n >= 1}
        total_h = {}
        ad_rank = exactlin.rank(cx.d(1)) - exactlin.rank(dercx.complex().d(1))
        product = dercx.product_sl
    else:
        cx = dercx.complex()
        known = homology_reports(cx, degrees)
        hL = homology_reports(L.complex(window), degrees)
        pi, ad_rank = {}, 0
        total_h = {n: hL[n].dimension + known[n].dimension for n in degrees}
        product = dercx.product
    # degree 0 of either complex is Der^G_0: H_0 is a group of derivations
    quotient = H0Group(known[0], dercx.product)

    def build_nilpotency():
        # the bracket table of the homology Lie algebra of the window
        return nilpotency(ClassTable(known, product))

    return ClassifyingReport(mode=mode, pi_base=pi, h0_quotient=quotient,
                             ad_image_rank=ad_rank,
                             der0_dimension=len(report_g0.basis),
                             build_nilpotency=build_nilpotency,
                             postnikov=exactlin.postnikov_truncate(cx, 1),
                             total_homology=total_h,
                             saturation_flag=report_g0.saturation_flag)


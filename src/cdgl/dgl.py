"""Differential graded Lie algebras on free truncated presentations.

Differentials and morphisms are stored by their values on generators and
extended by the graded Leibniz / multiplicativity rules inside the tensor
algebra.  All series (exponentials, logarithms, BCH, the gauge action) are
finite in the nilpotent quotient fixed by the truncation; divergence of a
non-filtration-increasing series is detected and reported rather than
silently truncated.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import NamedTuple

from .exactlin import (FactoredBasis, GradedChainComplex, HomologyReport,
                       IncrementalSpan, InternalError, NotInSpanError, SparseVec,
                       _vec, accumulate, clear_denominators, exact, homology_at,
                       ratio, settled)
from .freelie import (Coordinatizer, DegreeError, Generator, LieElement,
                      LieMembershipError, Truncation, _exp_coefficient,
                      _mul_terms, bracket, exp_terms, is_lie, lie_basis,
                      log_terms, word_degree)
from .record import FrozenRecord


class IllFormedDifferentialError(ValueError):
    """d^2 != 0; carries the offending generator and a witness term."""

    def __init__(self, gen, residue):
        self.gen = gen
        self.residue = residue
        length = residue.min_length()
        super().__init__("d^2 != 0 on generator %s (first nonzero bracket length %s)"
                         % (gen.name, length))


class MCViolationError(ValueError):
    """An element fails the Maurer-Cartan equation."""


class DivergenceError(ValueError):
    """A series (exp/log) does not terminate at the current truncation."""


def apply_operator(values, op_degree, e: LieElement) -> LieElement:
    """Extend generator values (Generator -> LieElement) to a derivation and
    apply it: each letter with a value is replaced by it, with the sign
    (-1)^{op_degree |prefix|}.  A term is kept when every partial product,
    taken from the left one factor at a time (a letter, or the value), is
    admitted by the truncation.  Under a degree cap with generators of
    negative degree that is stricter than admitting the final word: the
    walk stops at the first prefix over the cap, and each position carries
    the highest degree of a partial product of the letters after it."""
    trunc = e.trunc
    cap, max_deg = trunc.max_bracket_length, trunc.max_degree
    # the generators with a nonzero value; with none the operator is zero
    active = {g for g, v in values.items() if not v.is_zero()}
    out = {}
    for w, c in e.terms.items() if active else ():
        if active.isdisjoint(w):
            continue
        room = cap - len(w) + 1
        tops = [0] * len(w)
        for i in range(len(w) - 1, 0, -1) if max_deg is not None else ():
            tops[i - 1] = max(0, w[i].degree + tops[i])
        deg = 0
        for i, g in enumerate(w):
            if g in active:
                sc = -c if op_degree * deg % 2 else c
                for vw, cv in values[g].terms.items():
                    if len(vw) > room:
                        continue
                    if max_deg is not None:
                        dx = deg + word_degree(vw)
                        if dx > max_deg or dx + tops[i] > max_deg:
                            continue
                    x = w[:i] + vw + w[i + 1:]
                    t = out.get(x, 0) + sc * cv
                    if t:
                        out[x] = t
                    else:
                        out.pop(x, None)
            deg += g.degree
            if max_deg is not None and deg > max_deg:
                break
    return _on_ints(settled(out), trunc)


def _on_ints(terms, trunc) -> LieElement:
    """The element with the word dictionary terms, in the normal form, as it is."""
    res = LieElement.zero(trunc)
    res.terms = terms
    return res


class BracketTable(dict):
    """The bracket of a presentation L in basis coordinates, filled on read
    and kept on L: T[(m, i), (m2, j)] is the SparseVec coords([e_i, e_j]),
    e_i the i-th element of basis(m).  A generator's row is read off the
    basis picks with no bracket built: _left_normed_basis names each pick
    after its candidate [g, b] and keeps the candidate's terms, so [g, e_j]
    is the pick labelled [g,label(e_j)], or zero when e_j has the cap's
    length or basis(m + m2) is empty (as above a degree cap).  Any other
    entry, in a generator's row a candidate that the pick refused, is the
    coordinates of the bracket."""

    def __init__(self, L):
        self.L = L
        self._picks = {}    # degree n -> {label: index in basis(n)}
        self._words = {}    # (n, k) -> the letters of the k-th pick of basis(n)

    def _labels(self, n):
        if n not in self._picks:
            self._picks[n] = {e.label: k for k, e in enumerate(self.L.basis(n))}
        return self._picks[n]

    def __missing__(self, key):
        (m, i), (m2, j) = key
        L, n, col = self.L, m + m2, None
        a, b = L.basis(m)[i], L.basis(m2)[j]
        if len(next(iter(a.terms))) == 1:
            picks = self._labels(n)
            k = picks.get("[%s,%s]" % (a.label, b.label))
            cap = L.trunc.max_bracket_length
            if k is not None or not picks or len(next(iter(b.terms))) == cap:
                col = SparseVec() if k is None else SparseVec.unit(k)
        self[key] = col = L.coords(bracket(a, b), n) if col is None else col
        return col

    def word(self, n, k):
        """The letters w of the k-th pick of basis(n), which is the
        right-nested bracket [w_1,[w_2,...,w_l]]: the pick labelled
        [g,label] is [g, e_j] for e_j the pick of basis(n - |g|) with that
        label (see BracketTable)."""
        if (n, k) not in self._words:
            label = self.L.basis(n)[k].label
            for g in self.L.gens:
                head = "[%s," % g.name
                j = (self._labels(n - g.degree).get(label[len(head):-1])
                     if label.startswith(head) else None)
                if j is not None or label == g.name:
                    self._words[n, k] = (g,) + (() if j is None else self.word(n - g.degree, j))
                    break
        return self._words[n, k]

    def product(self, m, u: dict, m2, v: dict) -> dict:
        """[x, y] in coordinates for x, y of degrees m, m2 with coordinate
        dicts u, v: sum_{a, b} u_a v_b T[(m, a), (m2, b)], in the normal form."""
        out = {}
        for a, x in u.items():
            for b, y in v.items():
                xy = x * y
                for k, z in self[(m, a), (m2, b)].entries.items():
                    s = out.get(k, 0) + xy * z
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        return settled(out)


class DGLPresentation:
    """Free truncated dgl (L = hat-L(V)/length > N, d) given on generators."""

    def __init__(self, gens, d_on_gens, trunc: Truncation, mc_gens=(), name=None):
        self.gens = tuple(gens)
        self.trunc = trunc
        self.d_on_gens = {g: d_on_gens.get(g, LieElement.zero(trunc)).truncated(trunc)
                          for g in self.gens}
        self.mc_gens = tuple(mc_gens)
        self.name = name
        self._basis_cache = {}
        self._coordizer_cache = {}
        self._boundary_cache = {}
        self.brackets = BracketTable(self)
        self._gen_elements = {g: LieElement.gen(g, trunc) for g in self.gens}
        self.gen_index = {g: i for i, g in enumerate(self.gens)}

    # -- element plumbing -------------------------------------------------

    def zero(self) -> LieElement:
        return LieElement.zero(self.trunc)

    def gen(self, name_or_gen) -> LieElement:
        if isinstance(name_or_gen, Generator):
            return self._gen_elements[name_or_gen]
        return self._gen_elements[self.generator(name_or_gen)]

    def generator(self, name) -> Generator:
        for g in self.gens:
            if g.name == name:
                return g
        raise KeyError("unknown generator %r" % name)

    def d(self, e: LieElement) -> LieElement:
        return apply_operator(self.d_on_gens, -1, e)

    @cached_property
    def d_users(self):
        """Letter -> the generators whose d holds it."""
        users = {}
        for g, v in self.d_on_gens.items():
            for h in {h for w in v.terms for h in w}:
                users.setdefault(h, set()).add(g)
        return users

    # -- bases and complexes ----------------------------------------------

    def basis(self, degree):
        """Ordered basis of the degree-homogeneous part, all lengths <= cap."""
        cached = self._basis_cache.get(degree)
        if cached is None:
            cached = []
            for ln in range(1, self.trunc.max_bracket_length + 1):
                cached.extend(lie_basis(self.gens, degree, ln, self.trunc))
            self._basis_cache[degree] = cached
        return cached

    def degree_bounds(self):
        """Smallest/largest degrees that can occur at this truncation."""
        if not self.gens:
            return 0, 0
        degs = [g.degree for g in self.gens]
        lo, hi = min(degs), max(degs)
        N = self.trunc.max_bracket_length
        low = lo if lo >= 0 else lo * N
        high = hi if hi <= 0 else hi * N
        return low, high

    def coords(self, e: LieElement, degree) -> SparseVec:
        if e.is_zero():
            return SparseVec()
        coordizer = self._coordizer_cache.get(degree)
        if coordizer is None:
            coordizer = Coordinatizer(self.basis(degree))
            self._coordizer_cache[degree] = coordizer
        return coordizer.coords(e)

    def from_coords(self, vec: SparseVec, degree) -> LieElement:
        basis = self.basis(degree)
        return _on_ints(accumulate({}, ((w, c * t) for i, c in vec.entries.items()
                                        for w, t in basis[i].terms.items())), self.trunc)

    def boundary(self, n):
        """The columns of d: L_n -> L_{n-1} in basis coordinates, built once;
        the one place L's boundary is computed."""
        cols = self._boundary_cache.get(n)
        if cols is None:
            cols = [self.coords(self.d(e), n - 1) for e in self.basis(n)]
            self._boundary_cache[n] = cols
        return cols

    def bch_law(self):
        """L_0's BCH law on basis(0) coordinates, cut at the cap N: a bracket
        of more than N elements of L_0 has length > N."""
        product = self.brackets.product
        return BCHLaw(lambda U, V: product(0, U, 0, V), self.trunc.max_bracket_length)

    def complex(self, degrees) -> GradedChainComplex:
        """Underlying chain complex on the given degrees."""
        return GradedChainComplex.from_columns(degrees, lambda n: [
            e.label or ("e%d_%d" % (n, i)) for i, e in enumerate(self.basis(n))],
            self.boundary)

    # -- validation ---------------------------------------------------------

    def validate(self):
        for g in self.gens:
            if g.degree < -1:
                raise DegreeError("generator %s has degree < -1" % g.name)
            if g.degree < 0 and self.trunc.max_degree is not None:
                # else the words over the cap form no ideal
                raise DegreeError("a degree cap needs generators of degree >= 0, "
                                  "but %s has degree %d" % (g.name, g.degree))
        for g, val in self.d_on_gens.items():
            if not val.is_zero() and val.degree() != g.degree - 1:
                raise DegreeError("d(%s) must be homogeneous of degree %d"
                                  % (g.name, g.degree - 1))
            if not is_lie(val):
                raise LieMembershipError("d(%s) is not a Lie element" % g.name)
        # d^2 = 0 on ints: D^2 d^2(g) for D the lcm of d's denominators
        _, *cleared = clear_denominators(*(v.terms for v in self.d_on_gens.values()))
        d_ints = {g: _on_ints(t, self.trunc) for g, t in zip(self.d_on_gens, cleared)}
        for g in self.gens:
            if not apply_operator(d_ints, -1, d_ints[g]).is_zero():
                raise IllFormedDifferentialError(g, self.d(self.d_on_gens[g]))
        for g in self.mc_gens:
            ok, res = check_mc(self, self.gen(g))
            if not ok:
                name = g.name if isinstance(g, Generator) else g
                raise MCViolationError("declared MC generator %s fails MC, residue %r"
                                       % (name, res))
        return self


def build_dgl(gens, d_on_gens, trunc, mc_gens=(), name=None) -> DGLPresentation:
    return DGLPresentation(gens, d_on_gens, trunc, mc_gens, name).validate()


class DGLMorphism:
    """Morphism of presentations given by generator images (degree 0)."""

    def __init__(self, source: DGLPresentation, target: DGLPresentation, images,
                 name=None):
        self.source = source
        self.target = target
        self.images = {g: images.get(g, LieElement.zero(target.trunc))
                       for g in source.gens}
        self.name = name

    @classmethod
    def identity(cls, L: DGLPresentation):
        return cls(L, L, {g: L.gen(g) for g in L.gens}, name="id")

    @classmethod
    def zero_morphism(cls, source, target):
        return cls(source, target, {}, name="0")

    def apply(self, e: LieElement) -> LieElement:
        """The multiplicative extension of the generator images, applied to e."""
        trunc = self.target.trunc
        out = LieElement.zero(trunc)
        for w, c in e.terms.items():
            terms = {(): c}
            for g in w:
                terms = _mul_terms(terms, self.images[g].terms, trunc)
                if not terms:
                    break
            for ww, cc in terms.items():
                if not ww:
                    continue
                s = out.terms.get(ww, 0) + cc
                if s:
                    out.terms[ww] = s
                else:
                    out.terms.pop(ww, None)
        settled(out.terms)
        return out

    def compose(self, other: "DGLMorphism") -> "DGLMorphism":
        """self after other."""
        images = {g: self.apply(img) for g, img in other.images.items()}
        return DGLMorphism(other.source, self.target, images)

    def validate(self):
        for g in self.source.gens:
            img = self.images[g]
            if not img.is_zero() and img.degree() != g.degree:
                raise DegreeError("image of %s is not degree %d" % (g.name, g.degree))
            if not is_lie(img):
                raise LieMembershipError("image of %s is not a Lie element" % g.name)
        for g in self.source.gens:
            lhs = self.apply(self.source.d_on_gens[g])
            rhs = self.target.d(self.images[g])
            if lhs != rhs:
                raise IllFormedDifferentialError(g, lhs - rhs)
        return self

    def __eq__(self, other):
        return (isinstance(other, DGLMorphism) and self.source is other.source
                and self.target is other.target and self.images == other.images)


class MCElement:
    __slots__ = ("owner", "value")

    def __init__(self, owner: DGLPresentation, value: LieElement):
        ok, res = check_mc(owner, value)
        if not ok:
            raise MCViolationError("MC residue %r" % res)
        self.owner = owner
        self.value = value


def check_mc(L: DGLPresentation, a: LieElement):
    """Does a satisfy da + [a,a]/2 = 0 at the truncation?  Returns (ok, residue)."""
    if not a.is_zero() and a.degree() != -1:
        raise DegreeError("MC candidates must be homogeneous of degree -1")
    res = L.d(a) + bracket(a, a).scale(Fraction(1, 2))
    return res.is_zero(), res


# -- BCH, exp/log, gauge --------------------------------------------------

class BCHLaw:
    """The BCH law of a Lie algebra nilpotent of class <= c, on coordinate
    dicts (index -> coefficient): bracket(U, V) is D times the bracket, and
    series, (M, word -> M times its coefficient in bch_series(c)) on ints,
    is built on first read."""

    def __init__(self, bracket, c, D=1):
        self.bracket, self.c, self.D = bracket, c, D

    @cached_property
    def series(self):
        return clear_denominators(bch_series(self.c))


def bch(law: BCHLaw, u, v):
    """(u * v, v * u) under law, as SparseVecs, for coordinate dicts u, v:
    u + v plus the series' words of length 2 to c, each right-nested
    bracket built from its suffix, a zero one ending its branch.  With
    u, v = U/E, V/E a word of length l is T_w(U, V) / (E^l D^(l-1)), T_w
    its bracket through law.bracket, and the sum is divided by
    Q = M (D E)^(c-1) E once, at the end.  v * u = -log(e^-u e^-v) takes
    the same words, the word of length l with sign (-1)^(l+1).  With u or v
    zero both products are the other, and the series is not read."""
    if not u or not v:
        w = _vec(dict(u or v))
        return w, w
    M, series = law.series
    c, D, bracket = law.c, law.D, law.bracket
    E, U, V = clear_denominators(u, v)
    DE = D * E
    m1 = M * DE ** (c - 1)
    letters = (U, V)
    uv = accumulate({k: m1 * t for k, t in U.items()}, ((k, m1 * t) for k, t in V.items()))
    vu = dict(uv)
    frontier = [((0,), U), ((1,), V)] if c > 1 else []
    while frontier:
        nxt = []
        for word, val in frontier:
            for a in (0, 1):
                longer = (a,) + word
                br = bracket(letters[a], val)
                if not br:
                    continue
                m = series.get(longer)
                if m:
                    m *= DE ** (c - len(longer))
                    sm = m if len(longer) % 2 else -m
                    for k, t in br.items():
                        uv[k] = uv.get(k, 0) + m * t
                        vu[k] = vu.get(k, 0) + sm * t
                if len(longer) < c:
                    nxt.append((longer, br))
        frontier = nxt
    Q = m1 * E
    return tuple(_vec({k: ratio(s, Q) for k, s in total.items() if s})
                 for total in (uv, vu))


def nilpotent_series(op, x, coefficient, bound, what):
    """sum_{k >= 0} coefficient(k) op^k(x) for an operator op that is
    nilpotent on x; raises DivergenceError(what) when op^k(x) is still
    nonzero for some k > bound.  x may be any value with is_zero, scale
    and + (a LieElement or a cylinder form).  With coefficient None the
    iterates x, op(x), ... up to the last nonzero one are returned, for a
    caller that sums them itself."""
    iterates = [x]
    while not (term := op(iterates[-1])).is_zero():
        if len(iterates) > bound:
            raise DivergenceError(what)
        iterates.append(term)
    if coefficient is None:
        return iterates
    total = x if coefficient(0) == 1 else x.scale(coefficient(0))
    for k, term in enumerate(iterates[1:], 1):
        total = total + term.scale(coefficient(k))
    return total


def _max_iterations(L: DGLPresentation):
    # a filtration-increasing operator on the truncated algebra is nilpotent
    # with index bounded by cap * (number of filtration levels + 1); the cap
    # alone works for bracket-length-increasing operators, generator
    # filtrations are finite chains, so this generous bound is safe
    return L.trunc.max_bracket_length * (len(L.gens) + 2) + 4


def exp_derivation_values(L: DGLPresentation, values, check_cycle=True) -> DGLMorphism:
    """e^theta as an automorphism of L, for a degree-0 derivation theta given
    by generator values; theta must be nilpotent at the truncation."""
    def theta(e):
        return apply_operator(values, 0, e)

    max_iter = _max_iterations(L)
    images = {g: nilpotent_series(theta, L.gen(g), _exp_coefficient, max_iter,
                                  "exp of non-filtration-increasing derivation")
              for g in L.gens}
    phi = DGLMorphism(L, L, images, name="exp")
    if check_cycle:
        # commuting with d amounts to D(theta) = 0; the morphism identity
        # checked by validate() is the operative contract
        phi.validate()
    return phi


def log_morphism(phi: DGLMorphism):
    """Derivation values log(phi) for an automorphism with (phi - id)
    filtration-increasing; standard series sum (-1)^{n+1} (phi-id)^n / n."""
    L = phi.source
    if phi.target is not L:
        raise ValueError("log expects an automorphism")

    def phi_minus_id(e):
        return phi.apply(e) - e

    def coefficient(k):
        return Fraction((-1) ** (k + 1), k) if k else 0

    max_iter = _max_iterations(L)
    return {g: nilpotent_series(phi_minus_id, L.gen(g), coefficient, max_iter,
                                "log of non-unipotent automorphism")
            for g in L.gens}


def ad_values(L: DGLPresentation, x: LieElement):
    """Generator values of ad_x."""
    return {g: bracket(x, L.gen(g)) for g in L.gens}


def exp_ad(L: DGLPresentation, x: LieElement) -> DGLMorphism:
    return exp_derivation_values(L, ad_values(L, x), check_cycle=False)


def gauge_act(x: dict, a: MCElement) -> SparseVec:
    """x gauge a = sum_i ad_x^i(a)/i! - sum_i ad_x^i(dx)/(i+1)! for x a
    coordinate dict on basis(0) of a's presentation L, on basis(-1), checked
    as an MCElement.  With X = Dx x, ad_x^i = ad_X^i / Dx^i, ad_X read off
    L's bracket table and dx off L.boundary(0).  a and dx are cleared by one
    D, and the sum is over D M, M = N! Dx^(N-1) for the cap N: ad_X^i
    vanishes for i >= N."""
    L = a.owner
    N = L.trunc.max_bracket_length
    product, cols = L.brackets.product, L.boundary(0)
    Dx, X = clear_denominators(x)
    dx = accumulate({}, ((k, c * t) for j, c in x.items()
                         for k, t in cols[j].entries.items()))
    D, A, dX = clear_denominators(L.coords(a.value, -1).entries, dx)
    M = factorial(N) * Dx ** (N - 1)
    out = {}
    for e, sign, shift in ((A, 1, 0), (dX, -1, 1)):
        iterates = nilpotent_series(lambda t: _vec(product(0, X, -1, t.entries)),
                                    _vec(e), None, _max_iterations(L),
                                    "gauge series did not terminate")
        for k, t in enumerate(iterates):
            m = sign * M // (factorial(k + shift) * Dx ** k)
            for i, c in t.entries.items():
                out[i] = out.get(i, 0) + m * c
    total = _vec({i: ratio(s, D * M) for i, s in out.items() if s})
    try:
        MCElement(L, L.from_coords(total, -1))
    except MCViolationError as exc:
        raise MCViolationError("gauge output violates MC (truncation inconsistency): %s"
                               % exc) from exc
    return total


class GaugeResult(NamedTuple):
    witness: SparseVec | None
    level: int
    failed_stage: int | None = None

    @property
    def equivalent(self):
        return self.witness is not None


def gauge_equivalent(a: MCElement, b: MCElement) -> GaugeResult:
    """Decide x gauge a = b by lifting x, in L_0's coordinates, through
    bracket-length stages.

    Stage n is linear: with residue R = (x gauge a) - b supported in lengths
    >= n, progress requires z in L_0 with [d_b z]_{<n} = 0 and
    [d_b z]_n = R_n, using the exact displacement identity
    z gauge b - b = -((e^{ad_z}-1)/ad_z)(d_b z), and x becomes z * x under
    L_0's BCH law (one series per call).  Unsolvable stage = certified NO
    at this truncation level.

    d_b = d + ad_b is applied as it is: d_b^2 = 0 follows from d^2 = 0 and
    the MC equation of b.  Its columns are L.boundary(0) plus b's row of
    the bracket table.  The degree -1 basis runs by bracket length, so R_n
    is R's coordinates of length n, the rows of stage n (lengths <= n) are a
    prefix of the basis, and FactoredBasis on that prefix gives the stage's
    free-variables-zero solution.
    """
    L = a.owner
    N = L.trunc.max_bracket_length
    B = L.coords(b.value, -1)
    cols = [col + _vec(L.brackets.product(-1, B.entries, 0, {j: 1}))
            for j, col in enumerate(L.boundary(0))]
    lengths = [e.min_length() for e in L.basis(-1)]
    law = L.bch_law()

    witness = SparseVec()
    res = gauge_act({}, a) - B
    for stage in range(1, N + 1):
        if res.is_zero():
            break
        target = {i: c for i, c in res.entries.items() if lengths[i] == stage}
        if not target:
            continue
        rows = bisect_right(lengths, stage)
        # [d_b z]_k = 0 for k < stage, = R_n at k = stage
        prefix = [_vec({i: v for i, v in col.entries.items() if i < rows})
                  for col in cols]
        try:
            z = FactoredBasis(prefix, rows).coords(_vec(target))
        except NotInSpanError:
            return GaugeResult(None, N, stage)
        witness = bch(law, z.entries, witness.entries)[0]
        res = gauge_act(witness.entries, a) - B
    if not res.is_zero():
        return GaugeResult(None, N, lengths[min(res.entries)])
    return GaugeResult(witness, N)


# -- H0 as a group ----------------------------------------------------------

class ClassTable:
    """The bracket table of a graded homology Lie algebra on a window.

    reports maps each degree n of the window to its HomologyReport, the
    degree-0 one shared with the complex's H0Group, if any.  The classes
    are numbered degree by degree, in increasing degree; class i is h_i,
    the cycle whose coordinates z_i in the complex's stored basis are its
    report's representative.  product(m, u, m2, v) is the complex's Lie
    bracket on coordinates, with the signature of BracketTable.product:
    the coordinates, in the stored basis of degree m + m2, of the bracket
    of the elements of degrees m and m2 with coordinate dicts u and v.

    The pairs i <= j whose degree sum lies in the window are bracketed
    as product(z_i, z_j), the diagonal only for odd classes (an even class
    has [h, h] = 0), and each bracket is put through classes.coords once.
    table holds them on ints over one denominator D, the lcm of their
    denominators:
    [h_i, h_j] = (1/D) sum_k T[i][j][k] h_k, with
    [h_j, h_i] = -(-1)^{|i||j|} [h_i, h_j] and T[i] holding only nonzero
    brackets.  A bracket outside the window, or in a degree of it with no
    classes, is zero and is never taken.  A bracket with no class (not a
    cycle of its degree) means the bracket is broken: InternalError.
    Class coordinates are sound because D is a derivation of the bracket:
    a cycle bracketed with a boundary is a boundary, so the class of
    [x, sum_i c_i h_i] is sum_i c_i [x, h_i].
    """

    def __init__(self, reports: dict, product):
        self.reports = reports
        self.degrees = [n for n in sorted(reports) for _ in reports[n].cycle_reps]
        self._first = {n: self.degrees.index(n) for n in reports
                       if reports[n].cycle_reps}
        self._product = product

    def pairs(self):
        """(i, j, class of [h_i, h_j] as index -> coefficient) for the pairs
        of the class docstring, in order, each bracket taken when it is
        reached."""
        z = [rep.entries for n in sorted(self._first)
             for rep in self.reports[n].cycle_reps]
        for i, n in enumerate(self.degrees):
            for j in range(i + 1 - n % 2, len(self.degrees)):
                k = n + self.degrees[j]
                if k not in self._first:
                    continue
                br = self._product(n, z[i], self.degrees[j], z[j])
                if not br:
                    yield i, j, {}
                    continue
                try:
                    v = self.reports[k].classes.coords(_vec(br))
                except NotInSpanError:
                    raise InternalError("a bracket of cycles has no class in "
                                        "degree %d (internal error)" % k) from None
                yield i, j, {self._first[k] + q: c for q, c in v.items()}

    @cached_property
    def table(self):
        """(D, T) as in the class docstring."""
        pairs = list(self.pairs())
        D, *rows = clear_denominators(*(v for _, _, v in pairs))
        table = [{} for _ in self.degrees]
        for (i, j, _), row in zip(pairs, rows):
            if row:
                table[i][j] = row
                if i != j:
                    s = 1 if self.degrees[i] * self.degrees[j] % 2 else -1
                    table[j][i] = {k: s * c for k, c in row.items()}
        return D, table


def nilpotency(classes: ClassTable) -> int:
    """Nilpotency index of the graded Lie algebra H whose bracket table is
    classes.table, in class coordinates: the number of nonzero terms of the
    lower central series gamma_1 = H, gamma_{k+1} = [H, gamma_k], each kept
    as a basis of its span.  The window is the degrees of classes.reports.

    gamma_2 is spanned by the table's entries.  Each later term is
    gamma_{k+1} = [X, gamma_k] for X the classes independent modulo
    gamma_2.  Proof: H = span X + gamma_2, and by Jacobi [gamma_i, gamma_j]
    lies in gamma_{i+j}, so
        gamma_{k+1} = [X, gamma_k] + [gamma_2, gamma_k]
                    = [X, gamma_k] + gamma_{k+2}.
    The same identity one step on, with [X, gamma_{k+1}] inside
    [X, gamma_k], gives gamma_{k+2} inside [X, gamma_k] + gamma_{k+3}, so
    gamma_{k+1} = [X, gamma_k] + gamma_{k+m} for every m >= 2; H is
    nilpotent, so gamma_{k+m} = 0 for m large.  The graded argument needs
    the bracket cut to the window to be a Lie bracket, that is, the dropped
    degrees to form an ideal.  That holds when every degree of the window
    is >= 0 and the window has no gap, since a bracket then never lowers a
    degree.  A window with a negative degree is an InternalError, since no
    input reaches one: H0Group works in degree 0 and classifying_invariants
    in degrees >= 0.  A window with a gap, as
    classifying_invariants builds from --range 3..5, keeps X = all
    classes, the definition itself.

    Each term lies in the one before, so a term that does not shrink means
    the bracket is broken: InternalError.
    """
    window = sorted(classes.reports)
    if window and window[0] < 0:
        raise InternalError("nilpotency needs a window of degrees >= 0, not %d "
                            "(internal error)" % window[0])
    table = classes.table[1]

    def basis(vecs):
        """(span, a basis of it) of the nonzero int dicts vecs."""
        span = IncrementalSpan()
        return span, [v for v in vecs if v and span.add(_vec(v))]

    span, layer = basis(v for row in table for v in row.values())
    dim = len(table)
    if window and window[-1] - window[0] + 1 == len(window):
        X = [i for i in range(dim) if span.add(SparseVec.unit(i))]
    else:
        X = range(dim)
    nil, prev = (1 if dim else 0), dim
    while layer:
        nil += 1
        if len(layer) >= prev:
            raise InternalError("lower central series does not descend "
                                "(internal error)")
        prev, layer = len(layer), basis(_table_bracket(table, {x: 1}, v)
                                        for x in X for v in layer)[1]
    return nil


def _table_bracket(table, u, v):
    """sum_{i, j} u_i v_j table[i][j] for index -> coefficient dicts."""
    out = {}
    for i, a in u.items():
        row = table[i]
        for j, b in v.items():
            if j in row:
                ab = a * b
                for k, t in row[j].items():
                    out[k] = out.get(k, 0) + ab * t
    return {k: c for k, c in out.items() if c}


class H0Group(ClassTable):
    """H_0 of a cdgl with the BCH product, as the cap-N Malcev approximation:
    the degree-0 case of ClassTable.

    h is the degree-0 homology report of the cdgl's chain complex, with no
    quotient past the boundaries (B aut's is Der^G x~ sL or Der^Pi), and
    product is the bracket on its coordinates, as for ClassTable.

    The nilpotency class c and the group law are read off the table alone.
    The law is bch on the table's bracket, cut at length c.  The cut is
    exact: the class map is a Lie morphism on degree-0 cycles, and every
    bracket of more than c classes is zero.  The table, c, the law and the
    structure constants are built on first read; abelian reads the table
    when it is built, and otherwise stops at the first nonzero bracket.
    """

    def __init__(self, h: HomologyReport, product):
        ClassTable.__init__(self, {0: h}, product)

    @property
    def dimension(self):
        return len(self.degrees)

    @property
    def abelian(self):
        if "table" in vars(self):
            return not any(self.table[1])
        return not any(v for _, _, v in self.pairs())

    @cached_property
    def nilpotency_class(self):
        return nilpotency(self)

    @cached_property
    def structure(self):
        """(i, j) -> the class of h_i * h_j."""
        n = self.dimension
        prods = {}
        for i in range(n):
            for j in range(i, n):
                prods[i, j], prods[j, i] = bch(self.law, {i: 1}, {j: 1})
        return {(i, j): prods[i, j] for i in range(n) for j in range(n)}

    @cached_property
    def law(self):
        """The BCH law on class coordinates: the table's bracket, cut at c."""
        D, table = self.table
        return BCHLaw(lambda U, V: _table_bracket(table, U, V),
                      max(self.nilpotency_class, 1), D)


def bch_series(c):
    """The two-letter BCH series log(e^X e^Y) up to length c, in right-nested
    form: word w over the letters 0 = X, 1 = Y -> c_w / len(w), where c_w is
    the coefficient of w in the tensor algebra, so that the length-n part is
    (1/n) sum_w c_w [w1,[w2,[...,wn]]] (Dynkin-Specht-Wever), in normal form."""
    trunc = Truncation(c)
    X, Y = Generator("X", 0), Generator("Y", 0)
    letter = {X: 0, Y: 1}
    prod = _mul_terms(exp_terms(LieElement.gen(X, trunc)),
                      exp_terms(LieElement.gen(Y, trunc)), trunc)
    return {tuple(letter[g] for g in w): exact(Fraction(coef, len(w)))
            for w, coef in log_terms(prod, trunc).terms.items()}


def h0_group(L: DGLPresentation) -> H0Group:
    """H_0(L) with its BCH group law at the truncation."""
    return H0Group(homology_at(L.complex([0, 1]), 0), L.brackets.product)


class GeneratorFiltration(FrozenRecord):
    """Descending chain V = V^0 > V^1 > ... > V^q = 0 of generator subsets."""

    __slots__ = ("levels",)   # tuple of frozensets of Generator, from V^0

    def __init__(self, levels: tuple):
        prev = None
        for lv in levels:
            if prev is not None and not lv < prev:
                raise ValueError("filtration must strictly descend")
            prev = lv
        if levels and levels[-1]:
            raise ValueError("filtration must end at 0")
        self._set(levels)

    @classmethod
    def from_chain(cls, chain):
        levels = [frozenset(lv) for lv in chain]
        if not levels or levels[-1]:
            levels.append(frozenset())
        return cls(tuple(levels))

    def level_of(self, g: Generator) -> int:
        """Largest i with g in V^i."""
        if not self.levels or g not in self.levels[0]:
            raise ValueError("generator %s not in the filtration's V^0" % g.name)
        lvl = 0
        for i, lv in enumerate(self.levels):
            if g in lv:
                lvl = i
        return lvl

    def next_level(self, i):
        return self.levels[i + 1] if i + 1 < len(self.levels) else frozenset()

"""Cocommutative differential graded coalgebras, the chains/Lie functor
pair at word-capped scale, the adjunction alpha, and the complexes of
convolution dgl's.

The chains coalgebra of a truncated presentation is built on the graded
wedge words in the suspension of a full basis of L; the word cap keeps the
object finite and is sound because the bracket part of the differential
lowers word length.  Signs follow the Koszul rule throughout; the
validation entry points re-derive every structure identity on the stored
basis, exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .dgl import DGLMorphism, DGLPresentation, build_dgl
from .exactlin import GradedChainComplex, _vec, accumulate, exact
from .freelie import Generator, LieElement, Truncation, check_resource_limit


class CoalgebraError(ValueError):
    """A stored coalgebra fails one of its structure identities."""


def wedge_normalize(indices, degrees):
    """Sort a wedge word, returning (sorted_tuple, koszul_sign) or None when
    the word vanishes (repeated odd-degree factor)."""
    idx = list(indices)
    sign = 1
    # insertion sort, tracking the Koszul sign of each transposition
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            if (degrees[idx[j - 1]] * degrees[idx[j]]) % 2:
                sign = -sign
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b and degrees[a] % 2:
            return None
    return tuple(idx), sign


def _unshuffle_sign(word_degs, subset):
    """Koszul sign of moving the subset positions to the front (order kept)."""
    sign = 1
    inset = [k in subset for k in range(len(word_degs))]
    for j in range(len(word_degs)):
        if not inset[j]:
            continue
        for i in range(j):
            if not inset[i]:
                if (word_degs[i] * word_degs[j]) % 2:
                    sign = -sign
    return sign


class CDGC:
    """Finite-basis cocommutative differential graded coalgebra.

    labels: ordered basis label strings; index 0.. refer into it.
    degrees: per-index integer degree.
    counit: index of the coaugmentation image u (the 'empty word').
    comul: index -> list of (left, right, coeff), the FULL coproduct.
    diff: index -> list of (index, coeff).
    """

    def __init__(self, labels, degrees, counit, comul, diff, word_cap=None,
                 meta=None):
        self.labels = list(labels)
        self.degrees = list(degrees)
        self.counit = counit
        self.comul = {i: list(comul.get(i, ())) for i in range(len(self.labels))}
        self.diff = {i: [(j, exact(c)) for j, c in diff.get(i, ()) if c]
                     for i in range(len(self.labels))}
        self.word_cap = word_cap
        self.meta = dict(meta or {})

    def dim(self):
        return len(self.labels)

    def reduced_indices(self):
        return [i for i in range(self.dim()) if i != self.counit]

    def reduced_comul(self, i):
        """Delta-bar: the coproduct minus the primitive part."""
        out = []
        for l, r, c in self.comul[i]:
            if l == self.counit or r == self.counit:
                continue
            out.append((l, r, c))
        return out

    def d_of(self, i):
        return self.diff.get(i, [])

    # -- structure validation --------------------------------------------

    def validate(self):
        u = self.counit
        if self.degrees[u] != 0:
            raise CoalgebraError("counit element must have degree 0")
        if self.comul[u] != [(u, u, 1)]:
            raise CoalgebraError("coaugmentation is not grouplike")
        for i in range(self.dim()):
            # counit law: (eps (x) id) Delta = id
            row = self.comul[i]
            if accumulate({}, ((r, c) for l, r, c in row if l == u)) != {i: 1}:
                raise CoalgebraError("counit law fails on %s" % self.labels[i])
            # graded cocommutativity
            flipped = accumulate({}, (
                ((r, l), -c if (self.degrees[l] * self.degrees[r]) % 2 else c)
                for l, r, c in row))
            if flipped != accumulate({}, (((l, r), c) for l, r, c in row)):
                raise CoalgebraError("cocommutativity fails on %s" % self.labels[i])
            # degrees additive under Delta
            for l, r, _ in row:
                if self.degrees[l] + self.degrees[r] != self.degrees[i]:
                    raise CoalgebraError("coproduct not degree-preserving on %s"
                                         % self.labels[i])
        # coassociativity
        for i in range(self.dim()):
            row = self.comul[i]
            left = accumulate({}, (((l2, r2, r), c * c2) for l, r, c in row
                                   for l2, r2, c2 in self.comul[l]))
            right = accumulate({}, (((l, l2, r2), c * c2) for l, r, c in row
                                    for l2, r2, c2 in self.comul[r]))
            if left != right:
                raise CoalgebraError("coassociativity fails on %s" % self.labels[i])
        # d^2 = 0 and coderivation rule
        for i in range(self.dim()):
            if any(self.degrees[j] != self.degrees[i] - 1 for j, _ in self.d_of(i)):
                raise CoalgebraError("differential not degree -1 on %s"
                                     % self.labels[i])
            if accumulate({}, ((k, c * c2) for j, c in self.d_of(i)
                               for k, c2 in self.d_of(j))):
                raise CoalgebraError("dd != 0 on %s" % self.labels[i])
        for i in range(self.dim()):
            lhs = accumulate({}, (((l, r), c * c2) for j, c in self.d_of(i)
                                  for l, r, c2 in self.comul[j]))
            rhs = {}
            for l, r, c in self.comul[i]:
                sgn = -1 if self.degrees[l] % 2 else 1
                accumulate(rhs, (((l2, r), c * c2) for l2, c2 in self.d_of(l)))
                accumulate(rhs, (((l, r2), sgn * c * c2) for r2, c2 in self.d_of(r)))
            if lhs != rhs:
                raise CoalgebraError("d is not a coderivation on %s" % self.labels[i])
        return self


class LBasisInfo:
    """Full basis data of a truncated presentation, shared by the functors:
    its LieElements of all degrees, the degree of each, and per degree the
    list of their global indices."""

    __slots__ = ("elements", "degrees", "index_by_degree")

    def __init__(self, elements: list, degrees: list, index_by_degree: dict):
        self.elements = elements
        self.degrees = degrees
        self.index_by_degree = index_by_degree

    @classmethod
    def of(cls, L: DGLPresentation):
        lo, hi = L.degree_bounds()
        elements, degrees, index_by_degree = [], [], {}
        for n in range(lo, hi + 1):
            b = L.basis(n)
            if b:
                index_by_degree[n] = list(range(len(elements), len(elements) + len(b)))
                elements += b
                degrees += [n] * len(b)
        return cls(elements, degrees, index_by_degree)


def chains_functor(L: DGLPresentation, word_cap: int) -> CDGC:
    """Word-capped chains coalgebra on the suspension of L's full basis; the
    word count is held to the run's resource limit."""
    info = LBasisInfo.of(L)
    sdeg = [d + 1 for d in info.degrees]
    n_s = len(info.elements)

    # enumerate wedge words (sorted multisets), lengths 0..cap
    words = [()]
    frontier = [()]
    for _ in range(word_cap):
        nxt = []
        for w in frontier:
            start = w[-1] if w else 0
            for i in range(start, n_s):
                if w and i == w[-1] and sdeg[i] % 2:
                    continue
                nxt.append(w + (i,))
            # checked per frontier word, so a runaway length stops early
            check_resource_limit(len(words) + len(nxt), "chains basis size")
        words.extend(nxt)
        frontier = nxt

    label_of_word = {}
    labels = []
    degrees = []
    for w in words:
        if not w:
            lbl = "1"
        else:
            lbl = "^".join("s(%s)" % (info.elements[i].label or "e%d" % i) for i in w)
        label_of_word[w] = len(labels)
        labels.append(lbl)
        degrees.append(sum(sdeg[i] for i in w))

    # s(v) -> the terms of s(dv) on the global indices, and v's key in T
    dcols, keys, T = {}, {}, L.brackets
    for deg, idxs in info.index_by_degree.items():
        below = info.index_by_degree.get(deg - 1, ())
        for j, (k, col) in enumerate(zip(idxs, L.boundary(deg))):
            dcols[k] = [(below[i], c) for i, c in col.entries.items()]
            keys[k] = deg, j

    comul = {}
    diff = {}
    for w in words:
        i = label_of_word[w]
        wd = [sdeg[k] for k in w]
        # full unshuffle coproduct
        table = {}
        for mask in range(1 << len(w)):
            subset = [k for k in range(len(w)) if mask >> k & 1]
            rest = [k for k in range(len(w)) if not mask >> k & 1]
            sgn = _unshuffle_sign(wd, set(subset))
            lw = tuple(w[k] for k in subset)
            rw = tuple(w[k] for k in rest)
            key = (label_of_word[lw], label_of_word[rw])
            table[key] = table.get(key, 0) + sgn
        comul[i] = [(l, r, c) for (l, r), c in table.items() if c]

        # d1: replace one factor by s(dv), with sign -(-1)^{n_i}; d2:
        # contract a pair to s[v_i, v_j], with the Koszul sign of moving
        # the pair to the front
        terms = []
        for pos in range(len(w)):
            sign = -1 if sum(wd[:pos]) % 2 == 0 else 1
            terms += [(w[:pos] + (t,) + w[pos + 1:], sign * c) for t, c in dcols[w[pos]]]
        for pi in range(len(w)):
            for pj in range(pi + 1, len(w)):
                br = T[keys[w[pi]], keys[w[pj]]].entries
                if br:
                    sign = _unshuffle_sign(wd, {pi, pj}) * (-1 if wd[pi] % 2 else 1)
                    rest = tuple(w[k] for k in range(len(w)) if k not in (pi, pj))
                    idxs = info.index_by_degree[keys[w[pi]][0] + keys[w[pj]][0]]
                    terms += [((idxs[b],) + rest, sign * c) for b, c in br.items()]
        dtable = {}
        for new, c in terms:
            norm = wedge_normalize(new, sdeg)
            key = None if norm is None else label_of_word.get(norm[0])
            if key is not None:
                dtable[key] = dtable.get(key, 0) + c * norm[1]
        diff[i] = [(j, c) for j, c in dtable.items() if c]

    C = CDGC(labels, degrees, label_of_word[()], comul, diff,
             word_cap=word_cap,
             meta={"chains_of": L.name or "", "word_cap": word_cap,
                   "truncation": L.trunc.max_bracket_length})
    C._l_info = info
    C._word_index = label_of_word
    C._words = words
    return C.validate()


def lie_functor(C: CDGC, trunc: Truncation, name=None) -> DGLPresentation:
    """Free dgl on the desuspended reduced part of C, d = d1 + d2."""
    gens = {}
    order = []
    for i in C.reduced_indices():
        g = Generator("s-(%s)" % C.labels[i], C.degrees[i] - 1)
        gens[i] = g
        order.append(i)
    d_on = {}
    for i in order:
        # -s^-1 d c, then (1/2) (-1)^{|c'|} [s^-1 c', s^-1 c''] per coproduct
        # term, summed into one word dict in that order; the element keeps
        # the words that the truncation admits
        pairs = [((gens[j],), -c) for j, c in C.d_of(i) if j != C.counit]
        for l, r, c in C.reduced_comul(i):
            a, b = gens[l], gens[r]
            h = exact(Fraction(-c if C.degrees[l] % 2 else c, 2))
            if a != b:
                pairs += [((a, b), h), ((b, a), h if a.degree * b.degree % 2 else -h)]
            elif a.degree % 2:
                pairs.append(((a, a), 2 * h))
        d_on[gens[i]] = LieElement(accumulate({}, pairs), trunc)
    try:
        return build_dgl(tuple(gens[i] for i in order), d_on, trunc,
                         name=name or ("L(%s)" % C.meta.get("chains_of", "C")))
    except ValueError as exc:
        raise CoalgebraError("ill-formed coalgebra: %s" % exc) from exc


def adjunction_alpha(L: DGLPresentation, C: CDGC, LC: DGLPresentation) -> DGLMorphism:
    """alpha: Lie(Chains(L)) -> L; the projection on word-length-1 generators."""
    info = C._l_info
    images = {}
    for i, g in zip(C.reduced_indices(), LC.gens):
        word = C._words[i]
        if len(word) == 1:
            images[g] = LieElement(info.elements[word[0]].terms, L.trunc)
        else:
            images[g] = LieElement.zero(L.trunc)
    return DGLMorphism(LC, L, images, name="alpha").validate()


def comul_by_left(rows):
    """Coproduct rows (index, [(left, right, coeff), ...]) indexed by left
    factor: left -> [(index, position in the row, right, coeff)]."""
    out = {}
    for i, row in rows:
        for pos, (l, r, c) in enumerate(row):
            out.setdefault(l, []).append((i, pos, r, c))
    return out


class ConvolutionDGL:
    """Hom(C, L) with D f = d f - (-1)^{|f|} f d, as a complex on unit
    slots, perturbed by the convolution bracket with a Maurer-Cartan
    element, which is a table {coalgebra label: value in L}."""

    def __init__(self, C: CDGC, L: DGLPresentation):
        self.C = C
        self.L = L
        self._comul_by_left = comul_by_left(C.comul.items())

    def universal_mc(self) -> dict:
        """The universal MC element: s x -> -x on word-length-1 labels, 0 on
        1 and on longer words.

        The sign is forced: with the d2 conventions of the chains/Lie pair,
        the MC equation D q + [q, q]/2 = 0 holds for the NEGATIVE of the
        projection (equivalently, phi-tilde(s^{-1}c) = -phi-bar(c) for
        morphism classes), and fails by a global sign for the positive one.
        """
        if not hasattr(self.C, "_words"):
            raise CoalgebraError("universal MC needs a chains coalgebra")
        info = self.C._l_info
        return {i: LieElement(info.elements[w[0]].terms, self.L.trunc).scale(-1)
                for i, w in enumerate(self.C._words) if len(w) == 1}

    def mc_of_morphism(self, phi: DGLMorphism) -> dict:
        """phi-bar = phi . q; vanishes on 1, on words of length >= 2 and on
        the labels whose value phi kills."""
        images = ((i, phi.apply(v)) for i, v in self.universal_mc().items())
        return {i: v for i, v in images if not v.is_zero()}

    def complex(self, degrees, perturb_by: dict | None = None,
                reduced=False) -> GradedChainComplex:
        """Chain complex of Hom(C, L) (or Hom(C-bar, L)) on the degrees,
        optionally with the differential perturbed by an MC element p (a
        table {label: value}), on the unit slots (i, e_j), one block per
        label i over L_{|i|+n}.  The column of (c, e_j) is L's boundary
        column j in block c, -(-1)^n k at slot j of block i for each term
        k c of d i, and k (-1)^{n|l|} [p(l), e_j] in block i for each
        coproduct term k (l, c) of i, read off L's bracket table."""
        C, L, T = self.C, self.L, self.L.brackets
        indices = C.reduced_indices() if reduced else range(C.dim())
        # l -> (degree, coordinates) of p(l)
        p = {l: (v.degree(), L.coords(v, v.degree()).entries)
             for l, v in (perturb_by or {}).items() if not v.is_zero()}
        d_terms, by_right = {}, {}
        for i, row in C.diff.items():
            for c, k in row:
                d_terms.setdefault(c, []).append((i, k))
        for i, row in C.comul.items():
            for l, c, k in row:
                if l in p:
                    by_right.setdefault(c, []).append((i, l, k))

        def blocks(n):
            return [(i, L.basis(C.degrees[i] + n)) for i in indices]

        def columns(n):
            below, off, sgn, cols = {}, 0, 1 if n % 2 else -1, []
            for i, basis in blocks(n - 1):
                below[i], off = off, off + len(basis)
            for c, _ in blocks(n):
                for j, dcol in enumerate(L.boundary(C.degrees[c] + n)):
                    col = {below[c] + r: v for r, v in dcol.entries.items()}
                    accumulate(col, ((below[i] + j, sgn * k)
                                     for i, k in d_terms.get(c, ())))
                    for i, l, k in by_right.get(c, ()):
                        m, u = p[l]
                        sk = -k if (n * C.degrees[l]) % 2 else k
                        accumulate(col, ((below[i] + r, sk * v) for r, v in
                                         T.product(m, u, C.degrees[c] + n, {j: 1}).items()))
                    cols.append(_vec(col))
            return cols

        return GradedChainComplex.from_columns(degrees, lambda n: [
            "%s->%s" % (C.labels[i], e.label or repr(e))
            for i, basis in blocks(n) for e in basis], columns)

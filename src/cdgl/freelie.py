"""Free graded Lie algebras over Q with bracket-length truncation.

Elements are kept in a canonical normal form: their image in the graded
tensor algebra T(V), where [a, b] = ab - (-1)^{|a||b|} ba.  This makes the
normal form sign-robust for generators of any degree (including odd ones,
where [x, x] != 0) at the price of wider expansions; desk-scale dimensions
keep it tractable.  Lie-subspace membership is certified by the graded
Dynkin bracketing idempotent, and each per-(degree, length) basis is
picked by exact elimination from the brackets [g, b] of the generators
with the basis one length down.

Completion is modelled by nilpotent quotients: every element carries a
Truncation and words longer than the cap are silently dropped (the drop is
visible in truncation metadata upstream).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .exactlin import (FactoredBasis, IncrementalSpan, InternalError,
                       NotInSpanError, ResourceLimitError, SparseVec, accumulate,
                       clear_denominators, exact, ratio, settled)
from .record import FrozenRecord


class DegreeError(ValueError):
    """An element fails a homogeneity or degree requirement."""


class LieMembershipError(ValueError):
    """A tensor element that should be a Lie element is not."""


class Generator(NamedTuple):
    """A generator: a name and a degree.  A tuple, so that words (tuples of
    generators) hash and compare in C; its hash is hash((name, degree))."""

    name: str
    degree: int

    def __repr__(self):
        return "%s(%d)" % (self.name, self.degree)


class Truncation(FrozenRecord):
    """Bracket-length cap N >= 1, with an optional degree cap."""

    __slots__ = ("max_bracket_length", "max_degree")

    def __init__(self, max_bracket_length: int, max_degree: int | None = None):
        if max_bracket_length < 1:
            raise ValueError("truncation cap must be >= 1")
        self._set(max_bracket_length, max_degree)

    def admits(self, word) -> bool:
        if len(word) > self.max_bracket_length:
            return False
        if self.max_degree is not None and word_degree(word) > self.max_degree:
            return False
        return True


# A word is a tuple of Generators; the empty tuple is the algebra unit and
# never appears inside a LieElement.

def word_degree(word) -> int:
    return sum(g.degree for g in word)


def _word_key(word):
    return (len(word), tuple(g.name for g in word))


class LieElement:
    """Exact-rational combination of graded tensor words.

    Each coefficient is in the engine's normal form (see exactlin): an int
    when it is integral, a Fraction with denominator > 1 otherwise, never a
    float (so no `/`); the constructor, gen, scale, + and - keep it.
    Supports the ambient associative operations needed by the engine; the
    Lie-subspace invariant is certified separately (is_lie) and enforced at
    the public construction sites upstream.
    """

    __slots__ = ("terms", "trunc", "label")

    def __init__(self, terms, trunc: Truncation, label=None):
        self.trunc = trunc
        self.terms = {}
        self.label = label
        for w, c in (terms.items() if isinstance(terms, dict) else terms):
            if type(c) is not int:
                c = exact(c)
            if c and trunc.admits(w):
                self.terms[w] = c

    @classmethod
    def zero(cls, trunc):
        return cls({}, trunc)

    @classmethod
    def gen(cls, g: Generator, trunc):
        return cls({(g,): 1}, trunc)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Degree when homogeneous; raises DegreeError on mixed degrees."""
        degs = {word_degree(w) for w in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise DegreeError("inhomogeneous element, degrees %s" % sorted(degs))
        return degs.pop()

    def is_homogeneous(self) -> bool:
        return len({word_degree(w) for w in self.terms}) <= 1

    def min_length(self):
        return min((len(w) for w in self.terms), default=None)

    def truncated(self, trunc: Truncation) -> "LieElement":
        return LieElement(self.terms, trunc)

    def scale(self, c) -> "LieElement":
        c = exact(c)  # a nonzero multiple has self's words, admitted already
        res = LieElement.zero(self.trunc)
        res.terms = settled({w: v * c for w, v in self.terms.items()}) if c else {}
        return res

    def __add__(self, other: "LieElement") -> "LieElement":
        # other's words need the truncation test only under another truncation
        res, terms = LieElement.zero(self.trunc), other.terms.items()
        if other.trunc is not res.trunc and other.trunc != res.trunc:
            terms = [(w, c) for w, c in terms if res.trunc.admits(w)]
        res.terms = accumulate(dict(self.terms), terms)
        return res

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + other.scale(-1)

    def __neg__(self) -> "LieElement":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, LieElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _word_key(t[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.sorted_terms()[:8]:
            bits.append("%s*%s" % (c, ".".join(g.name for g in w)))
        if len(self.terms) > 8:
            bits.append("...")
        return " + ".join(bits)


class LieTable:
    """A table key -> nonzero LieElement, with its linear structure.

    Subclasses store the table in ``values`` through this constructor, from
    (key, value) pairs, and supply ``_zero()``, the zero of the value
    algebra, and ``_like(values)``, a table of the same kind holding other
    values.  They call ``LieTable.__init__`` and ``LieTable.__eq__`` by
    name: tables are built in inner loops, where ``super()`` costs about as
    much as the rest of the constructor.
    """

    __slots__ = ("values",)

    def __init__(self, items):
        self.values = values = {}
        for k, v in items:
            if v is not None and not v.is_zero():
                values[k] = v

    def value(self, key) -> LieElement:
        v = self.values.get(key)
        return v if v is not None else self._zero()

    def is_zero(self):
        return not self.values

    def _plus(self, items):
        """This table plus the (key, value) pairs of items, in one table."""
        out = dict(self.values)
        for k, v in items:
            s = out.get(k)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return self._like(out)

    def __add__(self, other):
        return self._plus(other.values.items())

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return self._like({k: v.scale(c) for k, v in self.values.items()})

    def __eq__(self, other):
        return type(other) is type(self) and self.values == other.values


def _mul_terms(a, b, trunc):
    """Concatenation product of word dictionaries (allows the empty word),
    each nonempty word tested by trunc, the length by the room that the left
    word leaves under the cap; on ints for int coefficients (a caller that
    hands the product out settles it)."""
    out = {}
    cap, max_degree = trunc.max_bracket_length, trunc.max_degree
    for wa, ca in a.items():
        room = cap - len(wa)
        for wb, cb in b.items():
            if len(wb) > room:
                continue
            w = wa + wb
            if max_degree is not None and w and word_degree(w) > max_degree:
                continue
            s = out.get(w, 0) + ca * cb
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Graded bracket [a, b] = ab - (-1)^{|a||b|} ba, computed wordwise, in
    the normal form (on ints for int coefficients)."""
    trunc = a.trunc
    cap = trunc.max_bracket_length
    max_degree = trunc.max_degree
    res = LieElement.zero(trunc)
    # with no pair of words under the cap the bracket is zero
    shortest = min(map(len, b.terms), default=cap)
    if min(map(len, a.terms), default=cap) + shortest > cap:
        return res
    out = {}
    b_terms = [(wb, cb, len(wb), word_degree(wb)) for wb, cb in b.terms.items()]
    for wa, ca in a.terms.items():
        la = len(wa)
        if la + shortest > cap:
            continue
        da = word_degree(wa)
        for wb, cb, lb, db in b_terms:
            if la + lb > cap or (max_degree is not None and da + db > max_degree):
                continue
            coeff = ca * cb
            sign = -coeff if (da * db) % 2 == 0 else coeff
            for w, c in ((wa + wb, coeff), (wb + wa, sign)):
                s = out.get(w, 0) + c
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
    res.terms = settled(out)
    return res


def mul(a: LieElement, b: LieElement) -> LieElement:
    """Tensor-algebra product (not a Lie operation; enveloping plumbing)."""
    res = LieElement.zero(a.trunc)
    res.terms = settled({w: c for w, c in _mul_terms(a.terms, b.terms, a.trunc).items()
                         if w})
    return res


def _power_series(v, coefficient, trunc):
    """sum_{k >= 1} coefficient(k) v^k, with Fraction coefficients; v has no
    empty word, so its powers vanish past the cap N.  The powers are taken
    on the ints D v, D the lcm of v's denominators, and summed over one
    denominator Q = D^N M, M the lcm of the denominators of coefficient(1..N).
    Each partial sum is Q times the sum on Fractions, so words cancel, leave
    and re-enter the sum at the same points."""
    cap = trunc.max_bracket_length
    D, v = clear_denominators(v)
    M, coefficients = clear_denominators({k: coefficient(k)
                                          for k in range(1, cap + 1)})
    out = {}
    power = {(): 1}
    for k, c in coefficients.items():
        power = _mul_terms(power, v, trunc)
        if not power:
            break
        m = c * D ** (cap - k)
        for w, t in power.items():
            s = out.get(w, 0) + m * t
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    Q = D ** cap * M
    return {w: ratio(s, Q) for w, s in out.items()}


def _exp_coefficient(k):
    return Fraction(1, factorial(k))


def exp_terms(x: LieElement):
    """exp(x) in the truncated tensor algebra; includes the empty word."""
    return {(): 1, **_power_series(x.terms, _exp_coefficient, x.trunc)}


def log_terms(u, trunc) -> LieElement:
    """log(u) for u = 1 + (higher words) in the truncated tensor algebra."""
    if u.get((), 0) != 1:
        raise LieMembershipError("log argument must have unit constant term")
    v = {w: c for w, c in u.items() if w}
    res = LieElement.zero(trunc)
    res.terms = _power_series(v, lambda k: Fraction((-1) ** (k + 1), k), trunc)
    return res


def _dynkin_terms(terms):
    """Right-nested bracketing of a word dictionary, by linearity in the
    leading letter: D(g) = g and D(g.u) = [g, D(u)]."""
    out = {}
    tails = {}
    for w, c in terms.items():
        if len(w) == 1:
            out[w] = c
        else:
            tails.setdefault(w[0], {})[w[1:]] = c
    for g, tail in tails.items():
        # [g, w] = g.w - (-1)^{|g||w|} w.g keeps the input's lengths and
        # degrees, so nothing leaves the truncation
        for w, c in _dynkin_terms(tail).items():
            out[(g,) + w] = out.get((g,) + w, 0) + c
            sign = -1 if g.degree % 2 and word_degree(w) % 2 else 1
            out[w + (g,)] = out.get(w + (g,), 0) - sign * c
    return {w: c for w, c in out.items() if c}


def is_lie(e: LieElement) -> bool:
    """Exact Lie-subspace membership via the Dynkin idempotent, all lengths
    in one pass: D(e) must equal the sum of len(w) * c_w * w.  D is linear
    over Z, so the test runs on the ints of e with its denominators cleared.
    """
    _, terms = clear_denominators(e.terms)
    return _dynkin_terms(terms) == {w: len(w) * c for w, c in terms.items()}


_basis_cache = {}

_RESOURCE_LIMIT = None


def set_resource_limit(n):
    """Global guard on per-degree basis sizes and chains word counts (the
    workbench wires the env var); None turns it off."""
    global _RESOURCE_LIMIT
    _RESOURCE_LIMIT = n


def check_resource_limit(size, what):
    """Raise ResourceLimitError when size is over the run's limit."""
    if _RESOURCE_LIMIT is not None and size > _RESOURCE_LIMIT:
        raise ResourceLimitError("%s exceeds resource limit %d"
                                 % (what, _RESOURCE_LIMIT))


def lie_basis(gens, degree, length, trunc: Truncation):
    """Ordered basis of the (degree, length)-homogeneous component, as
    elements of trunc with int coefficients, carrying bracket-expression
    labels (see _left_normed_basis); empty above trunc's degree cap."""
    if length > trunc.max_bracket_length:
        raise ValueError("length %d exceeds truncation %d" % (length, trunc.max_bracket_length))
    if trunc.max_degree is not None and degree > trunc.max_degree:
        return []
    out = []
    for label, terms in _left_normed_basis(tuple(gens), degree, length):
        f = LieElement.zero(trunc)
        f.terms = dict(terms)
        f.label = label
        out.append(f)
    return out


def lie_dimension(gens, degree, length, trunc: Truncation) -> int:
    """The size of lie_basis(gens, degree, length, trunc), with no basis
    built: 0 above trunc's degree cap, else the super-Witt formula in the
    (degree, length) grading, parity the degree mod 2,

        dim = (-1)^n / k * sum_{r | gcd(k, n)} mu(r) (-1)^(n/r) w(n/r, k/r),

    n the degree, k the length and w(m, j) the number of words of length j
    and degree m.  It is the Moebius inversion of the super-PBW theorem:
    T(V) = U(L) is S(L_even) x Lambda(L_odd) as a bigraded space, so with x
    counting degree and t length, 1 / (1 - sum_g (-x)^|g| t) is the product
    of (1 - x^m t^j)^(-(-1)^m dim L_(m, j))."""
    if length > trunc.max_bracket_length:
        raise ValueError("length %d exceeds truncation %d" % (length, trunc.max_bracket_length))
    if trunc.max_degree is not None and degree > trunc.max_degree:
        return 0
    total = 0
    for r in range(1, length + 1):
        if length % r == 0 and degree % r == 0:
            m = degree // r
            total += _mobius(r) * (-1) ** (m % 2) * _word_count(gens, m, length // r)
    if total % length:
        raise InternalError("the super-Witt sum at degree %d, length %d is not "
                            "divisible by the length" % (degree, length))
    return (-1) ** (degree % 2) * total // length


def _mobius(r):
    """The Moebius function of r >= 1, by trial division."""
    sign, p = 1, 2
    while r > 1:
        if r % p == 0:
            r //= p
            if r % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


def _word_count(gens, degree, length):
    """The number of words of the given length and degree in gens."""
    counts = {0: 1}
    for _ in range(length):
        step = {}
        for m, c in counts.items():
            for g in gens:
                step[m + g.degree] = step.get(m + g.degree, 0) + c
        counts = step
    return counts.get(degree, 0)


def _bracket_with_generator(g, terms, even):
    """[g, b] on the word dictionary terms of a homogeneous b:
    g.b - (-1)^{|g||b|} b.g, even telling whether |g||b| is even."""
    out = {(g,) + w: c for w, c in terms.items()}
    for w, c in terms.items():
        w += (g,)
        s = out.get(w, 0) + (-c if even else c)
        if s:
            out[w] = s
        else:
            del out[w]
    return out


def _left_normed_basis(gens, degree, length):
    """The (degree, length) basis, built from the basis one length down, as
    pairs of a pick's label and its int terms.

    The candidates at length 1 are the generators of the degree; at length
    k they are [g, b] for each g in gens order and each b in the basis at
    (degree - |g|, k - 1), in its order.  A candidate is kept when it adds
    rank over the candidates before it, so the result is deterministic.

    This picks the same elements, with the same terms, labels and order, as
    the greedy pick over the left-normed brackets [g1,[g2,[...,gk]]] of all
    generator sequences in lexicographic order: if the tail s' of (g, s')
    was not picked one length down, its bracket lies in the span of the
    picked tails before it, so [g, s'] lies in the span of the candidates
    [g, t] before it and the full list would not pick it either (a zero
    tail gives a zero bracket, which both lists skip).  A component holds
    about 1/length of the words of its length (Witt), so this list is far
    shorter.  Left-normed brackets of generators have integer coefficients
    in T(V), so the candidates and picks are ints.  The pick reads only
    whether the rank grows, so a word seen first gets a column below every
    earlier one: a candidate holding one has its least column below every
    pivot, and IncrementalSpan.add stores it as it is, with no elimination.
    Results, sub-bases included, are kept in _basis_cache, and every basis,
    cached or built, is held to the run's resource limit.
    """
    key = (gens, degree, length)
    picked = _basis_cache.get(key)
    if picked is not None:
        check_resource_limit(len(picked), "basis size")
        return picked
    if length == 1:
        candidates = [(g.name, {(g,): 1}) for g in gens if g.degree == degree]
    else:
        candidates = (("[%s,%s]" % (g.name, label),
                       _bracket_with_generator(g, terms,
                                               g.degree * (degree - g.degree) % 2 == 0))
                      for g in gens
                      for label, terms in _left_normed_basis(
                          gens, degree - g.degree, length - 1))
    word_index = {}
    span = IncrementalSpan()
    picked = []
    for label, terms in candidates:
        if not terms:
            continue
        v = SparseVec()
        v.entries = {word_index.setdefault(w, ~len(word_index)): c
                     for w, c in terms.items()}
        if span.add(v):
            picked.append((label, terms))
            check_resource_limit(len(picked), "basis size")
    _basis_cache[key] = picked
    return picked


class Coordinatizer:
    """Exact coordinates against a fixed basis of Lie elements.

    The basis words are indexed once and the basis is factored once
    (exactlin.FactoredBasis); an element with a word outside the index, or a
    residual in the word columns, is outside the span.
    """

    def __init__(self, basis):
        # words in descending first-seen order, so that each basis row
        # pivots on a word that no earlier row holds (see _left_normed_basis)
        seen = dict.fromkeys(w for be in basis for w in be.terms)
        self.word_index = {w: i for i, w in enumerate(reversed(seen))}
        self.factored = FactoredBasis(
            [SparseVec({self.word_index[w]: c for w, c in be.terms.items()})
             for be in basis], len(self.word_index))

    def coords(self, e: LieElement) -> SparseVec:
        vec = SparseVec()
        for w, c in e.terms.items():
            widx = self.word_index.get(w)
            if widx is None:
                raise NotInSpanError("word %s outside basis span" % (w,))
            vec.entries[widx] = c
        return self.factored.coords(vec)

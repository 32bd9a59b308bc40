"""Exact rational sparse linear algebra, chain complexes, homology and
long exact sequences.

Everything here is over Q, and every exact scalar the engine stores is
in one normal form: an int when it is integral, a stdlib Fraction with
denominator > 1 otherwise, never a float (no `/` is used: a quotient is
ratio(n, d) or Fraction(n, d)).  Matrices and vectors are sparse (dict
based).  There is one elimination engine, IncrementalSpan, which keeps
a row echelon form of a growing span as integer rows, fraction-free, and
builds the reduced form only when it is read; rank, kernels and solves
read its pivots and rows, and FactoredBasis puts a matrix through it once
so that each further solve against that matrix is a single reduction.

Basis labels are opaque strings; all semantics live upstream.  Pivot and
representative choices are deterministic (first-column, first-row order),
so downstream golden tests are bit-exact.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


class IllFormedComplexError(ValueError):
    """A boundary fails shape checks or dd != 0."""


class ExactnessError(ValueError):
    """A claimed short exact sequence is not exact; names the degree."""


class NotInSpanError(ValueError):
    """A vector that should lie in a given span does not."""


class ResourceLimitError(RuntimeError):
    """A per-degree basis grew past the configured resource limit."""


class InternalError(Exception):
    """An engine invariant failed: a fault in the program, not in its input.
    Kept apart from ValueError so that it never reads as a user diagnostic."""


def exact(c):
    """c in the normal form: an int when c is integral, else a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def ratio(n: int, d: int):
    """The quotient n / d of two ints (d != 0), in the normal form."""
    return n // d if n % d == 0 else Fraction(n, d)


def settled(values: dict) -> dict:
    """values with every integral Fraction replaced by its int, in place:
    sums and products of Fractions may be integral."""
    for k, c in values.items():
        if type(c) is not int and c.denominator == 1:
            values[k] = c.numerator
    return values


def accumulate(out: dict, pairs) -> dict:
    """out plus the (key, value) pairs, in place and settled: a key whose
    sum reaches zero leaves out, and re-enters at the end if it comes back."""
    for k, v in pairs:
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return settled(out)


def _vec(entries) -> "SparseVec":
    """Wrap a dict of nonzero exact scalars in the normal form as a
    SparseVec, without copying."""
    v = SparseVec()
    v.entries = entries
    return v


class SparseVec:
    """Sparse vector: basis index -> nonzero exact scalar, in the normal
    form (an int when integral, else a Fraction; never `/`, which would
    make a float of two ints)."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for i, v in (entries.items() if isinstance(entries, dict) else entries):
                v = exact(v)
                if v:
                    self.entries[i] = v

    @classmethod
    def unit(cls, i):
        return cls({i: 1})

    def get(self, i):
        return self.entries.get(i, 0)

    def is_zero(self) -> bool:
        return not self.entries

    def items(self):
        return self.entries.items()

    def scale(self, c) -> "SparseVec":
        c = exact(c)
        if not c:
            return SparseVec()
        return SparseVec({i: v * c for i, v in self.entries.items()})

    def __add__(self, other: "SparseVec") -> "SparseVec":
        return _vec(accumulate(dict(self.entries), other.entries.items()))

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVec) and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __repr__(self):
        if not self.entries:
            return "SparseVec(0)"
        body = ", ".join("%d: %s" % (i, v) for i, v in sorted(self.entries.items()))
        return "SparseVec({%s})" % body


class SparseMat:
    """Sparse matrix: (row, col) -> nonzero exact scalar in the normal form
    (as SparseVec, with no `/`), with explicit shape."""

    __slots__ = ("n_rows", "n_cols", "entries")

    def __init__(self, n_rows, n_cols, entries=None):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.entries = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (r, c), v in items:
                if not (0 <= r < n_rows and 0 <= c < n_cols):
                    raise ShapeError("entry (%d,%d) outside %dx%d" % (r, c, n_rows, n_cols))
                v = exact(v)
                if v:
                    self.entries[(r, c)] = v

    @classmethod
    def from_columns(cls, n_rows, cols):
        m = cls(n_rows, len(cols))
        for j, col in enumerate(cols):
            for i, v in col.items():
                if v:
                    m.entries[(i, j)] = exact(v)
        return m

    def columns(self):
        cols = [SparseVec() for _ in range(self.n_cols)]
        for (r, c), v in self.entries.items():
            cols[c].entries[r] = v
        return cols

    def rows(self):
        rows = [dict() for _ in range(self.n_rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def is_zero(self) -> bool:
        return not self.entries

    def apply(self, x: SparseVec) -> SparseVec:
        xs = x.entries
        return _vec(accumulate({}, ((r, v * xs[c])
                                    for (r, c), v in self.entries.items() if c in xs)))

    def compose(self, other: "SparseMat") -> "SparseMat":
        """self . other (apply other first)."""
        if self.n_cols != other.n_rows:
            raise ShapeError("compose %sx%s with %sx%s" %
                             (self.n_rows, self.n_cols, other.n_rows, other.n_cols))
        by_row = {}
        for (r, k), v in self.entries.items():
            by_row.setdefault(k, []).append((r, v))
        return SparseMat(self.n_rows, other.n_cols, accumulate({}, (
            ((r, c), v * w) for (k, c), w in other.entries.items()
            for r, v in by_row.get(k, ()))))

    def __add__(self, other: "SparseMat") -> "SparseMat":
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ShapeError("adding %dx%d to %dx%d" %
                             (self.n_rows, self.n_cols, other.n_rows, other.n_cols))
        return SparseMat(self.n_rows, self.n_cols,
                         accumulate(dict(self.entries), other.entries.items()))

    def scale(self, c) -> "SparseMat":
        c = exact(c)
        return SparseMat(self.n_rows, self.n_cols,
                         {k: v * c for k, v in self.entries.items()} if c else {})

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self + other.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, SparseMat) and self.n_rows == other.n_rows
                and self.n_cols == other.n_cols and self.entries == other.entries)

    def __repr__(self):
        return "SparseMat(%dx%d, %d nz)" % (self.n_rows, self.n_cols, len(self.entries))


class IncrementalSpan:
    """Growing row span with exact incremental reduction.

    This is the one elimination engine.  It stores a row echelon form of
    the span: one row per pivot column, the least column the row holds,
    each its primitive integer multiple with a positive pivot entry.  add
    eliminates only while the vector's least column is a pivot (so one
    with a column below every pivot goes in as it is) and returns True when
    the span grew; contains and FactoredBasis.coords reduce fully,
    in increasing pivot order, as a pivot's row holds no lower column.
    rows, the reduced row echelon form (unique, as are the pivots), is
    built by back-substitution when read and kept until the next add.  The
    API stays rational: an input has its denominators cleared once and is
    copied, elimination runs in place on ints (fraction-free, as in
    Bareiss), and a Fraction is built only for a residual entry that the
    elimination's scale does not divide (ratio, never `/`).
    """

    def __init__(self):
        self.echelon = {}
        self._reduced = None

    @property
    def rank(self):
        return len(self.echelon)

    @property
    def rows(self):
        if self._reduced is None:
            self._reduced = reduced = {}
            for piv in sorted(self.echelon, reverse=True):
                row = dict(self.echelon[piv])
                # a reduced row holds no other pivot, so clearing one
                # pivot brings in no other
                for q in [j for j in row if j != piv and j in reduced]:
                    _eliminate(row, reduced[q], q)
                _primitive(row, piv)
                reduced[piv] = row
        return self._reduced

    def _residue(self, vec: SparseVec):
        """(cur, scale): cur is an integer vector and cur / scale is the
        unique vector of vec + span with zero pivot entries."""
        scale, cur = clear_denominators(vec.entries)
        cur, rows = dict(cur), self.echelon
        piv = min((j for j in cur if j in rows), default=None)
        while piv is not None:
            scale *= _eliminate(cur, rows[piv], piv)
            piv = min((j for j in cur if j > piv and j in rows), default=None)
        return cur, scale

    def contains(self, vec: SparseVec) -> bool:
        return not self._residue(vec)[0]

    def add(self, vec: SparseVec) -> bool:
        if not vec.entries:
            return False
        row, rows = dict(clear_denominators(vec.entries)[1]), self.echelon
        piv = min(row)
        while piv in rows:
            _eliminate(row, rows[piv], piv)
            if not row:
                return False
            piv = min(row)
        _primitive(row, piv)
        rows[piv] = row
        self._reduced = None
        return True


def clear_denominators(*dicts):
    """(D, then D * t on ints for each dict t), D the lcm of the
    denominators of all their values (ints or Fractions).  When every value
    is an int, D is 1 and each t comes back as it is, not copied."""
    if all(type(c) is int for t in dicts for c in t.values()):
        return (1, *dicts)
    D = lcm(*(c.denominator for t in dicts for c in t.values()))
    return (D, *({k: c.numerator * (D // c.denominator) for k, c in t.items()}
                 for t in dicts))


def _eliminate(cur, row, piv):
    """cur := p cur - c row in place, with the least ints p > 0 and c that
    clear cur at row's pivot column piv; returns p."""
    g = gcd(row[piv], cur[piv])
    p, c = row[piv] // g, cur[piv] // g
    if p != 1:
        for j in cur:
            cur[j] *= p
    for j, v in row.items():
        w = cur.get(j, 0) - c * v
        if w:
            cur[j] = w
        else:
            del cur[j]
    return p


def _primitive(row, piv):
    """Divide the integer row in place by the gcd of its entries, signed so
    that the entry at piv is positive."""
    g = gcd(*row.values())
    if row[piv] < 0:
        g = -g
    if g != 1:
        for j in row:
            row[j] //= g


class FactoredBasis:
    """Coordinates against fixed vectors v_0..v_{m-1}, eliminated once.

    The rows (b | 0) of the vectors to work modulo, then the rows
    (v_k | e_{n_cols+m-1-k}), go into one IncrementalSpan, in echelon form.
    Reducing (v | 0) fully leaves (0 | -x) exactly when v = sum_k x_k v_k
    modulo the b's, and a residual in the first n_cols columns otherwise.
    The tail columns run in reverse order, so a relation row takes its
    pivot at the last v_k it involves: x is zero on every v_k in the span
    of the b's and v_<k.  That is the free-variables-zero solution of the
    system with columns v_k, and this is the engine's one solve.
    """

    def __init__(self, vecs, n_cols, modulo=()):
        self.n_cols = n_cols
        self.last = n_cols + len(vecs) - 1
        self.span = _span(modulo)
        for k, v in enumerate(vecs):
            row = dict(v.entries)
            row[self.last - k] = 1
            self.span.add(_vec(row))

    def coords(self, vec: SparseVec) -> SparseVec:
        if any(not 0 <= i < self.n_cols for i in vec.entries):
            raise NotInSpanError("vector outside the factored columns")
        res, scale = self.span._residue(vec)
        if any(i < self.n_cols for i in res):
            raise NotInSpanError("vector outside the factored span")
        return _vec({self.last - i: ratio(-v, scale) for i, v in res.items()})


def _span(vecs) -> IncrementalSpan:
    span = IncrementalSpan()
    for v in vecs:
        span.add(v)
    return span


def _row_span(mat: SparseMat) -> IncrementalSpan:
    return _span(map(_vec, mat.rows()))


def rank(mat: SparseMat) -> int:
    return _row_span(mat).rank


def kernel_basis(A: SparseMat):
    """Deterministic basis of ker A: one vector per free column, in column
    order, with unit free coordinate (lexicographically-first pivot-free
    combinations)."""
    rows = _row_span(A).rows
    free = {j: {j: 1} for j in range(A.n_cols) if j not in rows}
    for pc in sorted(rows):
        for j, c in rows[pc].items():
            if j != pc:
                free[j][pc] = ratio(-c, rows[pc][pc])
    return [_vec(v) for v in free.values()]


class GradedChainComplex:
    """Chain complex with per-degree ordered bases and boundaries over Q.

    basis: dict degree -> list of opaque labels.
    boundary: dict degree -> SparseMat mapping C_n -> C_{n-1}.  Degrees
    outside the stored range are zero.
    """

    def __init__(self, basis, boundary):
        self.basis = {n: list(lbls) for n, lbls in basis.items() if lbls}
        self.boundary = {}
        for n, mat in boundary.items():
            if mat is None or mat.is_zero():
                continue
            if mat.n_cols != self.dim(n) or mat.n_rows != self.dim(n - 1):
                raise IllFormedComplexError(
                    "boundary at degree %d has shape %dx%d, expected %dx%d"
                    % (n, mat.n_rows, mat.n_cols, self.dim(n - 1), self.dim(n)))
            self.boundary[n] = mat

    @classmethod
    def from_columns(cls, degrees, labels, columns) -> "GradedChainComplex":
        """The complex on degrees and one below each, labels(m) naming the
        basis of degree m and columns(n) the boundary at each n of degrees,
        as columns in the basis of degree n - 1."""
        basis = {m: labels(m) for m in sorted({m for n in degrees for m in (n - 1, n)})}
        return cls(basis, {n: SparseMat.from_columns(len(basis[n - 1]), columns(n))
                           for n in degrees})

    def dim(self, n) -> int:
        return len(self.basis.get(n, ()))

    def degrees(self):
        return sorted(self.basis)

    def d(self, n) -> SparseMat:
        mat = self.boundary.get(n)
        if mat is None:
            return SparseMat(self.dim(n - 1), self.dim(n))
        return mat

    def validate(self):
        for n in list(self.boundary):
            prod = self.d(n - 1).compose(self.d(n))
            if not prod.is_zero():
                raise IllFormedComplexError("dd != 0 from degree %d" % n)
        return self


class HomologyReport:
    """H_n of a complex: its cycles modulo its boundaries.

    cycle_reps are the representatives; quotient lists the boundaries, the
    columns of d_{n+1}, in the n_cols coordinates of C_n.  classes
    (coordinates of a cycle's class in the representatives) is built on
    first read.
    """

    def __init__(self, degree: int, dimension: int, cycle_reps: list,
                 quotient: list, n_cols: int):
        self.degree = degree
        self.dimension = dimension
        self.cycle_reps = cycle_reps
        self.quotient = quotient
        self.n_cols = n_cols

    @cached_property
    def classes(self) -> FactoredBasis:
        # unique: the representatives are independent modulo the quotient
        return FactoredBasis(self.cycle_reps, self.n_cols, modulo=self.quotient)


def homology_at(C: GradedChainComplex, n: int) -> HomologyReport:
    """H_n(C) with deterministic cycle representatives, after checking
    dd = 0 around degree n.

    Degrees outside the stored range are treated as zero (boundaries clip).
    """
    dn = C.d(n)
    if not C.d(n - 1).compose(dn).is_zero() or not dn.compose(C.d(n + 1)).is_zero():
        raise IllFormedComplexError("dd != 0 near degree %d" % n)
    cycles = kernel_basis(dn) if C.dim(n) else []
    quotient = C.d(n + 1).columns()
    span = _span(quotient)
    dim = len(cycles) - span.rank
    reps = [z for z in cycles if span.add(z)]
    if dim != len(reps):
        raise InternalError("homology rank bookkeeping failed at degree %d "
                            "(internal error)" % n)
    return HomologyReport(n, dim, reps, quotient, C.dim(n))


class LongExactSequence(namedtuple("LongExactSequence", "degrees hA hB hC maps_i "
                                     "maps_p connecting")):
    """H_n(A) -> H_n(B) -> H_n(C) -> H_{n-1}(A), per degree, as matrices:
    maps_i H_n(A) -> H_n(B), maps_p H_n(B) -> H_n(C) and connecting
    H_n(C) -> H_{n-1}(A), each a dict degree -> SparseMat."""


def homology_reports(C: GradedChainComplex, degrees, known=None) -> dict:
    """Degree -> homology_at(C, n), or the report known holds for n."""
    known = known or {}
    return {n: known[n] if n in known else homology_at(C, n) for n in degrees}


class TwistedComplex(namedtuple("TwistedComplex", "sub total quotient")):
    """The split short exact sequence sub -> total -> quotient: each degree
    of total holds the slots of sub first, then those of quotient, and its
    boundary is the upper block-triangular [[d_sub, cross], [0, d_quot]].
    The inclusion and the projection are these slot blocks, so they are
    never stored as matrices."""


def twisted_product(sub: GradedChainComplex, quot: GradedChainComplex,
                    degrees, cross=None) -> TwistedComplex:
    """The twisted product of sub and quot on a degree window, one degree
    below it included: the boundary is [[d_sub, cross(n)], [0, d_quot]],
    where cross(n) maps quot_n to sub_{n-1} (zero when cross is None)."""
    degrees = sorted(degrees)
    window = degrees + [degrees[0] - 1]
    basis = {n: sub.basis.get(n, []) + quot.basis.get(n, []) for n in window}
    boundary = {}
    for n in degrees:
        a, a1 = sub.dim(n), sub.dim(n - 1)
        entries = dict(sub.d(n).entries)
        for (r, c), v in quot.d(n).entries.items():
            entries[(a1 + r, a + c)] = v
        if cross is not None:
            for (r, c), v in cross(n).entries.items():
                entries[(r, a + c)] = v
        boundary[n] = SparseMat(a1 + quot.dim(n - 1), a + quot.dim(n), entries)
    return TwistedComplex(sub, GradedChainComplex(basis, boundary).validate(), quot)


def _check_split(tw: TwistedComplex, n):
    """The boundary of tw.total at degree n has tw's block form, read in one
    pass over its entries: the dimensions at n and n - 1 balance, the block
    from sub slots to quotient slots is zero, and the diagonal blocks are
    d_sub and d_quot.  Each failure is an ExactnessError naming the degree."""
    A, B, C = tw
    for m in (n, n - 1):
        if B.dim(m) != A.dim(m) + C.dim(m):
            raise ExactnessError("middle dimension mismatch at degree %d" % m)
    a, a1 = A.dim(n), A.dim(n - 1)
    want = dict(A.d(n).entries)
    want.update(((a1 + r, a + c), v) for (r, c), v in C.d(n).entries.items())
    diagonal = {}
    for (r, c), v in B.d(n).entries.items():
        if c < a and r >= a1:
            raise ExactnessError("the boundary maps a sub slot to a quotient "
                                 "slot at degree %d" % n)
        if c < a or r >= a1:
            diagonal[(r, c)] = v
    if diagonal != want:
        raise ExactnessError("the diagonal blocks of the boundary are not d_sub "
                             "and d_quot at degree %d" % n)


def les_of_ses(tw: TwistedComplex, degrees, hA=None, hB=None) -> LongExactSequence:
    """Long exact homology sequence of the split sequence sub -> total ->
    quotient of a twisted product.

    Checks the block form of the total boundary (_check_split) at every
    degree it reads, reads the induced maps off the slots, lifts each
    quotient cycle z to (0, z) for the connecting map, and checks exactness
    at every slot before returning.  The connecting map at n lands in
    H_{n-1}(A), so for a gap degree n - 1 (missing from degrees, with n
    above the lowest degree) H_{n-1}(B) and i_{n-1} are built as well, to
    check the slot at H_{n-1}(A).  hA and hB may hold homology reports of
    sub and total already taken, by degree; the others are taken here.
    """
    A, B, C = tw
    degrees = sorted(degrees)
    gaps = sorted({n - 1 for n in degrees[1:]} - set(degrees))
    both = sorted(degrees + gaps)
    for n in both + [degrees[-1] + 1]:
        _check_split(tw, n)

    hA = homology_reports(A, sorted(set(both) | {degrees[0] - 1}), hA)
    hB = homology_reports(B, both, hB)
    hC = homology_reports(C, degrees)

    maps_i, maps_p, conn = {}, {}, {}
    for n in both:
        # the sub slots come first, so a cycle of A is one of B as it is
        maps_i[n] = SparseMat.from_columns(hB[n].dimension, [
            hB[n].classes.coords(z) for z in hA[n].cycle_reps])
    for n in degrees:
        a, a1 = A.dim(n), A.dim(n - 1)
        maps_p[n] = SparseMat.from_columns(hC[n].dimension, [
            hC[n].classes.coords(_vec({i - a: v for i, v in z.entries.items()
                                       if i >= a}))
            for z in hB[n].cycle_reps])
        cols = []
        for z in hC[n].cycle_reps:
            dz = B.d(n).apply(_vec({a + i: c for i, c in z.entries.items()}))
            if any(r >= a1 for r in dz.entries):
                raise ExactnessError("boundary of lift not in subcomplex at "
                                     "degree %d" % n)
            cols.append(hA[n - 1].classes.coords(dz))
        conn[n] = SparseMat.from_columns(hA[n - 1].dimension, cols)

    for n in degrees:
        _exact(maps_i[n], maps_p[n], "H_%d(B)" % n)
        _exact(maps_p[n], conn[n], "H_%d(C)" % n)
        if n - 1 in maps_i:
            _exact(conn[n], maps_i[n - 1], "H_%d(A)" % (n - 1))

    return LongExactSequence(degrees=degrees, hA=hA, hB=hB, hC=hC,
                             maps_i=maps_i, maps_p=maps_p, connecting=conn)


def extension_dimensions(hQ, dims, boundary, cross) -> dict:
    """dim H_n, n in the degree window of hQ, of a split extension
    sub -> total -> quotient, read off its long exact sequence with no
    total complex built:

        dim H_n = dim H_n(Q) - r_n + dim H_n(A) - r_{n+1},

    A the sub, Q the quotient and r_n the rank of the connecting map
    H_n(Q) -> H_{n-1}(A).  hQ holds Q's homology reports on the window;
    dims[n] is dim A_n; boundary[n] lists the columns of d_A at n, and
    cross[n] the cross block on hQ[n].cycle_reps, each a cycle of A_{n-1};
    a degree missing from boundary or cross is zero there.  For a degree n
    whose n + 1 hQ lacks, boundary and cross may hold n + 1, cross on all
    of Q's cycles there (the connecting map kills boundaries); else, as in
    a window's complex (GradedChainComplex.from_columns), nothing bounds
    into n, and r and d_A stop at it."""
    rank_d, conn = {}, {}
    for n in hQ.keys() | boundary.keys() | cross.keys():
        span = _span(boundary.get(n, ()))
        rank_d[n] = span.rank
        conn[n] = sum(1 for v in cross.get(n, ()) if span.add(v))
    return {n: h.dimension - conn[n] + dims[n] - rank_d[n] - rank_d.get(n + 1, 0)
            - conn.get(n + 1, 0) for n, h in hQ.items()}


def _exact(fin: SparseMat, fout: SparseMat, slot):
    """Exactness of a sequence at one slot, fin into it and fout out of it:
    image = kernel, by rank arithmetic plus containment."""
    if not fout.compose(fin).is_zero():
        raise ExactnessError("composite nonzero at %s" % slot)
    if rank(fin) + rank(fout) != fin.n_rows:
        raise ExactnessError("image != kernel at %s" % slot)


def postnikov_truncate(C: GradedChainComplex, n: int) -> GradedChainComplex:
    """Quotient complex C / (C_{>n} + Z_n).

    Degree n becomes C_n modulo its cycles (coordinates on the pivot columns
    of d_n), everything above n vanishes, and lower degrees are untouched;
    homology is preserved below n and killed in degrees >= n.
    """
    basis = {m: list(C.basis[m]) for m in C.degrees() if m < n}
    boundary = {m: C.d(m) for m in basis if C.d(m).entries}
    piv_cols = sorted(_row_span(C.d(n)).echelon)
    if piv_cols:
        basis[n] = ["Q%d_%d" % (n, j) for j in piv_cols]
        cols = C.d(n).columns()
        boundary[n] = SparseMat.from_columns(C.dim(n - 1), [cols[j] for j in piv_cols])
    return GradedChainComplex(basis, boundary).validate()

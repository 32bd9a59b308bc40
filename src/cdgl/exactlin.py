"""Exact rational sparse linear algebra, chain complexes, homology and
long exact sequences.

Everything here is over Q (stdlib Fraction); there is no floating point
anywhere.  Matrices and vectors are sparse (dict based).  The elimination
core clears denominators and runs a fraction-free (Bareiss-style) forward
pass on integer rows, then reduces back to rationals, so intermediate
blow-up stays polynomial.

Basis labels are opaque strings; all semantics live upstream.  Pivot and
representative choices are deterministic (first-column, first-row order),
so downstream golden tests are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd


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


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class SparseVec:
    """Sparse vector: basis index -> nonzero Fraction."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for i, v in (entries.items() if isinstance(entries, dict) else entries):
                v = _frac(v)
                if v:
                    self.entries[i] = v

    @classmethod
    def unit(cls, i):
        return cls({i: Fraction(1)})

    def get(self, i) -> Fraction:
        return self.entries.get(i, Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def items(self):
        return self.entries.items()

    def support(self):
        return sorted(self.entries)

    def scale(self, c) -> "SparseVec":
        c = _frac(c)
        if not c:
            return SparseVec()
        return SparseVec({i: v * c for i, v in self.entries.items()})

    def __add__(self, other: "SparseVec") -> "SparseVec":
        out = dict(self.entries)
        for i, v in other.entries.items():
            w = out.get(i, Fraction(0)) + v
            if w:
                out[i] = w
            else:
                out.pop(i, None)
        res = SparseVec()
        res.entries = out
        return res

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
    """Sparse matrix: (row, col) -> nonzero Fraction, with explicit shape."""

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
                v = _frac(v)
                if v:
                    self.entries[(r, c)] = v

    @classmethod
    def from_columns(cls, n_rows, cols):
        m = cls(n_rows, len(cols))
        for j, col in enumerate(cols):
            for i, v in col.items():
                if v:
                    m.entries[(i, j)] = _frac(v)
        return m

    @classmethod
    def zero(cls, n_rows, n_cols):
        return cls(n_rows, n_cols)

    def column(self, j) -> SparseVec:
        return SparseVec({r: v for (r, c), v in self.entries.items() if c == j})

    def rows(self):
        rows = [dict() for _ in range(self.n_rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def is_zero(self) -> bool:
        return not self.entries

    def apply(self, x: SparseVec) -> SparseVec:
        out = {}
        for (r, c), v in self.entries.items():
            xc = x.entries.get(c)
            if xc is not None:
                w = out.get(r, Fraction(0)) + v * xc
                if w:
                    out[r] = w
                else:
                    out.pop(r, None)
        res = SparseVec()
        res.entries = out
        return res

    def compose(self, other: "SparseMat") -> "SparseMat":
        """self . other (apply other first)."""
        if self.n_cols != other.n_rows:
            raise ShapeError("compose %sx%s with %sx%s" %
                             (self.n_rows, self.n_cols, other.n_rows, other.n_cols))
        by_row = {}
        for (r, k), v in self.entries.items():
            by_row.setdefault(k, []).append((r, v))
        out = {}
        for (k, c), w in other.entries.items():
            for r, v in by_row.get(k, ()):
                key = (r, c)
                s = out.get(key, Fraction(0)) + v * w
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return SparseMat(self.n_rows, other.n_cols, out)

    def __add__(self, other: "SparseMat") -> "SparseMat":
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ShapeError("adding %dx%d to %dx%d" %
                             (self.n_rows, self.n_cols, other.n_rows, other.n_cols))
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k, Fraction(0)) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return SparseMat(self.n_rows, self.n_cols, out)

    def scale(self, c) -> "SparseMat":
        c = _frac(c)
        return SparseMat(self.n_rows, self.n_cols,
                         {k: v * c for k, v in self.entries.items()} if c else {})

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self + other.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, SparseMat) and self.n_rows == other.n_rows
                and self.n_cols == other.n_cols and self.entries == other.entries)

    def __repr__(self):
        return "SparseMat(%dx%d, %d nz)" % (self.n_rows, self.n_cols, len(self.entries))


def _integer_rows(rows):
    """Scale each rational row to a primitive integer row."""
    out = []
    for row in rows:
        if not row:
            out.append({})
            continue
        denom = 1
        for v in row.values():
            denom = denom * v.denominator // gcd(denom, v.denominator)
        ints = {c: int(v * denom) for c, v in row.items()}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        if g > 1:
            ints = {c: v // g for c, v in ints.items()}
        out.append(ints)
    return out


def _bareiss_echelon(rows, n_cols):
    """Fraction-free forward elimination on integer dict-rows.

    Returns (pivots, rows) where pivots is a list of (row_index, col) in
    processing order and rows are the eliminated integer rows.  Pivot choice
    is deterministic: columns in increasing order, first live row.
    """
    rows = [dict(r) for r in rows]
    order = list(range(len(rows)))
    pivots = []
    prev = 1
    top = 0
    for col in range(n_cols):
        sel = None
        for k in range(top, len(order)):
            if rows[order[k]].get(col):
                sel = k
                break
        if sel is None:
            continue
        order[top], order[sel] = order[sel], order[top]
        pr = rows[order[top]]
        p = pr[col]
        for k in range(top + 1, len(order)):
            r = rows[order[k]]
            rc = r.pop(col, 0)
            if not rc and p == prev:
                # still must rescale in true Bareiss; with exact division the
                # no-op case r*p/prev == r is safe to skip
                continue
            new = {}
            for c in set(r) | set(pr):
                if c <= col:
                    continue
                val = r.get(c, 0) * p - pr.get(c, 0) * rc
                if val:
                    val //= prev
                    new[c] = val
            rows[order[k]] = new
        pivots.append((order[top], col))
        prev = p
        top += 1
    return pivots, rows, order


@dataclass
class Echelon:
    """Reduced row echelon form with bookkeeping."""

    n_cols: int
    pivots: list          # list of pivot column indices, increasing
    rows: list            # list of dict col -> Fraction, monic at pivot, reduced
    rank: int

    def reduce(self, vec: SparseVec) -> SparseVec:
        """Residual of vec after elimination against the echelon rows."""
        cur = dict(vec.entries)
        for pc, row in zip(self.pivots, self.rows):
            c = cur.get(pc)
            if c:
                for j, v in row.items():
                    w = cur.get(j, Fraction(0)) - c * v
                    if w:
                        cur[j] = w
                    else:
                        cur.pop(j, None)
        res = SparseVec()
        res.entries = cur
        return res

    def contains(self, vec: SparseVec) -> bool:
        return self.reduce(vec).is_zero()


def echelon_of_rows(vecs, n_cols) -> Echelon:
    """RREF of the span of the given SparseVec rows (deterministic)."""
    rows = _integer_rows([dict(v.entries) for v in vecs])
    pivots, erows, order = _bareiss_echelon(rows, n_cols)
    out_rows = []
    out_cols = []
    for ridx, col in pivots:
        r = erows[ridx]
        p = Fraction(r[col])
        out_rows.append({c: Fraction(v) / p for c, v in r.items()})
        out_cols.append(col)
    # back-substitute to full reduction
    for i in range(len(out_rows) - 1, -1, -1):
        for k in range(i):
            c = out_rows[k].get(out_cols[i])
            if c:
                for j, v in out_rows[i].items():
                    w = out_rows[k].get(j, Fraction(0)) - c * v
                    if w:
                        out_rows[k][j] = w
                    else:
                        out_rows[k].pop(j, None)
    return Echelon(n_cols=n_cols, pivots=out_cols, rows=out_rows, rank=len(out_cols))


class IncrementalSpan:
    """Growing row span with exact incremental reduction.

    Rows are kept monic and fully reduced, keyed by pivot column; adding a
    vector returns True when the span grew.
    """

    def __init__(self):
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec: SparseVec) -> SparseVec:
        cur = dict(vec.entries)
        for piv in sorted(self.rows):
            c = cur.get(piv)
            if not c:
                continue
            for j, v in self.rows[piv].items():
                w = cur.get(j, Fraction(0)) - c * v
                if w:
                    cur[j] = w
                else:
                    cur.pop(j, None)
        res = SparseVec()
        res.entries = cur
        return res

    def contains(self, vec: SparseVec) -> bool:
        return self.reduce(vec).is_zero()

    def add(self, vec: SparseVec) -> bool:
        res = self.reduce(vec)
        if res.is_zero():
            return False
        piv = min(res.entries)
        p = res.entries[piv]
        row = {j: v / p for j, v in res.entries.items()}
        for other in self.rows.values():
            c = other.get(piv)
            if c:
                for j, v in row.items():
                    w = other.get(j, Fraction(0)) - c * v
                    if w:
                        other[j] = w
                    else:
                        other.pop(j, None)
        self.rows[piv] = row
        return True


class FactoredBasis:
    """Coordinates against fixed independent vectors, eliminated once.

    The rows (v_k | e_k), with e_k in column n_cols + k, go into one
    IncrementalSpan; reducing (v | 0) then leaves (0 | -x) exactly when
    v = sum_k x_k v_k, and a residual in the first n_cols columns otherwise.
    """

    def __init__(self, vecs, n_cols):
        self.n_cols = n_cols
        self.span = IncrementalSpan()
        for k, v in enumerate(vecs):
            row = SparseVec()
            row.entries = dict(v.entries)
            row.entries[n_cols + k] = Fraction(1)
            self.span.add(row)

    def coords(self, vec: SparseVec) -> SparseVec:
        res = self.span.reduce(vec)
        if any(i < self.n_cols for i in res.entries):
            raise NotInSpanError("vector outside the factored span")
        out = SparseVec()
        out.entries = {i - self.n_cols: -v for i, v in res.entries.items()}
        return out


def echelon_of_matrix(mat: SparseMat) -> Echelon:
    vecs = []
    for row in mat.rows():
        v = SparseVec()
        v.entries = {c: val for c, val in row.items()}
        vecs.append(v)
    return echelon_of_rows(vecs, mat.n_cols)


def rank(mat: SparseMat) -> int:
    return echelon_of_matrix(mat).rank


def solve_linear(A: SparseMat, b: SparseVec):
    """Exact solution of A x = b, or None when no solution exists.

    Free variables are set to zero, so the solution is deterministic.
    """
    for i in b.entries:
        if not 0 <= i < A.n_rows:
            raise ShapeError("rhs index %d outside %d rows" % (i, A.n_rows))
    aug_cols = A.n_cols + 1
    rows = []
    by_row = {}
    for (r, c), v in A.entries.items():
        by_row.setdefault(r, {})[c] = v
    for r in range(A.n_rows):
        row = dict(by_row.get(r, {}))
        bv = b.entries.get(r)
        if bv:
            row[A.n_cols] = bv
        v = SparseVec()
        v.entries = row
        rows.append(v)
    ech = echelon_of_rows(rows, aug_cols)
    if A.n_cols in ech.pivots:
        return None
    x = {}
    for pc, row in zip(ech.pivots, ech.rows):
        rhs = row.get(A.n_cols, Fraction(0))
        # free variables are zero, so x[pc] = rhs
        if rhs:
            x[pc] = rhs
    res = SparseVec()
    res.entries = x
    return res


def kernel_basis(A: SparseMat):
    """Deterministic basis of ker A: one vector per free column, in column
    order, with unit free coordinate (lexicographically-first pivot-free
    combinations)."""
    ech = echelon_of_matrix(A)
    pivset = set(ech.pivots)
    basis = []
    for j in range(A.n_cols):
        if j in pivset:
            continue
        vec = {j: Fraction(1)}
        for pc, row in zip(ech.pivots, ech.rows):
            c = row.get(j)
            if c:
                vec[pc] = -c
        v = SparseVec()
        v.entries = vec
        basis.append(v)
    return basis


class GradedChainComplex:
    """Chain complex with per-degree ordered bases and boundaries over Q.

    basis: dict degree -> list of opaque labels.
    boundary: dict degree -> SparseMat mapping C_n -> C_{n-1}.  Degrees
    outside the stored range are zero.
    """

    def __init__(self, basis, boundary, meta=None):
        self.basis = {n: list(lbls) for n, lbls in basis.items() if lbls}
        self.boundary = {}
        self.meta = dict(meta or {})
        for n, mat in boundary.items():
            if mat is None or mat.is_zero():
                continue
            if mat.n_cols != self.dim(n) or mat.n_rows != self.dim(n - 1):
                raise IllFormedComplexError(
                    "boundary at degree %d has shape %dx%d, expected %dx%d"
                    % (n, mat.n_rows, mat.n_cols, self.dim(n - 1), self.dim(n)))
            self.boundary[n] = mat

    def dim(self, n) -> int:
        return len(self.basis.get(n, ()))

    def degrees(self):
        return sorted(self.basis)

    @property
    def degree_range(self):
        ds = self.degrees()
        return (ds[0], ds[-1]) if ds else (0, -1)

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


@dataclass
class HomologyReport:
    degree: int
    dimension: int
    cycle_reps: list
    truncation_meta: dict = field(default_factory=dict)

    def to_canonical(self, labels=None):
        reps = []
        for v in self.cycle_reps:
            if labels is None:
                reps.append(" + ".join("%s*e%d" % (c, i) for i, c in sorted(v.entries.items())))
            else:
                reps.append(" + ".join("%s*%s" % (c, labels[i]) for i, c in sorted(v.entries.items())))
        return {"degree": self.degree, "dimension": self.dimension, "representatives": reps}


def homology_at(C: GradedChainComplex, n: int, check=True) -> HomologyReport:
    """H_n(C) with deterministic cycle representatives.

    Degrees outside the stored range are treated as zero (boundaries clip).
    """
    if check:
        dn = C.d(n)
        dn1 = C.d(n + 1)
        if not C.d(n - 1).compose(dn).is_zero() or not dn.compose(dn1).is_zero():
            raise IllFormedComplexError("dd != 0 near degree %d" % n)
    cycles = kernel_basis(C.d(n)) if C.dim(n) else []
    bnd_cols = [C.d(n + 1).column(j) for j in range(C.dim(n + 1))]
    span = IncrementalSpan()
    for col in bnd_cols:
        span.add(col)
    bnd_rank = span.rank
    reps = []
    for z in cycles:
        if span.add(z):
            reps.append(z)
    dim = len(cycles) - bnd_rank
    if dim != len(reps):
        raise IllFormedComplexError("homology rank bookkeeping failed at degree %d" % n)
    return HomologyReport(degree=n, dimension=dim, cycle_reps=reps,
                          truncation_meta=dict(C.meta))


class ChainMap:
    """Degree-preserving chain map given by per-degree matrices."""

    def __init__(self, source: GradedChainComplex, target: GradedChainComplex, blocks):
        self.source = source
        self.target = target
        self.blocks = {n: m for n, m in blocks.items() if m is not None}

    def block(self, n) -> SparseMat:
        mat = self.blocks.get(n)
        if mat is None:
            return SparseMat(self.target.dim(n), self.source.dim(n))
        return mat

    def validate(self, degrees):
        for n in degrees:
            left = self.target.d(n).compose(self.block(n))
            right = self.block(n - 1).compose(self.source.d(n))
            if left != right:
                raise IllFormedComplexError("not a chain map at degree %d" % n)
        return self


def _class_coords(vec: SparseVec, reps, bnd_cols, dim):
    """Coordinates of a cycle's class in the given homology basis."""
    cols = list(reps) + list(bnd_cols)
    A = SparseMat.from_columns(dim, cols)
    x = solve_linear(A, vec)
    if x is None:
        raise NotInSpanError("cycle does not lie in cycles-plus-boundaries span")
    out = SparseVec()
    out.entries = {i: v for i, v in x.entries.items() if i < len(reps)}
    return out


@dataclass
class LongExactSequence:
    """H_n(A) -> H_n(B) -> H_n(C) -> H_{n-1}(A), per degree, as matrices."""

    degrees: list
    hA: dict
    hB: dict
    hC: dict
    maps_i: dict       # degree -> SparseMat H_n(A) -> H_n(B)
    maps_p: dict       # degree -> SparseMat H_n(B) -> H_n(C)
    connecting: dict   # degree -> SparseMat H_n(C) -> H_{n-1}(A)
    exact: bool = True


def _check_ses(A, B, C, incl, proj, degrees):
    for n in degrees:
        i_n, p_n = incl.block(n), proj.block(n)
        if not p_n.compose(i_n).is_zero():
            raise ExactnessError("composite A->C nonzero at degree %d" % n)
        ri = rank(i_n)
        rp = rank(p_n)
        if ri != A.dim(n):
            raise ExactnessError("inclusion not injective at degree %d" % n)
        if rp != C.dim(n):
            raise ExactnessError("projection not surjective at degree %d" % n)
        if B.dim(n) != A.dim(n) + C.dim(n):
            raise ExactnessError("middle dimension mismatch at degree %d" % n)


def les_of_ses(A, B, C, incl: ChainMap, proj: ChainMap, degrees) -> LongExactSequence:
    """Long exact homology sequence of a degreewise short exact sequence.

    Verifies the SES (chain maps, injectivity, surjectivity, rank balance),
    computes the induced maps and the zig-zag connecting maps, and checks
    exactness at every slot before returning.
    """
    degrees = sorted(degrees)
    probe = degrees + [degrees[-1] + 1]
    incl.validate(probe)
    proj.validate(probe)
    _check_ses(A, B, C, incl, proj, sorted(set(probe + [degrees[0] - 1])))

    hA = {n: homology_at(A, n) for n in degrees + [degrees[0] - 1]}
    hB = {n: homology_at(B, n) for n in degrees}
    hC = {n: homology_at(C, n) for n in degrees}
    bndA = {n: [A.d(n + 1).column(j) for j in range(A.dim(n + 1))] for n in hA}
    bndB = {n: [B.d(n + 1).column(j) for j in range(B.dim(n + 1))] for n in hB}
    bndC = {n: [C.d(n + 1).column(j) for j in range(C.dim(n + 1))] for n in hC}

    maps_i, maps_p, conn = {}, {}, {}
    for n in degrees:
        cols = [_class_coords(incl.block(n).apply(z), hB[n].cycle_reps, bndB[n], B.dim(n))
                for z in hA[n].cycle_reps]
        maps_i[n] = SparseMat.from_columns(hB[n].dimension, cols)
        cols = [_class_coords(proj.block(n).apply(z), hC[n].cycle_reps, bndC[n], C.dim(n))
                for z in hB[n].cycle_reps]
        maps_p[n] = SparseMat.from_columns(hC[n].dimension, cols)
        cols = []
        for z in hC[n].cycle_reps:
            b = solve_linear(proj.block(n), z)
            if b is None:
                raise ExactnessError("cannot lift cycle at degree %d" % n)
            db = B.d(n).apply(b)
            a = solve_linear(incl.block(n - 1), db)
            if a is None:
                raise ExactnessError("boundary of lift not in subcomplex at degree %d" % n)
            cols.append(_class_coords(a, hA[n - 1].cycle_reps, bndA[n - 1], A.dim(n - 1)))
        conn[n] = SparseMat.from_columns(hA[n - 1].dimension, cols)

    # exactness at every interior slot: image = kernel by rank arithmetic
    # plus containment
    def _exact(fin: SparseMat, fout: SparseMat, slot):
        if not fout.compose(fin).is_zero():
            raise ExactnessError("composite nonzero at %s" % slot)
        img = echelon_of_rows([fin.column(j) for j in range(fin.n_cols)], fin.n_rows)
        if img.rank + rank(fout) != fin.n_rows:
            raise ExactnessError("image != kernel at %s" % slot)

    for n in degrees:
        _exact(maps_i[n], maps_p[n], "H_%d(B)" % n)
        _exact(maps_p[n], conn[n], "H_%d(C)" % n)
        if n - 1 in maps_i:
            _exact(conn[n], maps_i[n - 1], "H_%d(A)" % (n - 1))

    return LongExactSequence(degrees=degrees, hA=hA, hB=hB, hC=hC,
                             maps_i=maps_i, maps_p=maps_p, connecting=conn)


def connected_cover(C: GradedChainComplex, n: int) -> GradedChainComplex:
    """n-connected cover: degree n becomes ker d_n, degrees < n are dropped.

    The new degree-n basis is the deterministic kernel basis; boundaries from
    degree n+1 are re-expressed in kernel coordinates.
    """
    kb = kernel_basis(C.d(n)) if C.dim(n) else []
    basis = {n: ["Z%d_%d" % (n, i) for i in range(len(kb))]}
    boundary = {}
    for m in C.degrees():
        if m > n:
            basis[m] = list(C.basis[m])
    for m in sorted(basis):
        if m <= n:
            continue
        if m == n + 1:
            K = SparseMat.from_columns(C.dim(n), kb)
            cols = []
            for j in range(C.dim(m)):
                x = solve_linear(K, C.d(m).column(j))
                if x is None:
                    raise IllFormedComplexError("boundary does not land in cycles at %d" % m)
                cols.append(x)
            boundary[m] = SparseMat.from_columns(len(kb), cols)
        else:
            boundary[m] = C.d(m)
    meta = dict(C.meta)
    meta["cover"] = n
    return GradedChainComplex(basis, boundary, meta)


def postnikov_truncate(C: GradedChainComplex, n: int) -> GradedChainComplex:
    """Quotient complex C / (C_{>n} + Z_n).

    Degree n becomes C_n modulo its cycles (coordinates on the pivot columns
    of d_n), everything above n vanishes, and lower degrees are untouched;
    homology is preserved below n and killed in degrees >= n.
    """
    basis = {m: list(C.basis[m]) for m in C.degrees() if m < n}
    boundary = {m: C.d(m) for m in basis if C.d(m).entries}
    ech = echelon_of_matrix(C.d(n)) if C.dim(n) else None
    piv_cols = list(ech.pivots) if ech else []
    if piv_cols:
        basis[n] = ["Q%d_%d" % (n, j) for j in piv_cols]
        cols = [C.d(n).column(j) for j in piv_cols]
        boundary[n] = SparseMat.from_columns(C.dim(n - 1), cols)
    meta = dict(C.meta)
    meta["postnikov"] = n
    return GradedChainComplex(basis, boundary, meta).validate()

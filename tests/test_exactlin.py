import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cdgl.exactlin import (ExactnessError, FactoredBasis, GradedChainComplex,
                           IllFormedComplexError, IncrementalSpan, NotInSpanError,
                           SparseMat, SparseVec, TwistedComplex,
                           clear_denominators, homology_at, kernel_basis,
                           les_of_ses, postnikov_truncate, rank, twisted_product)

from oracles import (ChainMap, assert_exact, assert_same_les, connected_cover, dense,
                     dense_kernel, dense_rank, dense_rref, dense_solve, generic_les,
                     split_maps)


def mat(rows):
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    entries = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                entries[(r, c)] = Fraction(v)
    return SparseMat(n_rows, n_cols, entries)


def vec(vals):
    return SparseVec({i: Fraction(v) for i, v in enumerate(vals) if v})


def test_factored_basis_coords_match_dense_solve():
    # dependent vector sets included: FactoredBasis must give the
    # free-variables-zero solution, which is what dense_solve returns
    rng = random.Random(12)
    dependent = 0
    for _ in range(60):
        n_cols, k = rng.randint(1, 6), rng.randint(0, 5)
        vecs = [vec([rng.randint(-3, 3) for _ in range(n_cols)]) for _ in range(k)]
        if vecs and rng.random() < 0.5:
            combo = sum((v.scale(rng.randint(-2, 2)) for v in vecs), SparseVec())
            vecs.insert(rng.randint(0, len(vecs)), combo)
        dependent += rank(SparseMat.from_columns(n_cols, vecs)) < len(vecs)
        fb = FactoredBasis(vecs, n_cols)
        A = [[v.get(i) for v in vecs] for i in range(n_cols)]
        for _ in range(4):
            target = vec([rng.randint(-4, 4) for _ in range(n_cols)])
            if rng.random() < 0.5:
                target = sum((v.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                              for v in vecs), SparseVec())
            x = dense_solve(A, [target.get(i) for i in range(n_cols)])
            if x is None:
                with pytest.raises(NotInSpanError):
                    fb.coords(target)
            else:
                assert fb.coords(target) == vec(x)
    assert dependent >= 15


@pytest.mark.parametrize("vecs, n_cols, outside", [
    ([SparseVec({0: 1})], 1, SparseVec({1: 5})),
    ([], 0, SparseVec({0: 1, 2: 3})),
    ([SparseVec({0: 1}), SparseVec({1: 2})], 2, SparseVec({0: 1, -1: 4})),
])
def test_factored_basis_refuses_a_vector_outside_its_columns(vecs, n_cols, outside):
    # an index outside 0..n_cols-1 is no coordinate to read as a tail
    # column: the vector is refused before reduction, and one inside the
    # span keeps its coordinates
    fb = FactoredBasis(vecs, n_cols)
    with pytest.raises(NotInSpanError):
        fb.coords(outside)
    inside = sum((v.scale(k + 2) for k, v in enumerate(vecs)), SparseVec())
    assert fb.coords(inside) == SparseVec({k: k + 2 for k in range(len(vecs))})


rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6]))


@st.composite
def rational_system(draw):
    """(n_cols, rows, targets): rational rows with non-integer entries,
    negative leading entries, zero rows and repeated rows (up to a
    multiple), and target vectors, one of them in the row span."""
    n_cols = draw(st.integers(1, 6))
    row = st.lists(rationals, min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(row, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        src = draw(st.sampled_from(rows)) if rows and draw(st.booleans()) else [0] * n_cols
        c = draw(st.sampled_from([1, -1, Fraction(-3, 2), 0]))
        rows.insert(draw(st.integers(0, len(rows))), [c * v for v in src])
    targets = draw(st.lists(row, min_size=1, max_size=3))
    coeffs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    targets.append([sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                    for j in range(n_cols)])
    return n_cols, rows, targets


@settings(max_examples=200, deadline=None)
@given(rational_system())
def test_integer_span_matches_fraction_rref(system):
    n_cols, rows, targets = system
    pivots, R = dense_rref(rows, n_cols)
    span = IncrementalSpan()
    for r in rows:
        span.add(vec(r))
    assert span.rank == len(pivots)
    assert sorted(span.rows) == pivots
    for p, orow in zip(pivots, R):
        row = span.rows[p]
        # the primitive integer multiple of the RREF row, positive at its pivot
        assert all(type(v) is int for v in row.values())
        assert row[p] > 0 and gcd(*row.values()) == 1
        assert {j: Fraction(v, row[p]) for j, v in row.items()} == vec(orow).entries
    for t in targets:
        res = list(t)
        for p, orow in zip(pivots, R):
            res = [a - res[p] * b for a, b in zip(res, orow)]
        # the residue: t less it lies in the span, and it holds no pivot
        assert span.contains(vec(t) - vec(res)) and not any(res[p] for p in pivots)
        assert span.contains(vec(t)) == (not any(res))

    A = SparseMat(len(rows), n_cols, {(i, j): v for i, r in enumerate(rows)
                                      for j, v in enumerate(r)})
    kernel = []
    for j in range(n_cols):
        if j not in pivots:
            kernel.append(vec([1 if k == j else 0 for k in range(n_cols)]) +
                          SparseVec({p: -r[j] for p, r in zip(pivots, R)}))
    assert kernel_basis(A) == kernel

    # x with sum_k x_k rows[k] = t, through FactoredBasis
    fb = FactoredBasis([vec(r) for r in rows], n_cols)
    for t in targets:
        x = dense_solve([[r[j] for r in rows] for j in range(n_cols)], t)
        x = None if x is None else vec(x)
        if x is None:
            with pytest.raises(NotInSpanError):
                fb.coords(vec(t))
        else:
            assert fb.coords(vec(t)) == x


nonzero_rationals = rationals.filter(bool)


@st.composite
def placed_rows(draw):
    """Rational rows over integer columns, negative ones included, each
    placed against the columns that the rows before it use: on a fresh
    column below all of them (the order in which lie bases number their
    words), inside their range, on fresh columns above it, or as a
    combination of the rows before (which adds nothing)."""
    rows, used = [], [0]
    places = st.sampled_from(("below", "inside", "above", "combination"))
    for place in draw(st.lists(places, min_size=1, max_size=8)):
        lo, hi = min(used), max(used)
        if place == "combination" and rows:
            coeffs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
            row = {}
            for c, r in zip(coeffs, rows):
                for j, v in r.items():
                    row[j] = row.get(j, 0) + c * v
            rows.append({j: v for j, v in row.items() if v})
            continue
        if place == "below":
            cols = [lo - draw(st.integers(1, 2))]
            cols += draw(st.lists(st.integers(lo, hi), max_size=3))
        elif place == "above":
            cols = draw(st.lists(st.integers(hi + 1, hi + 3), min_size=1, max_size=3))
        else:
            cols = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=4))
        row = {j: draw(nonzero_rationals) for j in cols}
        rows.append(row)
        used.extend(row)
    return rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(placed_rows())
def test_span_with_placed_pivots_matches_fraction_rref(rows):
    # the rows read back as the RREF whatever the column order
    cols = sorted({j for r in rows for j in r})
    pos = {j: k for k, j in enumerate(cols)}
    dense_rows = []
    for r in rows:
        d = [Fraction(0)] * len(cols)
        for j, v in r.items():
            d[pos[j]] = Fraction(v)
        dense_rows.append(d)
    span = IncrementalSpan()
    for k, r in enumerate(rows):
        grew = span.add(SparseVec(r))
        assert grew == (dense_rank(dense_rows[:k + 1]) > dense_rank(dense_rows[:k]))
    pivots, R = dense_rref(dense_rows, len(cols))
    assert sorted(span.rows) == [cols[p] for p in pivots]
    for p, orow in zip(pivots, R):
        row = span.rows[cols[p]]
        assert row[cols[p]] > 0 and gcd(*row.values()) == 1
        assert {j: Fraction(v, row[cols[p]]) for j, v in row.items()} == {
            cols[k]: v for k, v in enumerate(orow) if v}


@st.composite
def span_sessions(draw):
    """(columns, operations): a few column labels in a random order, and
    add, coords, contains and rows interleaved, on rows over those
    columns with int or Fraction entries; a row may be a combination of
    the rows added before it, with one entry changed or not."""
    cols = draw(st.permutations(range(-3, 5)))[:draw(st.integers(1, 8))]
    entry = st.one_of(st.integers(-4, 4), rationals)
    kinds = st.sampled_from(("add", "add", "add", "coords", "contains", "rows"))
    ops, added = [], []
    for kind in draw(st.lists(kinds, min_size=1, max_size=14)):
        if kind == "rows":
            ops.append((kind, None))
            continue
        row = {}
        if added and draw(st.booleans()):
            coeffs = draw(st.lists(entry, min_size=len(added), max_size=len(added)))
            for c, r in zip(coeffs, added):
                for j, v in r.items():
                    row[j] = row.get(j, 0) + c * v
            if draw(st.booleans()):
                row[draw(st.sampled_from(cols))] = draw(entry)
        else:
            for j in draw(st.lists(st.sampled_from(cols), max_size=4, unique=True)):
                row[j] = draw(entry)
        row = {j: v for j, v in row.items() if v}
        if kind == "add":
            added.append(row)
        ops.append((kind, row))
    return cols, ops


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(span_sessions())
def test_span_session_matches_dense_rref(session):
    # whatever the order of the operations and of the columns, each answer
    # is read off the Fraction RREF of the rows added so far; the stored
    # rows stay in echelon form
    cols, ops = session
    cols = sorted(cols)

    def dense_row(r):
        return [Fraction(r.get(j, 0)) for j in cols]

    span, added = IncrementalSpan(), []
    for kind, row in ops:
        pivots, R = dense_rref([dense_row(r) for r in added], len(cols))
        if kind == "add":
            added.append(row)
            grew = dense_rank([dense_row(r) for r in added]) > len(pivots)
            assert span.add(SparseVec(row)) == grew
        elif kind in ("coords", "contains"):
            res = dense_row(row)
            for p, orow in zip(pivots, R):
                res = [a - res[p] * b for a, b in zip(res, orow)]
            res = SparseVec({j: v for j, v in zip(cols, res) if v})
            if kind == "coords":
                # the row less its residue lies in the span; the row's
                # coordinates in the rows added, on columns shifted to 0..7,
                # are exact and give the row back, or there are none
                assert span.contains(SparseVec(row) - res)
                rows = [SparseVec({j + 3: v for j, v in r.items()}) for r in added]
                try:
                    got = FactoredBasis(rows, 8).coords(
                        SparseVec({j + 3: v for j, v in row.items()}))
                except NotInSpanError:
                    assert not res.is_zero()
                else:
                    assert res.is_zero()
                    assert_exact(got.entries.values())
                    assert sum((rows[k].scale(c) for k, c in got.items()), SparseVec()) == (
                        SparseVec({j + 3: v for j, v in row.items()}))
            else:
                assert span.contains(SparseVec(row)) == res.is_zero()
        else:
            assert sorted(span.rows) == [cols[p] for p in pivots]
            for p, orow in zip(pivots, R):
                r = span.rows[cols[p]]
                assert all(type(v) is int for v in r.values())
                assert r[cols[p]] > 0 and gcd(*r.values()) == 1
                assert {j: Fraction(v, r[cols[p]]) for j, v in r.items()} == {
                    cols[k]: v for k, v in enumerate(orow) if v}
        assert span.rank == dense_rank([dense_row(r) for r in added])
        for p, r in span.echelon.items():
            assert min(r) == p and r[p] > 0


def solve(rows, b):
    """x with A x = b for the dense matrix rows = A, free variables zero,
    through FactoredBasis on the columns of A."""
    cols = [vec([r[j] for r in rows]) for j in range(len(rows[0]))]
    return FactoredBasis(cols, len(rows)).coords(vec(b))


def test_solve_zero_case():
    assert solve([[1]], [0]) == SparseVec()


def test_solve_scalar_inverse():
    assert solve([[2]], [1]) == vec([Fraction(1, 2)])


def test_solve_inconsistent():
    with pytest.raises(NotInSpanError):
        solve([[1, 1], [0, 0]], [0, 1])


def test_solve_matches_consistency_rank_criterion():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        b = [rng.randint(-3, 3) for _ in range(n)]
        ox = dense_solve([[Fraction(v) for v in r] for r in rows], b)
        if ox is None:
            with pytest.raises(NotInSpanError):
                solve(rows, b)
            continue
        x = solve(rows, b)
        assert mat(rows).apply(x) == vec(b)
        assert x == vec(ox)   # free variables zero, as in the oracle


def test_rank_against_dense_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        A = mat([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
                 for _ in range(n)])
        assert rank(A) == dense_rank(dense(A.entries, n, m))


def test_kernel_vectors_are_in_kernel_and_complete():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        A = mat([[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)])
        kb = kernel_basis(A)
        for v in kb:
            assert A.apply(v).is_zero()
        assert len(kb) == m - rank(A)


def one_point_complex():
    return GradedChainComplex({0: ["pt"]}, {})


def test_homology_point():
    rep = homology_at(one_point_complex(), 0)
    assert rep.dimension == 1


def test_homology_acyclic_identity():
    C = GradedChainComplex({0: ["a"], 1: ["b"]}, {1: mat([[1]])})
    assert homology_at(C, 0).dimension == 0
    assert homology_at(C, 1).dimension == 0


def test_homology_zero_boundaries_gives_basis_counts():
    # degreewise spans of x, z, theta with all boundaries zero
    C = GradedChainComplex({2: ["x"], -1: ["z"], 0: ["theta"]}, {})
    assert homology_at(C, 2).dimension == 1
    assert homology_at(C, -1).dimension == 1
    assert homology_at(C, 0).dimension == 1
    assert homology_at(C, 1).dimension == 0


def test_homology_rank_nullity_consistency():
    rng = random.Random(13)
    for _ in range(25):
        dims = {n: rng.randint(0, 4) for n in range(3)}
        # random complex: build d1 freely, then d2 into ker d1
        d1 = mat([[rng.randint(-2, 2) for _ in range(dims[1])] for _ in range(dims[0])])
        kb = kernel_basis(d1)
        cols = []
        for _ in range(dims[2]):
            col = SparseVec()
            for v in kb:
                col = col + v.scale(rng.randint(-2, 2))
            cols.append(col)
        d2 = SparseMat.from_columns(dims[1], cols)
        C = GradedChainComplex({n: ["e%d_%d" % (n, i) for i in range(dims[n])]
                                for n in range(3)},
                               {1: d1, 2: d2}).validate()
        for n in range(3):
            rep = homology_at(C, n)
            assert rep.dimension == C.dim(n) - rank(C.d(n)) - rank(C.d(n + 1))
            for z in rep.cycle_reps:
                assert C.d(n).apply(z).is_zero()


@st.composite
def complex_with_extra(draw):
    """(C, cycle): a random integer complex on degrees 0..2, whose d_2
    columns are degree-1 cycles followed by up to two extra cycles, and one
    more degree-1 cycle, all built from a kernel basis of d_1 taken by the
    dense oracle."""
    small = st.integers(-2, 2)
    dims = draw(st.lists(st.integers(0, 4), min_size=3, max_size=3))
    d1 = [draw(st.lists(small, min_size=dims[1], max_size=dims[1]))
          for _ in range(dims[0])]
    Z = dense_kernel(d1, dims[1])

    def cycle():
        coeffs = draw(st.lists(small, min_size=len(Z), max_size=len(Z)))
        return vec([sum((c * z[i] for c, z in zip(coeffs, Z)), Fraction(0))
                    for i in range(dims[1])])

    d2 = [cycle() for _ in range(dims[2])]
    d2 += [cycle() for _ in range(draw(st.integers(0, 2)))]
    dims[2] = len(d2)
    C = GradedChainComplex({n: ["e%d_%d" % (n, i) for i in range(dims[n])]
                            for n in range(3)},
                           {1: mat(d1) if dims[0] else None,
                            2: SparseMat.from_columns(dims[1], d2)})
    return C, cycle()


@settings(max_examples=150, deadline=None)
@given(complex_with_extra())
def test_homology_modulo_extra_matches_dense_rank(case):
    # extra cycles divided out as further d_2 columns: dim H = dim Z_1 -
    # rank(B_1 + extra), and a cycle minus its class coordinates times the
    # representatives lies in the quotient
    C, z = case
    n_cols = C.dim(1)

    def dense_vecs(vs):
        return [[v.get(i) for i in range(n_cols)] for v in vs]

    quotient = dense_vecs(C.d(2).columns())
    q_rank = dense_rank(quotient)
    z_dim = len(dense_kernel(dense(C.d(1).entries, C.dim(0), n_cols), n_cols))
    h = homology_at(C, 1)
    assert h.dimension == z_dim - q_rank
    x = h.classes.coords(z)
    rest = z - sum((r.scale(x.get(k)) for k, r in enumerate(h.cycle_reps)),
                   SparseVec())
    assert dense_rank(quotient + dense_vecs([rest])) == q_rank


def test_clear_denominators_returns_int_dicts_as_they_are():
    # all ints: D = 1 and the dicts themselves; otherwise one D for all
    ints, other = {0: 2, 3: -4}, {1: 5}
    D, a, b = clear_denominators(ints, other)
    assert D == 1 and a is ints and b is other
    assert clear_denominators({0: Fraction(1, 2)}, {1: Fraction(2, 3), 2: 1}) == (
        6, {0: 3}, {1: 4, 2: 6})
    assert clear_denominators({0: Fraction(3)}) == (1, {0: 3})
    assert clear_denominators() == (1,)
    # the span eliminates in place on its own copies, never on its input
    span, v, w = IncrementalSpan(), SparseVec({0: 2, 1: 4}), SparseVec({0: 3, 1: 5})
    assert span.add(v) and span.add(w) and not span.add(v)
    assert span.contains(w) and span.contains(SparseVec({0: 1, 1: 7}))
    assert not span.contains(SparseVec({0: 1, 2: 1}))
    assert v.entries == {0: 2, 1: 4} and w.entries == {0: 3, 1: 5}


def test_ill_formed_complex_rejected():
    C = GradedChainComplex({0: ["a"], 1: ["b"], 2: ["c"]},
                           {1: mat([[1]]), 2: mat([[1]])})
    with pytest.raises(IllFormedComplexError):
        C.validate()


def _random_ses(rng, degs=(0, 1, 2), max_dim=4, essential=False):
    """Random SES 0 -> A -> B -> C -> 0 with B = A (+) C as graded spaces and
    a triangular twisted differential on B, as a twisted product; with
    essential, the twist need not be null-homotopic."""
    dimsA = {n: rng.randint(0, max_dim) for n in degs}
    dimsC = {n: rng.randint(0, max_dim) for n in degs}
    # boundaries dA, dC with d^2 = 0: build as "d then project to kernel"
    def rand_complex(dims):
        bnd = {}
        prev_kernel = None
        for n in sorted(dims)[1:]:
            rows = dims[n - 1]
            cols = dims[n]
            if prev_kernel is None:
                m = mat([[rng.randint(-1, 1) for _ in range(cols)] for _ in range(rows)])
            else:
                cs = []
                for _ in range(cols):
                    col = SparseVec()
                    for v in prev_kernel:
                        col = col + v.scale(rng.randint(-1, 1))
                    cs.append(col)
                m = SparseMat.from_columns(rows, cs)
            bnd[n] = m
            prev_kernel = kernel_basis(m)
        return bnd

    bA = rand_complex(dimsA)
    bC = rand_complex(dimsC)
    A = GradedChainComplex({n: ["a%d_%d" % (n, i) for i in range(dimsA[n])] for n in degs},
                           bA).validate()
    C = GradedChainComplex({n: ["c%d_%d" % (n, i) for i in range(dimsC[n])] for n in degs},
                           bC).validate()
    # twist h: C_n -> A_{n-1} must satisfy dA h + h dC = 0; easiest valid
    # choice at random: h = dA g - g dC for random g: C_n -> A_n
    g = {n: SparseMat(dimsA[n], dimsC[n],
                      {(r, c): rng.randint(-1, 1) for r in range(dimsA[n])
                       for c in range(dimsC[n])})
         for n in degs}
    h = {}
    for n in degs:
        if n - 1 in degs:
            h[n] = A.d(n).compose(g[n]) - g[n - 1].compose(C.d(n))
    if essential:
        # that twist is null-homotopic, so every connecting map is zero; add
        # to h_1: C_1 -> A_0 maps a (x) y, y a functional that kills the
        # boundaries of C_1, which keeps dA h + h dC = 0 (A_0 is the bottom)
        dC = C.d(2)
        killers = kernel_basis(SparseMat(dC.n_cols, dC.n_rows,
                                         {(c, r): v for (r, c), v in dC.entries.items()}))
        for y in killers:
            a = [rng.randint(-1, 1) for _ in range(dimsA[0])]
            h[1] = h[1] + SparseMat(dimsA[0], dimsC[1], {
                (r, c): a[r] * v for r in range(dimsA[0]) for c, v in y.items()})
    return twisted_product(A, C, [n for n in degs if n - 1 in degs], h.get)


def test_les_exactness_randomized_vs_bruteforce():
    rng = random.Random(17)
    count = 0
    for _ in range(25):
        tw = _random_ses(rng)
        les = les_of_ses(tw, [1, 2])
        count += 1
        # brute-force dimension check of exactness at H_n(B):
        for n in [1, 2]:
            fi = les.maps_i[n]
            fp = les.maps_p[n]
            di = dense_rank(dense(fi.entries, fi.n_rows, fi.n_cols)) if fi.entries else 0
            dp = dense_rank(dense(fp.entries, fp.n_rows, fp.n_cols)) if fp.entries else 0
            assert di + dp == les.hB[n].dimension
    assert count == 25


def test_split_les_matches_generic_les_on_random_sequences():
    # the LES read off the blocks equals the generic zig-zag through the
    # inclusion and projection chain maps, map for map, on the sequences
    # above and on as many whose twist is not null-homotopic, so that
    # connecting maps are nonzero
    rng = random.Random(17)
    connecting = []
    for essential in (False, True):
        for _ in range(25):
            tw = _random_ses(rng, essential=essential)
            les = les_of_ses(tw, [1, 2])
            assert_same_les(les, generic_les(*tw, *split_maps(tw), [1, 2]))
            connecting.append(sum(len(m.entries) for m in les.connecting.values()))
    assert not any(connecting[:25]) and any(connecting[25:])


def test_les_acyclic_middle_connecting_iso():
    # 0 -> A -> B -> C -> 0 with B acyclic (d c = a, through the cross
    # block) forces H_n(C) = H_{n-1}(A)
    A = GradedChainComplex({0: ["a"]}, {})
    C = GradedChainComplex({1: ["c"]}, {})
    les = les_of_ses(twisted_product(A, C, [1], lambda n: mat([[1]])), degrees=[1])
    delta = les.connecting[1]
    assert les.hC[1].dimension == 1 and les.hA[0].dimension == 1
    assert rank(delta) == 1


def test_les_example_span_sequence_all_connecting_zero():
    # Span{x,z} -> Span{x,z,theta} -> Span{theta}, all differentials zero
    A = GradedChainComplex({2: ["x"], -1: ["z"]}, {})
    C = GradedChainComplex({0: ["theta"]}, {})
    tw = twisted_product(A, C, [-1, 0, 1, 2, 3])
    assert tw.total.basis == {-1: ["z"], 0: ["theta"], 2: ["x"]}
    les = les_of_ses(tw, degrees=[-1, 0, 1, 2])
    for n, m in les.connecting.items():
        assert m.is_zero()


def _hand_built(sub, quot, basis, boundary):
    return TwistedComplex(sub, GradedChainComplex(basis, boundary), quot)


def test_non_ses_rejected_names_degree():
    # a middle term that is not sub + quotient in some degree
    A = GradedChainComplex({0: ["a"]}, {})
    C = GradedChainComplex({0: ["c"]}, {})
    tw = _hand_built(A, C, {0: ["b"]}, {})
    with pytest.raises(ExactnessError, match="degree 0"):
        les_of_ses(tw, degrees=[0])
    # the generic sequence rejects the same shape of sequence given by maps
    B = GradedChainComplex({0: ["b"]}, {})
    incl = ChainMap(A, B, {0: SparseMat(1, 1, {(0, 0): 1})})
    proj = ChainMap(B, C, {0: SparseMat(1, 1, {(0, 0): 1})})
    with pytest.raises(ExactnessError) as ei:
        generic_les(A, B, C, incl, proj, degrees=[0])
    assert "degree" in str(ei.value)


def test_twisted_product_with_a_nonzero_lower_left_block_is_refused():
    # d sends the sub slot a (degree 1) to the quotient slot c (degree 0)
    A = GradedChainComplex({1: ["a"]}, {})
    C = GradedChainComplex({0: ["c"]}, {})
    tw = _hand_built(A, C, {1: ["a"], 0: ["c"]}, {1: mat([[1]])})
    with pytest.raises(ExactnessError, match="sub slot to a quotient slot at degree 1"):
        les_of_ses(tw, degrees=[0, 1])


@pytest.mark.parametrize("boundary", [{1: mat([[2, 0], [0, 0]])},
                                      {1: mat([[0, 0], [0, 0]])},
                                      {1: mat([[1, 0], [0, 1]])}],
                         ids=["wrong-entry", "missing-entry", "extra-quotient-entry"])
def test_twisted_product_whose_diagonal_is_not_d_is_refused(boundary):
    # sub: a1 -> a0 with d = 1; quotient: c1, c0 with d = 0
    A = GradedChainComplex({0: ["a0"], 1: ["a1"]}, {1: mat([[1]])})
    C = GradedChainComplex({0: ["c0"], 1: ["c1"]}, {})
    tw = _hand_built(A, C, {0: ["a0", "c0"], 1: ["a1", "c1"]}, boundary)
    with pytest.raises(ExactnessError, match="not d_sub and d_quot at degree 1"):
        les_of_ses(tw, degrees=[0, 1])


def test_connected_cover_kills_low_homology():
    C = GradedChainComplex({0: ["a"], 1: ["b", "b2"], 2: ["c"]},
                           {1: mat([[1, 0]]), 2: mat([[0], [1]])}).validate()
    cov = connected_cover(C, 1).validate()
    assert cov.dim(0) == 0
    assert homology_at(cov, 1).dimension == homology_at(C, 1).dimension
    assert homology_at(cov, 2).dimension == homology_at(C, 2).dimension


def test_postnikov_truncate_profile():
    rng = random.Random(23)
    for _ in range(20):
        dims = {n: rng.randint(1, 3) for n in range(4)}
        bnd = {}
        prev_kernel = None
        for n in range(1, 4):
            if prev_kernel is None:
                m = mat([[rng.randint(-1, 1) for _ in range(dims[n])] for _ in range(dims[n - 1])])
            else:
                cs = []
                for _ in range(dims[n]):
                    col = SparseVec()
                    for v in prev_kernel:
                        col = col + v.scale(rng.randint(-1, 1))
                    cs.append(col)
                m = SparseMat.from_columns(dims[n - 1], cs)
            bnd[n] = m
            prev_kernel = kernel_basis(m)
        C = GradedChainComplex({n: ["e%d%d" % (n, i) for i in range(dims[n])] for n in range(4)},
                               bnd).validate()
        n = 2
        Q = postnikov_truncate(C, n)
        for k in range(n, 5):
            assert homology_at(Q, k).dimension == 0
        for k in range(0, n):
            assert homology_at(Q, k).dimension == homology_at(C, k).dimension


def test_postnikov_above_top_degree_changes_nothing():
    C = GradedChainComplex({0: ["a"], 1: ["b"]}, {1: mat([[0]])}).validate()
    Q = postnikov_truncate(C, 5)
    for k in (0, 1):
        assert homology_at(Q, k).dimension == homology_at(C, k).dimension

"""The engine's exact scalars in one normal form: an int when integral, a
Fraction with denominator > 1 otherwise, never a float.

The property tests feed coefficients that mix ints with halves and thirds,
so that sums and products of Fractions come out integral.  Each result
matches an independent oracle on Fraction word dicts or dense Fraction
matrices, and is held to the normal form by assert_exact.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cdgl.dgl import apply_operator, h0_group
from cdgl.exactlin import (FactoredBasis, IncrementalSpan, NotInSpanError,
                           SparseMat, SparseVec, exact, kernel_basis, ratio)
from cdgl.freelie import Generator, LieElement, Truncation, bracket, mul
from cdgl.models import interval_model, sphere_model, wedge_model

from oracles import (assert_exact, dense_kernel, dense_solve, l_bch,
                     w_apply_operator, w_bch, w_bracket)

_mixed = st.one_of(st.integers(-4, 4),
                   st.builds(Fraction, st.integers(-6, 6), st.sampled_from([2, 3])))
_GENS = (Generator("a", 0), Generator("b", 1), Generator("c", 2))
_word = st.lists(st.sampled_from(_GENS), min_size=1, max_size=3).map(tuple)
_terms = st.dictionaries(_word, _mixed, max_size=4)
_A, _B, _C = _GENS
_HALF = Fraction(1, 2)


def _fractions(terms):
    """The oracles' input: a word dict on Fractions, zeros dropped."""
    return {w: Fraction(c) for w, c in terms.items() if c}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_terms, _terms)
# halves times twos and halves plus halves: integral Fractions in the kernel
@example({(_A,): _HALF, (_B,): _HALF}, {(_B,): 2, (_C,): Fraction(4, 2)})
@example({(_A,): _HALF, (_A, _A): _HALF}, {(_C,): Fraction(2, 3), (_A,): 1})
def test_bracket_matches_word_oracle_in_normal_form(a, b):
    trunc = Truncation(4)
    got = bracket(LieElement(a, trunc), LieElement(b, trunc)).terms
    assert got == w_bracket(_fractions(a), _fractions(b), 4)
    assert_exact(got.values())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(-1, 2), _terms,
       st.dictionaries(st.sampled_from(_GENS), _terms, min_size=1))
@example(0, {(_A, _A): _HALF}, {_A: {(_A,): 1}})
@example(0, {(_A,): Fraction(1, 3), (_B,): 1}, {_A: {(_C,): 3}, _B: {(_B,): _HALF}})
def test_apply_operator_matches_word_oracle_in_normal_form(op_degree, terms, values):
    trunc = Truncation(4)

    def admits(w):
        return len(w) <= 4

    got = apply_operator({g: LieElement(t, trunc) for g, t in values.items()},
                         op_degree, LieElement(terms, trunc)).terms
    want = w_apply_operator({g: _fractions(t) for g, t in values.items()},
                            op_degree, _fractions(terms), admits)
    assert got == want
    assert_exact(got.values())


_X, _Y = Generator("x", 0), Generator("y", 0)


def _lie_combination(coeffs, trunc):
    """c0 x + c1 y + c2 [x, y] + c3 [x, [x, y]] + c4 [y, [x, y]]."""
    x, y = LieElement.gen(_X, trunc), LieElement.gen(_Y, trunc)
    xy = bracket(x, y)
    out = LieElement.zero(trunc)
    for c, e in zip(coeffs, (x, y, xy, bracket(x, xy), bracket(y, xy))):
        out = out + e.scale(c)
    return out


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(_mixed, min_size=5, max_size=5),
       st.lists(_mixed, min_size=5, max_size=5))
@example([2, 0, _HALF, 0, 0], [0, 2, 0, 0, Fraction(3, 2)])
def test_bch_matches_word_oracle_in_normal_form(cx, cy):
    trunc = Truncation(5)
    x, y = _lie_combination(cx, trunc), _lie_combination(cy, trunc)
    assert_exact(list(x.terms.values()) + list(y.terms.values()))
    got = l_bch(wedge_model((1, 1), trunc), x, y).terms
    assert got == w_bch(_fractions(x.terms), _fractions(y.terms), 5)
    assert_exact(got.values())


def _column_case(draw):
    n = draw(st.integers(1, 5))
    vecs = draw(st.lists(st.lists(_mixed, min_size=n, max_size=n), max_size=4))
    return n, vecs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_factored_coords_match_dense_solve_in_normal_form(data):
    n, cols = _column_case(data.draw)
    vecs = [SparseVec(dict(enumerate(v))) for v in cols]
    if cols and data.draw(st.booleans()):
        # a target in the span, with mixed coefficients
        combo = data.draw(st.lists(_mixed, min_size=len(cols), max_size=len(cols)))
        target = [sum((c * v[i] for c, v in zip(combo, cols)), 0) for i in range(n)]
    else:
        target = data.draw(st.lists(_mixed, min_size=n, max_size=n))
    A = [[Fraction(v[i]) for v in cols] for i in range(n)]
    x = dense_solve(A, [Fraction(t) for t in target])
    fb = FactoredBasis(vecs, n)
    vec = SparseVec(dict(enumerate(target)))
    if x is None:
        with pytest.raises(NotInSpanError):
            fb.coords(vec)
    else:
        got = fb.coords(vec).entries
        assert got == {k: c for k, c in enumerate(x) if c}
        assert_exact(got.values())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_kernel_basis_matches_dense_kernel_in_normal_form(data):
    n_cols, rows = _column_case(data.draw)
    M = SparseMat(len(rows), n_cols, {(r, c): v for r, row in enumerate(rows)
                                      for c, v in enumerate(row)})
    assert_exact(M.entries.values())
    got = [v.entries for v in kernel_basis(M)]
    want = dense_kernel([[Fraction(v) for v in row] for row in rows], n_cols)
    assert got == [{k: c for k, c in enumerate(z) if c} for z in want]
    for v in got:
        assert_exact(v.values())


def test_scalar_helpers_give_the_normal_form():
    for value, want in ((Fraction(4, 2), 2), (True, 1), (3, 3), (0.25, Fraction(1, 4)),
                        (Fraction(-3, 6), Fraction(-1, 2)), ("2/6", Fraction(1, 3))):
        got = exact(value)
        assert got == want
        assert_exact([got])
    for n, d, want in ((6, 3, 2), (-3, 6, Fraction(-1, 2)), (3, -6, Fraction(-1, 2)),
                       (0, 5, 0), (-8, -4, 2)):
        got = ratio(n, d)
        assert got == want
        assert_exact([got])
    with pytest.raises(AssertionError):
        assert_exact([Fraction(2, 1)])
    with pytest.raises(AssertionError):
        assert_exact([0.5])
    with pytest.raises(AssertionError):
        assert_exact([True])


def test_value_types_settle_integral_fractions():
    trunc = Truncation(3)
    x = LieElement.gen(_X, trunc)
    half = x.scale(_HALF)
    third = SparseVec({0: Fraction(1, 3), 1: Fraction(2, 3)})
    m = SparseMat(2, 2, {(0, 0): _HALF, (1, 1): Fraction(3, 2)})
    cases = [
        LieElement({(_X,): Fraction(6, 3), (_Y,): 0.5}, trunc).terms,
        (half + half).terms, (x - half).terms, half.scale(4).terms,
        (x + x.scale(Fraction(-1, 2))).terms,
        mul(half + LieElement.gen(_Y, trunc).scale(_HALF), x.scale(2)).terms,
        (third + third + third).entries, third.scale(3).entries,
        (third - third.scale(Fraction(1, 2))).entries,
        SparseVec({0: Fraction(4, 2), 1: 1.5}).entries,
        m.apply(SparseVec({0: 2, 1: Fraction(2, 3)})).entries,
        m.compose(SparseMat(2, 2, {(0, 0): 2, (1, 1): Fraction(4, 3)})).entries,
        (m + m).entries, m.scale(2).entries,
        SparseMat.from_columns(2, [SparseVec({0: Fraction(3, 3)})]).entries,
    ]
    for values in cases:
        assert values
        assert_exact(values.values())
    # coordinates and the residue test: an integral coordinate is an int
    basis = FactoredBasis([SparseVec({0: 2, 1: 1})], 3)
    assert basis.coords(SparseVec({0: 1, 1: _HALF})).entries == {0: _HALF}
    assert basis.coords(SparseVec({0: 4, 1: 2})).entries == {0: 2}
    assert_exact(basis.coords(SparseVec({0: 4, 1: Fraction(4, 2)})).entries.values())
    span = IncrementalSpan()
    span.add(SparseVec({0: 2, 1: 1}))
    assert span.contains(SparseVec({0: 4, 1: Fraction(4, 2)}))
    assert not span.contains(SparseVec({0: 4, 2: _HALF}))


@pytest.mark.parametrize("make", [
    lambda: sphere_model(2, Truncation(4)),
    lambda: wedge_model((2, 3), Truncation(4)),
    lambda: interval_model(Truncation(5)),
])
def test_engine_values_are_in_normal_form(make):
    # bases, differentials, coordinates, boundaries and H_0 structure
    # constants of built-in models, the interval's Bernoulli d included
    L = make()
    lo, hi = L.degree_bounds()
    for n in range(lo, hi + 1):
        for e in L.basis(n):
            assert_exact(e.terms.values())
            assert_exact(L.d(e).terms.values())
            assert_exact(L.coords(e, n).entries.values())
    for g in L.gens:
        assert_exact(L.d_on_gens[g].terms.values())
    C = L.complex(range(lo, hi + 1))
    for n in C.degrees():
        assert_exact(C.d(n).entries.values())
    if lo <= 0:
        for v in h0_group(L).structure.values():
            assert_exact(v.entries.values())

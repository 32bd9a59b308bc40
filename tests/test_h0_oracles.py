"""The H_0 group and the lower central series against dense oracles over
tensor words, on random models with a nonzero differential."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cdgl.dgl import ClassTable, build_dgl, h0_group, nilpotency
from cdgl.exactlin import HomologyReport, InternalError, SparseVec, homology_reports
from cdgl.freelie import Generator, LieElement, Truncation
from cdgl.models import wedge_model

from oracles import (dense_nilpotency_class, h0_bracket, h0_mul, l_h0_elements,
                     left_normed, w_bch, w_bracket, w_homology, w_homology_algebra,
                     w_solve_modulo)


def _words(e):
    return {tuple((g.name, g.degree) for g in w): Fraction(c)
            for w, c in e.terms.items()}


def _oracle_inputs(L):
    """The generators and the word dicts of d on them, for the oracles."""
    d = {(g.name, g.degree): _words(v) for g, v in L.d_on_gens.items()
         if not v.is_zero()}
    return L.gens, d


def _model(cap, n0, ds, n_odd):
    """Generators u0.. of degree 0; one generator s_k of degree 1 for each
    entry of ds, a list of (sequence of u indices, coefficient) whose sum of
    left-normed brackets is d s_k; n_odd cycles t0.. of degree 1."""
    trunc = Truncation(cap)
    us = [Generator("u%d" % i, 0) for i in range(n0)]
    d = {}
    for k, terms in enumerate(ds):
        value = LieElement.zero(trunc)
        for seq, c in terms:
            value = value + left_normed([us[i] for i in seq], trunc).scale(c)
        d[Generator("s%d" % k, 1)] = value
    ts = [Generator("t%d" % k, 1) for k in range(n_odd)]
    return build_dgl(us + list(d) + ts, d, trunc)


_coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def models(draw, max_cap=4, min_n0=2, max_n0=3, max_odd=1):
    """Degree-0 generators; degree-1 generators whose d is a random degree-0
    Lie element of length >= 2 with small denominators (d^2 = 0, since the
    degree-0 generators are cycles); odd cycles of degree 1."""
    cap = draw(st.integers(2, max_cap))
    n0 = draw(st.integers(min_n0, max_n0))
    seq = st.lists(st.integers(0, n0 - 1), min_size=2, max_size=cap)
    ds = draw(st.lists(st.lists(st.tuples(seq, _coeff), min_size=1, max_size=3),
                       max_size=2))
    return _model(cap, n0, ds, draw(st.integers(0, max_odd)))


# fixed models: every nonzero bracket of H_0 lies between late
# representatives (u3, u4 and [u3, u4]); boundaries with integer coefficients
# whose class coordinates are not integers (D > 1); the free Lie algebra
_LATE = (2, 5, [[(p, 1)] for p in ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2),
                                   (1, 3), (1, 4), (2, 3), (2, 4))], 0)
_DENOMINATORS = (3, 3, [[((0, 1), 2), ((0, 2), -3)], [((1, 2), 5), ((0, 2), 1)]], 1)
_FREE = (5, 2, [], 0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(models())
@example(_model(*_LATE))
@example(_model(*_DENOMINATORS))
@example(_model(*_FREE))
def test_h0_dimension_class_and_abelian_match_dense_oracle(L):
    gens, d = _oracle_inputs(L)
    cap = L.trunc.max_bracket_length
    reps, table = w_homology_algebra(gens, d, cap, [0])
    want = dense_nilpotency_class(table) if reps else 0
    unbuilt = h0_group(L)
    assert unbuilt.dimension == len(reps)
    assert unbuilt.abelian == (want <= 1)
    assert "table" not in vars(unbuilt)
    built = h0_group(L)
    assert built.nilpotency_class == want
    assert built.abelian == (want <= 1)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(models(max_cap=3, min_n0=1, max_n0=2, max_odd=2),
       st.sampled_from([(0, 1, 2), (1, 2), (0, 1, 3), (1, 3)]))
@example(_model(3, 1, [], 2), (1, 2, 3))
@example(_model(3, 1, [], 2), (1, 3))
@example(_model(4, 0, [], 2), (1, 2, 4))
def test_graded_nilpotency_matches_dense_oracle(L, window):
    # the class-bracket table of a window of degrees >= 0 against the
    # oracle's, entry by entry, odd squares included, and the index read
    # off it; a window with a gap keeps all
    # classes: on two odd letters at cap 4 and the window (1, 2, 4) the
    # series has 3 terms, while the brackets with X alone would stop after 2
    gens, d = _oracle_inputs(L)
    cap = L.trunc.max_bracket_length
    reps, table = w_homology_algebra(gens, d, cap, window)
    classes = ClassTable(
        homology_reports(L.complex(range(0, max(window) + 2)), window),
        L.brackets.product)
    assert [(n, _words(L.from_coords(z, n))) for n in window
            for z in classes.reports[n].cycle_reps] == reps
    D, got = classes.table
    assert [[{k: Fraction(c, D) for k, c in row.get(j, {}).items()}
             for j in range(len(reps))] for row in got] == table
    assert nilpotency(classes) == (dense_nilpotency_class(table) if reps else 0)


def _random_class(rng, n):
    return SparseVec({k: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for k in range(n)})


def _element(reps, u):
    out = {}
    for k, c in u.entries.items():
        for w, t in _words(reps[k]).items():
            out[w] = out.get(w, 0) + c * t
    return {w: c for w, c in out.items() if c}


@pytest.mark.parametrize("make", [
    lambda: _model(*_DENOMINATORS), lambda: _model(*_LATE),
    lambda: wedge_model((1, 1), Truncation(4)),
    lambda: _model(3, 3, [[((0, 1, 2), Fraction(1, 2)), ((1, 0), 3)]], 1)],
    ids=["denominators", "late", "wedge11-cap4", "boundary-cap3"])
def test_h0_group_law_matches_word_bch(make):
    # the brackets, the structure constants and the product of random
    # classes against the word oracle's [x, y] and log(exp x exp y) of the
    # representatives, solved modulo the oracle's boundaries; associativity
    # and inverses on random classes
    L = make()
    G = h0_group(L)
    gens, d = _oracle_inputs(L)
    cap = L.trunc.max_bracket_length
    boundaries = w_homology(gens, d, cap, 0)[1]
    elements = l_h0_elements(L, G)[0]
    reps = [_words(r) for r in elements]
    n = G.dimension
    pairs = sorted(G.structure)
    want = w_solve_modulo(reps, boundaries,
                          [w_bch(reps[i], reps[j], cap) for i, j in pairs])
    assert [G.structure[p].entries for p in pairs] == want
    want = w_solve_modulo(reps, boundaries,
                          [w_bracket(reps[i], reps[j], cap) for i, j in pairs])
    assert [h0_bracket(G, SparseVec.unit(i), SparseVec.unit(j)).entries
            for i, j in pairs] == want
    rng = random.Random(n)
    zero = SparseVec()
    for _ in range(4):
        u, v, w = (_random_class(rng, n) for _ in range(3))
        uv = h0_mul(G, u, v)
        assert [uv.entries] == w_solve_modulo(
            reps, boundaries, [w_bch(_element(elements, u), _element(elements, v), cap)])
        assert h0_mul(G, uv, w) == h0_mul(G, u, h0_mul(G, v, w))
        assert h0_mul(G, u, u.scale(-1)) == zero == h0_mul(G, u.scale(-1), u)
        assert h0_mul(G, u, zero) == u == h0_mul(G, zero, u)


def test_h0_denominator_model_has_fractional_brackets():
    # the law tests above see the table's denominator D only when D > 1
    G = h0_group(_model(*_DENOMINATORS))
    assert G.table[0] > 1


def test_unbuilt_abelian_takes_one_bracket(monkeypatch):
    # on wedge(1,1) cap 5 the first pair [x, y] is nonzero: the stability
    # re-run's abelian takes that one bracket and builds no table
    calls = []
    L = wedge_model((1, 1), Truncation(5))
    product = L.brackets.product

    def counting(m, u, m2, v):
        calls.append(1)
        return product(m, u, m2, v)

    monkeypatch.setattr(L.brackets, "product", counting)
    G = h0_group(L)
    assert G.dimension == 14
    assert G.abelian is False
    assert len(calls) == 1 and "table" not in vars(G)


def test_nilpotency_refuses_a_window_of_negative_degree():
    # the generators X of the lower central series are enough only when the
    # dropped degrees form an ideal; a negative degree is refused up front,
    # before any bracket is taken, as an internal error: no input reaches it
    reports = {n: HomologyReport(n, 1, [SparseVec.unit(0)], [], 1)
               for n in (-1, 0)}

    def refused(m, u, m2, v):
        raise AssertionError("bracket taken")

    with pytest.raises(InternalError, match="degrees >= 0"):
        nilpotency(ClassTable(reports, refused))

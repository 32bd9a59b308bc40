import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cdgl import freelie
from cdgl.exactlin import NotInSpanError
from cdgl.freelie import (Coordinatizer, Generator, LieElement, Truncation,
                          _mul_terms, bracket, is_lie, lie_basis, lie_dimension,
                          mul)

from oracles import (assert_exact, dense_solve, dynkin, gen_sequences, left_normed,
                     mobius, super_witt, w_add, w_bracket, w_dynkin, w_is_lie,
                     w_lie_basis, w_mul_admitted, w_scale)


def T(n, deg=None):
    return Truncation(n, deg)


def gens2(d1=0, d2=0):
    return (Generator("u", d1), Generator("v", d2))


def test_generator_semantics():
    x = Generator("x", 2)
    assert x == Generator("x", 2) and hash(x) == hash(Generator("x", 2))
    assert hash(x) == hash(("x", 2))
    assert x != Generator("x", 3) and x != Generator("y", 2)
    assert repr(x) == "x(2)" and str(x) == "x(2)"
    with pytest.raises(AttributeError):
        x.degree = 3
    with pytest.raises(AttributeError):
        x.label = "x"


def test_truncation_is_a_read_only_value():
    a = Truncation(3, 2)
    assert a == Truncation(3, 2) and hash(a) == hash(Truncation(3, 2))
    assert a != Truncation(3) and a != Truncation(4, 2) and a != (3, 2)
    assert len({a, Truncation(3, 2), Truncation(3)}) == 2
    assert Truncation(5) == Truncation(5, None)
    with pytest.raises(AttributeError):
        a.max_bracket_length = 4
    with pytest.raises(AttributeError):
        del a.max_degree
    assert (a.max_bracket_length, a.max_degree) == (3, 2)
    with pytest.raises(ValueError, match="truncation cap must be >= 1"):
        Truncation(0)


def rand_element(rng, gens, trunc, degree=None, n_terms=3):
    """Random Lie element: rational combination of left-normed brackets."""
    out = LieElement.zero(trunc)
    cap = trunc.max_bracket_length
    for _ in range(n_terms):
        ln = rng.randint(1, cap)
        seq = tuple(rng.choice(gens) for _ in range(ln))
        if degree is not None and sum(g.degree for g in seq) != degree:
            continue
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out = out + left_normed(seq, trunc).scale(c)
    return out


def to_word_dict(e):
    return {tuple((g.name, g.degree) for g in w): c for w, c in e.terms.items()}


def test_bracket_even_square_is_zero():
    x = Generator("x", 2)
    e = LieElement.gen(x, T(4))
    assert bracket(e, e).is_zero()


def test_bracket_odd_triple_is_zero():
    x = Generator("x", 1)
    e = LieElement.gen(x, T(4))
    assert bracket(e, bracket(e, e)).is_zero()


def test_bracket_degree_zero_unfolds():
    u, v = gens2()
    trunc = T(3)
    eu, ev = LieElement.gen(u, trunc), LieElement.gen(v, trunc)
    b = bracket(eu, ev)
    assert b.terms == {(u, v): Fraction(1), (v, u): Fraction(-1)}


def test_graded_antisymmetry_randomized():
    rng = random.Random(3)
    gens = (Generator("u", 1), Generator("v", 2), Generator("w", 0))
    trunc = T(4)
    for _ in range(50):
        da = rng.choice([0, 1, 2, 3])
        db = rng.choice([0, 1, 2, 3])
        a = rand_element(rng, gens, trunc, degree=da)
        b = rand_element(rng, gens, trunc, degree=db)
        lhs = bracket(a, b) + bracket(b, a).scale((-1) ** (da * db))
        assert lhs.is_zero()


def test_graded_jacobi_randomized():
    rng = random.Random(4)
    gens = (Generator("u", 1), Generator("v", 2), Generator("w", 0))
    trunc = T(4)
    for _ in range(50):
        da, db = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
        a = rand_element(rng, gens, trunc, degree=da, n_terms=2)
        b = rand_element(rng, gens, trunc, degree=db, n_terms=2)
        c = rand_element(rng, gens, trunc, n_terms=2)
        lhs = bracket(a, bracket(b, c))
        rhs = bracket(bracket(a, b), c) + bracket(b, bracket(a, c)).scale((-1) ** (da * db))
        assert (lhs - rhs).is_zero()


def test_bracket_matches_independent_word_algebra():
    rng = random.Random(5)
    gens = (Generator("u", 1), Generator("v", 0))
    trunc = T(4)
    for _ in range(30):
        a = rand_element(rng, gens, trunc)
        b = rand_element(rng, gens, trunc)
        got = bracket(a, b)
        want = w_bracket(to_word_dict(a), to_word_dict(b), 4)
        assert to_word_dict(got) == want


def witt(k, n):
    """Dimension of the length-n piece of the free Lie algebra on k
    ungraded (degree-0) generators."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += mobius(d) * k ** (n // d)
    return total // n


def test_one_even_generator_length_two_empty():
    x = Generator("x", 2)
    assert lie_basis((x,), 4, 2, T(2)) == []


def test_one_odd_generator_length_two_dimension_one():
    x = Generator("x", 1)
    basis = lie_basis((x,), 2, 2, T(2))
    assert len(basis) == 1
    # the basis element spans the same line as [x, x]
    sq = bracket(LieElement.gen(x, T(2)), LieElement.gen(x, T(2)))
    c = Coordinatizer(basis).coords(sq)
    assert list(c.entries) == [0]


def test_degree_zero_pair_witt_dimensions():
    u, v = gens2()
    for ln, expect in ((1, 2), (2, 1), (3, 2)):
        basis = lie_basis((u, v), 0, ln, T(3))
        assert len(basis) == expect == witt(2, ln)


def test_witt_dimensions_three_generators():
    gens = tuple(Generator(n, 0) for n in "abc")
    for ln in (1, 2, 3, 4):
        basis = lie_basis(gens, 0, ln, T(4))
        assert len(basis) == witt(3, ln)


def test_coordinates_zero_and_unit():
    u, v = gens2()
    trunc = T(3)
    b = bracket(LieElement.gen(u, trunc), LieElement.gen(v, trunc))
    basis = lie_basis((u, v), 0, 2, trunc)
    assert Coordinatizer(basis).coords(LieElement.zero(trunc)).is_zero()
    c = Coordinatizer(basis).coords(b)
    assert c.entries == {0: Fraction(1)} or len(c.entries) == 1


def test_coordinates_length_three_exact():
    u, v = gens2()
    trunc = T(3)
    eu, ev = LieElement.gen(u, trunc), LieElement.gen(v, trunc)
    uv = bracket(eu, ev)
    e = bracket(eu, uv) + bracket(ev, uv).scale(Fraction(1, 2))
    basis = lie_basis((u, v), 0, 3, trunc)
    c = Coordinatizer(basis).coords(e)
    assert len(c.entries) == 2
    rebuilt = LieElement.zero(trunc)
    for i, ci in c.entries.items():
        rebuilt = rebuilt + basis[i].scale(ci)
    assert rebuilt == e


def test_coordinates_not_in_span_raises():
    u, v = gens2()
    trunc = T(3)
    basis = lie_basis((u, v), 0, 2, trunc)
    with pytest.raises(NotInSpanError):
        Coordinatizer(basis).coords(LieElement.gen(u, trunc))


def test_dynkin_certifies_lie_membership():
    rng = random.Random(9)
    gens = (Generator("u", 1), Generator("v", 0), Generator("w", 2))
    trunc = T(4)
    for _ in range(60):
        e = rand_element(rng, gens, trunc)
        assert is_lie(e)
    # a bare product word is not a Lie element
    u, v = gens[:2]
    prod = LieElement({(u, v): Fraction(1)}, trunc)
    assert not is_lie(prod)


CAP = 5
GENS = (Generator("u", 0), Generator("v", 1), Generator("w", 2), Generator("z", -1))
_seq = st.lists(st.sampled_from(GENS), min_size=1, max_size=3)
_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# a term is a left-normed bracket (Lie), a product of two of them, or a bare
# word (mostly not Lie)
_term = st.tuples(st.sampled_from(("lie", "prod", "word")), _seq, _seq, _coeff)


def _element(terms):
    trunc = T(CAP)
    out = LieElement.zero(trunc)
    for kind, s1, s2, c in terms:
        if kind == "lie":
            e = left_normed(s1 + s2, trunc)
        elif kind == "prod":
            e = mul(left_normed(s1, trunc), left_normed(s2, trunc))
        else:
            e = LieElement({tuple(s1 + s2): 1}, trunc)
        out = out + e.scale(c)
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(_term, max_size=4))
# x.y is not Lie; in the second, lcm(2, 3) is the denominator to clear
@example([("prod", [GENS[0]], [GENS[1]], Fraction(1))])
@example([("lie", [GENS[0]], [GENS[0], GENS[1]], Fraction(1, 2)),
          ("lie", [GENS[1]], [GENS[2]], Fraction(1, 3))])
def test_one_pass_dynkin_agrees_with_per_word_oracle(terms):
    e = _element(terms)
    words = to_word_dict(e)
    assert to_word_dict(dynkin(e)) == w_dynkin(words, CAP)
    assert is_lie(e) == w_is_lie(words, CAP)


def test_dynkin_scales_by_length():
    rng = random.Random(10)
    gens = (Generator("u", 1), Generator("v", 0))
    trunc = T(5)
    for _ in range(20):
        ln = rng.randint(2, 5)
        seq = tuple(rng.choice(gens) for _ in range(ln))
        e = left_normed(seq, trunc)
        assert dynkin(e) == e.scale(ln)


def test_re_association_normalizes_to_same_element():
    # [[u,v],w] vs Jacobi expansion: normal form must agree
    gens = tuple(Generator(n, 0) for n in "uvw")
    trunc = T(3)
    u, v, w = (LieElement.gen(g, trunc) for g in gens)
    a = bracket(bracket(u, v), w)
    b = bracket(u, bracket(v, w)) - bracket(v, bracket(u, w))
    assert a == b


def test_truncation_commutes_with_normalization():
    rng = random.Random(11)
    gens = (Generator("u", 0), Generator("v", 0))
    for _ in range(20):
        e5 = rand_element(rng, gens, T(5), n_terms=4)
        e3 = e5.truncated(T(3))
        assert all(len(w) <= 3 for w in e3.terms)
        assert e3 == LieElement(e5.terms, T(3))


def test_sum_and_multiple_cut_to_the_left_truncation():
    # on one truncation every word is admitted already; a summand that
    # carries another truncation is cut to the left one's, also under a
    # degree cap
    rng = random.Random(5)
    gens = (Generator("u", 0), Generator("v", 1))
    for left, right in ((T(3), T(3)), (T(3), T(5)), (T(4, 2), T(5))):
        for _ in range(10):
            a = rand_element(rng, gens, left, n_terms=4)
            b = rand_element(rng, gens, right, n_terms=4)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for got, want in ((a + b, w_add(a.terms, b.terms)),
                              (a - b, w_add(a.terms, w_scale(b.terms, -1))),
                              (a.scale(c), w_scale(a.terms, c))):
                assert got.trunc == left
                assert got.terms == {w: v for w, v in want.items() if left.admits(w)}
                assert_exact(got.terms.values())
    u, v = gens
    a = LieElement.gen(u, T(3))
    b = left_normed((u, u, v), T(5)) + left_normed((u, u, u, v), T(5))
    assert (a + b).terms == {(u,): 1, **left_normed((u, u, v), T(5)).terms}


def test_gen_sequences_degree_filter():
    a = Generator("a", -1)
    x = Generator("x", 0)
    seqs = gen_sequences((a, x), -1, 3)
    assert all(sum(g.degree for g in s) == -1 and len(s) == 3 for s in seqs)
    assert len(seqs) == 3


_fresh = itertools.count()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=3))
def test_lie_basis_matches_all_sequences_oracle(degrees):
    # fresh names, so no basis comes from a cache filled earlier
    n = next(_fresh)
    gens = tuple(Generator("h%d_%d" % (n, i), d) for i, d in enumerate(degrees))
    for ln in range(1, 6):
        for deg in range(ln * min(degrees), ln * max(degrees) + 1):
            got = [(e.label, to_word_dict(e)) for e in lie_basis(gens, deg, ln, T(5))]
            assert got == w_lie_basis(gens, deg, ln)
            dim = lie_dimension(gens, deg, ln, T(5))
            assert type(dim) is int and dim == len(got)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=3))
def test_lie_basis_sizes_match_super_witt(degrees):
    # every pick is multihomogeneous, and the picks of each multidegree
    # number its dimension by the super Witt formula, which eliminates nothing
    n = next(_fresh)
    gens = tuple(Generator("w%d_%d" % (n, i), d) for i, d in enumerate(degrees))
    for ln in range(1, 7):
        for deg in range(ln * min(degrees), ln * max(degrees) + 1):
            counts = collections.Counter()
            for e in lie_basis(gens, deg, ln, T(6)):
                alphas = {tuple(map(w.count, gens)) for w in e.terms}
                assert len(alphas) == 1
                counts[alphas.pop()] += 1
            alphas = [a for a in itertools.product(range(ln + 1), repeat=len(gens))
                      if sum(a) == ln and sum(k * d for k, d in zip(a, degrees)) == deg]
            assert set(counts) <= set(alphas)
            for a in alphas:
                assert counts[a] == super_witt(degrees, a)
            # the engine's own count, summed over the multidegrees
            assert lie_dimension(gens, deg, ln, T(6)) == sum(
                super_witt(degrees, a) for a in alphas)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=8))
def test_lie_dimension_under_a_degree_cap(degrees, max_degree):
    # zero above the cap, the uncapped count at or below it, as lie_basis
    n = next(_fresh)
    gens = tuple(Generator("c%d_%d" % (n, i), d) for i, d in enumerate(degrees))
    for ln in range(1, 6):
        for deg in range(ln * min(degrees), ln * max(degrees) + 1):
            dim = lie_dimension(gens, deg, ln, T(5, max_degree))
            assert dim == len(lie_basis(gens, deg, ln, T(5, max_degree)))
            assert dim == (0 if deg > max_degree else lie_dimension(gens, deg, ln, T(5)))


def test_lie_basis_tries_one_candidate_per_sub_basis_element(monkeypatch):
    # at length k the candidates are [g, b] for b in the basis at
    # (degree - |g|, k - 1), and nothing else is expanded
    gens = (Generator("cand_x", 1), Generator("cand_y", 0), Generator("cand_z", 2))
    sub = sum(len(lie_basis(gens, 4 - g.degree, 3, T(4))) for g in gens)
    calls = []
    real = freelie._bracket_with_generator
    monkeypatch.setattr(freelie, "_bracket_with_generator",
                        lambda *args: calls.append(None) or real(*args))
    basis = lie_basis(gens, 4, 4, T(4))
    assert 0 < len(basis) < len(calls) == sub


_small_rationals = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=3),
       st.integers(2, 5), st.data())
def test_coordinates_match_oracles(degrees, cap, data):
    # random presentations with odd and even generators: the coordinates of
    # a combination of the oracle's basis are its coefficients, and those in
    # the engine's basis are the dense solution over tensor words; an element
    # off the span is refused exactly when the dense system has no solution
    n = next(_fresh)
    gens = tuple(Generator("k%d_%d" % (n, i), d) for i, d in enumerate(degrees))
    by_name = {(g.name, g.degree): g for g in gens}
    trunc = T(cap)
    degree = data.draw(st.integers(min(min(degrees), cap * min(degrees)),
                                   max(max(degrees), cap * max(degrees))))
    engine = [e for ln in range(1, cap + 1) for e in lie_basis(gens, degree, ln, trunc)]
    oracle = [LieElement({tuple(by_name[l] for l in w): c for w, c in terms.items()},
                         trunc)
              for ln in range(1, cap + 1) for _, terms in w_lie_basis(gens, degree, ln)]
    assert len(engine) == len(oracle)
    coeffs = data.draw(st.lists(_small_rationals, min_size=len(oracle),
                                max_size=len(oracle)))
    x = LieElement.zero(trunc)
    for c, e in zip(coeffs, oracle):
        x = x + e.scale(c)
    assert Coordinatizer(oracle).coords(x).entries == {
        k: c for k, c in enumerate(coeffs) if c}
    if data.draw(st.booleans()):
        # a bare word of the degree, mostly not in the Lie span
        seq = data.draw(st.sampled_from(gen_sequences(gens, degree, data.draw(
            st.integers(1, cap))) or [()]))
        if seq:
            x = x + LieElement({seq: Fraction(1)}, trunc)
    words = sorted({w for e in engine + [x] for w in e.terms},
                   key=lambda w: tuple((g.name, g.degree) for g in w))
    A = [[e.terms.get(w, Fraction(0)) for e in engine] for w in words]
    want = dense_solve(A, [x.terms.get(w, Fraction(0)) for w in words])
    if want is None:
        with pytest.raises(NotInSpanError):
            Coordinatizer(engine).coords(x)
    else:
        assert Coordinatizer(engine).coords(x).entries == {
            k: c for k, c in enumerate(want) if c}


def test_lie_basis_hands_out_ints():
    # left-normed brackets of generators are integral in T(V): every
    # coefficient of a basis element is handed out as a plain int
    gens = (Generator("frac_u", 0), Generator("frac_v", 1), Generator("frac_w", 2))
    coefficients = []
    for trunc in (T(5), T(6), T(6, 9)):
        for ln in range(1, 6):
            for deg in range(0, 2 * ln + 1):
                for e in lie_basis(gens, deg, ln, trunc):
                    assert e.trunc == trunc and e.label
                    coefficients.extend(e.terms.values())
    assert coefficients and all(type(c) is int for c in coefficients)
    assert_exact(coefficients)


def _raw(terms, trunc):
    # an element holding exactly these coefficients, ints included
    e = LieElement.zero(trunc)
    e.terms = dict(terms)
    return e


_int_terms = st.dictionaries(
    st.lists(st.sampled_from(GENS), min_size=1, max_size=3).map(tuple),
    st.integers(min_value=-5, max_value=5).filter(bool), max_size=5)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_int_terms, _int_terms, st.sampled_from([None, 2, 4]))
def test_bracket_on_ints_matches_bracket_on_fractions(a, b, max_degree):
    # odd and even generators; int inputs give ints, Fraction inputs give
    # the normal form, with the same values in the same insertion order
    trunc = T(4, max_degree)
    on_ints = bracket(_raw(a, trunc), _raw(b, trunc)).terms
    on_fractions = bracket(
        _raw({w: Fraction(c) for w, c in a.items()}, trunc),
        _raw({w: Fraction(c) for w, c in b.items()}, trunc)).terms
    assert list(on_ints.items()) == list(on_fractions.items())
    assert all(type(c) is int for c in on_ints.values())
    assert_exact(on_fractions.values())


# words over two odd generators, one of negative degree, so that products
# of different pairs meet on one word and cancel; some words are longer
# than the caps, and coefficients have denominators up to 6 or are ints
_ODD = (GENS[1], GENS[3])
_series_coeff = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.integers(min_value=-3, max_value=3)).filter(bool)
_any_terms = st.dictionaries(
    st.lists(st.sampled_from(_ODD), max_size=6).map(tuple),
    _series_coeff, max_size=5)
_caps = st.builds(Truncation, st.integers(min_value=1, max_value=5),
                  st.sampled_from([None, -2, 0, 1, 3]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_any_terms, _any_terms, _caps)
# v.vv and vv.v cancel, and ().vvv puts vvv back at the end
@example({(GENS[1],): 1, (GENS[1],) * 2: 1, (): 1},
         {(GENS[1],) * 2: -1, (GENS[1],): 1, (GENS[1],) * 3: 1}, T(3))
def test_mul_terms_matches_per_pair_reference(a, b, trunc):
    # same items in the same order as the per-pair product filtered by
    # Truncation.admits, the empty word and cancelled words included
    got = _mul_terms(a, b, trunc)
    assert list(got.items()) == list(w_mul_admitted(a, b, trunc.admits).items())


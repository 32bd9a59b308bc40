import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdgl.cylinder import (CapExceededError, Cylinder, PolyForm, Witness,
                           check_homotopy)
from cdgl.dgl import DGLMorphism, DGLPresentation, exp_ad
from cdgl.freelie import Generator, LieElement, Truncation, bracket
from cdgl.models import circle_model, sphere_model, wedge_model
from oracles import act_on_morphism, left_normed, w_cyl_apply, w_cyl_bracket


def T(n):
    return Truncation(n)


def test_leibniz_on_t_tensor():
    L = circle_model(T(4))
    cyl = Cylinder(L, 4)
    x = L.gen("x")
    F = cyl.t_power(1, x)
    dF = cyl.d(F)
    assert dF.value((0, True)) == x          # dt (x) x
    assert dF.value((1, False)) == L.d(x)    # t (x) dx


def test_d_of_dt_term():
    L = circle_model(T(4))
    cyl = Cylinder(L, 4)
    b = L.gen("b")
    dF = cyl.d(cyl.t_power(0, b, dt=True))
    assert dF.value((0, True)) == L.d(b).scale(-1)


def test_bracket_of_t_forms():
    L = wedge_model((1, 1), T(4))
    cyl = Cylinder(L, 4)
    x, y = L.gen("x"), L.gen("y")
    F = cyl.t_power(1, x)
    G = cyl.t_power(1, y)
    br = cyl.bracket(F, G)
    assert br.value((2, False)) == bracket(x, y)


def test_d_squared_zero_randomized():
    rng = random.Random(71)
    L = wedge_model((1, 2), T(3))
    cyl = Cylinder(L, 5)
    for _ in range(15):
        terms = {}
        for _ in range(3):
            k = rng.randint(0, 3)
            has_dt = rng.random() < 0.4
            ln = rng.randint(1, 3)
            seq = tuple(rng.choice(L.gens) for _ in range(ln))
            val = left_normed(seq, L.trunc).scale(Fraction(rng.randint(-2, 2)))
            if val.is_zero():
                continue
            # keep slots homogeneous: one term per monomial
            terms[(k, has_dt)] = val
        F = cyl.t_power(0, L.zero())
        for m, v in terms.items():
            F = F + cyl.t_power(m[0], v, dt=m[1])
        assert cyl.d(cyl.d(F)).is_zero()


def test_eval_endpoints():
    L = wedge_model((1, 1), T(4))
    cyl = Cylinder(L, 4)
    x, y = L.gen("x"), L.gen("y")
    F = cyl.t_power(1, x) + cyl.t_power(0, y, dt=True)
    assert cyl.eval_endpoint(F, 0).is_zero()
    assert cyl.eval_endpoint(F, 1) == x
    G = cyl.constant(x)
    assert cyl.eval_endpoint(G, 0) == x
    assert cyl.eval_endpoint(G, 1) == x


def test_eval_of_exponential_flow():
    # eval(e^{t ad_u}(v), 1) = e^{ad_u}(v)
    L = wedge_model((1, 1), T(5))
    cyl = Cylinder(L, 6)
    u, v = L.gen("x"), L.gen("y")
    flow = cyl.exp_ad(cyl.t_power(1, u), cyl.constant(v))
    assert cyl.eval_endpoint(flow, 1) == exp_ad(L, u).apply(v)
    assert cyl.eval_endpoint(flow, 0) == v


_small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4), st.lists(_small, min_size=4, max_size=4),
       st.lists(_small, min_size=4, max_size=4))
def test_exp_flow_at_one_is_exp_ad(cap, cu, cv):
    # u, v: combinations of x, y, [x,y] and [y,[x,y]] of wedge(1,1)
    L = wedge_model((1, 1), T(cap))
    x, y = L.gen("x"), L.gen("y")
    xy = bracket(x, y)
    words = (x, y, xy, bracket(y, xy))
    u = sum((w.scale(c) for w, c in zip(words, cu)), L.zero())
    v = sum((w.scale(c) for w, c in zip(words, cv)), L.zero())
    cyl = Cylinder(L, cap)
    flow = cyl.exp_ad(cyl.t_power(1, u), cyl.constant(v))
    assert cyl.eval_endpoint(flow, 1) == exp_ad(L, u).apply(v)
    assert cyl.eval_endpoint(flow, 0) == v


def _paper_witness(cap=5, poly_cap=6, flip_sign=False):
    """The explicit circle homotopy into the wedge model: the witness sends
    the loop to the exponential flow and the MC generator to -u dt."""
    S = circle_model(T(cap))
    W = wedge_model((1, 1), T(cap), name="wedge")
    # use the paper's u, v names for the wedge generators
    u, v = W.gen("x"), W.gen("y")
    cyl = Cylinder(W, poly_cap)
    flow = cyl.exp_ad(cyl.t_power(1, u), cyl.constant(v))
    b_form = cyl.t_power(0, u.scale(1 if flip_sign else -1), dt=True)
    forms = {S.generator("x"): flow, S.generator("b"): b_form}
    f = DGLMorphism(S, W, {S.generator("x"): v}).validate()
    g = DGLMorphism(S, W, {S.generator("x"): exp_ad(W, u).apply(v)}).validate()
    return Witness(S, W, forms, poly_cap), f, g


def test_paper_homotopy_accepted():
    w, f, g = _paper_witness()
    verdict = check_homotopy(w, f, g)
    assert verdict.ok, verdict.certificate
    assert verdict.stable


def test_paper_homotopy_sign_flip_rejected_with_certificate():
    w, f, g = _paper_witness(flip_sign=True)
    verdict = check_homotopy(w, f, g)
    assert not verdict.ok
    assert verdict.certificate.get("morphism", {}).get("generator") in ("x", "b")


def test_constant_witness():
    L = sphere_model(3, T(3))
    W = sphere_model(3, T(3))
    phi = DGLMorphism(L, W, {L.generator("x"): W.gen("x").scale(2)}).validate()
    cyl = Cylinder(W, 3)
    w = Witness(L, W, {L.generator("x"): cyl.constant(phi.images[L.generator("x")])}, 3)
    assert check_homotopy(w, phi, phi).ok


def test_endpoint_mismatch_rejected():
    L = sphere_model(3, T(3))
    W = sphere_model(3, T(3))
    phi = DGLMorphism(L, W, {L.generator("x"): W.gen("x")}).validate()
    psi = DGLMorphism(L, W, {L.generator("x"): W.gen("x").scale(2)}).validate()
    cyl = Cylinder(W, 3)
    w = Witness(L, W, {L.generator("x"): cyl.constant(W.gen("x"))}, 3)
    verdict = check_homotopy(w, phi, psi)
    assert not verdict.ok and "endpoint1" in verdict.certificate


def test_exp_witness_consistent_with_action():
    # a verified exponential witness certifies psi = e^{ad_u} . phi
    w, f, g = _paper_witness()
    W = w.target
    assert act_on_morphism(W.gen("x"), f) == g


def test_cap_overflow_raises():
    L = wedge_model((1, 1), T(5))
    cyl = Cylinder(L, 1)
    u, v = L.gen("x"), L.gen("y")
    with pytest.raises(CapExceededError):
        cyl.exp_ad(cyl.t_power(1, u), cyl.constant(v))


# -- the cylinder products against the per-word reference ------------------------

_GENS = (Generator("a", 0), Generator("b", 1), Generator("c", -1), Generator("e", 2))
_word = st.lists(st.sampled_from(_GENS), min_size=1, max_size=2).map(tuple)
_coeff = st.sampled_from([Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)])


def _summed(triples):
    """The form (k, has_dt) -> word dict summing (monomial, word, coefficient)
    triples."""
    out = {}
    for m, w, c in triples:
        terms = out.setdefault(m, {})
        terms[w] = terms.get(w, 0) + c
    return out


_form = st.lists(st.tuples(st.tuples(st.integers(0, 2), st.booleans()), _word, _coeff),
                 min_size=1, max_size=3).map(_summed)


def _names(terms):
    return {tuple((g.name, g.degree) for g in w): c for w, c in terms.items()}


def _form_names(F):
    return {m: _names(v.terms) for m, v in F.values.items()}


def _cylinder_case(cap, max_degree, poly_cap):
    trunc = Truncation(cap, max_degree)
    L = DGLPresentation(_GENS, {}, trunc)

    def admits(w):
        return len(w) <= cap and (max_degree is None or sum(d for _, d in w) <= max_degree)

    def form(values):
        return PolyForm(L, {m: LieElement(t, trunc) for m, t in values.items()}, poly_cap)

    return Cylinder(L, poly_cap), admits, form


def _agrees(compute, want, poly_cap):
    # the engine raises exactly when the reference has a monomial over the cap
    if any(k > poly_cap for k, _ in want):
        with pytest.raises(CapExceededError):
            compute()
    else:
        assert _form_names(compute()) == want


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 5), st.sampled_from((None, 0, 1, 2)), st.integers(2, 5),
       _form, _form)
def test_cylinder_bracket_agrees_with_per_word_reference(cap, max_degree, poly_cap, f, g):
    cyl, admits, form = _cylinder_case(cap, max_degree, poly_cap)
    F, G = form(f), form(g)
    want = w_cyl_bracket(_form_names(F), _form_names(G), admits)
    _agrees(lambda: cyl.bracket(F, G), want, poly_cap)


# words of two or three letters, so that each word's images are multiplied
_long_words = st.dictionaries(
    st.lists(st.sampled_from(_GENS), min_size=2, max_size=3).map(tuple), _coeff,
    min_size=1, max_size=3)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 6), st.sampled_from((None, 0, 1, 2)), st.integers(2, 6),
       _long_words, st.fixed_dictionaries({g: _form for g in _GENS}))
def test_cylinder_apply_witness_agrees_with_per_word_reference(cap, max_degree, poly_cap,
                                                               terms, images):
    cyl, admits, form = _cylinder_case(cap, max_degree, poly_cap)
    forms = {g: form(f) for g, f in images.items()}
    e = LieElement(terms, cyl.L.trunc)
    want = w_cyl_apply({(g.name, g.degree): _form_names(F) for g, F in forms.items()},
                       _names(e.terms), admits)
    _agrees(lambda: cyl.apply_witness(forms, e), want, poly_cap)

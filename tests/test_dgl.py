import os
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import cdgl.dgl
from cdgl.derivations import DerComplex, twisted_der_sl
from cdgl.dgl import (ClassTable, DGLMorphism, DGLPresentation,
                      DivergenceError, GeneratorFiltration,
                      IllFormedDifferentialError, MCElement, apply_operator,
                      bch, bch_series, build_dgl, check_mc, exp_ad,
                      exp_derivation_values, gauge_act, gauge_equivalent,
                      h0_group, log_morphism, nilpotency)
from cdgl.exactlin import (HomologyReport, InternalError, NotInSpanError,
                           SparseMat, SparseVec, _vec, homology_at)
from cdgl.freelie import Generator, LieElement, Truncation, bracket, lie_basis
from cdgl.models import (bernoulli, circle_model, interval_model,
                         mc_point_model, sphere_model, wedge_model)
from cdgl.workbench import workspace_from_text
from cdgl.workbench.tasks import pretty_element

from oracles import (act_on_morphism, assert_exact, component_complex,
                     dense_nilpotency_class, dense_solve, eager_h0_table,
                     fraction_gauge_series, h0_mul, l_bch, l_gauge_act,
                     l_gauge_equivalent, l_h0_elements, left_normed, perturbed,
                     tensor_bch, w_apply_operator, w_bch)


def T(n):
    return Truncation(n)


def rand_deg0(rng, L, n_terms=3):
    out = L.zero()
    gens0 = [g for g in L.gens if g.degree == 0]
    cap = L.trunc.max_bracket_length
    for _ in range(n_terms):
        ln = rng.randint(1, cap)
        seq = tuple(rng.choice(gens0) for _ in range(ln))
        out = out + left_normed(seq, L.trunc).scale(
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return out


# -- build_dgl ---------------------------------------------------------------

def test_build_zero_differential_valid():
    x = Generator("x", 3)
    L = build_dgl((x,), {}, T(3))
    assert L.d(L.gen("x")).is_zero()


def test_build_circle_model():
    L = circle_model(T(5))
    b, x = L.gen("b"), L.gen("x")
    assert L.d(b) == bracket(b, b).scale(Fraction(-1, 2))
    assert L.d(x) == bracket(x, b)


def test_build_interval_model_cap8_d_squared_zero():
    L = interval_model(T(8))
    for g in L.gens:
        assert L.d(L.d_on_gens[g]).is_zero()


def test_d_squared_certificate_names_generator_and_fraction_residue():
    # the check runs on d with its denominators cleared; a failure still
    # carries the residue d(d(u)) on Fractions
    u, v, w = Generator("u", 2), Generator("v", 1), Generator("w", 0)
    trunc = T(3)
    d = {u: LieElement.gen(v, trunc).scale(Fraction(1, 2)),
         v: LieElement.gen(w, trunc).scale(Fraction(1, 3))}
    L = DGLPresentation((u, v, w), d, trunc)
    with pytest.raises(IllFormedDifferentialError) as err:
        L.validate()
    assert err.value.gen == u
    assert err.value.residue == L.d(L.d_on_gens[u])
    assert err.value.residue.terms == {(w,): Fraction(1, 6)}
    assert_exact(err.value.residue.terms.values())
    # the interval's dx has Bernoulli denominators; d^2 = 0 holds at each cap
    for cap in range(1, 10):
        assert interval_model(T(cap)).validate()


def test_bernoulli_convention_pinned_by_d_squared():
    # flipping B1 to +1/2 must break d^2 = 0 at cap >= 4
    trunc = T(4)
    a, b, x = Generator("a", -1), Generator("b", -1), Generator("x", 0)
    ea, eb, ex = (LieElement.gen(g, trunc) for g in (a, b, x))
    dx = bracket(ex, ea)
    term = ea - eb
    fact = Fraction(1)
    coeffs = {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(1, 6), 3: Fraction(0)}
    n = 0
    while not term.is_zero() and n in coeffs:
        dx = dx + term.scale(coeffs[n] / fact)
        n += 1
        fact *= n
        term = bracket(ex, term)
    d = {a: bracket(ea, ea).scale(Fraction(-1, 2)),
         b: bracket(eb, eb).scale(Fraction(-1, 2)), x: dx}
    with pytest.raises(IllFormedDifferentialError) as ei:
        build_dgl((a, b, x), d, trunc)
    assert ei.value.gen.name == "x"


def test_ill_formed_differential_witness():
    x = Generator("x", 1)
    y = Generator("y", 0)
    trunc = T(3)
    ex, ey = LieElement.gen(x, trunc), LieElement.gen(y, trunc)
    # d x = [y, y]? wrong degrees; use dx = [y,y] has degree -? |y|=0 ->
    # [y,y] = 0. Use dx = y with dy = y-ish loop instead:
    d = {x: ey, y: bracket(ey, ey)}  # dy must have degree -1; [y,y]=0 though
    # make a genuinely broken one: dx = y, dy = [x, ?]; simplest: two gens
    u = Generator("u", 2)
    v = Generator("v", 1)
    w = Generator("w", 0)
    eu, ev, ew = (LieElement.gen(g, trunc) for g in (u, v, w))
    bad = {u: ev, v: ew}
    with pytest.raises(IllFormedDifferentialError) as ei:
        build_dgl((u, v, w), bad, trunc)
    assert ei.value.gen.name == "u"
    assert ei.value.residue.min_length() == 1


# -- check_mc ----------------------------------------------------------------

def test_mc_zero_true():
    L = circle_model(T(4))
    ok, res = check_mc(L, L.zero())
    assert ok and res.is_zero()


def test_mc_b_in_circle():
    L = circle_model(T(5))
    ok, _ = check_mc(L, L.gen("b"))
    assert ok


def test_mc_generators_of_interval():
    L = interval_model(T(6))
    assert check_mc(L, L.gen("a"))[0]
    assert check_mc(L, L.gen("b"))[0]


def test_mc_wrong_degree_raises():
    L = circle_model(T(4))
    from cdgl.freelie import DegreeError
    with pytest.raises(DegreeError):
        check_mc(L, L.gen("x"))


def test_mc_failure_returns_residue():
    L = mc_point_model(T(4))
    ok, res = check_mc(L, L.gen("a").scale(2))
    assert not ok and not res.is_zero()


# -- perturbation and components ----------------------------------------------

def test_perturb_at_zero_is_identity():
    L = circle_model(T(4))
    La = perturbed(L, L.zero())
    for g in L.gens:
        assert La.d_on_gens[g] == L.d_on_gens[g]


def test_perturb_circle_at_b_kills_dx():
    L = circle_model(T(5))
    Lb = perturbed(L, L.gen("b"))
    assert Lb.d(L.gen("x")).is_zero()


def test_circle_component_h0_dimension_one():
    L = circle_model(T(6))
    C = component_complex(L, L.gen("b"), degrees=range(0, 3))
    assert homology_at(C, 0).dimension == 1


def test_perturbation_mc_bijection_randomized():
    # z MC in L iff z - a MC in (L, d_a); gauge transports of MC stay MC
    rng = random.Random(31)
    L = circle_model(T(5))
    b = L.gen("b")
    Lb = perturbed(L, b)
    for _ in range(20):
        x = rand_deg0(rng, L)
        z = l_gauge_act(x, MCElement(L, b)).value  # MC in L
        ok, _ = check_mc(Lb, z - b)
        assert ok
        w = l_gauge_act(x, MCElement(Lb, L.zero())).value  # MC in (L, d_b)
        ok2, _ = check_mc(L, w + b)
        assert ok2


# -- BCH ----------------------------------------------------------------------

def test_bch_with_zero():
    L = wedge_model((1, 1), T(4))
    x = L.gen("x")
    assert l_bch(L, x, L.zero()) == x
    assert l_bch(L, L.zero(), x) == x


def test_bch_collinear_divisibility():
    rng = random.Random(33)
    L = wedge_model((1, 1), T(5))
    for _ in range(10):
        a = rand_deg0(rng, L)
        mu = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        nu = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert l_bch(L, a.scale(mu), a.scale(nu)) == a.scale(mu + nu)


def test_bch_low_order_formula():
    L = wedge_model((1, 1), T(2))
    u, v = L.gen("x"), L.gen("y")
    assert l_bch(L, u, v) == u + v + bracket(u, v).scale(Fraction(1, 2))


def test_bch_against_independent_oracle_cap6():
    rng = random.Random(34)
    L = wedge_model((1, 1), T(6))

    def to_words(e):
        return {tuple((g.name, g.degree) for g in w): c for w, c in e.terms.items()}

    for _ in range(6):
        x = rand_deg0(rng, L, n_terms=2)
        y = rand_deg0(rng, L, n_terms=2)
        got = l_bch(L, x, y)
        want = w_bch(to_words(x), to_words(y), 6)
        assert to_words(got) == want


def test_bch_associative_at_truncation():
    rng = random.Random(35)
    L = wedge_model((1, 1), T(4))
    for _ in range(10):
        x, y, z = (rand_deg0(rng, L, n_terms=2) for _ in range(3))
        assert l_bch(L, l_bch(L, x, y), z) == l_bch(L, x, l_bch(L, y, z))


@pytest.mark.parametrize("spheres, cap", [
    pytest.param(spheres, cap, id="wedge(%s)-cap%d" % (",".join(map(str, spheres)), cap))
    for spheres in ((1, 1), (1, 1, 1)) for cap in range(2, 7)]
    + [pytest.param(None, 4, id="W")])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_table_bch_matches_word_oracle(spheres, cap, data):
    # dgl.bch on L's bracket table against log(exp x exp y) on tensor words,
    # both orders, on L_0 of a wedge of circles or of W (two_intervals.cdgl,
    # cap 4), each argument holding a basis element of length >= 2
    L = _two_intervals() if spheres is None else wedge_model(spheres, T(cap))
    basis = L.basis(0)
    first = min(k for k, e in enumerate(basis) if e.min_length() > 1)

    def coords():
        u = data.draw(st.dictionaries(st.integers(0, len(basis) - 1),
                                      _frac6.filter(bool), max_size=3))
        u[data.draw(st.integers(first, len(basis) - 1))] = data.draw(_frac6.filter(bool))
        return u

    u, v = coords(), coords()
    x, y = L.from_coords(_vec(u), 0), L.from_coords(_vec(v), 0)
    uv, vu = bch(L.bch_law(), u, v)
    assert L.from_coords(uv, 0).terms == w_bch(x.terms, y.terms, cap)
    assert L.from_coords(vu, 0).terms == w_bch(y.terms, x.terms, cap)
    assert_exact(list(uv.entries.values()) + list(vu.entries.values()))


# -- exp/log -------------------------------------------------------------------

def test_exp_zero_is_identity():
    L = wedge_model((1, 1), T(4))
    phi = exp_derivation_values(L, {g: L.zero() for g in L.gens})
    assert phi == DGLMorphism.identity(L)


def test_log_of_shear_automorphism():
    # on (L(x,y), 0) with |x| = |y|: log of phi(x) = x+y, phi(y) = y is
    # theta(x) = y, theta(y) = 0, and exp(theta) = phi
    L = wedge_model((3, 3), T(4))
    x, y = L.gen("x"), L.gen("y")
    phi = DGLMorphism(L, L, {L.generator("x"): x + y, L.generator("y"): y}).validate()
    vals = log_morphism(phi)
    assert vals[L.generator("x")] == y
    assert vals[L.generator("y")].is_zero()
    back = exp_derivation_values(L, vals)
    assert back == phi


def test_exp_log_roundtrip_exp_ad_cap4():
    L = wedge_model((1, 1), T(4))
    u = L.gen("x")
    phi = exp_ad(L, u)
    vals = log_morphism(phi)
    back = exp_derivation_values(L, vals, check_cycle=False)
    assert back == phi


def test_exp_divergence_error():
    L = sphere_model(3, T(3))
    x = L.gen("x")
    with pytest.raises(DivergenceError):
        exp_derivation_values(L, {L.generator("x"): x}, check_cycle=False)


def test_log_divergence_error():
    # d = 0, so 2 id is a morphism; phi - id = id is not nilpotent
    L = wedge_model((1, 1), T(3))
    phi = DGLMorphism(L, L, {g: L.gen(g).scale(2) for g in L.gens}).validate()
    with pytest.raises(DivergenceError, match="log of non-unipotent automorphism"):
        log_morphism(phi)


_small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def _nilpotent_values(draw, L):
    """Degree-0 derivation values on a wedge of circles: generator i goes to
    multiples of the later generators plus basis brackets of length >= 2.
    Such a derivation raises (bracket length, generator position), so it is
    nilpotent."""
    gens = L.gens
    longer = [e for n in range(2, L.trunc.max_bracket_length + 1)
              for e in lie_basis(gens, 0, n, L.trunc)]
    values = {}
    for i, g in enumerate(gens):
        v = L.zero()
        for h in gens[i + 1:]:
            v = v + L.gen(h).scale(draw(_small))
        for e in draw(st.lists(st.sampled_from(longer), max_size=3)):
            v = v + e.scale(draw(_small))
        values[g] = v
    return values


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(((1, 1), (1, 1, 1))), st.integers(2, 4), st.data())
def test_exp_log_roundtrips_on_nilpotent_derivations(dims, cap, data):
    L = wedge_model(dims, T(cap))
    theta = data.draw(_nilpotent_values(L))
    phi = exp_derivation_values(L, theta, check_cycle=False)
    assert log_morphism(phi) == theta
    # id + theta is unipotent, and a morphism because d = 0
    psi = DGLMorphism(L, L, {g: L.gen(g) + v for g, v in theta.items()}).validate()
    assert exp_derivation_values(L, log_morphism(psi)) == psi


def test_exp_is_group_morphism_via_bch():
    rng = random.Random(36)
    L = wedge_model((1, 1), T(4))
    for _ in range(8):
        y = rand_deg0(rng, L, 2)
        z = rand_deg0(rng, L, 2)
        lhs = exp_ad(L, l_bch(L, y, z))
        rhs = exp_ad(L, y).compose(exp_ad(L, z))
        assert lhs == rhs


# -- gauge ---------------------------------------------------------------------

def test_gauge_identity_law():
    L = circle_model(T(5))
    a = MCElement(L, L.gen("b"))
    assert l_gauge_act(L.zero(), a).value == a.value


def test_gauge_abelian_case():
    # in an abelian dgl x gauge a = a - dx
    u = Generator("u", 0)
    r = Generator("r", -1)
    trunc = T(1)  # length-1 truncation forces abelian
    eu = LieElement.gen(u, trunc)
    L = build_dgl((u, r), {u: LieElement.gen(r, trunc)}, trunc)
    a = MCElement(L, L.zero())
    res = l_gauge_act(L.gen("u"), a)
    assert res.value == -L.d(L.gen("u"))


def test_gauge_composition_law_randomized():
    rng = random.Random(37)
    L = circle_model(T(5))
    b = MCElement(L, L.gen("b"))
    for _ in range(12):
        x = rand_deg0(rng, L, 2)
        y = rand_deg0(rng, L, 2)
        lhs = l_gauge_act(l_bch(L, x, y), b)
        rhs = l_gauge_act(x, l_gauge_act(y, b))
        assert lhs.value == rhs.value


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 8), st.sampled_from("ab"), _small, _small)
def test_gauge_composition_law_on_interval(cap, mc, s, t):
    # L_0 of the interval is spanned by x, so both series of gauge_act run:
    # ad_x^i(a) and ad_x^i(dx); with the unit and the orbit laws
    L = interval_model(T(cap))
    a = MCElement(L, L.gen(mc))
    x, y = L.gen("x").scale(s), L.gen("x").scale(t)
    assert l_gauge_act(L.zero(), a).value == a.value
    assert l_gauge_act(l_bch(L, x, y), a).value == l_gauge_act(x, l_gauge_act(y, a)).value
    res = l_gauge_equivalent(a, l_gauge_act(x, a))
    assert res.equivalent and l_gauge_act(res.witness, a).value == l_gauge_act(x, a).value


_frac6 = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _gauge_case(draw):
    """(x, MC element) in a validated presentation: m of degree -1 with
    dm = -[m,m]/2, generators of degrees -1..2 with a linear differential
    d g = q h (dh = 0) and coefficients with denominators up to 6, and
    optionally the presentation perturbed at m."""
    trunc = T(draw(st.integers(2, 4)))
    m = Generator("m", -1)
    degs = draw(st.lists(st.sampled_from((-1, 0, 1, 2)), min_size=1, max_size=3))
    gens = (m,) + tuple(Generator("g%d" % i, n) for i, n in enumerate(degs))
    em = LieElement.gen(m, trunc)
    d, sinks = {m: bracket(em, em).scale(Fraction(-1, 2))}, set()
    for i, g in enumerate(gens[1:], 1):
        targets = [h for h in gens[i + 1:] if h.degree == g.degree - 1]
        if g in sinks or not targets or not draw(st.booleans()):
            continue
        h = draw(st.sampled_from(targets))
        sinks.add(h)
        d[g] = LieElement.gen(h, trunc).scale(draw(_frac6.filter(bool)))
    L = build_dgl(gens, d, trunc, mc_gens=(m,))
    if draw(st.booleans()):
        L, mcs = perturbed(L, L.gen(m)), (L.zero(), -L.gen(m))
    else:
        mcs = (L.zero(), L.gen(m))
    x = L.zero()
    for e in L.basis(0):
        x = x + e.scale(draw(_frac6))
    return x, MCElement(L, draw(st.sampled_from(mcs)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_gauge_case())
def test_gauge_act_matches_fraction_series(case):
    x, a = case
    got = l_gauge_act(x, a).value
    assert got.terms == fraction_gauge_series(x, a).terms
    assert_exact(got.terms.values())


@pytest.mark.parametrize("model, mcs", [(interval_model, ("a", "b")),
                                        (circle_model, ("b",)), (None, ("a", "b", "c"))],
                         ids=["L1", "S1", "W"])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_coordinate_gauge_matches_fraction_series(model, mcs, data):
    # dgl.gauge_act on L's coordinates against the Fraction series on tensor
    # words, for x anywhere in L_0 and a an MC generator or 0; W is
    # two_intervals.cdgl at its cap 4
    L = _two_intervals() if model is None else model(T(data.draw(st.integers(2, 7))))
    n = len(L.basis(0))
    u = data.draw(st.dictionaries(st.integers(0, n - 1), _frac6.filter(bool),
                                  max_size=3))
    name = data.draw(st.sampled_from(mcs + ("0",)))
    a = MCElement(L, L.zero() if name == "0" else L.gen(name))
    got = gauge_act(u, a)
    assert L.from_coords(got, -1).terms == fraction_gauge_series(
        L.from_coords(_vec(u), 0), a).terms
    assert_exact(got.entries.values())


def test_interval_gauge_transport_mirrored_and_paper():
    L = interval_model(T(8))
    a = MCElement(L, L.gen("a"))
    b = MCElement(L, L.gen("b"))
    x = L.gen("x")
    assert l_gauge_act(x, a).value == b.value        # builtin orientation
    # the printed orientation dx = ad_x b + sum B_n/n! ad_x^n (b - a) is the
    # same interval with the endpoints swapped: there, x transports b to a
    trunc = T(6)
    from cdgl.models import bernoulli
    ga, gb, gx = Generator("a", -1), Generator("b", -1), Generator("x", 0)
    ea, eb, ex = (LieElement.gen(g, trunc) for g in (ga, gb, gx))
    dx = bracket(ex, eb)
    term = eb - ea
    fact = Fraction(1)
    n = 0
    while not term.is_zero():
        dx = dx + term.scale(bernoulli(n) / fact)
        n += 1
        fact *= n
        term = bracket(ex, term)
    P = build_dgl((ga, gb, gx), {ga: bracket(ea, ea).scale(Fraction(-1, 2)),
                                 gb: bracket(eb, eb).scale(Fraction(-1, 2)),
                                 gx: dx}, trunc, mc_gens=(ga, gb))
    assert l_gauge_act(P.gen("x"), MCElement(P, P.gen("b"))).value == P.gen("a")


def test_gauge_equivalent_reflexive():
    L = circle_model(T(5))
    b = MCElement(L, L.gen("b"))
    res = l_gauge_equivalent(b, b)
    assert res.equivalent and res.witness.is_zero()


def test_gauge_equivalent_interval():
    L = interval_model(T(6))
    a = MCElement(L, L.gen("a"))
    b = MCElement(L, L.gen("b"))
    res = l_gauge_equivalent(a, b)
    assert res.equivalent
    assert l_gauge_act(res.witness, a).value == b.value


def test_gauge_equivalent_negative_circle():
    # in the circle model, b and 0 are NOT gauge equivalent (the length-1
    # obstruction b cannot be produced: d has no linear part)
    L = circle_model(T(5))
    b = MCElement(L, L.gen("b"))
    zero = MCElement(L, L.zero())
    res = l_gauge_equivalent(zero, b)
    assert not res.equivalent
    assert res.failed_stage == 1


def test_gauge_perturbation_equivariance():
    # x gauge_{d_a}(z - a) = (x gauge_d z) - a with the SAME x: the exact
    # identity behind both the staging algorithm and the MC bijection
    rng = random.Random(41)
    L = interval_model(T(5))
    a = L.gen("a")
    La = perturbed(L, a)
    for _ in range(8):
        x = rand_deg0(rng, L, 2)
        z = l_gauge_act(x, MCElement(L, L.gen("b"))).value
        lhs = l_gauge_act(x, MCElement(La, z - a)).value
        rhs = l_gauge_act(x, MCElement(L, z)).value - a
        assert lhs == rhs


def test_gauge_equivalent_randomized_orbit():
    rng = random.Random(38)
    L = interval_model(T(5))
    a = MCElement(L, L.gen("a"))
    for _ in range(6):
        x = rand_deg0(rng, L, 2)
        target = l_gauge_act(x, a)
        res = l_gauge_equivalent(a, target)
        assert res.equivalent
        assert l_gauge_act(res.witness, a).value == target.value



def _two_intervals():
    """Model W of tests/data/two_intervals.cdgl: intervals from a to b and
    from a to c, so L_0 = span{x, y} and a stage solves for many columns,
    some of them free."""
    path = os.path.join(os.path.dirname(__file__), "data", "two_intervals.cdgl")
    with open(path, encoding="utf-8") as fh:
        ws, _ = workspace_from_text(fh.read())
    return ws.models["W"].presentation


_ACTORS = {"x + y": lambda x, y: x + y,
           "[x, y]": bracket,
           "3x - y": lambda x, y: x.scale(3) - y}


@pytest.mark.parametrize("source, target, witness", [
    ("b", "c", "-1 * x + y + 1/2 * [x,y] + 1/12 * [x,[x,y]] + 1/12 * [y,[x,y]] "
               "+ 1/24 * [x,[y,[x,y]]]"),
    ("a", "c", "y"),
    ("a", "x + y", "x + y"),
    ("b", "x + y", "y + 1/2 * [x,y] + 1/6 * [x,[x,y]] + 1/12 * [y,[x,y]] "
                   "+ 1/24 * [x,[x,[x,y]]] + 1/24 * [x,[y,[x,y]]]"),
    ("a", "[x, y]", "[x,y]"),
    ("b", "[x, y]", "-1 * x + [x,y] + 1/2 * [x,[x,y]] + 1/12 * [x,[x,[x,y]]]"),
    ("a", "3x - y", "3 * x + -1 * y"),
    ("b", "3x - y", "2 * x + -1 * y + -1/2 * [x,y] + -1/3 * [x,[x,y]] "
                    "+ 1/12 * [y,[x,y]] + -1/8 * [x,[x,[x,y]]] + 1/24 * [x,[y,[x,y]]]"),
])
def test_gauge_equivalent_with_free_columns(source, target, witness):
    # the target is an MC generator or l_gauge_act(z, a) for the named z; the
    # witnesses are the free-variables-zero stage solutions, pinned
    L = _two_intervals()
    a = MCElement(L, L.gen(source))
    if target in _ACTORS:
        z = _ACTORS[target](L.gen("x"), L.gen("y"))
        t = l_gauge_act(z, MCElement(L, L.gen("a")))
    else:
        t = MCElement(L, L.gen(target))
    res = gauge_equivalent(a, t)
    assert res.equivalent and pretty_element(L, res.witness, 0) == witness
    assert l_gauge_act(L.from_coords(res.witness, 0), a).value == t.value
    # d_t^2 = 0 holds, as gauge_equivalent assumes of d + ad_t
    perturbed(L, t).validate()


def test_gauge_equivalent_builds_the_bch_series_once(monkeypatch):
    # every stage's witness is a BCH product under one law of L_0, whose
    # series is built on the first product that needs it
    built, products = [], []
    series, product = cdgl.dgl.bch_series, cdgl.dgl.bch
    monkeypatch.setattr(cdgl.dgl, "bch_series", lambda c: built.append(c) or series(c))
    monkeypatch.setattr(cdgl.dgl, "bch", lambda *args: products.append(1) or product(*args))
    L = _two_intervals()
    res = gauge_equivalent(MCElement(L, L.gen("b")), MCElement(L, L.gen("c")))
    assert res.equivalent and len(products) > 2
    assert built == [L.trunc.max_bracket_length]


# -- H0 group -------------------------------------------------------------------

def test_h0_single_generator_abelian():
    L = wedge_model((1,), T(3))
    G = h0_group(L)
    assert G.dimension == 1 and G.abelian and G.nilpotency_class == 1


def test_h0_wedge_two_circles_cap2():
    L = wedge_model((1, 1), T(2))
    G = h0_group(L)
    assert G.dimension == 3
    assert not G.abelian
    assert G.nilpotency_class == 2


@pytest.mark.parametrize("cap,dim", [(1, 2), (2, 3), (3, 5), (4, 8), (5, 14)])
def test_h0_wedge_two_circles_lower_central_series(cap, dim):
    # H0 is the free Lie algebra on two letters cut at length cap: Witt
    # dimensions 2, 1, 2, 3, 6 summed, nilpotent of class exactly cap
    G = h0_group(wedge_model((1, 1), T(cap)))
    assert G.dimension == dim
    assert G.nilpotency_class == cap
    assert G.abelian == (cap == 1)


@pytest.mark.parametrize("make", [
    *[lambda cap=cap: wedge_model((1, 1), T(cap)) for cap in range(2, 6)],
    lambda: wedge_model((1, 1, 1), T(4)), lambda: interval_model(T(5))],
    ids=["wedge11-cap%d" % cap for cap in range(2, 6)] + ["wedge111-cap4", "L1"])
def test_h0_class_and_abelian_on_read_match_the_eager_table(make):
    # abelian reads the brackets pair by pair and builds no table, the class
    # builds the table when it is read, and abelian then reads the table;
    # all agree with the class of the eagerly taken table
    L = make()
    G = h0_group(L)
    assert not {"table", "nilpotency_class"} & set(vars(G))
    eager = dense_nilpotency_class(eager_h0_table(*l_h0_elements(L, G), bracket))
    abelian = G.abelian
    assert not {"table", "nilpotency_class"} & set(vars(G))
    assert abelian == (eager <= 1)
    assert G.nilpotency_class == eager
    assert "table" in vars(G) and G.abelian == abelian


def test_h0_group_builds_no_representative(monkeypatch):
    # the group brackets the cycles' coordinates through L's bracket table:
    # its dimension, table, class and law build no element of L, and an
    # unbuilt abelian stops at the first nonzero bracket [h_0, h_1]
    L = wedge_model((1, 1), T(5))
    calls = []
    product = L.brackets.product

    def counting(m, u, m2, v):
        calls.append((m, m2))
        return product(m, u, m2, v)

    monkeypatch.setattr(L, "from_coords", None)
    monkeypatch.setattr(L.brackets, "product", counting)
    G = h0_group(L)
    assert G.dimension == 14 and not calls
    assert G.abelian is False and calls == [(0, 0)]
    assert G.nilpotency_class == 5 and len(G.structure) == 14 ** 2
    assert len(calls) == 1 + 14 * 13 // 2    # abelian, then each pair i < j


def _boundary_model(cap):
    # d s = [u, v]: the degree-0 boundaries are the ideal generated by [u, v]
    u, v, w = (Generator(n, 0) for n in "uvw")
    s = Generator("s", 1)
    trunc = T(cap)
    return build_dgl((u, v, w, s), {s: bracket(LieElement.gen(u, trunc),
                                               LieElement.gen(v, trunc))}, trunc)


def _oracle_class(reps, boundaries, e):
    """Rep part of any solution of e = sum a_k rep_k + sum b_j bnd_j, solved
    densely over tensor words."""
    cols = list(reps) + boundaries
    words = sorted({w for c in cols + [e] for w in c.terms},
                   key=lambda w: (len(w), [g.name for g in w]))
    A = [[c.terms.get(w, Fraction(0)) for c in cols] for w in words]
    x = dense_solve(A, [e.terms.get(w, Fraction(0)) for w in words])
    assert x is not None
    return {k: x[k] for k in range(len(reps)) if x[k]}


@pytest.mark.parametrize("model,cap", [("wedge", 2), ("wedge", 3), ("wedge", 4),
                                       ("wedge", 5), ("boundary", 4)])
def test_h0_class_of_matches_dense_oracle(model, cap):
    rng = random.Random(cap)
    L = wedge_model((1, 1), T(cap)) if model == "wedge" else _boundary_model(cap)
    G = h0_group(L)
    reps, class_of = l_h0_elements(L, G)
    boundaries = [L.d(e) for e in L.basis(1) if not L.d(e).is_zero()]
    assert G.dimension
    assert bool(boundaries) == (model == "boundary")
    for _ in range(6):
        coeffs = {k: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for k in range(G.dimension)}
        e = L.zero()
        for k, c in coeffs.items():
            e = e + reps[k].scale(c)
        for bnd in boundaries:
            e = e + bnd.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        got = class_of(e)
        assert got.entries == _oracle_class(reps, boundaries, e)
        assert got.entries == {k: c for k, c in coeffs.items() if c}


@pytest.mark.parametrize("model", ["wedge", "boundary"])
@pytest.mark.parametrize("cap", [2, 3, 4, 5])
def test_h0_table_law_matches_tensor_bch(model, cap):
    # the law read off the bracket table, cut at the nilpotency class, gives
    # the class of the tensor-algebra BCH product of the representatives
    L = wedge_model((1, 1), T(cap)) if model == "wedge" else _boundary_model(cap)
    G = h0_group(L)
    reps, class_of = l_h0_elements(L, G)
    n = G.dimension
    assert sorted(G.structure) == [(i, j) for i in range(n) for j in range(n)]
    for (i, j), prod in G.structure.items():
        assert prod == class_of(tensor_bch(reps[i], reps[j]))
    # every degree-0 element of these models is a cycle
    rng = random.Random(cap)
    for _ in range(3):
        a, b = rand_deg0(rng, L, 3), rand_deg0(rng, L, 3)
        assert h0_mul(G, class_of(a), class_of(b)) == class_of(tensor_bch(a, b))


def test_h0_class_of_outside_span_raises():
    # x is not a cycle of the unperturbed circle model, whose H0 is 0
    L = circle_model(T(4))
    _, class_of = l_h0_elements(L, h0_group(L))
    with pytest.raises(NotInSpanError):
        class_of(L.gen("x"))


def _unit_classes(reports, product):
    """A ClassTable on degree -> (columns, representatives, quotient)."""
    return ClassTable({n: HomologyReport(n, len(r), r, q, cols)
                       for n, (cols, r, q) in reports.items()}, product)


def test_nilpotency_skips_degrees_outside_modulo():
    # two degree-1 classes e0, e1 with [e0, e1] = [e1, e0] = f in degree 2
    # and every other bracket zero; each unordered pair landing on a class
    # of the window is taken once, the odd squares included, and no other
    calls = []

    def br(m, u, m2, v):
        calls.append(1)
        c = u.get(0, 0) * v.get(1, 0) + u.get(1, 0) * v.get(0, 0)
        return {0: c} if c else {}

    e, f = [SparseVec.unit(0), SparseVec.unit(1)], SparseVec.unit(0)
    classes = _unit_classes({1: (2, e, []), 2: (1, [f], [])}, br)
    assert nilpotency(classes) == 2
    # (e0, e0), (e0, e1), (e1, e1); none with f, whose brackets land in
    # degrees 3 and 4; the table holds [e1, e0] = +[e0, e1], both odd
    assert len(calls) == 3
    assert classes.table == (1, [{1: {2: 1}}, {0: {2: 1}}, {}])
    calls.clear()
    assert nilpotency(_unit_classes({1: (2, e, [])}, br)) == 1
    assert calls == []
    # f in the quotient: degree 2 holds no class, and its brackets are zero
    assert nilpotency(_unit_classes({1: (2, e, []), 2: (1, [], [f])}, br)) == 1
    assert calls == []


def test_nilpotency_of_a_table_that_does_not_descend_is_internal_error():
    # a broken bracket ([a, b] = a) on two degree-0 classes gives
    # gamma_2 = gamma_3 = span e0; the table is read as it is, and the
    # series that does not shrink fails loudly
    classes = _unit_classes({0: (2, [SparseVec.unit(0), SparseVec.unit(1)], [])},
                            lambda m, u, m2, v: u)
    with pytest.raises(InternalError, match="does not descend"):
        nilpotency(classes)


def test_h0_non_descending_series_is_internal_error(monkeypatch):
    # a broken bracket ([a, b] = a) makes [H, H] = H; the nilpotency loop must
    # fail loudly, when the class is read, instead of returning a class
    monkeypatch.setattr(cdgl.dgl.BracketTable, "product", lambda self, m, u, m2, v: u)
    with pytest.raises(InternalError, match="internal error"):
        h0_group(wedge_model((1, 1), T(2))).nilpotency_class


def test_h0_divisibility_law():
    rng = random.Random(39)
    L = wedge_model((1, 1), T(5))
    _, class_of = l_h0_elements(L, h0_group(L))
    for _ in range(8):
        a = rand_deg0(rng, L, 2)
        mu = Fraction(rng.randint(-2, 3), rng.randint(1, 2))
        nu = Fraction(rng.randint(-2, 3), rng.randint(1, 2))
        lhs = class_of(l_bch(L, a.scale(mu), a.scale(nu)))
        rhs = class_of(a.scale(mu + nu))
        assert lhs == rhs


def test_h0_circle_component_is_line():
    # H0 of the unperturbed circle model is 0 (dx = [x,b] is not a cycle);
    # the component at b carries the rational fundamental group
    L = circle_model(T(4))
    assert h0_group(L).dimension == 0
    G = h0_group(perturbed(L, L.gen("b")))
    assert G.dimension == 1 and G.abelian


def test_h0_structure_constants_representative_independent():
    # replacing a representative by representative + boundary leaves the
    # structure constants unchanged
    u = Generator("u", 0)
    v = Generator("v", 0)
    s = Generator("s", 1)
    trunc = T(3)
    ev = LieElement.gen(v, trunc)
    L2 = build_dgl((u, v, s), {s: ev}, trunc)
    G2 = h0_group(L2)
    _, class_of = l_h0_elements(L2, G2)
    assert G2.dimension == 1  # v is a boundary, u survives
    x = L2.gen("u")
    shifted = x + L2.d(L2.gen("s")).scale(Fraction(5, 3))
    for other in (L2.gen("u"), l_bch(L2, x, x)):
        assert class_of(l_bch(L2, x, other)) == class_of(l_bch(L2, shifted, other))


def test_h0_identity_and_inverse():
    L = wedge_model((1, 1), T(3))
    G = h0_group(L)
    _, class_of = l_h0_elements(L, G)
    u = class_of(L.gen("x"))
    zero = class_of(L.zero())
    assert h0_mul(G, u, u.scale(-1)) == zero
    assert h0_mul(G, zero, u) == u


# -- action on morphisms ----------------------------------------------------------

def test_act_zero_fixes_morphism():
    L = wedge_model((1, 1), T(4))
    S = sphere_model(1, T(4))
    phi = DGLMorphism(S, L, {S.generator("x"): L.gen("y")}).validate()
    assert act_on_morphism(L.zero(), phi) == phi


def test_act_exp_ad_example():
    L = wedge_model((1, 1), T(4))
    S = sphere_model(1, T(4))
    phi = DGLMorphism(S, L, {S.generator("x"): L.gen("y")}).validate()
    acted = act_on_morphism(L.gen("x"), phi)
    expected = exp_ad(L, L.gen("x")).apply(L.gen("y"))
    assert acted.images[S.generator("x")] == expected


def test_action_compatible_with_bch():
    rng = random.Random(40)
    L = wedge_model((1, 1), T(4))
    S = sphere_model(1, T(4))
    phi = DGLMorphism(S, L, {S.generator("x"): L.gen("y")}).validate()
    for _ in range(6):
        y = rand_deg0(rng, L, 2)
        z = rand_deg0(rng, L, 2)
        lhs = act_on_morphism(l_bch(L, y, z), phi)
        rhs = act_on_morphism(y, act_on_morphism(z, phi))
        assert lhs == rhs


# -- apply_operator against the per-position reference ------------------------------

_GENS = (Generator("a", 0), Generator("b", 1), Generator("c", -1), Generator("e", 2))
_word = st.lists(st.sampled_from(_GENS), min_size=1, max_size=4).map(tuple)
_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
_terms = st.dictionaries(_word, _coeff, max_size=3)


def _names(terms):
    return {tuple((g.name, g.degree) for g in w): c for w, c in terms.items()}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 5), st.sampled_from((None, 0, 1, 2)), st.integers(-1, 2),
       _terms, st.dictionaries(st.sampled_from(_GENS), _terms, min_size=1))
# under degree cap 1 the words e.c and a.e.c are admitted, but their partial
# products e and a.e are not: the terms at c and at a are dropped
@example(3, 1, 0, {(_GENS[3], _GENS[2]): Fraction(1)},
         {_GENS[2]: {(_GENS[2],): Fraction(1)}})
@example(3, 1, 0, {(_GENS[0], _GENS[3], _GENS[2]): Fraction(1)},
         {_GENS[0]: {(_GENS[0],): Fraction(1)}})
def test_apply_operator_agrees_with_per_position_oracle(cap, max_degree, op_degree,
                                                        terms, values):
    trunc = Truncation(cap, max_degree)

    def admits(w):
        return len(w) <= cap and (max_degree is None or sum(d for _, d in w) <= max_degree)

    e = LieElement(terms, trunc)
    vals = {g: LieElement(t, trunc) for g, t in values.items()}
    got = apply_operator(vals, op_degree, e)
    want = w_apply_operator({(g.name, g.degree): _names(v.terms) for g, v in vals.items()},
                            op_degree, _names(e.terms), admits)
    assert _names(got.terms) == want


def test_bch_series_hands_out_exact_scalars():
    # c_w / len(w) from the word oracle's log(e^X e^Y), in normal form
    X, Y = ("X", 0), ("Y", 0)
    for c in range(1, 7):
        series = bch_series(c)
        want = w_bch({(X,): Fraction(1)}, {(Y,): Fraction(1)}, c)
        assert series == {tuple(int(g == Y) for g in w): v / len(w)
                          for w, v in want.items()}
        assert_exact(series.values())


def test_generator_filtration_is_a_read_only_value():
    x, y = Generator("x", 1), Generator("y", 2)
    f = GeneratorFiltration.from_chain([{x, y}, {y}])
    g = GeneratorFiltration((frozenset({x, y}), frozenset({y}), frozenset()))
    assert f == g and hash(f) == hash(g) and f is not g
    assert f != GeneratorFiltration.from_chain([{x, y}, {x}])
    assert f != GeneratorFiltration.from_chain([{x, y}])
    assert len({f, g}) == 1
    assert (f.level_of(x), f.level_of(y)) == (0, 1)
    with pytest.raises(AttributeError):
        f.levels = ()
    with pytest.raises(AttributeError):
        del f.levels
    with pytest.raises(ValueError, match="strictly descend"):
        GeneratorFiltration((frozenset({x}), frozenset({x}), frozenset()))


# -- the bracket table ---------------------------------------------------------

AD_MODELS = {
    "wedge223-cap5": lambda: wedge_model((2, 2, 3), T(5)),
    "wedge11-cap5": lambda: wedge_model((1, 1), T(5)),
    "sphere2-cap4": lambda: sphere_model(2, T(4)),    # odd generator, [x, x] != 0
    "L1-cap4": lambda: interval_model(T(4)),
    "wedge23-degree-cap": lambda: wedge_model((2, 3), Truncation(5, max_degree=9)),
}


def _ad_columns(L, g, m):
    """The columns of ad_g = [g, -] on basis(m): the row of the generator g
    in L's bracket table."""
    row = (g.degree, [e.label for e in L.basis(g.degree)].index(g.name))
    return [L.brackets[row, (m, j)] for j in range(len(L.basis(m)))]


@pytest.mark.parametrize("make", AD_MODELS.values(), ids=AD_MODELS.keys())
def test_ad_columns_are_the_coordinates_of_the_brackets(make):
    L = make()
    lo, hi = L.degree_bounds()
    seen = 0
    for g in L.gens:
        for m in range(lo, hi + 1):
            cols = _ad_columns(L, g, m)
            for e, col in zip(L.basis(m), cols):
                assert col == L.coords(bracket(L.gen(g), e), m + g.degree), (g, e.label)
                seen += bool(col.entries)
            # built once: a second read hands out the same columns
            assert all(a is b for a, b in zip(_ad_columns(L, g, m), cols))
    assert seen


def test_ad_columns_build_a_bracket_only_for_a_refused_candidate(monkeypatch):
    # a column at a pick named [g,label(e)] is a unit column, and a column
    # of a basis element at the cap's length is zero: neither builds [g, e];
    # the table is kept on L, so a second read builds no bracket at all
    L = wedge_model((2, 2), T(6))
    calls = []
    monkeypatch.setattr(cdgl.dgl, "bracket", lambda a, b: calls.append(b) or bracket(a, b))
    units = capped = refused = 0
    for g in L.gens:
        for m in range(2, 13):
            picks = [e.label for e in L.basis(m + g.degree)]
            for e, col in zip(L.basis(m), _ad_columns(L, g, m)):
                label = "[%s,%s]" % (g.name, e.label)
                if label in picks:
                    units += 1
                    assert col == SparseVec.unit(picks.index(label))
                elif len(next(iter(e.terms))) == 6 or not picks:
                    capped += 1
                    assert not col.entries
                else:
                    refused += 1
    assert units and capped and refused
    assert len(calls) == refused
    table = dict(L.brackets)
    for g in L.gens:
        for m in range(2, 13):
            _ad_columns(L, g, m)
    assert len(calls) == refused and L.brackets == table


@st.composite
def _free_presentations(draw):
    """A presentation with d = 0 on one to three generators of degrees 0
    to 3, odd and even, under a bracket-length cap and maybe a degree cap."""
    degrees = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    gens = [Generator("g%d" % i, d) for i, d in enumerate(degrees)]
    trunc = Truncation(draw(st.integers(2, 3)), draw(st.one_of(st.none(), st.integers(2, 5))))
    return DGLPresentation(gens, {}, trunc)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_free_presentations(), st.randoms(use_true_random=False))
def test_bracket_table_is_the_bracket_in_coordinates(L, rng):
    # every entry T[(m, i), (m2, j)] is coords([e_i, e_j]), filled on read
    # and kept on L; product is the bracket of two coordinate vectors
    lo, hi = L.degree_bounds()
    keys = [(m, i) for m in range(lo, hi + 1) for i in range(len(L.basis(m)))]
    T = L.brackets
    for a in keys:
        for b in keys:
            x, y = L.basis(a[0])[a[1]], L.basis(b[0])[b[1]]
            assert T[a, b] == L.coords(bracket(x, y), a[0] + b[0]), (x, y)
    assert len(T) == len(keys) ** 2 and L.brackets is T
    degrees = sorted({m for m, _ in keys})
    for _ in range(5):
        m, m2 = rng.choice(degrees), rng.choice(degrees)
        u, v = ({i: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for i in range(len(L.basis(k)))} for k in (m, m2))
        u, v = ({i: c for i, c in w.items() if c} for w in (u, v))
        want = L.coords(bracket(L.from_coords(SparseVec(u), m),
                                L.from_coords(SparseVec(v), m2)), m + m2)
        got = T.product(m, u, m2, v)
        assert got == want.entries
        assert_exact(got.values())


def _element_cross_block(dercx, L, images, n):
    # ad_x . phi for each x in L_{n-1}, one bracket and one solve per block
    sp = dercx.space(n - 1)
    return SparseMat.from_columns(len(sp), [
        sp.in_elements(sp.flatten({g: bracket(x, images[g]) for g in sp.source.gens}))
        for x in L.basis(n - 1)])


def _cross_block(tw, n):
    a, a1 = tw.sub.dim(n), tw.sub.dim(n - 1)
    return SparseMat(a1, tw.quotient.dim(n), {
        (r, c - a): v for (r, c), v in tw.total.d(n).entries.items()
        if c >= a and r < a1})


@pytest.mark.parametrize("name", ["id", "zero", "shear", "f"])
def test_twisted_der_sl_cross_block_matches_the_element_path(name):
    # id and zero on wedge_spheres' W3, shear (a generator image and a sum
    # image) and f (S1 -> W, into degree-0 generators)
    path = "wedge_homotopy.cdgl" if name == "f" else "wedge_spheres.cdgl"
    with open(os.path.join(os.path.dirname(__file__), "data", path)) as fh:
        ws, _ = workspace_from_text(fh.read())
    if name in ("id", "zero"):
        L = ws.models["W3"].presentation
        phi = (DGLMorphism.identity(L) if name == "id"
               else DGLMorphism.zero_morphism(L, L))
    else:
        phi = ws.morphisms[name]
    src, L = phi.source, phi.target
    lo, hi = L.degree_bounds()
    window = range(0, max(hi, 3) + 2)
    base = None if name == "id" else phi
    dercx = DerComplex(src, L, base, window)
    tw = twisted_der_sl(dercx, L, window, phi=base)
    blocks = 0
    for n in window:
        want = _element_cross_block(dercx, L, phi.images, n)
        assert _cross_block(tw, n) == want, n
        blocks += bool(want.entries)
    assert blocks or name == "zero"

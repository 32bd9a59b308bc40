import inspect
import os
import random
from fractions import Fraction

import pytest

import cdgl.derivations as derivations
import cdgl.coalgebra as coalgebra
import cdgl.exactlin as exactlin
from cdgl.coalgebra import (ConvolutionDGL, adjunction_alpha, chains_functor,
                            comul_by_left, lie_functor)
from cdgl.derivations import (DerComplex, DerSpace, Derivation, GSpec,
                              InvalidSubgroupError, NotConnectedError,
                              classifying_invariants, der_g_zero, gamma_check,
                              mapping_space_pi, r0_basis, twisted_der_sl)
from cdgl.dgl import (DGLMorphism, DivergenceError, GeneratorFiltration,
                      h0_group)
from cdgl.exactlin import (IncrementalSpan, InternalError, NotInSpanError,
                           SparseVec, homology_at, les_of_ses, twisted_product)
from cdgl.freelie import Truncation, bracket
from cdgl.models import circle_model, interval_model, sphere_model, wedge_model
from cdgl.workbench import workspace_from_text

from oracles import (ConvolutionElements, HomElement, ad_derivation,
                     assert_same_les, bch_der, connected_cover,
                     dense_nilpotency_class, derivation_differential,
                     der_h0_elements, der_sl_bracket, derivation_bracket,
                     eager_h0_table, element_der_complex, generic_les,
                     hom_der_bracket, left_normed, split_maps, twisted_hom_der,
                     unit_derivations, w_classifying,
                     w_convolution_differential, w_derivation_differential,
                     w_gamma_bracket_failures)

DATA = os.path.join(os.path.dirname(__file__), "data")


def read_data(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read()


def T(n):
    return Truncation(n)


def rand_lie(rng, L, degree, n_terms=3):
    out = L.zero()
    cap = L.trunc.max_bracket_length
    for _ in range(n_terms * 3):
        ln = rng.randint(1, cap)
        seq = tuple(rng.choice(L.gens) for _ in range(ln))
        if sum(g.degree for g in seq) != degree:
            continue
        out = out + left_normed(seq, L.trunc).scale(Fraction(rng.randint(-2, 2)))
    return out


# -- der_complex ---------------------------------------------------------------

def test_der_odd_sphere_only_identity():
    L = sphere_model(3, T(3))
    for n in range(-2, 5):
        basis = unit_derivations(L, L, n)
        if n == 0:
            assert len(basis) == 1
        else:
            assert basis == []


def test_der_even_sphere_degrees():
    L = sphere_model(2, T(3))
    assert len(unit_derivations(L, L, 0)) == 1   # x -> x
    assert len(unit_derivations(L, L, 1)) == 1   # x -> [x,x]
    assert len(unit_derivations(L, L, 2)) == 0   # x -> L_3 = 0
    # both D's vanish (d = 0)
    for n in (0, 1):
        for th in unit_derivations(L, L, n):
            assert derivation_differential(th).is_zero()


def test_der_wedge_degree0_four_maps():
    L = wedge_model((3, 3), T(3))
    basis = unit_derivations(L, L, 0)
    assert len(basis) == 4


def test_derivation_leibniz_randomized():
    rng = random.Random(61)
    L = wedge_model((2, 3), T(4))
    for _ in range(25):
        n = rng.choice([0, 1, 2])
        values = {}
        for g in L.gens:
            values[g] = rand_lie(rng, L, g.degree + n, 1)
        th = Derivation(L, L, n, values)
        da = rng.choice([1, 2])
        a = rand_lie(rng, L, da, 1)
        b = rand_lie(rng, L, rng.choice([1, 2]), 1)
        lhs = th.apply(bracket(a, b))
        rhs = (bracket(th.apply(a), b)
               + bracket(a, th.apply(b)).scale((-1) ** (n * da)))
        assert (lhs - rhs).is_zero()


def test_d_squared_zero_on_der_complex():
    L = wedge_model((2, 2), T(3))
    dc = DerComplex(L, L, None, range(-1, 4))
    dc.complex().validate()


def test_ad_is_dgl_morphism_randomized():
    rng = random.Random(62)
    L = circle_model(T(4))
    for _ in range(20):
        dx_deg = rng.choice([0, -1])
        x = rand_lie(rng, L, dx_deg, 2)
        y = rand_lie(rng, L, rng.choice([0, -1]), 2)
        # ad_{dx} = D(ad_x)
        lhs = ad_derivation(L, L.d(x))
        rhs = derivation_differential(ad_derivation(L, x))
        assert (lhs - rhs).is_zero()
        # ad_{[x,y]} = [ad_x, ad_y]
        lhs2 = ad_derivation(L, bracket(x, y))
        rhs2 = derivation_bracket(ad_derivation(L, x), ad_derivation(L, y))
        assert (lhs2 - rhs2).is_zero()


# -- twisted complexes ----------------------------------------------------------

def test_der_sl_odd_sphere():
    L = sphere_model(3, T(3))
    dc = DerComplex(L, L, None, range(-1, 5))
    tw = twisted_der_sl(dc, L, range(0, 5))
    assert homology_at(tw.total, 0).dimension == 1   # theta
    assert homology_at(tw.total, 3).dimension == 1   # sx
    for k in (1, 2, 4):
        assert homology_at(tw.total, k).dimension == 0


def test_der_sl_even_sphere_hand_computation():
    # D(sx) = ad_x = (x -> [x,x]) != 0, D(s[x,x]) = 0
    L = sphere_model(2, T(3))
    dc = DerComplex(L, L, None, range(-1, 5))
    tw = twisted_der_sl(dc, L, range(0, 5))
    tw.total.validate()
    assert homology_at(tw.total, 1).dimension == 0   # theta1 killed by D(sx)
    assert homology_at(tw.total, 2).dimension == 0   # sx injects
    assert homology_at(tw.total, 3).dimension == 1   # s[x,x]


def test_hom_der_odd_sphere_reproduces_paper_brackets():
    L = sphere_model(3, T(3))
    C = chains_functor(L, word_cap=3)
    H = ConvolutionElements(C, L)
    dc = DerComplex(L, L, None, range(-1, 4))
    tw = twisted_hom_der(H, dc, range(-1, 4))
    tw.total.validate()
    theta = dc.space(0).unflatten(SparseVec.unit(0))   # id_L
    x_elt = H.basis(2)[0]                   # 1 -> x
    z_elt = H.basis(-1)[0]                  # sx -> x
    assert hom_der_bracket(H, theta, x_elt) == x_elt
    assert hom_der_bracket(H, theta, z_elt) == z_elt
    # all differentials vanish
    for n in (-1, 0, 1, 2, 3):
        assert tw.total.d(n).is_zero()


def test_twisted_ses_les_exact():
    # the three twisted products share one assembler; each must be a short
    # exact sequence sub -> total -> quotient, and its sequence read off the
    # blocks is the generic one through the inclusion and projection
    for n in (2, 3):
        L = sphere_model(n, T(4))
        dc = DerComplex(L, L, None, range(-1, 8))
        H = ConvolutionDGL(chains_functor(L, word_cap=3), L)
        for k, tw in enumerate((twisted_der_sl(dc, L, range(0, 8)),
                                twisted_product(L.complex(range(-1, 8)),
                                                dc.complex(), range(0, 8)),
                                twisted_hom_der(H, dc, range(-1, 8)))):
            les = les_of_ses(tw, range(0, 7))
            assert les.degrees == list(range(0, 7)), "product %d" % k
            assert_same_les(les, generic_les(*tw, *split_maps(tw), range(0, 7)))


@pytest.mark.parametrize("make", [lambda: wedge_model((2, 3), T(4)),
                                  lambda: _commutator_model(4)],
                         ids=["wedge23-cap4", "commutator-cap4"])
@pytest.mark.parametrize("twisted", [True, False], ids=["der-sl", "der"])
def test_twisted_differential_is_a_derivation_of_the_bracket(make, twisted):
    # D[a, b] = [Da, b] + (-1)^{|a|} [a, Db] on random coordinate vectors,
    # for the coordinate products DerComplex.product_sl on Der (x~) sL and
    # DerComplex.product on Der; on Der (x~) sL this pins the sign of the
    # (-1)^{|theta|} s theta(y) term.  It is also why a bracket of classes
    # is well defined.
    L, window = make(), range(0, 5)
    dercx = DerComplex(L, L, None, window)
    if twisted:
        cx, product = twisted_der_sl(dercx, L, window).total, dercx.product_sl
    else:
        cx, product = dercx.complex(), dercx.product
    rng = random.Random(5)

    def draw(n):
        return SparseVec({i: rng.randint(-2, 2) for i in range(cx.dim(n))})

    def br(n, u, m, v):
        return SparseVec(product(n, u.entries, m, v.entries))

    for _ in range(40):
        n = rng.randint(0, 4)
        m = rng.randint(0, 4 - n)
        u, v = draw(n), draw(m)
        du, dv = cx.d(n).apply(u), cx.d(m).apply(v)
        k = n + m
        assert cx.d(k).apply(br(n, u, m, v)) == (
            br(n - 1, du, m, v) + br(n, u, m - 1, dv).scale((-1) ** n)), (n, m)


# -- GSpec ----------------------------------------------------------------------

def test_gspec_checks_are_internal_errors():
    # the CLI builds only the three kinds, a stabilizer with its filtration
    L = sphere_model(3, T(3))
    with pytest.raises(InternalError, match="unknown GSpec kind"):
        GSpec("bogus", L)
    with pytest.raises(InternalError, match="needs a filtration"):
        GSpec("stabilizer", L)


def test_r0_odd_sphere_zero():
    L = sphere_model(3, T(3))
    assert r0_basis(L) == ([], [])


def test_r0_even_sphere_zero():
    # D(x -> [x,x]) = 0 since d = 0, and L_0 = 0
    L = sphere_model(2, T(3))
    assert r0_basis(L) == ([], [])


def test_identity_spec_is_r0():
    L = sphere_model(3, T(3))
    rep = der_g_zero(GSpec("identity", L))
    assert rep.basis == [] and rep.labels == []


def test_stabilizer_wedge_one_dimensional():
    L = wedge_model((3, 3), T(3))
    filt = GeneratorFiltration.from_chain([set(L.gens),
                                           {L.generator("y")}])
    rep = der_g_zero(GSpec("stabilizer", L, filtration=filt))
    assert len(rep.basis) == 1 and rep.labels == ["k0"]
    th = DerSpace(L, L, 0).unflatten(rep.basis[0])
    assert th.value(L.generator("x")) == L.gen("y")
    assert th.value(L.generator("y")).is_zero()


def test_span_closure_rejection():
    # x -> y and y -> z act nilpotently on the generators, but their
    # bracket x -> -z lies outside the span
    L = wedge_model((3, 3, 3), T(3))
    x, y, z = L.gens
    txy = Derivation(L, L, 0, {x: L.gen("y")})
    tyz = Derivation(L, L, 0, {y: L.gen("z")})
    with pytest.raises(InvalidSubgroupError, match="not closed under the bracket"):
        der_g_zero(GSpec("span", L, span=[txy, tyz]))


def test_span_acting_non_nilpotently_rejected():
    # the linear parts of a span on the generators must leave the flag
    # V, sum theta(V), ... at zero: x -> y and y -> x each do, together
    # they do not (and are not bracket-closed either), and neither does
    # the bracket-closed x -> x
    L = wedge_model((3, 3), T(3))
    x, y = L.gens
    tx = Derivation(L, L, 0, {x: L.gen("y")})
    ty = Derivation(L, L, 0, {y: L.gen("x")})
    scale = Derivation(L, L, 0, {x: L.gen("x")})
    for span in ([tx, ty], [scale], [tx, scale]):
        with pytest.raises(InvalidSubgroupError, match="act nilpotently"):
            der_g_zero(GSpec("span", L, span=span))
    for span in ([tx], [ty]):
        assert len(der_g_zero(GSpec("span", L, span=span)).basis) == 1


def test_span_closed_accepted():
    L = wedge_model((3, 3), T(3))
    tx = Derivation(L, L, 0, {L.generator("x"): L.gen("y")})
    rep = der_g_zero(GSpec("span", L, span=[tx]))
    assert len(rep.basis) == 1 and rep.saturation_flag


def test_saturation_divergence_reports_unsaturated(monkeypatch):
    # wedge(1,1) has degree-0 generators, so R_0 = ad L_0 is nonzero and the
    # saturation loop runs; a divergent exp must not read as saturated
    L = wedge_model((1, 1), T(2))
    assert der_g_zero(GSpec("span", L, span=[])).saturation_flag

    def diverge(*args, **kwargs):
        raise DivergenceError("exp of non-filtration-increasing derivation")

    monkeypatch.setattr(derivations, "exp_derivation_values", diverge)
    rep = der_g_zero(GSpec("span", L, span=[]))
    assert rep.saturation_flag is False
    assert len(rep.notes) == 1 and "diverges" in rep.notes[0]


def test_saturation_other_errors_propagate(monkeypatch):
    L = wedge_model((1, 1), T(2))

    def broken(*args, **kwargs):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(derivations, "exp_derivation_values", broken)
    with pytest.raises(RuntimeError, match="engine bug"):
        der_g_zero(GSpec("span", L, span=[]))


@pytest.mark.parametrize("dims", [(1, 1), (1, 1, 2)])
def test_ad_of_degree_zero_elements_brackets_into_ad(dims):
    # [ad_x, theta] = -ad_{theta(x)} for x in L_0 and theta of degree 0, at
    # the truncation: a spec basis that spans ad L_0 is stable under the
    # adjoint action, which is why the pointed pipeline needs no check
    rng = random.Random(29)
    L = wedge_model(dims, T(4))
    nonzero = 0
    for _ in range(25):
        theta = Derivation(L, L, 0, {g: rand_lie(rng, L, g.degree, 3) for g in L.gens})
        x = rand_lie(rng, L, 0, 3)
        lhs = derivation_bracket(ad_derivation(L, x), theta)
        assert lhs == ad_derivation(L, theta.apply(x)).scale(-1)
        nonzero += not lhs.is_zero()
    assert nonzero > 10


@pytest.mark.parametrize("dims", [(1, 1), (1, 1, 2)])
def test_every_spec_basis_spans_the_ad_columns(dims):
    # identity is R_0, a stabilizer holds it and a span adds it, so each
    # basis spans the columns of ad on L_0
    L = wedge_model(dims, T(3))
    x = L.gens[0]
    filt = GeneratorFiltration.from_chain([set(L.gens), set(L.gens) - {x}])
    space0 = DerSpace(L, L, 0)
    ads = derivations.ad_cross_columns(space0, {g: L.gen(g) for g in L.gens})
    assert ads and all(space0.unflatten(v) == ad_derivation(L, e)
                       for v, e in zip(ads, L.basis(0)))
    for spec in (GSpec("identity", L), GSpec("stabilizer", L, filtration=filt),
                 GSpec("span", L, span=[Derivation(L, L, 0, {x: L.gen("y")})])):
        rep = der_g_zero(spec)
        span = IncrementalSpan()
        for v in rep.basis:
            span.add(v)
        assert span.rank == len(rep.basis) == len(rep.labels)
        assert all(span.contains(v) for v in ads), spec.kind


def test_non_connected_model_rejected():
    L = circle_model(T(3))
    with pytest.raises(NotConnectedError):
        der_g_zero(GSpec("identity", L))


def test_der_g_zero_exponentials_are_automorphisms():
    # every basis element is a D-cycle whose exponential is a verified dgl
    # automorphism, with an exact exp/log roundtrip
    from cdgl.dgl import exp_derivation_values, log_morphism
    L = wedge_model((3, 3), T(3))
    filt = GeneratorFiltration.from_chain([set(L.gens), {L.generator("y")}])
    for spec in (GSpec("stabilizer", L, filtration=filt),
                 GSpec("identity", wedge_model((2, 2), T(3)))):
        rep = der_g_zero(spec)
        for v in rep.basis:
            th = DerSpace(spec.target, spec.target, 0).unflatten(v)
            assert derivation_differential(th).is_zero()
            phi = exp_derivation_values(spec.target, th.values)  # validates
            back = log_morphism(phi)
            for g in spec.target.gens:
                assert back[g] == th.value(g)


def test_convolution_and_derivation_routes_agree():
    # the two mapping-space models are related by a degree shift:
    # H_k(Der x~ sL) = H_{k-1}(connected cover of Hom(Chains L, L) at q)
    for n in (2, 3):
        L = sphere_model(n, T(4))
        dc = DerComplex(L, L, None, range(-1, 2 * n + 2))
        tw = twisted_der_sl(dc, L, range(0, 2 * n + 2))
        C = chains_functor(L, word_cap=4)
        H = ConvolutionDGL(C, L)
        q = H.universal_mc()
        hom_cx = H.complex(range(-1, 2 * n + 2), perturb_by=q)
        cover = connected_cover(hom_cx, 0)
        for k in range(1, 2 * n + 1):
            assert (homology_at(tw.total, k).dimension
                    == homology_at(cover, k - 1).dimension), (n, k)


# -- gamma ------------------------------------------------------------------------

def test_gamma_identity_odd_sphere():
    L = sphere_model(3, T(4))
    rep = gamma_check(DGLMorphism.identity(L), word_cap=3)
    assert rep.ok, rep.failures
    assert rep.basis_checked > 0


def test_gamma_identity_even_sphere():
    L = sphere_model(2, T(4))
    rep = gamma_check(DGLMorphism.identity(L), word_cap=3)
    assert rep.ok, rep.failures


def test_gamma_degenerate_empty():
    # a presentation with no generators: empty check passes
    from cdgl.dgl import build_dgl
    L0 = build_dgl((), {}, T(3))
    rep = gamma_check(DGLMorphism.identity(L0), word_cap=2, degrees=range(0, 2))
    assert rep.ok and rep.basis_checked == 0


def test_gamma_nonidentity_morphism():
    L = wedge_model((3, 3), T(3))
    phi = DGLMorphism(L, L, {L.generator("x"): L.gen("x") + L.gen("y"),
                             L.generator("y"): L.gen("y")}).validate()
    rep = gamma_check(phi, word_cap=2, degrees=range(-1, 7))
    assert rep.ok, rep.failures


# -- mapping space -----------------------------------------------------------------

def test_mapping_space_identity_odd_sphere():
    L = sphere_model(3, T(4))
    rep = mapping_space_pi(DGLMorphism.identity(L), range(1, 6))
    assert rep.free[3] == 1
    for k in (1, 2, 4, 5):
        assert rep.free[k] == 0
    for k in range(1, 6):
        assert rep.pointed[k] == 0
    assert rep.fiber_components_h0 == 1    # the theta class


def test_mapping_space_constant_matches_untwisted():
    # phi = 0: the twisted complex degenerates to the direct sum
    L = sphere_model(3, T(3))
    phi = DGLMorphism.zero_morphism(L, L)
    rep = mapping_space_pi(phi, range(1, 5))
    dc = DerComplex(L, L, phi, range(-1, 6))
    for n in range(1, 5):
        want = (homology_at(dc.complex(), n).dimension
                + (1 if n == 3 else 0))   # H_n(Der) + H_n(sL)
        assert rep.free[n] == want


def test_mapping_space_les_slots():
    L = sphere_model(2, T(4))
    rep = mapping_space_pi(DGLMorphism.identity(L), range(1, 6))
    assert rep.les.degrees == list(range(0, 6))


def test_mapping_space_warns_on_non_minimal_source():
    from cdgl.dgl import build_dgl
    from cdgl.freelie import Generator, LieElement
    trunc = T(3)
    s = Generator("s", 1)
    u = Generator("u", 0)
    L = build_dgl((s, u), {s: LieElement.gen(u, trunc)}, trunc)
    with pytest.warns(UserWarning, match="not minimal"):
        rep = mapping_space_pi(DGLMorphism.identity(L), range(1, 3))
    assert rep.minimal_warning


# -- classifying invariants ---------------------------------------------------------

def test_classifying_odd_spheres_identity():
    for n in (3, 5):
        L = sphere_model(n, T(3))
        rep = classifying_invariants(L, GSpec("identity", L), "FREE",
                                     range(1, 2 * n + 1))
        for k in range(1, 2 * n + 1):
            assert rep.pi_base[k] == (1 if k == n else 0)
        assert rep.h0_quotient.dimension == 0


def test_classifying_even_sphere_s2():
    L = sphere_model(2, T(4))
    rep = classifying_invariants(L, GSpec("identity", L), "FREE", range(1, 7))
    for k in range(1, 7):
        assert rep.pi_base[k] == (1 if k == 3 else 0)


def test_classifying_matches_connected_cover():
    # for the identity spec the pipeline equals H of the 1-connected cover of
    # the full Der x~ sL
    L = sphere_model(2, T(4))
    dc = DerComplex(L, L, None, range(-1, 8))
    tw = twisted_der_sl(dc, L, range(0, 8))
    cover = connected_cover(tw.total, 1)
    rep = classifying_invariants(L, GSpec("identity", L), "FREE", range(1, 7))
    for k in range(2, 7):
        assert homology_at(cover, k).dimension == rep.pi_base[k]


def test_classifying_wedge_stabilizer():
    L = wedge_model((3, 3), T(3))
    filt = GeneratorFiltration.from_chain([set(L.gens), {L.generator("y")}])
    spec = GSpec("stabilizer", L, filtration=filt)
    rep = classifying_invariants(L, spec, "FREE", range(1, 6))
    G = rep.h0_quotient
    assert G.dimension == 1
    assert rep.ad_image_rank == 0
    assert G.abelian
    # exact Q-powers: mu a * nu a = (mu+nu) a on the single class
    reps, class_of = der_h0_elements(L, spec, G)
    prod = bch_der(reps[0].scale(Fraction(2, 3)), reps[0].scale(Fraction(1, 3)))
    assert class_of(prod) == class_of(reps[0])


def test_classifying_pointed_mode_runs():
    # Der^Pi = 0 for an odd sphere with the trivial spec, so the total space
    # model L x~ Der^Pi is just L: one class in degree n-1 = 2
    L = sphere_model(3, T(3))
    rep = classifying_invariants(L, GSpec("identity", L), "POINTED", range(1, 5))
    assert rep.h0_quotient.dimension == 0
    assert rep.total_homology[2] == 1
    assert rep.total_homology[3] == 0

@pytest.mark.parametrize("dims, cap, mode, top, nilpotency", [
    ((2, 2), 4, "FREE", 6, 2),
    ((2, 2), 4, "POINTED", 5, 3),
    ((2, 3), 5, "FREE", 6, 3),
    ((2, 3), 5, "POINTED", 5, 5),
    ((2, 2, 3), 3, "FREE", 5, 4),
], ids=["wedge22-cap4-FREE", "wedge22-cap4-POINTED", "wedge23-cap5-FREE",
        "wedge23-cap5-POINTED", "wedge223-cap3-FREE"])
def test_classifying_nilpotency(dims, cap, mode, top, nilpotency):
    L = wedge_model(dims, T(cap))
    rep = classifying_invariants(L, GSpec("identity", L), mode,
                                 range(1, top + 1))
    assert rep.nilpotency == nilpotency


def _commutator_model(cap):
    """x, y of degree 1 and z of degree 3 with d z = [x, y]: connected,
    minimal, and D nonzero from Der_1 into R_0."""
    from cdgl.dgl import build_dgl
    from cdgl.freelie import Generator
    x, y, z = Generator("x", 1), Generator("y", 1), Generator("z", 3)
    return build_dgl((x, y, z), {z: left_normed((x, y), T(cap))}, T(cap))


def _ad_boundary_model():
    """a, b of degree 0 and c of degree 1 with d c = [a, b], cap 3: each
    ad x for x in L_0 is D of a degree-1 derivation, so H_0(Der^G) = 0 and
    Im H_0(ad) has rank 0, though ad L_0 has dimension 3."""
    ws, _ = workspace_from_text(read_data("ad_boundary.cdgl"))
    return ws.models["AB"].presentation


def _classifying_cases():
    """(L, spec, kind, raises, span tables, lo, hi) for the Step 0 oracle."""
    ws, _ = workspace_from_text(read_data("wedge_spheres.cdgl"))
    W3 = ws.models["W3"]
    L, filt = W3.presentation, W3.filtrations["F"]
    gen = {(g.name, g.degree): g for g in L.gens}
    slide = ws.derivations["slide"]
    cases = [(sphere_model(2, T(4)), 1, 3), (sphere_model(3, T(3)), 1, 4),
             (wedge_model((2, 3), T(3)), 1, 3), (wedge_model((2, 3), T(4)), 1, 3),
             (wedge_model((2, 3), T(3)), 3, 4), (wedge_model((2, 2, 3), T(3)), 1, 3),
             (wedge_model((2, 2, 3), T(4)), 1, 2), (_commutator_model(4), 1, 3),
             (L, 1, 4), (_ad_boundary_model(), 1, 3)]
    out = [(M, GSpec("identity", M), "identity", None, (), lo, hi)
           for M, lo, hi in cases]
    out.append((L, GSpec("stabilizer", L, filtration=filt), "stabilizer",
                lambda g, h: gen[h] in filt.next_level(filt.level_of(gen[g])),
                (), 1, 4))
    out.append((L, GSpec("span", L, span=[slide]), "span", None,
                [{(g.name, g.degree): _words(v) for g, v in slide.values.items()}],
                1, 4))
    return out


def _random_coords(rng, n):
    return {i: rng.choice([-2, -1, 1, 2, Fraction(1, 2)])
            for i in rng.sample(range(n), min(n, rng.randint(1, 3)))}


@pytest.mark.parametrize("mode", ["FREE", "POINTED"])
def test_coordinate_products_match_the_word_brackets(mode):
    # the class tables' products on random stored coordinates, Der^G_0 in
    # degree 0 and unit slots above, against the word-dict brackets of the
    # oracles: DerComplex.product against derivation_bracket (POINTED) and
    # product_sl against der_sl_bracket on Der (x~) sL (FREE), on every
    # classifying case; pairs of odd degrees, where the slot bracket's sign
    # (-1)^{|theta||eta|} is -1, and pairs in the degree-0 subspace included
    rng = random.Random(32 if mode == "FREE" else 33)
    seen = set()
    for L, spec, _, _, _, lo, hi in _classifying_cases():
        top = max(hi, 2)
        dercx = DerComplex(L, L, None, range(0, top + 1), der_g_zero(spec)[:2])
        free = mode == "FREE"

        def dims(n):
            return len(dercx.space(n)), len(L.basis(n - 1)) if free else 0

        def element(n, z):
            nd, _ = dims(n)
            sp = dercx.space(n)
            theta = sp.unflatten(SparseVec(sp.slots(
                {i: c for i, c in z.items() if i < nd})))
            return theta, L.from_coords(SparseVec(
                {i - nd: c for i, c in z.items() if i >= nd}), n - 1)

        def coords(n, theta, x):
            sp, (nd, _) = dercx.space(n), dims(n)
            out = dict(sp.in_elements(sp.flatten(theta.values)).entries)
            out.update((nd + i, c) for i, c in L.coords(x, n - 1).entries.items())
            return out

        for _ in range(8):
            m = rng.randint(0, top)
            m2 = rng.randint(0, top - m)
            if not sum(dims(m)) or not sum(dims(m2)):
                continue
            u, v = _random_coords(rng, sum(dims(m))), _random_coords(rng, sum(dims(m2)))
            (theta, x), (eta, y) = element(m, u), element(m2, v)
            if free:
                got = dercx.product_sl(m, u, m2, v)
                want = coords(m + m2, *der_sl_bracket(theta, x, eta, y))
            else:
                got = dercx.product(m, u, m2, v)
                want = coords(m + m2, derivation_bracket(theta, eta), L.zero())
            assert got == want, (L.name, m, m2)
            seen.add((m % 2, m2 % 2, m * m2 == 0, bool(want)))
    assert {(1, 1, False, True), (0, 0, True, True)} <= seen, seen


@pytest.mark.parametrize("mode", ["FREE", "POINTED"])
def test_classifying_reads_no_derivation(mode, monkeypatch):
    # an identity spec's H_0 group, its law and the homotopy nilpotency
    # index are read off slot coordinates: no Derivation is built
    def refused(self, *args, **kwargs):
        raise AssertionError("a Derivation was built")

    monkeypatch.setattr(Derivation, "__init__", refused)
    # (dim H_0, abelian, its class, homotopy nilpotency) on wedge(1,1) and
    # wedge(1,1,2) at cap 4; baut's H_0 is 0 on both
    want = {"FREE": [(0, True, 0, 1), (0, True, 0, 3)],
            "POINTED": [(5, False, 3, 3), (5, False, 3, 5)]}[mode]
    for dims, expected in zip(((1, 1), (1, 1, 2)), want):
        L = wedge_model(dims, T(4))
        rep = classifying_invariants(L, GSpec("identity", L), mode, range(1, 5))
        G = rep.h0_quotient
        assert len(G.structure) == G.dimension ** 2
        assert (G.dimension, G.abelian, G.nilpotency_class, rep.nilpotency) == expected


@pytest.mark.parametrize("mode", ["FREE", "POINTED"])
def test_classifying_nilpotency_matches_dense_word_oracle(mode):
    # the homotopy nilpotency index of baut (FREE) and bautstar (POINTED)
    # against w_classifying, which builds Der^G_0, the homology and its
    # bracket table from dense tensor-word derivations; also the homotopy
    # groups (FREE), the group H_0, the rank of Im H_0(ad) (FREE; it is
    # dim H_0(Der^G) - dim H_0(Der^G x~ sL)) and dim Der^G_0, gap windows
    # included
    indices = set()
    for L, spec, kind, raises, span, lo, hi in _classifying_cases():
        rep = classifying_invariants(L, spec, mode, range(lo, hi + 1))
        window = sorted({n for n in range(lo, hi + 1) if n >= 0} | {0, 1})
        d = {(g.name, g.degree): _words(v) for g, v in L.d_on_gens.items()
             if not v.is_zero()}
        nil, dims, der0, h0 = w_classifying(L.gens, d, L.trunc.max_bracket_length,
                                            mode, window, kind, raises, span)
        case = "%s %s %d..%d" % (L.name, kind, lo, hi)
        assert rep.nilpotency == nil, case
        assert rep.der0_dimension == der0, case
        assert rep.h0_quotient.dimension == dims[0] == h0[mode], case
        if mode == "FREE":
            assert rep.pi_base == {n: dims[n] for n in window if n >= 1}, case
            assert rep.ad_image_rank == h0["POINTED"] - h0["FREE"], case
        else:
            assert rep.ad_image_rank == 0, case
        indices.add(nil)
    assert indices >= {0, 1, 2, 3} if mode == "POINTED" else indices >= {1, 2, 3}


def test_nilpotency_layers_are_kept_as_spans(monkeypatch):
    # the layers are spans in class coordinates, read off the class-bracket
    # table, so the only derivation brackets are the table's: each pair of
    # classes landing on a class once, 43 here (82 when each layer was
    # re-bracketed modulo the boundaries, 4,427 carrying every nonzero
    # bracket)
    calls = []
    real = DerComplex.product

    def counting(self, m, u, m2, v):
        calls.append(1)
        return real(self, m, u, m2, v)

    monkeypatch.setattr(DerComplex, "product", counting)
    L = wedge_model((2, 3), T(5))
    rep = classifying_invariants(L, GSpec("identity", L), "POINTED", range(1, 6))
    assert rep.nilpotency == 5
    assert len(calls) == 43


def test_nilpotency_descent_is_checked(monkeypatch):
    # a broken bracket ([a, b] = a) lands in the wrong degree, where it has
    # no class; the table must fail loudly, when the index is read, instead
    # of returning an index
    monkeypatch.setattr(DerComplex, "product", lambda self, m, u, m2, v: u)
    L = wedge_model((2, 2), T(4))
    with pytest.raises(InternalError, match="internal error"):
        classifying_invariants(L, GSpec("identity", L), "POINTED",
                               range(1, 6)).nilpotency


@pytest.mark.parametrize("cap, dim, nilpotency", [(2, 2, 1), (3, 3, 2), (4, 5, 3)])
def test_der_h0_group_of_wedge_of_circles(cap, dim, nilpotency):
    # H_0(Der^Pi) is a BCH group with its own lower central series; its
    # dimension is that of H_0(L) one cap lower, and in FREE mode it is
    # all of Im H_0(ad)
    L = wedge_model((1, 1), T(cap))
    spec = GSpec("identity", L)
    G = classifying_invariants(L, spec, "POINTED", range(1, 3)).h0_quotient
    assert G.dimension == dim == h0_group(wedge_model((1, 1), T(cap - 1))).dimension
    assert G.nilpotency_class == nilpotency
    assert G.abelian == (cap == 2)
    free = classifying_invariants(L, spec, "FREE", range(1, 3))
    assert free.h0_quotient.dimension == 0
    assert free.ad_image_rank == dim


def test_free_h0_is_read_off_the_twisted_product(monkeypatch):
    # FREE takes H_0(Der^G x~ sL) and no quotient of H_0(Der^G): ad on L_0
    # is read once for R_0 and once per degree of the twisted product's
    # window 0..4 (a separate list of ad columns for H_0 made 7 calls), and
    # the one degree-0 homology taken, for the group and the nilpotency
    # table alike, is the twisted product's
    real_ad, real_homology, real_twisted = (derivations.ad_cross_columns,
                                            exactlin.homology_at,
                                            derivations.twisted_der_sl)
    ads, h0s, totals = [], [], []

    def ad_cross_columns(space, images):
        ads.append(space.degree)
        return real_ad(space, images)

    def homology_at(C, n):
        if n == 0:
            h0s.append(C)
        return real_homology(C, n)

    def twisted_der_sl(*args):
        tw = real_twisted(*args)
        totals.append(tw.total)
        return tw

    monkeypatch.setattr(derivations, "ad_cross_columns", ad_cross_columns)
    monkeypatch.setattr(exactlin, "homology_at", homology_at)
    monkeypatch.setattr(derivations, "twisted_der_sl", twisted_der_sl)
    L = wedge_model((1, 1), T(4))
    rep = classifying_invariants(L, GSpec("identity", L), "FREE", range(1, 4))
    assert (rep.h0_quotient.dimension, rep.ad_image_rank, rep.nilpotency) == (0, 5, 1)
    assert sorted(ads) == [-1, 0, 0, 1, 2, 3]
    assert len(totals) == 1 and len(h0s) == 1 and h0s[0] is totals[0]
    assert "extra" not in inspect.signature(real_homology).parameters
    assert not hasattr(derivations, "homology_at")


def _criterion9():
    L = wedge_model((3, 3), T(3))
    filt = GeneratorFiltration.from_chain([set(L.gens), {L.generator("y")}])
    return L, GSpec("stabilizer", L, filtration=filt), "FREE"


@pytest.mark.parametrize("case", ["wedge11-cap2", "wedge11-cap3",
                                  "wedge11-cap4", "criterion9"])
def test_der_h0_class_and_abelian_on_read_match_the_eager_table(case):
    if case == "criterion9":
        L, spec, mode = _criterion9()
    else:
        L = wedge_model((1, 1), T(int(case[-1])))
        spec, mode = GSpec("identity", L), "POINTED"
    G = classifying_invariants(L, spec, mode, range(1, 3)).h0_quotient
    assert not {"table", "nilpotency_class"} & set(vars(G))
    eager = dense_nilpotency_class(eager_h0_table(*der_h0_elements(L, spec, G),
                                                  derivation_bracket))
    assert G.abelian == (eager <= 1)
    assert "nilpotency_class" not in vars(G)
    assert G.nilpotency_class == eager


@pytest.mark.parametrize("case", ["criterion9", "wedge11-cap4-POINTED"])
def test_der_h0_table_law_matches_bch_der(case):
    # the Der group's law, read off its bracket table, against the operator
    # exp/log product bch_der on every pair of representatives
    if case == "criterion9":
        L, spec, mode = _criterion9()
    else:
        L = wedge_model((1, 1), T(4))
        spec, mode = GSpec("identity", L), "POINTED"
    G = classifying_invariants(L, spec, mode, range(1, 3)).h0_quotient
    assert G.dimension == (1 if case == "criterion9" else 5)
    reps, class_of = der_h0_elements(L, spec, G)
    for (i, j), prod in G.structure.items():
        assert prod == class_of(bch_der(reps[i], reps[j]))


def _complex_and_differential(kind, L):
    """(complex, degrees, basis(n), d(e), element(n, coordinates)) of one of
    the complexes built from boundary columns: L (its boundary table), Der
    (unit columns), sL (L's table negated and shifted), and Hom, reduced
    Hom and perturbed Hom (ConvolutionDGL's unit slots); basis and d are
    the element path each column is checked against."""
    if kind == "L":
        return (L.complex(range(0, 5)), range(0, 5), L.basis, L.d,
                lambda n, z: L.from_coords(z, n))
    if kind == "Der":
        dc = DerComplex(L, L, None, range(-1, 4))
        return (dc.complex(), range(-1, 4),
                lambda n: [dc.space(n).unflatten(SparseVec.unit(i))
                           for i in range(len(dc.space(n)))],
                derivation_differential, lambda n, z: dc.space(n).unflatten(z))
    if kind == "sL":
        return (derivations._shifted_l_complex(L, range(1, 6)), range(1, 6),
                lambda n: L.basis(n - 1), lambda e: L.d(e).scale(-1),
                lambda n, z: L.from_coords(z, n - 1))
    H = ConvolutionElements(chains_functor(L, word_cap=2), L)
    reduced = kind == "Hom-reduced"
    q = H.universal_mc() if kind == "Hom-perturbed" else None

    def basis(n):
        return [f for f in H.basis(n)
                if not (reduced and H.C.counit in f.values)]

    def d(f):
        return H.differential(f) if q is None else (H.differential(f)
                                                    + H.bracket(H.element(-1, q), f))

    def element(n, z):
        out = H.zero(n)
        for k, c in z.entries.items():
            out = out + basis(n)[k].scale(c)
        return out

    return (H.complex(range(-1, 4), perturb_by=q, reduced=reduced),
            range(-1, 4), basis, d, element)


@pytest.mark.parametrize("kind", ["L", "Der", "sL", "Hom", "Hom-reduced",
                                  "Hom-perturbed"])
@pytest.mark.parametrize("model", ["sphere2", "wedge22", "S1"])
def test_boundary_columns_rebuild_the_differential(kind, model):
    # every boundary entry, not only dd = 0 or homology dimensions: the
    # element with the coordinates of column e is d e (the sphere and wedge
    # models have d = 0, so only the circle model gives nonzero columns in
    # L, Der and sL)
    L = {"sphere2": sphere_model(2, T(3)), "wedge22": wedge_model((2, 2), T(3)),
         "S1": circle_model(T(3))}[model]
    cx, degrees, basis, d, element = _complex_and_differential(kind, L)
    nonzero = 0
    for n in degrees:
        assert cx.dim(n) == len(basis(n))
        for e, col in zip(basis(n), cx.d(n).columns()):
            assert element(n - 1, col) == d(e)
            nonzero += not col.is_zero()
    assert nonzero or (model != "S1" and not kind.startswith("Hom"))


@pytest.mark.parametrize("dims,cap", [((1, 1), 3), ((1, 1, 2), 3), ((2, 3), 4)])
def test_pointed_total_homology_is_the_twisted_product(dims, cap):
    # L x~ Der^Pi has a block-diagonal boundary, so the pipeline adds the
    # homology of the blocks; here the product itself is built and reduced
    L = wedge_model(dims, T(cap))
    spec = GSpec("identity", L)
    rep = classifying_invariants(L, spec, "POINTED", range(1, 4))
    g0 = der_g_zero(spec)
    window = range(0, 5)
    dercx = DerComplex(L, L, None, window, g0[:2])
    tw = twisted_product(L.complex(range(-1, 5)), dercx.complex(), window)
    want = {n: homology_at(tw.total, n).dimension for n in range(0, 4)}
    assert rep.total_homology == want
    assert any(want[n] != homology_at(dercx.complex(), n).dimension for n in want)


def test_postnikov_stage_in_report():
    L = sphere_model(2, T(3))
    rep = classifying_invariants(L, GSpec("identity", L), "FREE", range(1, 5))
    for k in range(1, 6):
        assert homology_at(rep.postnikov, k).dimension == 0


def test_postnikov_of_stabilizer_twisted_product():
    # Der^K x~ sL for the wedge model, truncated at stage 1: the degree-0
    # class survives, everything above dies
    L = wedge_model((3, 3), T(3))
    filt = GeneratorFiltration.from_chain([set(L.gens), {L.generator("y")}])
    g0 = der_g_zero(GSpec("stabilizer", L, filtration=filt))
    dc = DerComplex(L, L, None, range(-1, 8), deg0_subspace=g0[:2])
    tw = twisted_der_sl(dc, L, range(0, 8))
    from cdgl.exactlin import postnikov_truncate
    post = postnikov_truncate(tw.total, 1)
    assert homology_at(post, 0).dimension == 1
    for k in range(1, 8):
        assert homology_at(post, k).dimension == 0


# -- sparse differentials and unit-table coordinates against dense oracles -------

def _words(e):
    return {tuple((g.name, g.degree) for g in w): c for w, c in e.terms.items()}


def _letters(table):
    return {(g.name, g.degree): _words(v) for g, v in table.items()}


def _with_random_sums(rng, tables, count=6):
    """The tables, then random sums of a few of them with small coefficients."""
    out = list(tables)
    for _ in range(count if tables else 0):
        acc = tables[0].scale(0)
        for t in rng.sample(tables, min(3, len(tables))):
            acc = acc + t.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        out.append(acc)
    return out


def _gamma_chains():
    # the chains, the Lie functor and the morphism that gamma wedge(2,2)
    # --word-cap 2 --truncate 2 builds
    L = wedge_model((2, 2), T(2))
    C = chains_functor(L, word_cap=2)
    LC = lie_functor(C, L.trunc)
    return L, C, LC, DGLMorphism.identity(L).compose(adjunction_alpha(L, C, LC))


def _derivation_cases():
    """(source, target, base, degrees): ordinary derivations of L1 and S1,
    f-derivations of the morphism f of wedge_homotopy.cdgl, the
    f-derivations of Lie(Chains) into wedge(2,2) that gamma checks, and
    ordinary derivations of two_intervals.cdgl, whose d holds [x,[x,a]]:
    words of length 3 with two distinct letters."""
    ws, _ = workspace_from_text(read_data("wedge_homotopy.cdgl"))
    f = ws.morphisms["f"]
    L, _, LC, phi_tilde = _gamma_chains()
    lo, hi = L.degree_bounds()
    gdegs = [g.degree for g in LC.gens]
    L1, S1 = interval_model(T(3)), circle_model(T(4))
    ws, _ = workspace_from_text(read_data("two_intervals.cdgl"))
    W = ws.models["W"].presentation
    return [(L1, L1, None, range(-1, 3)), (S1, S1, None, range(-1, 3)),
            (f.source, f.target, f, range(-1, 3)),
            (LC, L, phi_tilde, range(lo - max(gdegs), hi - min(gdegs) + 1)),
            (W, W, None, range(-1, 2))]


def test_sparse_derivation_differential_matches_dense_oracle():
    rng = random.Random(16)
    checked = nonzero = 0
    for src, tgt, base, degrees in _derivation_cases():
        cap = tgt.trunc.max_bracket_length
        phi = None if base is None else _letters(base.images)
        for n in degrees:
            for th in _with_random_sums(rng, unit_derivations(src, tgt, n)):
                D = derivation_differential(th, base)
                want = w_derivation_differential(
                    _letters(th.values), n, _letters(src.d_on_gens),
                    _letters(tgt.d_on_gens), lambda w: len(w) <= cap, phi)
                assert _letters(D.values) == want
                assert D.degree == n - 1
                checked += 1
                nonzero += bool(want)
    assert checked > 200 and nonzero > 80


def test_sparse_convolution_differential_matches_dense_oracle():
    rng = random.Random(17)
    S1 = circle_model(T(3))
    L, C, _, _ = _gamma_chains()
    checked = nonzero = 0
    for H in (ConvolutionElements(C, L), ConvolutionElements(chains_functor(S1, 2), S1)):
        cap = H.L.trunc.max_bracket_length
        lo, hi = H.L.degree_bounds()
        for n in range(lo - max(H.C.degrees), hi - min(H.C.degrees) + 1):
            for f in _with_random_sums(rng, H.basis(n)):
                Df = H.differential(f)
                want = w_convolution_differential(
                    {i: _words(v) for i, v in f.values.items()}, n, H.C.diff,
                    H.C.dim(), _letters(H.L.d_on_gens), lambda w: len(w) <= cap)
                assert {i: _words(v) for i, v in Df.values.items()} == want
                assert Df.degree == n - 1
                checked += 1
                nonzero += bool(want)
    assert checked > 300 and nonzero > 100


def test_unit_table_coords_are_the_factored_coords():
    # a DerSpace of unit slots reads coordinates off the flattening and
    # holds no tables; the unit tables' slot vectors passed as elements go
    # through a FactoredBasis
    rng = random.Random(18)
    for src, tgt, _, degrees in _derivation_cases():
        for n in degrees:
            tables = unit_derivations(src, tgt, n)
            units = DerSpace(src, tgt, n)
            factored = DerSpace(src, tgt, n, [units.flatten(th.values) for th in tables],
                                [th.label for th in tables])
            assert units.units and not factored.units and units.elements is None
            assert len(units) == len(factored) == len(tables)
            assert units.labels() == factored.labels() == [th.label for th in tables]
            for i, th in enumerate(tables):
                assert units.unflatten(SparseVec.unit(i)) == th
            for th in _with_random_sums(rng, tables):
                got = factored.in_elements(factored.flatten(th.values))
                assert got == units.in_elements(units.flatten(th.values))
                assert factored.slots(got.entries) == units.flatten(th.values).entries
            assert units._factored is None



def _block_cases():
    """(source, target, base, degrees, degree-0 subspace): the derivation
    cases, windows with a gap, the Der^G_0 subspaces, as (slot vectors,
    labels), of wedge_spheres.cdgl and of a model whose D(Der_1) is
    nonzero, and Der_0 of L1 and S1 in a basis that is not the slots', whose
    elements are not D-cycles and are left unnamed."""
    cases = [(src, tgt, base, list(degrees), None)
             for src, tgt, base, degrees in _derivation_cases()]
    (L1, _, _, _, _), (S1, _, _, _, _), (W, V, f, _, _) = cases[:3]
    cases += [(L1, L1, None, [-1, 1, 2], None), (S1, S1, None, [0, 2], None),
              (W, V, f, [-1, 2], None)]
    ws, _ = workspace_from_text(read_data("wedge_spheres.cdgl"))
    W3 = ws.models["W3"]
    L = W3.presentation
    for spec in (GSpec("identity", L),
                 GSpec("stabilizer", L, filtration=W3.filtrations["F"]),
                 GSpec("span", L, span=[ws.derivations["slide"]])):
        g0 = der_g_zero(spec)[:2]
        cases += [(L, L, None, [0, 1, 2, 3], g0), (L, L, None, [1, 3], g0)]
    for K in (L1, S1):
        k = len(DerSpace(K, K, 0))
        sheared = [SparseVec({i: 1, i + 1: -2}) for i in range(k - 1)]
        cases.append((K, K, None, [0, 1, 2], (sheared + [SparseVec.unit(k - 1)], None)))
    M = _commutator_model(4)
    g0 = der_g_zero(GSpec("identity", M))[:2]
    return cases + [(M, M, None, [0, 1, 2, 3], g0), (M, M, None, [1, 2], g0)]


def test_der_complex_blocks_match_element_path():
    # DerComplex's unit blocks against the derivation complex built element
    # by element: equal boundaries, labels and elements, on every degree of
    # the window; a unit column that lands in a degree-0 subspace is solved
    # in it, and one outside it fails as it did; the columns of D on a
    # subspace are its elements through the unit columns
    rng = random.Random(24)
    leibniz = subspace = from_subspace = 0
    for src, tgt, base, degrees, g0 in _block_cases():
        dc = DerComplex(src, tgt, base, degrees, g0)
        cx = dc.complex()
        ref, element = element_der_complex(src, tgt, base, degrees, g0)
        assert cx.basis == ref.basis
        for n in degrees:
            assert cx.d(n) == ref.d(n), n
            leibniz += not cx.d(n).is_zero() and all(
                v.is_zero() for v in tgt.d_on_gens.values())
            subspace += n == 1 and g0 is not None and not cx.d(n).is_zero()
            from_subspace += n == 0 and g0 is not None and not cx.d(n).is_zero()
        for n, sp in dc.spaces.items():
            assert sp.units == (g0 is None or n != 0)
            vecs = [SparseVec.unit(i) for i in range(len(sp))]
            vecs += [SparseVec({i: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                for i in rng.sample(range(len(sp)), min(3, len(sp)))})
                     for _ in range(3)]
            for vec in vecs:
                got = sp.unflatten(SparseVec(sp.slots(vec.entries)))
                want = element(n, vec)
                assert got == want and got.degree == n
    assert leibniz and subspace and from_subspace
    M = _commutator_model(4)
    for build in (lambda: DerComplex(M, M, None, [1, 2], deg0_subspace=([], [])).complex(),
                  lambda: element_der_complex(M, M, None, [1, 2], ([], []))):
        with pytest.raises(NotInSpanError,
                           match="^derivation outside the stored degree-0 space$"):
            build()


def test_pipelines_build_no_table_per_slot(monkeypatch):
    # unit slots are read as blocks: the engine holds no per-slot builder
    # and no element path of D or ad (D on every derivation space, Der^G_0
    # included, is unit columns), so DerComplex, mapping_space_pi and
    # classifying_invariants in both modes cannot reach one, and no
    # pipeline builds a derivation per slot, on models with d != 0 as well
    import cdgl.exactlin as exactlin
    for name in ("unit_derivations", "derivation_differential", "ad_derivation",
                 "twisted_l_der", "pointed_stability_check"):
        assert not hasattr(derivations, name), name
    assert not hasattr(exactlin, "build_complex")
    built = []

    class Counted(Derivation):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(args[2])
            Derivation.__init__(self, *args, **kwargs)

    monkeypatch.setattr(derivations, "Derivation", Counted)
    ws, _ = workspace_from_text(read_data("wedge_homotopy.cdgl"))
    f = ws.morphisms["f"]
    DerComplex(f.source, f.target, f, range(-1, 4)).complex()
    rep = mapping_space_pi(f, range(1, 4))
    assert rep.pointed[1] == 7 and rep.free[1] == 21
    assert built == []
    # R_0, Der^G_0 and the class representatives are slot vectors, and the
    # bracket table brackets their coordinates, so the pipeline builds no
    # derivation: on M, whose H_0 has no class, nor on two circles
    M = _commutator_model(4)
    for mode in ("FREE", "POINTED"):
        built.clear()
        rep = classifying_invariants(M, GSpec("identity", M), mode, range(1, 4))
        assert rep.der0_dimension == 2 and rep.nilpotency == 1
        assert built == []
    W = wedge_model((1, 1), T(3))
    built.clear()
    rep = classifying_invariants(W, GSpec("identity", W), "POINTED", range(1, 3))
    assert rep.nilpotency == 2 and rep.h0_quotient.nilpotency_class == 2
    assert built == []


def test_derivation_table_follows_source_gens():
    L = wedge_model((2, 2, 3), T(3))
    x, y, z = L.gens
    th = Derivation(L, L, 1, {z: L.gen("x"), "w": L.gen("y"), y: L.zero(),
                              x: bracket(L.gen("x"), L.gen("y"))})
    # out-of-order values come back in gens order; a key that is not a
    # source generator, and a zero value, are dropped
    assert list(th.values) == [x, z]
    assert th.value(y).is_zero()
    assert th.values[z] == L.gen("x")
    assert Derivation(L, L, 1, {z: L.gen("x"), x: L.gen("y")}) == Derivation(
        L, L, 1, {x: L.gen("y"), z: L.gen("x")})


def _gamma_reference(L, C, reduced):
    """The all-pairs reference's failures for gamma_check on the identity
    of L, whose chains are C, with reduced as the reduced coproduct rows."""
    LC = lie_functor(C, L.trunc)
    label_of_gen = dict(zip(LC.gens, C.reduced_indices()))
    lo, hi = L.degree_bounds()
    gdegs = [g.degree for g in LC.gens]
    failures = []
    for n in range(lo - max(gdegs), hi - min(gdegs) + 1):
        tables = [("%s->%s" % (g.name, e.label), label_of_gen[g], _words(e))
                  for g in LC.gens for e in L.basis(g.degree + n)]
        failures += w_gamma_bracket_failures(
            tables, n, C.degrees, C.comul, reduced, C.counit,
            L.trunc.max_bracket_length)
    return failures


def _row_pairs(rows):
    return {(l, r) for row in rows for l, r, _ in row}


def _mutated_rows(rows, drop=None, add=None, negate=None):
    """Coproduct rows (index, terms) without the term drop = (index, term),
    with the term add = (index, term) put at the end of its row, or with the
    coefficient of the term negate = (index, term) negated in place."""
    return {i: [(l, r, -c) if (i, (l, r, c)) == negate else (l, r, c)
                for l, r, c in row if (i, (l, r, c)) != drop]
            + ([add[1]] if add is not None and add[0] == i else [])
            for i, row in rows}


def test_gamma_bracket_pairs_match_the_all_pairs_reference():
    L, C, _, _ = _gamma_chains()
    reduced = {i: C.reduced_comul(i) for i in C.reduced_indices()}
    rep = gamma_check(DGLMorphism.identity(L), word_cap=2)
    assert rep.ok and rep.failures == [] == _gamma_reference(L, C, reduced)
    assert rep.pairs_checked == 1483


def _gamma_case(case):
    """(morphism, word cap, pairs checked) of the gamma of the shear of
    wedge_spheres.cdgl, or of the identity of wedge(1,1), whose generators
    have degree 0, at cap 3."""
    if case == "shear":
        ws, _ = workspace_from_text(read_data("wedge_spheres.cdgl"))
        return ws.morphisms["shear"], 2, 635
    return DGLMorphism.identity(wedge_model((1, 1), T(3))), 2, 3125


@pytest.mark.parametrize("case", ["shear", "wedge11"])
def test_gamma_bracket_rows_match_the_all_pairs_reference(case):
    phi, word_cap, pairs = _gamma_case(case)
    C = chains_functor(phi.source, word_cap)
    reduced = {i: C.reduced_comul(i) for i in C.reduced_indices()}
    rep = gamma_check(phi, word_cap)
    assert rep.ok and rep.failures == [] == _gamma_reference(phi.target, C, reduced)
    assert rep.pairs_checked == pairs


def _gamma_mutant(monkeypatch, change):
    """gamma_check on the identity of wedge(2,2) at cap 2, word cap 2, with
    the change made in the reduced coproduct rows that it indexes for the
    derivation side, and the all-pairs reference's failures on them."""
    L, C, _, _ = _gamma_chains()
    mutated = _mutated_rows(((i, C.reduced_comul(i)) for i in C.reduced_indices()),
                            **change)
    monkeypatch.setattr(derivations, "comul_by_left", lambda rows: comul_by_left(
        _mutated_rows(rows, **change).items()))
    return gamma_check(DGLMorphism.identity(L), word_cap=2), _gamma_reference(
        L, C, mutated)


def test_gamma_bracket_check_sees_a_negated_coefficient(monkeypatch):
    # one reduced-row coefficient negated: its label pair's two row tables
    # differ, and the pairs of slots whose bracket is not zero fail
    _, C, _, _ = _gamma_chains()
    i, term = next((i, t) for i in C.reduced_indices()
                   for t in C.reduced_comul(i) if C.degrees[t[0]] == C.degrees[t[1]])
    rep, want = _gamma_mutant(monkeypatch, {"negate": (i, term)})
    assert want and not rep.ok and rep.failures == want


def test_gamma_bracket_check_skips_pairs_that_bracket_to_zero(monkeypatch):
    # a term added on labels (l, r) of degrees 2 and 3 to a row that does
    # not hold them: the row tables of (l, r) differ, but the slots of l and
    # r meet only in degree 0, where at cap 2 a slot of l holds x or y and
    # one of r a bracket of length 2, so every pair of their slots brackets
    # to zero and none fails, as the all-pairs reference finds
    L, C, _, _ = _gamma_chains()
    l, r = next((l, r) for l in C.reduced_indices() for r in C.reduced_indices()
                if C.degrees[r] == C.degrees[l] + 1)
    i = next(i for i in C.reduced_indices()
             if C.degrees[i] == C.degrees[l] + C.degrees[r]
             and (l, r) not in _row_pairs([C.comul[i]]))
    LC = lie_functor(C, L.trunc)
    gen = dict(zip(C.reduced_indices(), LC.gens))
    meets = [n for n in range(-8, 8) if L.basis(gen[l].degree + n)
             and L.basis(gen[r].degree + n)]
    assert meets == [0]
    assert all(bracket(e, f).is_zero() for e in L.basis(gen[l].degree)
               for f in L.basis(gen[r].degree))
    rep, want = _gamma_mutant(monkeypatch, {"add": (i, (l, r, 1))})
    assert want == [] and rep.ok and rep.failures == []


@pytest.mark.parametrize("mutant", ["drop", "add"])
def test_gamma_bracket_pairs_see_a_term_of_one_table(monkeypatch, mutant):
    # the mutant is made in the reduced coproduct table that gamma_check
    # indexes for the derivation side (the chains' Lie model, which also
    # reads the reduced coproduct, keeps its differential).  A term dropped
    # there is left only in the full coproduct, which the convolution side
    # reads; a term added there, on labels that no full row holds, is read
    # only by the derivation side.  Either way the pair must be visited.
    L, C, _, _ = _gamma_chains()
    full = [row for i, row in C.comul.items() if i != C.counit]
    reduced = {i: C.reduced_comul(i) for i in C.reduced_indices()}
    if mutant == "drop":
        seen = [(l, r) for row in reduced.values() for l, r, _ in row]
        i, term = next((i, t) for i, row in reduced.items() for t in row
                       if seen.count(t[:2]) == 1)
        change = {"drop": (i, term)}
    else:
        held = _row_pairs(full)
        l = next(l for l in C.reduced_indices() if (l, l) not in held)
        i = next(i for i in C.reduced_indices()
                 if C.degrees[i] == 2 * C.degrees[l])
        term = (l, l, Fraction(1))
        change = {"add": (i, term)}
    mutated = _mutated_rows(reduced.items(), **change)
    assert (term[:2] in _row_pairs(full)) == (mutant == "drop")
    assert (term[:2] in _row_pairs(mutated.values())) == (mutant == "add")
    monkeypatch.setattr(derivations, "comul_by_left", lambda rows: comul_by_left(
        _mutated_rows(rows, **change).items()))
    rep = gamma_check(DGLMorphism.identity(L), word_cap=2)
    want = _gamma_reference(L, C, mutated)
    assert want and rep.failures == want


def _gamma_chain_reference(phi, word_cap, leibniz=1):
    """The ("chain", label) failures of gamma_check on phi, found slot by
    slot on the element path: Gamma(-s^{-1} D theta) against D_phibar
    Gamma(theta) for each unit table theta, with D by
    derivation_differential, its Leibniz term theta . d taken leibniz
    times, and D_phibar by the convolution differential and bracket."""
    C = chains_functor(phi.source, word_cap)
    LC = lie_functor(C, phi.target.trunc)
    phi_tilde = phi.compose(adjunction_alpha(phi.source, C, LC))
    H = ConvolutionElements(C, phi.target)
    phibar = H.element(-1, H.mc_of_morphism(phi))
    label_of_gen = dict(zip(LC.gens, C.reduced_indices()))
    lo, hi = phi.target.degree_bounds()
    gdegs = [g.degree for g in LC.gens]

    def gamma(theta):
        return HomElement(H, theta.degree - 1, {
            label_of_gen[g]: v.scale((-1) ** theta.degree)
            for g, v in theta.values.items()})

    failures = []
    for n in range(lo - max(gdegs), hi - min(gdegs) + 1):
        for th in unit_derivations(LC, phi.target, n):
            img = gamma(th)
            D = derivation_differential(th, phi_tilde)
            d_th = Derivation(LC, phi.target, n - 1, {
                g: phi.target.d(v) for g, v in th.values.items()})
            lhs = gamma(d_th + (D - d_th).scale(leibniz)).scale(-1)
            if lhs != H.differential(img) + H.bracket(phibar, img):
                failures.append(("chain", th.label))
    return failures


@pytest.mark.parametrize("term", ["bracket", "leibniz"])
def test_gamma_chain_check_sees_a_flipped_sign(monkeypatch, term):
    # the sign of the perturbing bracket [phibar, f] of the Hom side, or of
    # the Leibniz term theta(d h) of the derivation side where the unit
    # columns read it, flipped: the chain check fails on exactly the slots
    # where the element path sees the two sides differ, and names them
    L = wedge_model((2, 2), T(2))
    phi = DGLMorphism.identity(L)
    assert _gamma_chain_reference(phi, 2) == []
    if term == "bracket":
        mc = ConvolutionDGL.mc_of_morphism
        monkeypatch.setattr(ConvolutionDGL, "mc_of_morphism", lambda H, f: {
            i: v.scale(-1) for i, v in mc(H, f).items()})
    else:
        column, reached = derivations.LeibnizTerms.column, []
        monkeypatch.setattr(derivations.LeibnizTerms, "column", lambda *args: reached.append(
            args) or {h: {k: -v for k, v in t.items()} for h, t in column(*args).items()})
    rep = gamma_check(phi, word_cap=2)
    assert term == "bracket" or reached
    want = _gamma_chain_reference(phi, 2, -1 if term == "leibniz" else 1)
    assert not rep.ok and want and rep.failures == want
    C = chains_functor(L, 2)
    LC = lie_functor(C, L.trunc)
    slots = {lbl for n in range(-4, 3) for lbl in DerSpace(LC, L, n).labels()}
    assert {label for _, label in rep.failures} <= slots


@pytest.mark.parametrize("case", ["wedge22", "shear"])
def test_gamma_check_takes_no_element_differential(monkeypatch, case):
    # the chain-map check reads the boundary columns of both complexes and
    # the bracket check the coproduct rows: the engine holds no per-table D
    # of derivations or of Hom, no Hom element, and gamma_check builds no
    # derivation
    def unreachable(*args, **kwargs):
        raise AssertionError("derivation built in gamma_check")

    if case == "wedge22":
        phi, counts = DGLMorphism.identity(wedge_model((2, 2), T(2))), (None, 1483)
    else:
        ws, _ = workspace_from_text(read_data("wedge_spheres.cdgl"))
        phi, counts = ws.morphisms["shear"], (75, 635)
    assert not hasattr(derivations, "derivation_differential")
    for name in ("element", "zero", "basis", "differential", "bracket", "check_mc",
                 "restriction_reduced", "from_l_element", "split", "verify_splitting"):
        assert not hasattr(ConvolutionDGL, name), name
    for name in ("HomElement", "CoalgebraMap", "adjunction_beta"):
        assert not hasattr(coalgebra, name), name
    monkeypatch.setattr(Derivation, "__init__", unreachable)
    rep = gamma_check(phi, word_cap=2)
    assert rep.ok and rep.failures == []
    assert counts[0] in (None, rep.basis_checked) and rep.pairs_checked == counts[1]


def test_morphism_derive_matches_the_leibniz_kernel():
    # theta(d h) on tensor words, theta an f-derivation along a morphism f,
    # is the Leibniz kernel's column on the target's bracket table
    from cdgl.derivations import LeibnizTerms
    ws, _ = workspace_from_text(read_data("wedge_homotopy.cdgl"))
    ab, _ = workspace_from_text(read_data("ad_boundary.cdgl"))
    T = Truncation(4)
    for phi in (ws.morphisms["f"], ws.morphisms["g"], DGLMorphism.identity(
            circle_model(T)), DGLMorphism.identity(interval_model(T)),
                DGLMorphism.identity(ab.models["AB"].presentation)):
        src, tgt, seen = phi.source, phi.target, 0
        leibniz = LeibnizTerms(src, tgt, phi)
        for n in range(-1, 3):
            for g in src.gens:
                for j, e in enumerate(tgt.basis(g.degree + n)):
                    column = leibniz.column(g, n, j)
                    for h in src.gens:
                        got = phi.derive({g: e}, n, src.d_on_gens[h])
                        assert tgt.coords(got, h.degree - 1 + n).entries == column.get(h, {})
                        seen += bool(got.terms)
        assert seen

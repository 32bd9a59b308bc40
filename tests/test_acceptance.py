"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance here is exact (integer dimensions or identical rational
coefficients); the only non-exact budgets are wall-clock ceilings, asserted
where the criterion states one.
"""

import os
import random
import sys
import time
from fractions import Fraction

from cdgl.coalgebra import chains_functor, lie_functor
from cdgl.cylinder import Cylinder, Witness, check_homotopy
from cdgl.derivations import (DerComplex, GSpec, classifying_invariants,
                              gamma_check, twisted_der_sl)
from cdgl.dgl import (DGLMorphism, GeneratorFiltration, MCElement, build_dgl,
                      check_mc, exp_ad, exp_derivation_values, h0_group,
                      log_morphism)
from cdgl.exactlin import SparseVec, homology_at, les_of_ses
from cdgl.freelie import Generator, LieElement, Truncation, bracket, lie_basis
from cdgl.models import circle_model, interval_model, sphere_model, wedge_model
from cdgl.workbench import parse_document, workspace_from_text
from cdgl.workbench.ast import print_document

from oracles import (ConvolutionElements, ad_derivation, bch_der, connected_cover,
                     der_h0_elements, derivation_bracket, derivation_differential,
                     export_source, h0_mul, hom_der_bracket, l_bch, l_gauge_act,
                     l_h0_elements, left_normed, perturbed, twisted_hom_der, w_bch)

DATA = os.path.join(os.path.dirname(__file__), "data")


def announce(num, ok, desc):
    # visible with `pytest -s`; kept on stdout so the harness can tee it
    print("ACCEPTANCE %2d: %s - %s" % (num, "PASS" if ok else "FAIL", desc))
    sys.stdout.flush()


def read(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read()


def rand_deg0(rng, L, gens0, n_terms=2):
    out = L.zero()
    cap = L.trunc.max_bracket_length
    for _ in range(n_terms):
        ln = rng.randint(1, cap)
        seq = tuple(rng.choice(gens0) for _ in range(ln))
        out = out + left_normed(seq, L.trunc).scale(
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return out


def test_criterion_01_interval_d_squared_cap8():
    t0 = time.time()
    L = interval_model(Truncation(8))
    ok = all(L.d(L.d_on_gens[g]).is_zero() for g in L.gens)
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    announce(1, ok, "interval model d^2 x = 0 at cap 8 (%.2fs)" % elapsed)
    assert ok


def test_criterion_02_bch_against_independent_oracle():
    t0 = time.time()
    rng = random.Random(102)
    L = wedge_model((1, 1), Truncation(6))
    gens0 = list(L.gens)

    def to_words(e):
        return {tuple((g.name, g.degree) for g in w): c for w, c in e.terms.items()}

    ok = True
    for _ in range(20):
        x = rand_deg0(rng, L, gens0)
        y = rand_deg0(rng, L, gens0)
        if to_words(l_bch(L, x, y)) != w_bch(to_words(x), to_words(y), 6):
            ok = False
            break
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    announce(2, ok, "BCH equals independent tensor-algebra oracle at cap 6 "
                    "(%.2fs)" % elapsed)
    assert ok


def test_criterion_03_gauge_laws():
    t0 = time.time()
    rng = random.Random(103)
    trunc = Truncation(5)
    u, v, r = Generator("u", 0), Generator("v", 0), Generator("r", -1)
    er = LieElement.gen(r, trunc)
    L = build_dgl((u, v, r), {r: bracket(er, er).scale(Fraction(-1, 2))},
                  trunc, mc_gens=(r,))
    a = MCElement(L, L.gen("r"))
    gens0 = [u, v]
    ok = l_gauge_act(L.zero(), a).value == a.value
    for _ in range(50):
        x = rand_deg0(rng, L, gens0)
        y = rand_deg0(rng, L, gens0)
        lhs = l_gauge_act(l_bch(L, x, y), a)
        rhs = l_gauge_act(x, l_gauge_act(y, a))
        if lhs.value != rhs.value:
            ok = False
            break
    L1 = interval_model(Truncation(8))
    mca = MCElement(L1, L1.gen("a"))
    ok = ok and l_gauge_act(L1.gen("x"), mca).value == L1.gen("b")
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    announce(3, ok, "gauge identity/composition laws (50 cases, cap 5) and "
                    "x gauge a = b in the interval at cap 8 (%.2fs)" % elapsed)
    assert ok


def test_criterion_04_exp_log_roundtrips():
    L = wedge_model((3, 3), Truncation(4))
    x, y = L.gen("x"), L.gen("y")
    phi = DGLMorphism(L, L, {L.generator("x"): x + y,
                             L.generator("y"): y}).validate()
    vals = log_morphism(phi)
    ok = (vals[L.generator("x")] == y and vals[L.generator("y")].is_zero()
          and exp_derivation_values(L, vals) == phi)
    W = wedge_model((1, 1), Truncation(4))
    eadu = exp_ad(W, W.gen("x"))
    back = exp_derivation_values(W, log_morphism(eadu), check_cycle=False)
    ok = ok and back == eadu
    # log(exp theta) = theta on the shear derivation
    theta_vals = {L.generator("x"): y}
    again = log_morphism(exp_derivation_values(L, theta_vals))
    ok = ok and again[L.generator("x")] == y and again[L.generator("y")].is_zero()
    announce(4, ok, "exp(log f) = f and log(exp theta) = theta on the shear "
                    "and on exp(ad_u) at cap 4")
    assert ok


def test_criterion_05_convolution_hom_der_example():
    L = sphere_model(3, Truncation(3))
    C = chains_functor(L, word_cap=3)
    H = ConvolutionElements(C, L)
    dc = DerComplex(L, L, None, range(-1, 4))
    tw = twisted_hom_der(H, dc, range(-1, 4))
    hom_m1 = H.basis(-1)
    hom_2 = H.basis(2)
    der_all = [dc.space(n).unflatten(SparseVec.unit(i)) for n in range(-1, 4)
               for i in range(len(dc.space(n)))]
    ok = (len(hom_m1) == 1 and len(hom_2) == 1 and len(der_all) == 1
          and der_all[0].degree == 0)
    theta, x_elt, z_elt = der_all[0], hom_2[0], hom_m1[0]
    ok = ok and hom_der_bracket(H, theta, x_elt) == x_elt
    ok = ok and hom_der_bracket(H, theta, z_elt) == z_elt
    ok = ok and all(tw.total.d(n).is_zero() for n in range(-1, 4))
    ok = ok and H.bracket(x_elt, z_elt).is_zero()
    announce(5, ok, "odd-sphere convolution + Hom-Der pipeline reproduces the "
                    "basis {x, z, theta} with [theta,x]=x, [theta,z]=z, d=0")
    assert ok


def test_criterion_06_explicit_homotopy_witness():
    S = circle_model(Truncation(5))
    W = wedge_model((1, 1), Truncation(5))
    u, v = W.gen("x"), W.gen("y")
    cyl = Cylinder(W, 6)
    flow = cyl.exp_ad(cyl.t_power(1, u), cyl.constant(v))
    f = DGLMorphism(S, W, {S.generator("x"): v}).validate()
    g = DGLMorphism(S, W, {S.generator("x"): exp_ad(W, u).apply(v)}).validate()
    good = Witness(S, W, {S.generator("x"): flow,
                          S.generator("b"): cyl.t_power(0, u.scale(-1), dt=True)}, 6)
    bad = Witness(S, W, {S.generator("x"): flow,
                         S.generator("b"): cyl.t_power(0, u, dt=True)}, 6)
    accept = check_homotopy(good, f, g)
    reject = check_homotopy(bad, f, g)
    ok = (accept.ok and not reject.ok
          and reject.certificate.get("morphism", {}).get("generator"))
    announce(6, ok, "explicit circle homotopy accepted; sign-flipped witness "
                    "rejected with a certificate, caps (5, 6)")
    assert ok


def test_criterion_07_classifying_odd_spheres():
    t0 = time.time()
    ok = True
    for n in (3, 5):
        L = sphere_model(n, Truncation(3))
        dc = DerComplex(L, L, None, range(-1, 2 * n + 2))
        tw = twisted_der_sl(dc, L, range(0, 2 * n + 2))
        cover = connected_cover(tw.total, 1)
        for k in range(1, 2 * n + 1):
            want = 1 if k == n else 0
            if homology_at(cover, k).dimension != want:
                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    announce(7, ok, "H of the 1-connected cover of Der x~ sL is Q at k = n "
                    "for S^3, S^5 (%.2fs)" % elapsed)
    assert ok


def test_criterion_08_classifying_s2():
    L = sphere_model(2, Truncation(4))
    dc = DerComplex(L, L, None, range(-1, 8))
    tw = twisted_der_sl(dc, L, range(0, 8))
    cover = connected_cover(tw.total, 1)
    ok = True
    for k in range(1, 7):
        want = 1 if k == 3 else 0
        if homology_at(cover, k).dimension != want:
            ok = False
    rep = classifying_invariants(L, GSpec("identity", L), "FREE", range(1, 7))
    ok = ok and all(rep.pi_base[k] == (1 if k == 3 else 0) for k in range(1, 7))
    announce(8, ok, "S^2: H_k = Q exactly at k = 3 in 1..6 "
                    "(pi_4 B aut_1 = Q, the BSO(3) answer)")
    assert ok


def test_criterion_09_wedge_stabilizer():
    L = wedge_model((3, 3), Truncation(3))
    filt = GeneratorFiltration.from_chain([set(L.gens), {L.generator("y")}])
    spec = GSpec("stabilizer", L, filtration=filt)
    rep = classifying_invariants(L, spec, "FREE", range(1, 6))
    G = rep.h0_quotient
    ok = (G.dimension == 1 and rep.ad_image_rank == 0 and G.abelian)
    reps, class_of = der_h0_elements(L, spec, G)
    a = reps[0]
    lhs = class_of(bch_der(a.scale(Fraction(3, 7)), a.scale(Fraction(4, 7))))
    ok = ok and lhs == class_of(a)
    announce(9, ok, "wedge S^3 v S^3 stabilizer: H_0(Der^K) has dimension 1, "
                    "Im H_0(ad) = 0, quotient is (Q, +)")
    assert ok


def test_criterion_10_h0_divisibility():
    rng = random.Random(110)
    L = wedge_model((1, 1), Truncation(5))
    G = h0_group(L)
    _, class_of = l_h0_elements(L, G)
    gens0 = list(L.gens)
    ok = True
    for _ in range(10):
        a = rand_deg0(rng, L, gens0)
        mu = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        nu = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if l_bch(L, a.scale(mu), a.scale(nu)) != a.scale(mu + nu):
            ok = False
        u = class_of(a)
        if h0_mul(G, u.scale(mu), u.scale(nu)) != u.scale(mu + nu):
            ok = False
    announce(10, ok, "BCH Q-divisibility mu a * nu a = (mu + nu) a at cap 5, "
                     "with exact Q-powers on H_0 classes")
    assert ok


def test_criterion_11_gamma_verification():
    ok = True
    for n in (2, 3):
        L = sphere_model(n, Truncation(4))
        rep = gamma_check(DGLMorphism.identity(L), word_cap=3)
        ok = ok and rep.ok and rep.basis_checked > 0
    announce(11, ok, "suspension-comparison isomorphism verified (bijective "
                     "chain map, bracket-compatible) for S^2 and S^3 at "
                     "caps (3, 4)")
    assert ok


def test_criterion_12_alpha_quasi_isomorphism():
    ok = True
    for n in (2, 3):
        dims = {}
        for (w, N) in ((4, 5), (5, 6)):
            L = sphere_model(n, Truncation(N))
            C = chains_functor(L, word_cap=w)
            LC = lie_functor(C, Truncation(N))
            CL = L.complex(range(-1, 6)).validate()
            CLC = LC.complex(range(-1, 6)).validate()
            dims[(w, N)] = ([homology_at(CLC, k).dimension for k in range(0, 5)],
                            [homology_at(CL, k).dimension for k in range(0, 5)])
        got, want = dims[(4, 5)]
        ok = ok and got == want
        ok = ok and dims[(4, 5)] == dims[(5, 6)]  # stability green
    announce(12, ok, "H_k(Lie(Chains(L))) = H_k(L) for k <= 4 on sphere "
                     "models at caps (4, 5), stable under cap bumps")
    assert ok


def test_criterion_13_les_exactness():
    ok = True
    for n in (2, 3):
        L = sphere_model(n, Truncation(4))
        dc = DerComplex(L, L, None, range(-1, 8))
        tw = twisted_der_sl(dc, L, range(0, 8))
        try:
            les = les_of_ses(tw, range(0, 7))
        except Exception:
            ok = False
            continue
        ok = ok and les.degrees == list(range(0, 7))
    announce(13, ok, "long exact sequence of Der ->. Der x~ sL ->> sL exact "
                     "at every slot in degrees 0..6 for S^2 and S^3")
    assert ok


def test_criterion_14_perturbation_bijection():
    rng = random.Random(114)
    L = circle_model(Truncation(5))
    b = L.gen("b")
    Lb = perturbed(L, b)
    gens0 = [L.generator("x")]
    ok = True
    for _ in range(20):
        x = rand_deg0(rng, L, gens0)
        z = l_gauge_act(x, MCElement(L, b)).value          # MC solution of d
        if not check_mc(Lb, z - b)[0]:
            ok = False
        w = l_gauge_act(x, MCElement(Lb, L.zero())).value  # MC solution of d_b
        if not check_mc(L, w + b)[0]:
            ok = False
    # non-solutions should correspond too: z MC iff z - b MC
    for _ in range(20):
        cand = rand_deg0(rng, L, gens0)  # degree 0, reuse as noise source
        zz = b.scale(Fraction(rng.randint(-2, 2))) + L.d(cand)
        if check_mc(L, zz)[0] != check_mc(Lb, zz - b)[0]:
            ok = False
    announce(14, ok, "z -> z - b exchanges MC solutions of d and d_b on the "
                     "circle model, both directions, 20 randomized candidates")
    assert ok


def test_criterion_15_parser_corpus():
    ok = True
    for i in range(1, 11):
        ws, _ = workspace_from_text(read("errors/e%02d.cdgl" % i))
        errs = [d for d in ws.diags if d.severity == "error"]
        if not errs or not all(d.line >= 1 and d.col >= 1 for d in errs):
            ok = False
    corpus = ["s1.cdgl", "sphere2.cdgl", "wedge_homotopy.cdgl",
              "wedge_spheres.cdgl"]
    texts = [read(n) for n in corpus]
    from cdgl.models import builtin_model
    for ref, params in (("sphere", (2,)), ("sphere", (3,)), ("wedge", (1, 1)),
                        ("S1", ()), ("L1", ()), ("L0", ())):
        texts.append(export_source(builtin_model(ref, params, Truncation(4))))
    for text in texts:
        doc, diags = parse_document(text)
        if [d for d in diags if d.severity == "error"]:
            ok = False
            continue
        printed = print_document(doc)
        doc2, diags2 = parse_document(printed)
        if [d for d in diags2 if d.severity == "error"]:
            ok = False
            continue
        if print_document(doc2) != printed:
            ok = False
    announce(15, ok, "positioned diagnostics on the 10-case error corpus; "
                     "print-parse-print idempotent on builtins + examples")
    assert ok


def test_criterion_16_property_suites():
    t0 = time.time()
    rng = random.Random(116)
    gens = (Generator("u", 1), Generator("v", 2), Generator("w", 0))
    trunc = Truncation(4)

    def rand_elt(degree=None, n_terms=2):
        out = LieElement.zero(trunc)
        for _ in range(n_terms * 3):
            ln = rng.randint(1, 4)
            seq = tuple(rng.choice(gens) for _ in range(ln))
            if degree is not None and sum(g.degree for g in seq) != degree:
                continue
            out = out + left_normed(seq, trunc).scale(Fraction(rng.randint(-3, 3)))
        return out

    ok = True
    # graded antisymmetry, 200 cases
    for _ in range(200):
        da, db = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
        a, b = rand_elt(da), rand_elt(db)
        if not (bracket(a, b) + bracket(b, a).scale((-1) ** (da * db))).is_zero():
            ok = False
    # graded Jacobi, 200 cases
    for _ in range(200):
        da, db = rng.choice([0, 1]), rng.choice([0, 1, 2])
        a, b, c = rand_elt(da), rand_elt(db), rand_elt(rng.choice([0, 1, 2]))
        lhs = bracket(a, bracket(b, c))
        rhs = bracket(bracket(a, b), c) + bracket(b, bracket(a, c)).scale(
            (-1) ** (da * db))
        if not (lhs - rhs).is_zero():
            ok = False
    # Witt dimensions, one check per (k, n) pair repeated to 200 evaluations
    def mobius(n):
        if n == 1:
            return 1
        m, cnt, p = n, 0, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                cnt += 1
            else:
                p += 1
        return (-1) ** (cnt + (1 if m > 1 else 0))

    def witt(k, n):
        return sum(mobius(d) * k ** (n // d) for d in range(1, n + 1)
                   if n % d == 0) // n

    for k in (2, 3):
        zgens = tuple(Generator("g%d" % i, 0) for i in range(k))
        for n in (1, 2, 3, 4):
            if len(lie_basis(zgens, 0, n, Truncation(4))) != witt(k, n):
                ok = False
    # derivation Leibniz rule, 200 cases
    L = wedge_model((2, 3), Truncation(4))
    from cdgl.derivations import Derivation
    for _ in range(200):
        deg = rng.choice([0, 1])
        values = {}
        for g in L.gens:
            basis = L.basis(g.degree + deg)
            if basis:
                values[g] = basis[rng.randrange(len(basis))].scale(
                    Fraction(rng.randint(-2, 2)))
        th = Derivation(L, L, deg, values)
        da = rng.choice([1, 2])
        a = _hom_elt(rng, L, da)
        b = _hom_elt(rng, L, rng.choice([1, 2]))
        lhs = th.apply(bracket(a, b))
        rhs = (bracket(th.apply(a), b)
               + bracket(a, th.apply(b)).scale((-1) ** (deg * da)))
        if not (lhs - rhs).is_zero():
            ok = False
    # ad is a dgl morphism, 200 cases
    S = circle_model(Truncation(4))
    for _ in range(200):
        dx = rng.choice([0, -1])
        x = _hom_elt(rng, S, dx)
        y = _hom_elt(rng, S, rng.choice([0, -1]))
        if not (ad_derivation(S, S.d(x))
                - derivation_differential(ad_derivation(S, x))).is_zero():
            ok = False
        if not (ad_derivation(S, bracket(x, y))
                - derivation_bracket(ad_derivation(S, x),
                                     ad_derivation(S, y))).is_zero():
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    announce(16, ok, "property suites (antisymmetry, Jacobi, Witt, Leibniz, "
                     "ad morphism), 200 randomized cases each (%.2fs)" % elapsed)
    assert ok


def _hom_elt(rng, L, degree):
    basis = L.basis(degree)
    out = L.zero()
    if not basis:
        return out
    for _ in range(2):
        out = out + basis[rng.randrange(len(basis))].scale(
            Fraction(rng.randint(-2, 2)))
    return out

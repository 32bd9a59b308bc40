"""Independent brute-force oracles used by the test suite.

No oracle calls the engine's elimination or tensor-algebra code: dense
Fraction matrices and a standalone word algebra keep the oracles on a
separate path from the implementations they check.  The word product and
the exp/log series sum pair by pair and power by power on Fractions, as the
engine's did before it moved to integers, so that they also pin the order of
the engine's output.  The differentials of derivations and of convolution
elements visit every generator or label of a table, where the engine visits
only those a table can reach; the bracket compatibility of gamma compares
both sides on every pair of unit tables and every coproduct row, where the
engine compares one table of row coefficients per pair of labels and
brackets only the slots of the pairs whose tables differ.  w_classifying
takes the classifying nilpotency index on dense word derivations, where
the engine reads unit slots and sparse spans.  The last sections hold test
helpers that build engine values (left-normed brackets, the full cap + 1
homology re-run that rebuilds the whole complex, the Dynkin map,
connected covers, the perturbed presentation, components, the Fraction
gauge series, the action on morphisms, model file text, the derivation complex built
element by element with its unit tables, its element-by-element complex
builder and the element paths of D, ad and the brackets of Der and
Der (x~) sL on derivation tables (derivation_differential, ad_derivation,
derivation_bracket, der_sl_bracket), the representatives, classes and law
of an H_0 group read through elements, the engine's BCH of L_0 and its
gauge action and gauge-equivalence witness on Lie elements (l_bch,
l_gauge_act, l_gauge_equivalent: coordinates in and elements out), the
word BCH of Lie elements (tensor_bch, by w_bch), the operator BCH of
derivations and the Hom (x~) Der product, the element path of Hom(C, L) (HomElement
tables and ConvolutionElements: D, the convolution bracket, the MC check
and the splitting Hom(C, L) = Hom(C-bar, L) x~ L), and the adjunction beta
with its CoalgebraMap),
assert_exact, the check of the engine's scalar normal form, and the long
exact sequence of any short exact sequence of chain maps (generic_les,
through the engine's homology reports and one FactoredBasis per lift and
pull-back, the reference for les_of_ses on a twisted product's blocks); no
oracle uses them.  argparse_argv reads a command line with argparse, the
reference for the CLI's own argv reader.
"""

import argparse
from fractions import Fraction
from math import factorial, gcd

from cdgl.coalgebra import (CDGC, CoalgebraError, ConvolutionDGL, chains_functor,
                            lie_functor, wedge_normalize)
from cdgl.derivations import DerSpace, Derivation, der_g_zero, mapping_space_pi
from cdgl.dgl import (DGLPresentation, GaugeResult, MCElement, MCViolationError,
                      _max_iterations, ad_values, apply_operator, bch, check_mc,
                      exp_ad, exp_derivation_values, gauge_act, gauge_equivalent,
                      log_morphism, nilpotent_series)
from cdgl.exactlin import (ExactnessError, FactoredBasis, GradedChainComplex,
                           IllFormedComplexError, LongExactSequence, NotInSpanError,
                           SparseMat, SparseVec, accumulate, exact, homology_at,
                           homology_reports, kernel_basis, twisted_product)
from cdgl.freelie import (LieElement, LieTable, _dynkin_terms, _exp_coefficient,
                          bracket)
from cdgl.workbench.tasks import _degree_range, _load, _morphism, pretty_element


def dense(mat_entries, n_rows, n_cols):
    M = [[Fraction(0)] * n_cols for _ in range(n_rows)]
    for (r, c), v in mat_entries.items():
        M[r][c] = Fraction(v)
    return M


def dense_rref(M, n_cols):
    """Reduced row echelon form of the rows M by Gauss-Jordan over
    Fractions: (pivot columns, rows), row i monic at pivot i and zero at
    every other pivot column; zero rows are dropped."""
    R = [[Fraction(v) for v in row] for row in M]
    pivots = []
    for c in range(n_cols):
        r = next((r for r in range(len(pivots), len(R)) if R[r][c]), None)
        if r is None:
            continue
        k = len(pivots)
        R[k], R[r] = R[r], R[k]
        R[k] = [v / R[k][c] for v in R[k]]
        for i in range(len(R)):
            if i != k and R[i][c]:
                f = R[i][c]
                R[i] = [v - f * w for v, w in zip(R[i], R[k])]
        pivots.append(c)
    return pivots, R[:len(pivots)]


def dense_rank(M):
    return len(dense_rref(M, len(M[0]) if M else 0)[0])


def dense_kernel(M, n_cols):
    """Basis of {x : M x = 0}: one vector per free column, 1 there and 0 at
    the other free columns."""
    pivots, R = dense_rref(M, n_cols)
    out = []
    for f in range(n_cols):
        if f in pivots:
            continue
        x = [Fraction(0)] * n_cols
        x[f] = Fraction(1)
        for c, row in zip(pivots, R):
            x[c] = -row[f]
        out.append(x)
    return out


def dense_solve(A, b):
    """The solution of A x = b with free variables zero, or None."""
    n_cols = len(A[0]) if A else 0
    pivots, R = dense_rref([row + [v] for row, v in zip(A, b)], n_cols + 1)
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for c, row in zip(pivots, R):
        x[c] = row[n_cols]
    return x

# --- standalone graded word algebra -----------------------------------

def w_mul_admitted(a, b, admits):
    """Concatenation product of dicts word(tuple of (name, deg)) -> Fraction
    (the empty word allowed), pair by pair in the order of a then b, keeping
    the nonempty words that admits accepts; a word whose sum reaches zero
    leaves the dict and re-enters at the end, as in the engine's product."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            if w and not admits(w):
                continue
            s = out.get(w, Fraction(0)) + ca * cb
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def w_add(a, b):
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, Fraction(0)) + c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def w_scale(a, c):
    c = Fraction(c)
    return {w: v * c for w, v in a.items()} if c else {}


def w_bracket(a, b, cap):
    """[a,b] = ab - (-1)^{|a||b|} ba per homogeneous word pair."""
    out = {}
    for wa, ca in a.items():
        da = sum(d for _, d in wa)
        for wb, cb in b.items():
            db = sum(d for _, d in wb)
            if len(wa) + len(wb) > cap:
                continue
            out[wa + wb] = out.get(wa + wb, Fraction(0)) + ca * cb
            sgn = Fraction(-1) if (da * db) % 2 == 0 else Fraction(1)
            out[wb + wa] = out.get(wb + wa, Fraction(0)) + sgn * ca * cb
    return {w: c for w, c in out.items() if c}


def _w_series(v, coefficient, admits, out):
    """out plus sum_{k >= 1} coefficient(k) v^k, one power at a time; v has
    no empty word and admits bounds the length, so the powers vanish."""
    power, k = {(): Fraction(1)}, 0
    while power:
        k += 1
        power = w_mul_admitted(power, v, admits)
        out = w_add(out, w_scale(power, coefficient(k)))
    return out


def w_exp(x, admits):
    return _w_series(x, lambda k: Fraction(1, factorial(k)), admits,
                     {(): Fraction(1)})


def w_log(u, admits):
    v = {w: c for w, c in u.items() if w}
    return _w_series(v, lambda k: Fraction((-1) ** (k + 1), k), admits, {})


def w_bch(x, y, cap):
    """Independent BCH oracle: log(exp(x) exp(y)) in the word algebra."""
    def admits(w):
        return len(w) <= cap
    return w_log(w_mul_admitted(w_exp(x, admits), w_exp(y, admits), admits), admits)


def w_dynkin(a, cap):
    """Right-nested bracketing, word by word: x1...xn -> [x1,[x2,[...,xn]]]."""
    out = {}
    for w, c in a.items():
        cur = {w[-1:]: Fraction(1)}
        for letter in reversed(w[:-1]):
            cur = w_bracket({(letter,): Fraction(1)}, cur, cap)
        out = w_add(out, w_scale(cur, c))
    return out


def w_is_lie(a, cap):
    """Dynkin-Specht-Wever: a is Lie iff D(a_n) = n a_n for every length n."""
    for n in {len(w) for w in a}:
        comp = {w: c for w, c in a.items() if len(w) == n}
        if w_dynkin(comp, cap) != w_scale(comp, n):
            return False
    return True


def w_cyl_mul(F, G, admits):
    """Product in poly(t, dt) (x) T(V) of forms (k, has_dt) -> word dict:
    (a (x) u)(a' (x) v) = (-1)^{|a'||u|} aa' (x) uv, one word u at a time,
    with |dt| = -1 and dt dt = 0."""
    out = {}
    for (k, d1), u in F.items():
        for (j, d2), v in G.items():
            if d1 and d2:
                continue
            for wu, cu in u.items():
                odd = d2 and sum(d for _, d in wu) % 2
                piece = w_mul_admitted({wu: -cu if odd else cu}, v, admits)
                m = (k + j, d1 or d2)
                out[m] = w_add(out.get(m, {}), piece)
    return {m: t for m, t in out.items() if t}


def w_cyl_bracket(F, G, admits):
    """Graded commutator FG - (-1)^{|F||G|} GF in poly(t, dt) (x) T(V), one
    pair of single-word monomial terms at a time; a term t^k dt^e (x) w has
    degree |w| - e."""
    def pieces(H):
        for m, terms in H.items():
            for w, c in terms.items():
                yield {m: {w: c}}, sum(d for _, d in w) - m[1]

    out = {}
    for p, dp in pieces(F):
        for q, dq in pieces(G):
            sign = -1 if dp * dq % 2 else 1
            for m, t in w_cyl_mul(p, q, admits).items():
                out[m] = w_add(out.get(m, {}), t)
            for m, t in w_cyl_mul(q, p, admits).items():
                out[m] = w_add(out.get(m, {}), w_scale(t, -sign))
    return {m: t for m, t in out.items() if t}


def w_cyl_apply(images, a, admits):
    """The algebra map T(V) -> poly(t, dt) (x) T(V) extending the letter
    images (forms), applied to the word dict a: each word's images are
    multiplied from the left one factor at a time, each partial product
    tested by admits."""
    out = {}
    for w, c in a.items():
        cur = {(0, False): {(): c}}
        for g in w:
            cur = w_cyl_mul(cur, images[g], admits)
        for m, t in cur.items():
            out[m] = w_add(out.get(m, {}), {ww: cc for ww, cc in t.items() if ww})
    return {m: t for m, t in out.items() if t}


def w_apply_operator(values, op_degree, a, admits, phi=None):
    """Reference phi-derivation, one word position at a time: the phi images
    of the letters before the position, the value at it and the phi images
    after it, multiplied from the left one factor at a time with each
    partial product tested by admits.  values and phi map a letter to a
    word dict; phi = None is the identity."""
    out = {}
    for w, c in a.items():
        for i, letter in enumerate(w):
            val = values.get(letter)
            if not val:
                continue
            sign = -1 if op_degree * sum(d for _, d in w[:i]) % 2 else 1
            terms = {(): c * sign}
            for g in w[:i]:
                img = {(g,): Fraction(1)} if phi is None else phi[g]
                terms = w_mul_admitted(terms, img, admits)
            terms = w_mul_admitted(terms, val, admits)
            for g in w[i + 1:]:
                img = {(g,): Fraction(1)} if phi is None else phi[g]
                terms = w_mul_admitted(terms, img, admits)
            out = w_add(out, {ww: cc for ww, cc in terms.items() if ww})
    return out


# --- dense differentials on tables ---------------------------------------

def w_derivation_differential(values, degree, source_d, target_d, admits,
                              phi=None):
    """D theta = d theta - (-1)^{|theta|} theta d, taken on every letter of
    the source: values maps a source letter to the word dict of theta's
    value, source_d and target_d map a letter to the word dict of its d,
    and phi is as in w_apply_operator.  Letters where D theta is zero are
    left out."""
    sgn = -1 if degree % 2 else 1
    out = {}
    for g, dg in source_d.items():
        v = w_add(w_apply_operator(target_d, -1, values.get(g, {}), admits),
                  w_scale(w_apply_operator(values, degree, dg, admits, phi), -sgn))
        if v:
            out[g] = v
    return out


def w_convolution_differential(values, degree, c_diff, n_labels, target_d,
                               admits):
    """D f = d f - (-1)^{|f|} f d on Hom(C, L), taken on every label
    0..n_labels-1 of C: values maps a label to the word dict of f's value,
    c_diff a label i to the (label, coefficient) pairs of d i in C, and
    target_d a letter to the word dict of its d in L.  Labels where D f is
    zero are left out."""
    sgn = -1 if degree % 2 else 1
    out = {}
    for i in range(n_labels):
        f_d = {}
        for j, c in c_diff.get(i, ()):
            f_d = w_add(f_d, w_scale(values.get(j, {}), c))
        v = w_add(w_apply_operator(target_d, -1, values.get(i, {}), admits),
                  w_scale(f_d, -sgn))
        if v:
            out[i] = v
    return out


# --- gamma's bracket compatibility on every pair --------------------------

def _w_row_bracket(row, left, right, a, b, sign_degree, label_degrees, cap):
    """sum of (-1)^{sign_degree |l|} c [a, b] over the terms (l, r, c) of a
    coproduct row with l == left and r == right."""
    out = {}
    for l, r, c in row:
        if l == left and r == right:
            sgn = -1 if sign_degree * label_degrees[l] % 2 else 1
            out = w_add(out, w_scale(w_bracket(a, b, cap), sgn * c))
    return out


def w_gamma_bracket_failures(tables, degree, label_degrees, comul, reduced,
                             counit, cap):
    """The ("bracket", name, name) failures of gamma's bracket compatibility,
    on every ordered pair of the degree-`degree` unit tables.

    tables lists (name, label, word dict): the table's one value, on the
    generator that desuspends the coalgebra label.  comul and reduced map a
    row label to its full and reduced coproduct terms (left, right, coeff);
    the derivation side reads reduced, the convolution side comul, each over
    every row.  Derivation side: Gamma of the desuspended bracket, theta(i) =
    -sum (-1)^{(n-1)|l|} c [a, b] with |theta| = 2n - 1, times
    (-1)^{|theta|}.  Convolution side: the bracket of the images (-1)^n a
    and (-1)^n b, of degree n - 1, without the counit row."""
    n = degree
    sgn_img = -1 if n % 2 else 1
    sgn_theta = -1 if (2 * n - 1) % 2 else 1
    failures = []
    for name_a, la, a in tables:
        for name_b, lb, b in tables:
            lhs = {}
            for i, row in reduced.items():
                v = _w_row_bracket(row, la, lb, a, b, n - 1, label_degrees, cap)
                if v:
                    lhs[i] = w_scale(v, -sgn_theta)
            rhs = {}
            for i, row in comul.items():
                if i == counit:
                    continue
                v = _w_row_bracket(row, la, lb, w_scale(a, sgn_img),
                                   w_scale(b, sgn_img), n - 1, label_degrees, cap)
                if v:
                    rhs[i] = v
            if lhs != rhs:
                failures.append(("bracket", name_a, name_b))
    return failures


# --- dense nilpotency class -----------------------------------------------

def dense_nilpotency_class(table):
    """Nilpotency class of the Lie algebra Q^n in which the bracket of unit
    vectors i and j is table[i][j] (a dict index -> Fraction): the number of
    nonzero terms of the lower central series, g_1 = Q^n and g_{k+1} the
    span of the brackets of a basis of g_k with the unit vectors, each
    basis taken by dense_rref."""
    n = len(table)

    def br(u, j):
        out = [Fraction(0)] * n
        for i, a in enumerate(u):
            for k, t in table[i][j].items():
                out[k] += a * t
        return out

    layer = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    c = 0
    while layer:
        c += 1
        if c > n + 1:
            raise AssertionError("lower central series does not descend")
        layer = dense_rref([br(u, j) for u in layer for j in range(n)], n)[1]
    return c


# --- reference Lie bases ----------------------------------------------

def mobius(n):
    """The Moebius function of n >= 1."""
    m, sign, p = n, 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def super_witt(degrees, alpha):
    """dim L_alpha for the free graded Lie algebra on generators of the
    given degrees, alpha[i] the number of letters of generator i:
        (1/|alpha|) sum_{d | gcd alpha} mu(d) (-1)^(o + o/d)
                    (|alpha|/d)! / prod_i (alpha_i/d)!,
    o the number of odd-degree letters.  Witt's formula for the free Lie
    superalgebra, with parity the degree mod 2 (Koszul signs); counted with
    no elimination."""
    n = sum(alpha)
    o = sum(a for a, deg in zip(alpha, degrees) if deg % 2)
    g = gcd(*alpha)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            words = factorial(n // d)
            for a in alpha:
                words //= factorial(a // d)
            total += mobius(d) * (-1) ** (o + o // d) * words
    assert total % n == 0
    return total // n


def gen_sequences(gens, degree, length):
    """All generator sequences of the given length and total degree, in
    lexicographic order by position in gens (anything with a .degree)."""
    if not gens:
        return []
    out = []
    degs = [g.degree for g in gens]
    lo, hi = min(degs), max(degs)

    def rec(prefix, deg_left, slots):
        if slots == 0:
            if deg_left == 0:
                out.append(tuple(prefix))
            return
        if deg_left < slots * lo or deg_left > slots * hi:
            return
        for g in gens:
            prefix.append(g)
            rec(prefix, deg_left - g.degree, slots - 1)
            prefix.pop()

    rec([], degree, length)
    return out


def _reduce(rows, vec):
    """vec minus its projection on the echelon rows (pivot -> row, each
    row 1 at its pivot and 0 at the other pivots)."""
    vec = dict(vec)
    for p, row in rows.items():
        f = vec.get(p)
        if f:
            vec = w_add(vec, w_scale(row, -f))
    return vec


def w_lie_basis(gens, degree, length):
    """Greedy basis of the (degree, length) component over the left-normed
    brackets of all generator sequences, in gen_sequences order: a bracket
    is kept when it adds rank.  gens have .name and .degree; returns
    (label, word dict) pairs, words as tuples of (name, degree)."""
    rows = {}
    out = []
    for seq in gen_sequences(gens, degree, length):
        letters = [(g.name, g.degree) for g in seq]
        cur = {(letters[-1],): Fraction(1)}
        label = seq[-1].name
        for letter in reversed(letters[:-1]):
            cur = w_bracket({(letter,): Fraction(1)}, cur, length)
            label = "[%s,%s]" % (letter[0], label)
        rest = _reduce(rows, cur)
        if not rest:
            continue
        p = min(rest)
        row = w_scale(rest, 1 / rest[p])
        for q in rows:
            if rows[q].get(p):
                rows[q] = w_add(rows[q], w_scale(row, -rows[q][p]))
        rows[p] = row
        out.append((label, cur))
    return out


# --- homology Lie algebras over tensor words -----------------------------

def _w_matrix(vecs):
    """(the words of vecs in a fixed order, the dense matrix whose column k
    holds vecs[k] in those words)."""
    words = sorted({w for v in vecs for w in v})
    return words, [[v.get(w, Fraction(0)) for v in vecs] for w in words]


def w_combination(vecs, x):
    out = {}
    for v, c in zip(vecs, x):
        if c:
            out = w_add(out, w_scale(v, c))
    return out


def w_solve_modulo(reps, boundaries, targets):
    """For each word dict of targets, the coordinates (index -> Fraction) in
    reps of its class modulo the span of boundaries: one dense_rref of the
    columns reps, boundaries, targets, read with the free variables zero.
    Every target must lie in the span of reps and boundaries."""
    cols = list(reps) + list(boundaries)
    m = len(cols)
    pivots, R = dense_rref(_w_matrix(cols + list(targets))[1], m + len(targets))
    assert all(p < m for p in pivots), "a target is outside the span"
    out = []
    for t in range(len(targets)):
        x = {p: row[m + t] for p, row in zip(pivots, R)}
        out.append({k: x[k] for k in range(len(reps)) if x.get(k)})
    return out


def w_homology(gens, d, cap, n):
    """(cycle representatives, boundaries) of H_n of the free Lie algebra on
    gens cut at length cap, with d the word dict of d(g) for each letter
    (name, degree): C_n is spanned by w_lie_basis, the cycles are its
    dense_kernel under d, and the representatives are the cycles that raise
    the rank of the boundaries and the representatives kept so far: the
    pivot columns of one dense_rref of the boundaries, then the cycles."""
    def chains(degree):
        return [w for ln in range(1, cap + 1)
                for _, w in w_lie_basis(gens, degree, ln)]

    def admits(w):
        return len(w) <= cap

    def dee(e):
        return w_apply_operator(d, -1, e, admits)

    boundaries = [b for b in map(dee, chains(n + 1)) if b]
    basis = chains(n)
    images = [dee(e) for e in basis]
    words, M = _w_matrix(images)
    cycles = ([w_combination(basis, x) for x in dense_kernel(M, len(basis))]
              if words else basis)
    pivots = dense_rref(_w_matrix(boundaries + cycles)[1],
                        len(boundaries) + len(cycles))[0]
    reps = [cycles[p - len(boundaries)] for p in pivots if p >= len(boundaries)]
    return reps, boundaries


def w_homology_algebra(gens, d, cap, window):
    """(reps, table) for the homology Lie algebra of the window: reps is a
    list of (degree, word dict) over the window's degrees, and table[i][j]
    the class (index -> Fraction) of [rep_i, rep_j] modulo boundaries, zero
    when its degree is outside the window."""
    homology = {n: w_homology(gens, d, cap, n) for n in window}
    reps = [(n, z) for n in window for z in homology[n][0]]
    first = {}
    for i, (n, _) in enumerate(reps):
        first.setdefault(n, i)
    # the brackets landing in each degree of the window, solved together
    targets = {}
    for i, (n, a) in enumerate(reps):
        for j, (m, b) in enumerate(reps):
            br = w_bracket(a, b, cap)
            if n + m in homology and br:
                targets.setdefault(n + m, []).append((i, j, br))
    table = [[{} for _ in reps] for _ in reps]
    for k, found in targets.items():
        hr, hb = homology[k]
        solved = w_solve_modulo(hr, hb, [br for _, _, br in found])
        for (i, j, _), coords in zip(found, solved):
            table[i][j] = {first[k] + q: c for q, c in coords.items()}
    return reps, table


# --- the classifying nilpotency index over tensor words -------------------

def w_classifying(gens, d, cap, mode, window, kind, raises=None, span=()):
    """(nilpotency index, {n: dim H_n}, dim Der^G_0, {mode: dim H_0}) of
    the classifying pipeline on dense tensor-word derivations of the free
    Lie algebra on gens cut at length cap, with d the word dict of d(g) for
    each letter.  The last holds dim H_0 of both modes' complexes, whatever
    mode the rest is taken in.

    Der_n is spanned by the unit tables {g: e}, e in the w_lie_basis of
    degree |g| + n, and D by w_derivation_differential.  Der^G_0 is spanned
    by R_0 = D(Der_1) + ad L_0 (kind "identity"), by the kernel of D on the
    unit tables of Der_0 whose value, when it is one letter h, has
    raises(g, h) (kind "stabilizer"), or by span (tables) and R_0 (kind
    "span").  mode "POINTED" takes the homology of Der^G, mode "FREE" that
    of Der^G x~ sL, with D(theta, sx) = (D theta + ad_x, -s dx) and the
    bracket [(theta, sx), (eta, sy)] = ([theta, eta], (-1)^|theta| s theta(y)
    - (-1)^{|x||eta|} s eta(x)).  The index is dense_nilpotency_class of the
    homology Lie algebra of the window: the brackets of the representatives
    modulo boundaries, zero outside the window."""
    letters = [(g.name, g.degree) for g in gens]
    d = {g: d.get(g, {}) for g in letters}
    free = mode == "FREE"

    def admits(w):
        return len(w) <= cap

    bases = {}

    def chains(degree):
        if degree not in bases:
            bases[degree] = [w for ln in range(1, cap + 1)
                             for _, w in w_lie_basis(gens, degree, ln)]
        return bases[degree]

    def ad(x):
        return {g: v for g in letters if (v := w_bracket(x, {(g,): Fraction(1)}, cap))}

    def units(n):
        return [{g: e} for g in letters for e in chains(g[1] + n)]

    def flat(table, x=None):
        out = {("D", g, w): c for g, v in table.items() for w, c in v.items()}
        out.update({("s", w): c for w, c in (x or {}).items()})
        return out

    def split(vec):
        table, x = {}, {}
        for key, c in vec.items():
            if key[0] == "D":
                table.setdefault(key[1], {})[key[2]] = c
            else:
                x[key[1]] = c
        return table, x

    def dee(vec, n):
        table, x = split(vec)
        D = w_derivation_differential(table, n, d, d, admits)
        if free:
            for g, v in ad(x).items():
                D[g] = w_add(D.get(g, {}), v)
        return flat({g: v for g, v in D.items() if v},
                    w_scale(w_apply_operator(d, -1, x, admits), -1))

    r0 = [v for v in (w_derivation_differential(u, 1, d, d, admits) for u in units(1))
          if v] + [v for v in map(ad, chains(0)) if v]
    if kind == "identity":
        g0 = r0
    elif kind == "span":
        g0 = list(span) + r0
    else:
        # a unit whose value is one letter h needs raises(g, h)
        admissible = [u for u in units(0) for g, e in u.items()
                      if min(map(len, e)) > 1 or raises(g, next(iter(e))[0])]
        words, M = _w_matrix([flat(w_derivation_differential(u, 0, d, d, admits))
                              for u in admissible])
        g0 = ([split(w_combination([flat(u) for u in admissible], x))[0]
               for x in dense_kernel(M, len(admissible))] if words else admissible)
    der0 = dense_rank(_w_matrix([flat(t) for t in g0])[1]) if g0 else 0

    def space(n, free=free):
        out = [flat(t) for t in (g0 if n == 0 else units(n))]
        return out + [flat({}, e) for e in chains(n - 1)] if free else out

    def homology(n, free=free):
        # dee adds ad_x and -s dx only for an sL part, which space(n, False)
        # leaves out
        basis = space(n, free)
        boundaries = [b for b in (dee(c, n + 1) for c in space(n + 1, free))
                      if b]
        words, M = _w_matrix([dee(c, n) for c in basis])
        cycles = ([w_combination(basis, x) for x in dense_kernel(M, len(basis))]
                  if words else basis)
        cycles = [z for z in cycles if z]
        pivots = dense_rref(_w_matrix(boundaries + cycles)[1],
                            len(boundaries) + len(cycles))[0]
        return ([cycles[p - len(boundaries)] for p in pivots if p >= len(boundaries)],
                boundaries)

    def apply(table, degree, x):
        return w_apply_operator(table, degree, x, admits)

    def der_bracket(a, n, b, m):
        sgn = -1 if n * m % 2 == 0 else 1
        return {g: v for g in letters
                if (v := w_add(apply(a, n, b.get(g, {})),
                               w_scale(apply(b, m, a.get(g, {})), sgn)))}

    def lie_bracket(u, n, v, m):
        (a, x), (b, y) = split(u), split(v)
        sl = w_add(w_scale(apply(a, n, y), -1 if n % 2 else 1),
                   w_scale(apply(b, m, x), -1 if (n - 1) * m % 2 == 0 else 1))
        return flat(der_bracket(a, n, b, m), sl)

    found = {n: homology(n) for n in window}
    reps = [(n, z) for n in window for z in found[n][0]]
    first = {}
    for i, (n, _) in enumerate(reps):
        first.setdefault(n, i)
    table = [[{} for _ in reps] for _ in reps]
    for i, (n, a) in enumerate(reps):
        for j, (m, b) in enumerate(reps):
            br = lie_bracket(a, n, b, m)
            if n + m in found and br:
                hr, hb = found[n + m]
                (coords,) = w_solve_modulo(hr, hb, [br])
                table[i][j] = {first[n + m] + q: c for q, c in coords.items()}
    dims = {n: len(found[n][0]) for n in window}
    h0 = {mode: dims[0],
          ("POINTED" if free else "FREE"): len(homology(0, not free)[0])}
    return (dense_nilpotency_class(table) if reps else 0), dims, der0, h0

def argparse_argv(argv):
    """vars() of the namespace that argparse gives argv, on the parser the
    CLI built before its own reader: one subparser per command of
    cli.COMMANDS, each taking cli._COMMON and its own flags.  A usage error
    prints to stderr and exits 2; -h or --help prints the help and exits 0."""
    from cdgl.workbench import cli
    ap = argparse.ArgumentParser(prog="cdgl")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, extra) in cli.COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, kwargs in cli._COMMON + extra:
            p.add_argument(flag, **kwargs)
    return vars(ap.parse_args(argv))


# --- engine helpers for tests (not oracles) -----------------------------

def assert_exact(values):
    """Hold each value to the engine's normal form for exact scalars: an
    int (not a bool) when integral, a Fraction with denominator != 1
    otherwise, and never a float."""
    for c in values:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), \
            "%r is not an exact scalar in normal form" % (c,)


def left_normed(seq, trunc) -> LieElement:
    """[g1,[g2,[...,[g_{k-1}, g_k]]]] for a generator sequence."""
    cur = LieElement.gen(seq[-1], trunc)
    for g in reversed(seq[:-1]):
        cur = bracket(LieElement.gen(g, trunc), cur)
    return cur


def eager_h0_table(reps, class_of, bracket):
    """table[i][j]: the class (index -> Fraction) of the bracket of the
    representatives h_i and h_j of an H_0 group (see h0_elements), put
    through class_of for every pair, as H0Group took its table before
    building it on read."""
    return [[class_of(bracket(a, b)).entries for b in reps] for a in reps]


def h0_elements(G, element, coords):
    """(representatives, class_of) of the H_0 group G, which holds only
    coordinates: element(z) is the degree-0 element with stored
    coordinates z, coords(e) the stored coordinates of a degree-0 element
    e, and class_of(e) the class of a cycle e in the representatives."""
    classes = G.reports[0].classes
    return ([element(z) for z in G.reports[0].cycle_reps],
            lambda e: classes.coords(coords(e)))


def l_h0_elements(L, G):
    """h0_elements for G = h0_group(L), on Lie elements of L."""
    return h0_elements(G, lambda z: L.from_coords(z, 0), lambda e: L.coords(e, 0))


def der_h0_elements(L, spec, G):
    """h0_elements for the H_0 group G of the classifying pipelines of L
    and spec, on derivations, through the slot vectors of Der^G_0."""
    basis = der_g_zero(spec).basis
    space = DerSpace(L, L, 0, basis)
    return h0_elements(
        G, lambda z: space.unflatten(SparseMat.from_columns(space.total_slots, basis).apply(z)),
        lambda th: space.in_elements(space.flatten(th.values)))


def h0_mul(G, u, v):
    """The BCH product of two classes of the H_0 group G, read off its table."""
    return bch(G.law, u.entries, v.entries)[0]


def l_bch(L, x, y):
    """x * y for degree-0 Lie elements of L under the engine's BCH law of
    L_0 (dgl.bch on L's bracket table), as a Lie element."""
    return L.from_coords(bch(L.bch_law(), L.coords(x, 0).entries,
                             L.coords(y, 0).entries)[0], 0)


def tensor_bch(x, y):
    """log(exp x exp y) of Lie elements in their truncated tensor algebra,
    by the word oracle w_bch."""
    return LieElement(w_bch(x.terms, y.terms, x.trunc.max_bracket_length), x.trunc)


def l_gauge_act(x, a) -> MCElement:
    """x gauge a for a degree-0 Lie element x of a's presentation, by the
    engine's dgl.gauge_act on coordinates, as an MC element."""
    L = a.owner
    return MCElement(L, L.from_coords(gauge_act(L.coords(x, 0).entries, a), -1))


def l_gauge_equivalent(a, b) -> GaugeResult:
    """The engine's gauge_equivalent, with the witness as a Lie element."""
    res = gauge_equivalent(a, b)
    witness = None if res.witness is None else a.owner.from_coords(res.witness, 0)
    return GaugeResult(witness, res.level, res.failed_stage)


def h0_bracket(G, u, v):
    """The Lie bracket of two classes of the H_0 group G, read off its table."""
    D, table = G.table
    out = {}
    for i, a in u.entries.items():
        for j, b in v.entries.items():
            for k, t in table[i].get(j, {}).items():
                out[k] = out.get(k, 0) + Fraction(a * b * t, D)
    return SparseVec({k: c for k, c in out.items() if c})


def full_homology_again(task, cap):
    """The homology dimensions of a homology task's window at cap, by
    loading the model at cap and reducing its whole complex: the full cap
    + 1 re-run, the reference for the one read off the length filtration
    (tasks._homology_again).  An ill-formed model raises the loader's
    ElaborationError."""
    lo, hi = _degree_range(task)
    _, L = _load(task, cap)
    C = L.complex(range(lo, hi + 1)).validate()
    return {n: homology_at(C, n).dimension for n in range(lo, hi + 1)}


def full_pi_again(task, cap):
    """(pointed, free) of a pi-map task at cap, by loading the model and the
    morphism at cap and reducing both whole complexes: the full cap + 1
    re-run, the reference for the one read off the length filtration
    (tasks._pi_again).  An ill-formed model raises the loader's
    ElaborationError."""
    lo, hi = _degree_range(task, 1)
    rep = mapping_space_pi(_morphism(task, cap), range(lo, hi + 1))
    return rep.pointed, rep.free


def dynkin(e: LieElement) -> LieElement:
    """The engine's right-nested bracketing map x1...xn -> [x1,[x2,[...,xn]]];
    on the length-n Lie component it is multiplication by n."""
    return LieElement(_dynkin_terms(e.terms), e.trunc)


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
            cycles = FactoredBasis(kb, C.dim(n))
            try:
                cols = [cycles.coords(col) for col in C.d(m).columns()]
            except NotInSpanError:
                raise IllFormedComplexError(
                    "boundary does not land in cycles at %d" % m) from None
            boundary[m] = SparseMat.from_columns(len(kb), cols)
        else:
            boundary[m] = C.d(m)
    return GradedChainComplex(basis, boundary)


def perturbed(L: DGLPresentation, a) -> DGLPresentation:
    """(L, d_a) with d_a = d + ad_a for an MC element a (an MCElement or its
    value)."""
    value = a.value if isinstance(a, MCElement) else a
    ok, res = check_mc(L, value)
    if not ok:
        raise MCViolationError("cannot perturb at non-MC element, residue %r" % res)
    d_new = {g: L.d_on_gens[g] + bracket(value, L.gen(g)) for g in L.gens}
    return DGLPresentation(L.gens, d_new, L.trunc,
                           name=(L.name or "L") + "^perturbed").validate()


def component_complex(L, a, degrees):
    """Complex of the connected cover (at degree 0) of (L, d_a)."""
    La = perturbed(L, a) if a is not None else L
    degrees = sorted(n for n in set(degrees) | {0} if n >= 0)
    return connected_cover(La.complex(degrees), 0)


def fraction_gauge_series(x, a) -> LieElement:
    """x gauge a = sum_i ad_x^i(a)/i! - sum_i ad_x^i(dx)/(i+1)! on Fractions,
    with ad_x the derivation extension of its generator values, summed
    power by power on tensor words, as the engine's gauge_act did before it
    moved to ints and then to basis coordinates."""
    owner = a.owner
    adx = ad_values(owner, x)

    def series(e, coefficient):
        return nilpotent_series(lambda t: apply_operator(adx, 0, t), e, coefficient,
                                _max_iterations(owner), "gauge series did not terminate")

    return (series(a.value, _exp_coefficient)
            + series(owner.d(x), lambda k: Fraction(-1, factorial(k + 1))))


def act_on_morphism(y: LieElement, phi):
    """[y] . [phi] = e^{ad_y} after phi; y must be a degree-0 cycle of the
    target."""
    L = phi.target
    if not L.d(y).is_zero():
        raise MCViolationError("action requires a degree-0 cycle")
    return exp_ad(L, y).compose(phi).validate()


def export_source(L, name=None) -> str:
    """Model file text that elaborates back to an equal presentation."""
    lines = ["model %s {" % (name or L.name or "M").replace("(", "_").replace(
        ")", "_").replace(",", "_")]
    lines.append("  truncate %d" % L.trunc.max_bracket_length)
    for g in L.gens:
        lines.append("  gen %s : %d" % (g.name, g.degree))
    for g in L.gens:
        val = L.d_on_gens[g]
        if not val.is_zero():
            lines.append("  d %s = %s" % (g.name, pretty_element(
                L, L.coords(val, g.degree - 1), g.degree - 1)))
    for g in L.mc_gens:
        gname = g.name if hasattr(g, "name") else str(g)
        lines.append("  mc %s" % gname)
    lines.append("}")
    return "\n".join(lines) + "\n"


def unit_derivations(source, target, degree):
    """The full Der_n basis: one unit table per (generator, target element)."""
    return [Derivation(source, target, degree, {g: e},
                       label="%s->%s" % (g.name, e.label or "?"))
            for g in source.gens for e in target.basis(g.degree + degree)]


def build_complex(degrees, basis, differential, coords, label) -> GradedChainComplex:
    """The chain complex of a cdgl on a degree window, element by element.

    basis(n) lists the degree-n basis elements, for each n in degrees and
    one degree below; differential(e) is d e, coords(x, n) the coordinates
    of a degree-n element x in basis(n), and label(n, i, e) names the i-th
    element of basis(n).  The boundary is stored on the given degrees.
    """
    degrees = sorted(degrees)
    bases = {n: basis(n) for n in [degrees[0] - 1] + degrees}
    boundary = {}
    for n in degrees:
        if not bases[n]:
            continue
        cols = []
        for e in bases[n]:
            de = differential(e)
            cols.append(SparseVec() if de.is_zero() else coords(de, n - 1))
        boundary[n] = SparseMat.from_columns(len(bases[n - 1]), cols)
    labels = {n: [label(n, i, e) for i, e in enumerate(b)] for n, b in bases.items()}
    return GradedChainComplex(labels, boundary)


def derivation_differential(theta: Derivation, phi=None) -> Derivation:
    """D theta = d . theta - (-1)^{|theta|} theta . d on the generator
    values, theta an f-derivation for f the morphism phi (None: the
    identity), taken only on the generators where theta or a letter of
    their d has a value: the element path that the engine's unit columns of
    D are checked against.  Both terms go through w_apply_operator on the
    word dicts of the values, the differentials and phi's images."""
    src, tgt = theta.source, theta.target
    sgn = -1 if theta.degree % 2 else 1
    admits = tgt.trunc.admits
    values = {g: v.terms for g, v in theta.values.items()}
    target_d = {g: v.terms for g, v in tgt.d_on_gens.items()}
    images = None if phi is None else {g: v.terms for g, v in phi.images.items()}
    users = src.d_users
    support = set(theta.values).union(*(users.get(h, ()) for h in theta.values))
    out = {g: LieElement(w_add(
        w_apply_operator(target_d, -1, values.get(g, {}), admits),
        w_scale(w_apply_operator(values, theta.degree, src.d_on_gens[g].terms,
                                 admits, images), -sgn)), tgt.trunc)
        for g in support}
    return Derivation(src, tgt, theta.degree - 1, out)


def derivation_bracket(a: Derivation, b: Derivation) -> Derivation:
    """[a, b] = a b - (-1)^{|a||b|} b a, for derivations of one L, on the
    word dicts of their values through w_apply_operator: the reference for
    the engine's bracket on slot coordinates."""
    L, admits = a.source, a.source.trunc.admits
    va, vb = ({g: v.terms for g, v in d.values.items()} for d in (a, b))
    sgn = -1 if a.degree * b.degree % 2 == 0 else 1
    return Derivation(L, L, a.degree + b.degree, {g: LieElement(w_add(
        w_apply_operator(va, a.degree, vb.get(g, {}), admits),
        w_scale(w_apply_operator(vb, b.degree, va.get(g, {}), admits), sgn)), L.trunc)
        for g in L.gens})


def der_sl_bracket(theta, x, eta, y):
    """[(theta, sx), (eta, sy)] = ([theta, eta], (-1)^{|theta|} s theta(y)
    - (-1)^{|x||eta|} s eta(x)) in Der (x~) sL, sL abelian, for derivations
    theta, eta of L and Lie elements x, y of degrees |theta| - 1 and
    |eta| - 1, on word dicts: (the derivation, the element of L under s)."""
    admits = theta.source.trunc.admits

    def act(d, e):
        return w_apply_operator({g: v.terms for g, v in d.values.items()},
                                d.degree, e.terms, admits)

    sl = w_add(w_scale(act(theta, y), (-1) ** theta.degree),
               w_scale(act(eta, x), -(-1) ** ((theta.degree - 1) * eta.degree)))
    return derivation_bracket(theta, eta), LieElement(sl, theta.source.trunc)


def ad_derivation(L, x) -> Derivation:
    """ad_x = [x, -] as a derivation: the element path of the engine's ad
    columns."""
    deg = x.degree()
    return Derivation(L, L, 0 if deg is None else deg, ad_values(L, x),
                      label="ad")


def element_der_complex(source, target, phi, degrees, deg0_subspace=None):
    """(complex, element(n, vec)): the derivation complex built element by
    element, as DerComplex was before its block builder: one unit table per
    slot (unit_derivations), or in degree 0, when deg0_subspace = (slot
    vectors, labels) is given, the derivations of its vectors; D of each
    by derivation_differential with phi and its coordinates through
    DerSpace.flatten and in_elements,
    through build_complex one degree at a time, so that a window
    with a gap holds every degree n - 1 as well; element sums the tables."""
    window = sorted({m for n in degrees for m in (n - 1, n)})
    vecs, names = deg0_subspace or (None, None)

    def sub(n):
        return vecs if n == 0 else None

    def tables(n):
        if sub(n) is None:
            return unit_derivations(source, target, n)
        space = DerSpace(source, target, 0)
        out = []
        for v, name in zip(vecs, names or [None] * len(vecs)):
            th = space.unflatten(v)
            th.label = name
            out.append(th)
        return out

    elements = {n: tables(n) for n in window}
    spaces = {n: DerSpace(source, target, n, sub(n), names) for n in window}
    parts = {n: build_complex([n], elements.__getitem__,
                              lambda th: derivation_differential(th, phi),
                              lambda th, m: spaces[m].in_elements(
                                  spaces[m].flatten(th.values)),
                              lambda m, i, th: th.label or ("th%d_%d" % (m, i)))
             for n in degrees}
    cx = GradedChainComplex(
        {m: lbls for part in parts.values() for m, lbls in part.basis.items()},
        {n: part.d(n) for n, part in parts.items()})

    def element(n, vec):
        out = Derivation(source, target, n, {})
        for i, c in vec.entries.items():
            out = out + elements[n][i].scale(c)
        return out
    return cx, element


def bch_der(a, b):
    """log(exp a . exp b) for degree-0 derivations of one L, via operator
    composition on the truncated L (the reference for H0Group's law)."""
    L = a.source
    ea = exp_derivation_values(L, a.values, check_cycle=False)
    eb = exp_derivation_values(L, b.values, check_cycle=False)
    return Derivation(L, L, 0, log_morphism(ea.compose(eb)))


def twisted_hom_der(H, dercx, degrees):
    """Hom(C, L) (x~) Der L with [theta, f] = theta . f."""
    return twisted_product(H.complex(sorted(degrees)), dercx.complex(), degrees)


def hom_der_bracket(H, theta, f):
    """[theta, f] = theta . f in the Hom (x~) Der twisted dgl."""
    return HomElement(H, theta.degree + f.degree,
                      {i: theta.apply(v) for i, v in f.values.items()})


# -- Hom(C, L) elements and the adjunction beta ------------------------------

class HomElement(LieTable):
    """Element of the convolution dgl: a value table on the coalgebra basis."""

    __slots__ = ("owner", "degree")

    def __init__(self, owner, degree, values):
        LieTable.__init__(self, values.items())
        self.owner = owner
        self.degree = degree

    def _zero(self):
        return self.owner.L.zero()

    def _like(self, values):
        return HomElement(self.owner, self.degree, values)

    def __eq__(self, other):
        return LieTable.__eq__(self, other) and self.degree == other.degree

    def __repr__(self):
        bits = ["%s -> %r" % (self.owner.C.labels[i], v)
                for i, v in sorted(self.values.items())]
        return "Hom{%s}" % "; ".join(bits[:6])


class ConvolutionElements(ConvolutionDGL):
    """Hom(C, L) with its elements: HomElement tables, their differential
    and convolution bracket, the MC equation and the splitting Hom(C, L) =
    Hom(C-bar, L) x~ L; the element path that the engine's unit-slot
    complexes are checked against."""

    def __init__(self, C, L):
        ConvolutionDGL.__init__(self, C, L)
        self._basis_cache = {}
        # label j -> the labels i whose d_of(i) holds j
        self._d_users = {}
        for i, row in C.diff.items():
            for j, _ in row:
                self._d_users.setdefault(j, set()).add(i)

    def element(self, degree, values) -> HomElement:
        return HomElement(self, degree, values)

    def zero(self, degree=0) -> HomElement:
        return HomElement(self, degree, {})

    def basis(self, degree):
        """Ordered basis: one table per (coalgebra label, L basis element)."""
        cached = self._basis_cache.get(degree)
        if cached is None:
            cached = []
            for i in range(self.C.dim()):
                tgt_deg = self.C.degrees[i] + degree
                for e in self.L.basis(tgt_deg):
                    cached.append(HomElement(self, degree, {i: e}))
            self._basis_cache[degree] = cached
        return cached

    def differential(self, f: HomElement) -> HomElement:
        """D f, taken only on the labels where f or a term of their d has a
        value."""
        out = {}
        sgn = -1 if f.degree % 2 else 1
        users = self._d_users
        labels = set(f.values).union(*(users.get(j, ()) for j in f.values))
        for i in sorted(labels):
            total = self.L.d(f.value(i)) if i in f.values else self.L.zero()
            acc = self.L.zero()
            for j, c in self.C.d_of(i):
                v = f.values.get(j)
                if v is not None:
                    acc = acc + v.scale(c)
            out[i] = total - acc.scale(sgn)
        return HomElement(self, f.degree - 1, out)

    def bracket(self, f: HomElement, g: HomElement) -> HomElement:
        # only the coproduct terms whose left factor f takes a value, summed
        # per row in the row's own order
        rows = {}
        for l, fv in f.values.items():
            odd = (g.degree * self.C.degrees[l]) % 2
            for i, pos, r, c in self._comul_by_left.get(l, ()):
                gv = g.values.get(r)
                if gv is not None:
                    rows.setdefault(i, []).append((pos, fv, gv, -c if odd else c))
        out = {}
        for i in sorted(rows):
            acc = {}
            for _, fv, gv, c in sorted(rows[i], key=lambda t: t[0]):
                accumulate(acc, ((w, c * t) for w, t in bracket(fv, gv).terms.items()))
            if acc:
                out[i] = LieElement(acc, self.L.trunc)
        return HomElement(self, f.degree + g.degree, out)

    def check_mc(self, f: HomElement):
        if f.degree != -1:
            raise CoalgebraError("MC candidates must be degree -1")
        res = self.differential(f) + self.bracket(f, f).scale(Fraction(1, 2))
        return res.is_zero(), res

    def restriction_reduced(self, f: HomElement) -> HomElement:
        out = {i: v for i, v in f.values.items() if i != self.C.counit}
        return HomElement(self, f.degree, out)

    def from_l_element(self, x: LieElement) -> HomElement:
        """The sub-dgl copy of L: 1 -> x, reduced part -> 0."""
        deg = x.degree()
        return HomElement(self, 0 if deg is None else deg, {self.C.counit: x})

    def split(self, f: HomElement):
        """Hom(C, L) = Hom(C-bar, L) x~ L: (reduced part, value at 1)."""
        return self.restriction_reduced(f), f.value(self.C.counit)

    def verify_splitting(self, degrees):
        """Hom(C, L) = Hom(C-bar, L) x~ L is a dgl isomorphism: both factors
        are sub-dgl's and the cross bracket is [x, f] = ad_x . f.  Verified
        exhaustively on basis tables of the given degrees."""
        u = self.C.counit
        for n in degrees:
            reduced = [f for f in self.basis(n) if u not in f.values]
            tops = [f for f in self.basis(n) if u in f.values]
            for f in reduced:
                if u in self.differential(f).values:
                    raise CoalgebraError("splitting: Hom(C-bar, L) not d-closed")
            for f in tops:
                Df = self.differential(f)
                want = self.from_l_element(self.L.d(f.value(u)))
                if {i: v for i, v in Df.values.items()} != want.values:
                    raise CoalgebraError("splitting: L is not a sub-dgl")
            for f in tops:
                for g in tops:
                    br = self.bracket(f, g)
                    want = self.from_l_element(bracket(f.value(u), g.value(u)))
                    if br.values != want.values:
                        raise CoalgebraError("splitting: L bracket mismatch")
            for f in tops:
                x = f.value(u)
                for g in reduced:
                    got = self.bracket(f, g)
                    want = {i: bracket(x, v) for i, v in g.values.items()}
                    want = {i: v for i, v in want.items() if not v.is_zero()}
                    if got.values != want:
                        raise CoalgebraError("splitting: [x, f] != ad_x . f")
            for g in reduced:
                for h in reduced:
                    if u in self.bracket(g, h).values:
                        raise CoalgebraError("splitting: reduced part not "
                                             "bracket-closed")
        return True


class CoalgebraMap:
    """Map of cdgc's given by a matrix on basis labels: values maps a source
    index to a list of (target index, coeff)."""

    def __init__(self, source: CDGC, target: CDGC, values: dict):
        self.source = source
        self.target = target
        self.values = values

    def apply_index(self, i):
        return self.values.get(i, [])

    def validate(self):
        S, T = self.source, self.target
        # counit compatibility: eps(beta(c)) = eps(c)
        for i in range(S.dim()):
            acc = sum(c for j, c in self.apply_index(i) if j == T.counit)
            if acc != (1 if i == S.counit else 0):
                raise CoalgebraError("counit not preserved on %s" % S.labels[i])
        # chain map: d_T beta = beta d_S
        for i in range(S.dim()):
            lhs = accumulate({}, ((k, c * c2) for j, c in self.apply_index(i)
                                  for k, c2 in T.d_of(j)))
            rhs = accumulate({}, ((k, c * c2) for j, c in S.d_of(i)
                                  for k, c2 in self.apply_index(j)))
            if lhs != rhs:
                raise CoalgebraError("not a chain map on %s" % S.labels[i])
        # coalgebra map: Delta_T beta = (beta (x) beta) Delta_S
        for i in range(S.dim()):
            lhs = accumulate({}, (((l, r), c * c2) for j, c in self.apply_index(i)
                                  for l, r, c2 in T.comul[j]))
            rhs = accumulate({}, (((l2, r2), c * c2 * c3) for l, r, c in S.comul[i]
                                  for l2, c2 in self.apply_index(l)
                                  for r2, c3 in self.apply_index(r)))
            if lhs != rhs:
                raise CoalgebraError("not a coalgebra map on %s" % S.labels[i])
        return self


def adjunction_beta(C: CDGC, trunc, word_cap: int) -> CoalgebraMap:
    """beta: C -> Chains(Lie(C)), the coalgebra map lifting the inclusion.

    Determined by its corestriction c -> s(s^{-1}c); assembled with the
    cofree formula beta = sum_k (1/k!) wedge^k (f (x) ... (x) f) Delta-bar^(k-1).
    """
    LC = lie_functor(C, trunc)
    CLC = chains_functor(LC, word_cap)
    info = CLC._l_info
    # generator of LC for each reduced label of C, then its sL index in CLC
    gen_of = {i: g for i, g in zip(C.reduced_indices(), LC.gens)}
    s_index = {}
    for k, e in enumerate(info.elements):
        if len(e.terms) == 1:
            ((w, c),) = e.terms.items()
            if len(w) == 1 and c == 1:
                s_index[w[0]] = k
    # iterated reduced coproducts: lists of (tuple of source indices, coeff)
    values = {C.counit: [(CLC.counit, 1)]}
    for i in C.reduced_indices():
        layers = [[((i,), 1)]]
        while True:
            prev = layers[-1]
            nxt = {}
            for tup, c in prev:
                # expand the last slot by Delta-bar
                for l, r, c2 in C.reduced_comul(tup[-1]):
                    key = tup[:-1] + (l, r)
                    nxt[key] = nxt.get(key, 0) + c * c2
            nxt = [(k, v) for k, v in nxt.items() if v]
            if not nxt:
                break
            layers.append(nxt)
            if len(layers) > word_cap:
                break
        table = {}
        fact = 1
        for k, layer in enumerate(layers, start=1):
            if k > 1:
                fact *= k
            for tup, c in layer:
                idxs = []
                ok = True
                for srci in tup:
                    si = s_index.get(gen_of[srci])
                    if si is None:
                        ok = False
                        break
                    idxs.append(si)
                if not ok:
                    continue
                norm = wedge_normalize(idxs, [d + 1 for d in info.degrees])
                if norm is None:
                    continue
                nw, sgn = norm
                j = CLC._word_index.get(nw)
                if j is None:
                    continue
                table[j] = table.get(j, 0) + Fraction(c * sgn, fact)
        values[i] = [(j, exact(c)) for j, c in table.items() if c]
    beta = CoalgebraMap(C, CLC, values)
    beta.lie_image = LC
    return beta.validate()


# -- the long exact sequence of a short exact sequence of chain maps ---------

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


def split_maps(tw):
    """The inclusion and projection of a twisted product, as ChainMaps: the
    sub slots come first in each degree of tw.total, then the quotient's."""
    A, B, C = tw
    incl = ChainMap(A, B, {n: SparseMat(B.dim(n), A.dim(n),
                                        {(i, i): 1 for i in range(A.dim(n))})
                           for n in B.degrees()})
    proj = ChainMap(B, C, {n: SparseMat(C.dim(n), B.dim(n),
                                        {(j, A.dim(n) + j): 1 for j in range(C.dim(n))})
                           for n in B.degrees()})
    return incl, proj


def _mat_rank(m):
    return dense_rank(dense(m.entries, m.n_rows, m.n_cols)) if m.entries else 0


def check_ses(A, B, C, incl, proj, degrees):
    """0 -> A -> B -> C -> 0 is short exact at each degree, by dense ranks."""
    for n in degrees:
        i_n, p_n = incl.block(n), proj.block(n)
        if not p_n.compose(i_n).is_zero():
            raise ExactnessError("composite A->C nonzero at degree %d" % n)
        if _mat_rank(i_n) != A.dim(n):
            raise ExactnessError("inclusion not injective at degree %d" % n)
        if _mat_rank(p_n) != C.dim(n):
            raise ExactnessError("projection not surjective at degree %d" % n)
        if B.dim(n) != A.dim(n) + C.dim(n):
            raise ExactnessError("middle dimension mismatch at degree %d" % n)


def generic_les(A, B, C, incl, proj, degrees, hA=None, hB=None):
    """The long exact sequence of any degreewise short exact sequence of
    chain maps, the reference for exactlin.les_of_ses on a twisted product:
    the chain maps and the sequence are checked on the degrees read, the
    induced maps push cycles through incl and proj, and the connecting map
    lifts through proj (free variables zero), pushes through d and pulls
    back through incl, each by its own FactoredBasis; exactness is checked
    at every slot by dense ranks."""
    degrees = sorted(degrees)
    gaps = sorted({n - 1 for n in degrees[1:]} - set(degrees))
    both = sorted(degrees + gaps)
    probe = both + [degrees[-1] + 1]
    incl.validate(probe)
    proj.validate(probe)
    check_ses(A, B, C, incl, proj, sorted(set(probe + [degrees[0] - 1])))

    hA = homology_reports(A, sorted(set(both) | {degrees[0] - 1}), hA)
    hB = homology_reports(B, both, hB)
    hC = homology_reports(C, degrees)

    maps_i, maps_p, conn = {}, {}, {}
    for n in both:
        maps_i[n] = SparseMat.from_columns(hB[n].dimension, [
            hB[n].classes.coords(incl.block(n).apply(z)) for z in hA[n].cycle_reps])
    for n in degrees:
        maps_p[n] = SparseMat.from_columns(hC[n].dimension, [
            hC[n].classes.coords(proj.block(n).apply(z)) for z in hB[n].cycle_reps])
        lift = FactoredBasis(proj.block(n).columns(), C.dim(n))
        pull = FactoredBasis(incl.block(n - 1).columns(), B.dim(n - 1))
        cols = []
        for z in hC[n].cycle_reps:
            try:
                b = lift.coords(z)
            except NotInSpanError:
                raise ExactnessError("cannot lift cycle at degree %d" % n) from None
            try:
                a = pull.coords(B.d(n).apply(b))
            except NotInSpanError:
                raise ExactnessError("boundary of lift not in subcomplex at "
                                     "degree %d" % n) from None
            cols.append(hA[n - 1].classes.coords(a))
        conn[n] = SparseMat.from_columns(hA[n - 1].dimension, cols)

    def exact(fin, fout, slot):
        if not fout.compose(fin).is_zero() or \
                _mat_rank(fin) + _mat_rank(fout) != fin.n_rows:
            raise ExactnessError("not exact at %s" % slot)

    for n in degrees:
        exact(maps_i[n], maps_p[n], "H_%d(B)" % n)
        exact(maps_p[n], conn[n], "H_%d(C)" % n)
        if n - 1 in maps_i:
            exact(conn[n], maps_i[n - 1], "H_%d(A)" % (n - 1))
    return LongExactSequence(degrees=degrees, hA=hA, hB=hB, hC=hC,
                             maps_i=maps_i, maps_p=maps_p, connecting=conn)


def assert_same_les(les, ref):
    """les and ref hold the same homology dimensions and the same maps."""
    for name in ("hA", "hB", "hC"):
        got, want = getattr(les, name), getattr(ref, name)
        assert ({n: h.dimension for n, h in got.items()}
                == {n: h.dimension for n, h in want.items()}), name
    for name in ("maps_i", "maps_p", "connecting"):
        assert getattr(les, name) == getattr(ref, name), name

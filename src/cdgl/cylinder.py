"""The cylinder side of cdgl homotopy: L tensored with the free cdga on
(t, dt), endpoint evaluations, and verification of homotopy witnesses.

Forms are finite sums t^k (x) x and t^k dt (x) x with Lie-element values;
the polynomial degree carries an explicit cap and series witnesses (gauge
exponentials over nilpotent actions) terminate below it, which the checker
verifies before trusting a verdict.
"""

from __future__ import annotations

from .dgl import DGLMorphism, DGLPresentation, nilpotent_series
from .freelie import (LieElement, LieTable, _exp_coefficient, bracket, mul,
                      word_degree)


class CapExceededError(ValueError):
    """A form's polynomial degree ran past the declared cap."""


class PolyForm(LieTable):
    """Element of L (x) (polynomials in t, dt): monomial -> LieElement.

    Monomial keys are (k, has_dt); |t| = 0 and |dt| = -1, so a term
    t^k dt (x) x has degree |x| - 1.
    """

    __slots__ = ("owner", "poly_cap")

    def __init__(self, owner: DGLPresentation, terms, poly_cap: int):
        LieTable.__init__(self, terms.items())
        self.owner = owner
        self.poly_cap = poly_cap
        if any(k > poly_cap for k, _ in self.values):
            raise CapExceededError("polynomial degree exceeds cap %d" % poly_cap)

    def _zero(self):
        return self.owner.zero()

    def _like(self, values):
        return PolyForm(self.owner, values, self.poly_cap)

    def degree(self):
        degs = set()
        for (k, has_dt), v in self.values.items():
            degs.add(v.degree() - (1 if has_dt else 0))
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("inhomogeneous form")
        return degs.pop()

    def __repr__(self):
        bits = []
        for (k, has_dt), v in sorted(self.values.items()):
            mono = ("t^%d" % k if k else "1") + ("dt" if has_dt else "")
            bits.append("%s(x)%r" % (mono, v))
        return " + ".join(bits) if bits else "0"


class Cylinder:
    """Operations on L (x) poly(t, dt) at a fixed polynomial cap."""

    def __init__(self, L: DGLPresentation, poly_cap: int):
        if poly_cap < 0:
            raise ValueError("polynomial cap must be >= 0")
        self.L = L
        self.poly_cap = poly_cap

    def zero(self) -> PolyForm:
        return PolyForm(self.L, {}, self.poly_cap)

    def constant(self, x: LieElement) -> PolyForm:
        return PolyForm(self.L, {(0, False): x}, self.poly_cap)

    def t_power(self, k: int, x: LieElement, dt=False) -> PolyForm:
        return PolyForm(self.L, {(k, dt): x}, self.poly_cap)

    def d(self, F: PolyForm) -> PolyForm:
        """d(a (x) x) = da (x) x + (-1)^{|a|} a (x) dx."""
        def pieces():
            for (k, has_dt), v in F.values.items():
                if has_dt:
                    yield (k, True), self.L.d(v).scale(-1)
                else:
                    if k >= 1:
                        yield (k - 1, True), v.scale(k)
                    yield (k, False), self.L.d(v)

        return self.zero()._plus(pieces())

    def bracket(self, F: PolyForm, G: PolyForm) -> PolyForm:
        """[a (x) x, a' (x) x'] = (-1)^{|a'||x|} a a' (x) [x, x'].

        Polynomial degrees are never silently dropped: the constructor
        raises when the cap overflows, keeping verdicts sound.
        """
        return self.zero()._plus(_products(F.values, G.values, bracket))

    def apply_witness(self, images, e: LieElement) -> PolyForm:
        """Extend generator images (PolyForms) multiplicatively over the
        tensor words of e (the unique algebra-map extension)."""
        # sums stay in plain dicts, so that only the total meets the cap
        total = {}
        for w, c in e.terms.items():
            # fold the word left to right in the poly (x) T(V) algebra
            cur = images[w[0]].values
            for g in w[1:]:
                nxt = {}
                for m, v in _products(cur, images[g].values, mul):
                    nxt[m] = nxt[m] + v if m in nxt else v
                cur = nxt
            for m, v in cur.items():
                v = v.scale(c)
                total[m] = total[m] + v if m in total else v
        return PolyForm(self.L, total, self.poly_cap)

    def exp_ad(self, E: PolyForm, F: PolyForm) -> PolyForm:
        """e^{ad_E}(F) for a degree-0 form E; terminates at the caps."""
        return nilpotent_series(
            lambda term: self.bracket(E, term), F,
            _exp_coefficient,
            (self.L.trunc.max_bracket_length + 1) * (self.poly_cap + 2),
            "exp_ad series did not terminate at caps")

    def eval_endpoint(self, F: PolyForm, i: int) -> LieElement:
        """Substitute t = i, dt = 0."""
        out = self.L.zero()
        for (k, has_dt), v in F.values.items():
            if has_dt:
                continue
            c = i ** k if k else 1
            if c:
                out = out + v.scale(c)
        return out


def _odd_negated(v: LieElement) -> LieElement:
    """v with its odd-degree words negated: the Koszul sign of moving dt
    (degree -1) past each word."""
    res = LieElement.zero(v.trunc)
    res.terms = {w: -c if word_degree(w) % 2 else c for w, c in v.terms.items()}
    return res


def _products(F, G, product):
    """(monomial, value) pairs of (a (x) u)(a' (x) v) = (-1)^{|a'||u|} aa' (x)
    product(u, v) over the monomial pairs of the tables F and G, with
    dt dt = 0; product is bilinear, so the sign goes onto u."""
    for (k, d1), u in F.items():
        for (j, d2), v in G.items():
            if not (d1 and d2):
                yield (k + j, d1 or d2), product(_odd_negated(u) if d2 else u, v)


class Witness:
    """Candidate homotopy: generator images in the cylinder of the target,
    as a dict Generator -> PolyForm."""

    __slots__ = ("source", "target", "forms", "poly_cap", "name")

    def __init__(self, source: DGLPresentation, target: DGLPresentation,
                 forms: dict, poly_cap: int, name: str = ""):
        self.source = source
        self.target = target
        self.forms = forms
        self.poly_cap = poly_cap
        self.name = name

    def cylinder(self) -> Cylinder:
        return Cylinder(self.target, self.poly_cap)


class HomotopyVerdict:
    __slots__ = ("ok", "certificate", "caps", "stable")

    def __init__(self, ok: bool, certificate: dict, caps: dict, stable: bool):
        self.ok = ok
        self.certificate = certificate
        self.caps = caps
        self.stable = stable

    def __bool__(self):
        return self.ok


def check_homotopy(witness: Witness, phi: DGLMorphism,
                   psi: DGLMorphism) -> HomotopyVerdict:
    """Is the witness a dgl morphism into the cylinder with endpoints phi
    (at t=0) and psi (at t=1)?  Exact verdict at the caps; a failure carries
    the offending generator and residual."""
    cyl = witness.cylinder()
    cert = {}
    images = {g: witness.forms.get(g, cyl.zero()) for g in witness.source.gens}
    for g in witness.source.gens:
        lhs = cyl.d(images[g])
        rhs = cyl.apply_witness(images, witness.source.d_on_gens[g])
        if lhs != rhs:
            cert["morphism"] = {"generator": g.name,
                                "residual": repr(lhs - rhs)}
            break
    if "morphism" not in cert:
        for g in witness.source.gens:
            e0 = cyl.eval_endpoint(images[g], 0)
            e1 = cyl.eval_endpoint(images[g], 1)
            if e0 != phi.images[g]:
                cert["endpoint0"] = {"generator": g.name}
                break
            if e1 != psi.images[g]:
                cert["endpoint1"] = {"generator": g.name}
                break
    # cap soundness: all stored polynomial degrees sit strictly below the
    # cap, so raising the cap cannot change the verdict
    top = 0
    for f in witness.forms.values():
        for (k, _), _v in f.values.items():
            top = max(top, k)
    return HomotopyVerdict(ok=not cert, certificate=cert,
                           caps={"poly_cap": witness.poly_cap,
                                 "truncation": witness.target.trunc.max_bracket_length},
                           stable=top < witness.poly_cap)

"""Built-in model library: interval, circle, spheres and sphere wedges."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .dgl import DGLPresentation, build_dgl, nilpotent_series
from .freelie import Generator, LieElement, Truncation, bracket


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli numbers with the B_1 = -1/2 convention."""
    B = [Fraction(0)] * (n + 1)
    B[0] = Fraction(1)
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * B[j]
        B[m] = Fraction(-acc, m + 1)
    return B[n]


def interval_model(trunc: Truncation, name="L1") -> DGLPresentation:
    """The Lawrence-Sullivan interval at the truncation cap.

    Generators: MC elements a, b of degree -1 and x of degree 0 with
    dx = ad_x a + sum_n (B_n/n!) ad_x^n (a - b), so the gauge transport of a
    by x is b.  (The mirrored labelling, swapping a and b, is the same cdgl
    with the opposite orientation.)
    """
    a = Generator("a", -1)
    b = Generator("b", -1)
    x = Generator("x", 0)
    ea, eb, ex = (LieElement.gen(g, trunc) for g in (a, b, x))
    dx = bracket(ex, ea) + nilpotent_series(
        lambda t: bracket(ex, t), ea - eb,
        lambda n: Fraction(bernoulli(n), factorial(n)),
        trunc.max_bracket_length + 1, "Bernoulli series did not terminate")
    d = {a: bracket(ea, ea).scale(Fraction(-1, 2)),
         b: bracket(eb, eb).scale(Fraction(-1, 2)),
         x: dx}
    return build_dgl((a, b, x), d, trunc, mc_gens=(a, b), name=name)


def circle_model(trunc: Truncation, name="S1") -> DGLPresentation:
    """Model of the circle: db = -[b,b]/2, dx = [x,b]."""
    b = Generator("b", -1)
    x = Generator("x", 0)
    eb, ex = LieElement.gen(b, trunc), LieElement.gen(x, trunc)
    d = {b: bracket(eb, eb).scale(Fraction(-1, 2)), x: bracket(ex, eb)}
    return build_dgl((b, x), d, trunc, mc_gens=(b,), name=name)


def mc_point_model(trunc: Truncation, name="L0") -> DGLPresentation:
    """Free Lie algebra on a single MC element."""
    a = Generator("a", -1)
    ea = LieElement.gen(a, trunc)
    d = {a: bracket(ea, ea).scale(Fraction(-1, 2))}
    return build_dgl((a,), d, trunc, mc_gens=(a,), name=name)


def sphere_model(n: int, trunc: Truncation, name=None) -> DGLPresentation:
    """Minimal model of S^n: one generator of degree n-1, zero differential."""
    if n < 1:
        raise ValueError("sphere dimension must be >= 1")
    x = Generator("x", n - 1)
    return build_dgl((x,), {}, trunc, name=name or ("sphere(%d)" % n))


_WEDGE_NAMES = ("x", "y", "z", "w")


def wedge_model(dims, trunc: Truncation, name=None) -> DGLPresentation:
    """Wedge of spheres: one degree n_i - 1 generator per sphere, d = 0."""
    dims = tuple(dims)
    if not dims or any(n < 1 for n in dims):
        raise ValueError("wedge needs sphere dimensions >= 1")
    gens = []
    for i, n in enumerate(dims):
        gname = _WEDGE_NAMES[i] if i < len(_WEDGE_NAMES) else "x%d" % (i + 1)
        gens.append(Generator(gname, n - 1))
    return build_dgl(tuple(gens), {}, trunc,
                     name=name or ("wedge(%s)" % ",".join(map(str, dims))))


BUILTIN_NAMES = ("l0", "l1", "s1", "sphere", "wedge")


def builtin_model(name: str, params=(), trunc: Truncation | None = None) -> DGLPresentation:
    """Dispatch for the workbench: L0, L1, S1, sphere(n), wedge(n1,...)."""
    trunc = trunc or Truncation(5)
    key = name.lower()
    fixed = {"l0": mc_point_model, "l1": interval_model, "s1": circle_model}
    if key in fixed:
        if params:
            raise ValueError("%s takes no parameters" % name)
        return fixed[key](trunc)
    if key == "sphere":
        if len(params) != 1:
            raise ValueError("sphere takes exactly one dimension")
        return sphere_model(params[0], trunc)
    if key == "wedge":
        return wedge_model(params, trunc)
    raise ValueError("unknown builtin model %r" % name)

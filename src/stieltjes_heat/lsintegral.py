"""Lebesgue-Stieltjes integrals against a derivator measure.

The measure splits exactly along the stored structure: atoms contribute
f(t) * gap termwise, each affine segment contributes an ordinary weighted
integral (density = slope), flat segments contribute nothing.  Only the
smooth per-segment part needs quadrature, and there is one adaptive rule for
it: panels on which f is interpolated at the Chebyshev points and the
interpolant integrated termwise (Clenshaw & Curtis 1960; Trefethen,
Approximation Theory and Approximation Practice, ch. 19), bisected until
their error estimates meet the tolerance.  `integrate` sums the panels of
each affine piece (`quad`); `indefinite` keeps them, so that F(t) is a panel
lookup plus one Clenshaw sum.  `integrate_gauss` is the fixed 10-point Gauss
sum for integrands too noisy to adapt on.
"""

from __future__ import annotations

import bisect
import math
import operator
import sys
from collections import namedtuple

from .errors import DomainError, EvaluationError, NonConvergenceError

DEFAULT_TOL = 1e-10
_EPS = sys.float_info.epsilon


Integrand = namedtuple("Integrand", "f exclude_atoms", defaults=(False,))
Integrand.__doc__ = """An integrand f with its atom-handling convention.

exclude_atoms=True integrates over [a, b) \\ D_g, which is what the
continuous factor of the exponential needs.
"""


def _as_integrand(f):
    return f if isinstance(f, Integrand) else Integrand(f)


def _checked(f):
    def wrapped(s):
        val = f(s)
        if isinstance(val, complex):
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise EvaluationError(f"integrand returned non-finite value at s={s}")
        elif not math.isfinite(val):
            raise EvaluationError(f"integrand returned non-finite value at s={s}")
        return val

    return wrapped


# the 10-point Gauss rule on [-1, 1], from QUADPACK's qk21 (Piessens et al.,
# 1983): its positive nodes in decreasing order and their weights
_GAUSS_X = (
    0.973906528517171720077964012084452,
    0.865063366688984510732096688423493,
    0.679409568299024406234327365114874,
    0.433395394129247190799265943165784,
    0.148874338981631210884826001129720,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_GAUSS_NODES = tuple(-x for x in _GAUSS_X) + _GAUSS_X[::-1]
_GAUSS = _WG + _WG[::-1]
_MAX_PANELS = 200

# the panel rule: the degree-16 interpolant on the Chebyshev points of the
# first kind, which leave out the panel ends; row k of _CHEB_COS maps the
# values to the coefficient of T_k
_DEGREE = 16
_CHEB_X = tuple(math.cos(math.pi * (j + 0.5) / (_DEGREE + 1)) for j in range(_DEGREE + 1))
_CHEB_COS = tuple(
    tuple(2.0 / (_DEGREE + 1) * math.cos(math.pi * k * (j + 0.5) / (_DEGREE + 1))
          for j in range(_DEGREE + 1))
    for k in range(_DEGREE + 1)
)


def quad(f, lo, hi, eps):
    """Adaptive integral of f over [lo, hi], lo < hi: the sum of the
    _cheb_panels that indefinite tiles an affine stretch with, for a total
    error estimate within eps.  f returns real or complex scalars."""
    return sum(p[4] for p in _cheb_panels(f, lo, hi, eps))


def _affine_spans(d, a, b):
    """(lo, hi, slope) for each affine piece of [a, b); the atoms of [a, b)
    are d.atoms_in(a, b) and flat pieces carry no measure."""
    spans = []
    for seg in d.segments:
        if seg.kind != "affine":
            continue
        lo, hi = max(a, seg.lo), min(b, seg.hi)
        if hi > lo:
            spans.append((lo, hi, seg.slope))
    return spans


def _check_span(name, a, b, d):
    """(a, b) as floats; raises DomainError unless a <= b, both in domain."""
    a, b = float(a), float(b)
    if b < a:
        raise DomainError(f"{name} needs a <= b, got [{a}, {b})")
    d._check_domain(a)
    d._check_domain(b)
    return a, b


def integrate(f, a, b, d, tol=DEFAULT_TOL):
    """integral over [a, b) of f d(mu_g).  Requires a <= b, both in domain."""
    ig = _as_integrand(f)
    a, b = _check_span("integrate", a, b, d)
    if a == b:
        return 0.0

    func = _checked(ig.f)
    total = 0.0
    if not ig.exclude_atoms:
        for t, gap in d.atoms_in(a, b):
            total += func(t) * gap

    spans = _affine_spans(d, a, b)
    length = sum(hi - lo for lo, hi, _ in spans)
    for lo, hi, slope in spans:
        total += slope * quad(func, lo, hi, tol * (hi - lo) / length)
    return total


def integrate_gauss(f, a, b, d):
    """Fixed-order (10-point Gauss) Stieltjes sum of f over [a, b).

    Non-adaptive on purpose: the integrand may carry difference-quotient
    noise that adaptive subdivision chases forever.  f maps a list of points
    to the list of its values: it is called once, on the nodes of every
    affine piece end to end, and each piece sums its own ten; f is called on
    scalars at the atoms, which contribute their left value times the gap.
    Requires a <= b, both in domain, as integrate does.
    """
    a, b = _check_span("integrate_gauss", a, b, d)
    spans = _affine_spans(d, a, b)
    total = 0.0
    if spans:
        nodes = [0.5 * (lo + hi) + 0.5 * (hi - lo) * z for lo, hi, _ in spans
                 for z in _GAUSS_NODES]
        fs, n = f(nodes), len(_GAUSS)
        for k, (lo, hi, slope) in enumerate(spans):
            fk = fs[n * k : n * (k + 1)]
            total += slope * (0.5 * (hi - lo)) * sum(map(operator.mul, _GAUSS, fk))
    for t, gap in d.atoms_in(a, b):
        total += f(t) * gap
    return total


def integrate_signed(f, x, y, d, tol=DEFAULT_TOL):
    """Signed convention: [x, y) when y >= x, minus [y, x) otherwise."""
    if y >= x:
        return integrate(f, x, y, d, tol=tol)
    return -integrate(f, y, x, d, tol=tol)


def _cheb_panel(f, lo, hi):
    """f's degree-_DEGREE Chebyshev interpolant on [lo, hi], integrated
    termwise: (mid, half, b, err, absint), where b holds the coefficients of
    the antiderivative from lo in T_k((s - mid) / half), err weighs the
    interpolant's last three coefficients and absint estimates the integral
    of |f|."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fv = [f(mid + half * x) for x in _CHEB_X]
    c = [sum(map(operator.mul, row, fv)) for row in _CHEB_COS]
    c[0] *= 0.5
    c += (0.0, 0.0)
    # T_k integrates to T_{k+1} / (2 (k+1)) - T_{k-1} / (2 (k-1)), T_0 to T_1
    b = [0.0, half * (c[0] - 0.5 * c[2])]
    b += [half * (c[k - 1] - c[k + 1]) / (2 * k) for k in range(2, _DEGREE + 2)]
    b[0] = sum(b[1::2]) - sum(b[2::2])  # zero at s = lo
    err = half * sum(map(abs, c[_DEGREE - 2 : _DEGREE + 1]))
    return mid, half, b, err, 2.0 * half * sum(map(abs, fv)) / len(fv)


def _clenshaw(b, x):
    """sum of b[k] T_k(x)."""
    b1 = b2 = 0.0
    for c in b[:0:-1]:
        b1, b2 = 2.0 * x * b1 - b2 + c, b1
    return x * b1 - b2 + b[0]


def _cheb_panels(f, lo, hi, tol):
    """Chebyshev panels tiling [lo, hi] from left to right, each
    (lo, mid, half, b, integral) with b as _cheb_panel's.  A panel is
    bisected until its error estimate is within its share of tol by width,
    or within 1e-14 of the integral of |f| over it; 200 panels, or a panel
    too narrow to split in floating point, raise NonConvergenceError."""
    done, todo = [], [(lo, hi)]
    while todo:
        x, y = todo.pop()
        mid, half, b, err, absint = _cheb_panel(f, x, y)
        if err <= max(tol * (y - x) / (hi - lo), 1e-14 * absint):
            done.append((x, mid, half, b, sum(b)))
            continue
        count = len(done) + len(todo) + 1
        # the halves of a narrower panel would round their outer nodes onto
        # their ends
        if count >= _MAX_PANELS or y - x <= 1e4 * _EPS * max(abs(x), abs(y)):
            raise NonConvergenceError(
                f"quadrature on [{lo}, {hi}] did not reach tolerance: error "
                f"estimate {err:.3g} on [{x}, {y}] after {count} panels"
            )
        m = 0.5 * (x + y)
        todo += ((m, y), (x, m))
    return done


def indefinite(f, a, d, tol=DEFAULT_TOL):
    """t -> integral over [a, t) (signed below a), as a piecewise Chebyshev
    antiderivative.

    On the first call every stretch between consecutive knots (a and the
    segment ends) on an affine segment is tiled by _cheb_panels, the
    stretches sharing tol by width.  The knot values are sums of whole
    panels and of the atoms' f(t) gap (none for Integrand(f,
    exclude_atoms=True)).  After that F(t) is its panel's value plus one
    Clenshaw sum, without a call of f.  F is left-continuous at atoms, and
    real or complex as f is."""
    ig = _as_integrand(f)
    try:
        a = d._check_domain(float(a))
    except DomainError:
        raise DomainError(
            f"indefinite anchor a={a} outside derivator domain [{d.lo}, {d.hi}]"
        ) from None
    knots = sorted({a, d.hi} | {s.lo for s in d.segments})
    # per panel (a flat stretch is one): its left end, F there, F just above
    # (past an atom at a knot) and (mid, half, slope * b), None if flat; the
    # domain's upper end closes the list
    starts, lefts, bases, cheb = [], [], [], []

    def build():
        func = _checked(ig.f)
        length = sum(s.hi - s.lo for s in d.segments if s.kind == "affine")
        pieces = []  # per stretch: the atom's mass at its knot, its panels
        for lo, hi in zip(knots, knots[1:]):
            seg = d.segments[d._seg_index(hi)]
            gap = 0.0 if ig.exclude_atoms else d.jump(lo)
            atom = func(lo) * gap if gap else 0.0
            if seg.kind == "affine":
                panels = [(x, (mid, half, [seg.slope * v for v in b]), seg.slope * integral)
                          for x, mid, half, b, integral
                          in _cheb_panels(func, lo, hi, tol * (hi - lo) / length)]
            else:
                panels = [(lo, None, 0.0)]
            pieces.append((atom, panels))
        # the knot values, walking out from a
        i = knots.index(a)
        whole = [atom + sum(p[2] for p in panels) for atom, panels in pieces]
        at_knot = [0.0] * len(knots)
        for j in range(i, len(pieces)):
            at_knot[j + 1] = at_knot[j] + whole[j]
        for j in range(i - 1, -1, -1):
            at_knot[j] = at_knot[j + 1] - whole[j]
        for (atom, panels), value in zip(pieces, at_knot):
            left, value = value, value + atom
            for x, coef, integral in panels:
                starts.append(x)
                lefts.append(left)
                bases.append(value)
                cheb.append(coef)
                value += integral
                left = value
        starts.append(d.hi)
        lefts.append(at_knot[-1])

    def F(t):
        t = d._check_domain(float(t))
        if not starts:
            build()
        p = bisect.bisect_right(starts, t) - 1
        if t == starts[p]:
            return lefts[p]
        if cheb[p] is None:
            return bases[p]
        mid, half, b = cheb[p]
        return bases[p] + _clenshaw(b, (t - mid) / half)

    return F

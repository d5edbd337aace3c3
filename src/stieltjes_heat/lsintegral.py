"""Lebesgue-Stieltjes integrals against a derivator measure.

The measure splits exactly along the stored structure: atoms contribute
f(t) * gap termwise, each affine segment contributes an ordinary weighted
integral (density = slope), flat segments contribute nothing.  Only the
smooth per-segment part needs quadrature, which `quad` does with an adaptive
Gauss-Kronrod 10/21 rule.
"""

from __future__ import annotations

import bisect
import heapq
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


# QUADPACK's qk21 (Piessens et al., 1983): the 21-point Kronrod abscissae on
# [0, 1] in decreasing order, the last one 0; the 10-point Gauss rule uses
# every second one, starting from the second.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980102141,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the rule on [-1, 1]: nodes -x_1 .. -x_10, 0, x_10 .. x_1, so that the Gauss
# nodes sit at the odd positions
_NODES = tuple(-x for x in _XGK[:10]) + _XGK[10::-1]
_KRONROD = _WGK[:10] + _WGK[10::-1]
_GAUSS = _WG + _WG[::-1]
_MAX_PANELS = 200


def _gk21(f, lo, hi):
    """(Kronrod value, QUADPACK error estimate) of f on [lo, hi]."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fv = [f(mid + half * x) for x in _NODES]
    resk = sum(map(operator.mul, _KRONROD, fv))
    err = abs((resk - sum(map(operator.mul, _GAUSS, fv[1::2]))) * half)
    mean = 0.5 * resk
    resasc = abs(half) * sum([w * abs(v - mean) for w, v in zip(_KRONROD, fv)])
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * half, err


def quad(f, lo, hi, eps):
    """Adaptive Gauss-Kronrod 10/21 integral of f over [lo, hi].

    f returns real or complex scalars.  The panel with the largest error
    estimate is bisected until the summed estimate is at most
    max(eps, 1e-12 |integral|); 200 panels, or a panel too narrow to split
    in floating point, raise NonConvergenceError.
    """
    val, err = _gk21(f, lo, hi)
    panels = [(-err, lo, hi, val)]  # a heap: the worst panel first
    total, errsum = val, err
    while errsum > max(eps, 1e-12 * abs(total)):
        a, b = panels[0][1:3]
        # the halves of a narrower panel would round their outer nodes onto
        # their ends
        if len(panels) >= _MAX_PANELS or b - a <= 1e4 * _EPS * max(abs(a), abs(b)):
            raise NonConvergenceError(
                f"quadrature on [{lo}, {hi}] did not reach tolerance: error "
                f"estimate {errsum:.3g} > {max(eps, 1e-12 * abs(total)):.3g} after "
                f"{len(panels)} panels (worst panel [{a}, {b}])"
            )
        heapq.heappop(panels)
        m = 0.5 * (a + b)
        for x, y in ((a, m), (m, b)):
            v, e = _gk21(f, x, y)
            heapq.heappush(panels, (-e, x, y, v))
        total = sum(p[3] for p in panels)
        errsum = sum(-p[0] for p in panels)
    return total


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


def integrate(f, a, b, d, tol=DEFAULT_TOL):
    """integral over [a, b) of f d(mu_g).  Requires a <= b, both in domain."""
    ig = _as_integrand(f)
    a, b = float(a), float(b)
    if b < a:
        raise DomainError(f"integrate needs a <= b, got [{a}, {b}); use integrate_signed")
    d._check_domain(a)
    d._check_domain(b)
    if a == b:
        return 0.0

    func = _checked(ig.f)
    total = 0.0
    if not ig.exclude_atoms:
        for t, gap in d.atoms_in(a, b):
            total += func(t) * gap

    spans = _affine_spans(d, a, b)
    for lo, hi, slope in spans:
        total += slope * quad(func, lo, hi, tol / len(spans))
    return total


def integrate_gauss(f, a, b, d):
    """Fixed-order (10-point Gauss, quad's inner rule) Stieltjes sum of f
    over [a, b).

    Non-adaptive on purpose: the integrand may carry difference-quotient
    noise that adaptive subdivision chases forever.  f maps a list of points
    to the list of its values: it is called once, on the nodes of every
    affine piece end to end, and each piece sums its own ten; f is called on
    scalars at the atoms, which contribute their left value times the gap.
    """
    spans = _affine_spans(d, a, b)
    total = 0.0
    if spans:
        nodes = [0.5 * (lo + hi) + 0.5 * (hi - lo) * z for lo, hi, _ in spans
                 for z in _NODES[1::2]]
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


def indefinite(f, a, d, tol=DEFAULT_TOL):
    """t -> integral over [a, t) (signed below a).  The integrals between
    consecutive knots (a and the ends of the segments) are taken once, on
    first use, so F(t) integrates only the piece between t and its knot
    toward a.  Results are memoized."""
    ig = _as_integrand(f)
    a = float(a)
    knots = sorted({a, d.hi} | {s.lo for s in d.segments})
    piece_tol = tol / len(knots)  # at most len(knots) pieces add up
    at_knot = []  # F at each knot
    cache = {}

    def fill():
        i = knots.index(a)
        vals = [0.0] * len(knots)
        for j in range(i + 1, len(knots)):
            vals[j] = vals[j - 1] + integrate(ig, knots[j - 1], knots[j], d, piece_tol)
        for j in range(i - 1, -1, -1):
            vals[j] = vals[j + 1] - integrate(ig, knots[j], knots[j + 1], d, piece_tol)
        at_knot.extend(vals)

    def F(t):
        t = float(t)
        if t not in cache:
            if not at_knot:
                fill()
            if t >= a:
                j = bisect.bisect_right(knots, t) - 1
                cache[t] = at_knot[j] + integrate(ig, knots[j], t, d, piece_tol)
            else:
                j = bisect.bisect_left(knots, t)
                cache[t] = at_knot[j] - integrate(ig, t, knots[j], d, piece_tol)
        return cache[t]

    return F

"""Special functions of the Stieltjes calculus.

The exponential is evaluated by its closed form: a product over atoms times an
ordinary exponential of the atom-free integral.  Sine/cosine pairs come from
the exponential at imaginary rate.  Monomials (iterated anchored integrals of
1) are computed exactly: affine/flat segments are closed under the anchored
integral operator, so each monomial is a piecewise polynomial; no quadrature
error enters, which is what lets series tails be certified at high order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GateError
from .lsintegral import Integrand, integrate

# ---------------------------------------------------------------------------
# exponential and regressivity


def _rate(p):
    """Normalize a constant or callable rate to a callable."""
    if callable(p):
        return p
    return lambda _t, _p=p: _p


def gexp(d, p, a, t, tol=1e-10):
    """The Stieltjes exponential: product over atoms of (1 + p gap) times
    exp of the atom-free integral of p over [a, t).

    p may be a real/complex constant or a callable.  Requires t >= a.
    """
    a, t = float(a), float(t)
    if t < a:
        raise DomainError(f"gexp needs t >= a, got a={a}, t={t}")
    atoms = d.atoms_in(a, t)
    if callable(p):
        prod = 1.0
        for s, gap in atoms:
            prod = prod * (1.0 + p(s) * gap)
        cont = integrate(Integrand(p, exclude_atoms=True), a, t, d, tol=tol)
    else:
        prod = 1.0
        for _s, gap in atoms:
            prod = prod * (1.0 + p * gap)
        cont = p * d.continuous_measure(a, t)
    e = cmath.exp(cont) if isinstance(cont, complex) else math.exp(cont)
    return prod * e


def gexp_right_limit(d, p, a, t, tol=1e-10):
    """Right limit of the exponential at t: include the atom at t if present."""
    val = gexp(d, p, a, t, tol=tol)
    gap = d.jump(t)
    if gap > 0.0:
        rate = _rate(p)(t)
        val = val * (1.0 + rate * gap)
    return val


@dataclass
class RegressivityReport:
    kind: str  # "strongly_regressive" | "regressive" | "degenerate"
    witness: float | None = None  # atom where 1 + p gap vanishes

    @property
    def is_regressive(self):
        return self.kind != "degenerate"


def classify_regressivity(d, p, a, b):
    """Check 1 + p(t) gap(t) at every atom of [a, b).

    strongly_regressive: all factors real and positive (the exponential stays
    positive); regressive: all factors nonzero; degenerate: some factor
    vanishes (witness reported).
    """
    rate = _rate(p)
    all_positive = True
    for t, gap in d.atoms_in(a, b):
        z = 1.0 + rate(t) * gap
        if abs(z) <= 1e-14 * (1.0 + abs(rate(t) * gap)):
            return RegressivityReport("degenerate", witness=t)
        if isinstance(z, complex) or z <= 0.0:
            all_positive = False
    return RegressivityReport("strongly_regressive" if all_positive else "regressive")


# ---------------------------------------------------------------------------
# trigonometric / hyperbolic pairs


def gsin_gcos(d, b, t, a=0.0):
    """(sin, cos) pair for real rate b: imaginary and real parts of the
    exponential at rate i*b."""
    z = gexp(d, (lambda s: 1j * b(s)) if callable(b) else 1j * b, a, t)
    return z.imag, z.real


def gsinh_gcosh(d, b, t, a=0.0):
    """(sinh, cosh) pair from the exponentials at rates +-b."""
    u = gexp(d, b, a, t)
    v = gexp(d, (lambda s, r=b: -r(s)) if callable(b) else -b, a, t)
    return (u - v) / 2.0, (u + v) / 2.0


# ---------------------------------------------------------------------------
# monomials: exact piecewise polynomials


class PiecewisePoly:
    """Polynomial per segment of a derivator, in the local variable
    u = t - segment.lo.  Value at an internal breakpoint comes from the left
    segment (left continuity), matching the derivator's own convention."""

    def __init__(self, d, coeffs):
        self.d = d
        self.coeffs = coeffs  # list of ascending-power float arrays

    def eval(self, t):
        d = self.d
        t = d._check_domain(float(t))
        i = d._seg_index(t)
        u = t - d.segments[i].lo
        c = self.coeffs[i]
        acc = 0.0
        for a in reversed(c):
            acc = acc * u + a
        return acc

    def end_value(self, i):
        """Value at the right end of segment i."""
        seg = self.d.segments[i]
        u = seg.hi - seg.lo
        acc = 0.0
        for a in reversed(self.coeffs[i]):
            acc = acc * u + a
        return acc


def _cumint(p: PiecewisePoly, x0: float) -> PiecewisePoly:
    """Anchored integral F(x) = integral_{x0}^{x} p dmu_g (signed convention),
    exact on the piecewise-polynomial class."""
    d = p.d
    segs = d.segments
    n = len(segs)
    # antiderivative of the continuous part, per segment, with A(0) = 0
    A = []
    for i, seg in enumerate(segs):
        if seg.kind == "flat":
            A.append(np.zeros(1))
        else:
            c = p.coeffs[i]
            a = np.zeros(len(c) + 1)
            a[1:] = seg.slope * c / np.arange(1, len(c) + 1)
            A.append(a)

    def a_end(i):
        seg = segs[i]
        u = seg.hi - seg.lo
        acc = 0.0
        for v in reversed(A[i]):
            acc = acc * u + v
        return acc

    C = [0.0] * n
    k0 = d._seg_index(x0)
    u0 = x0 - segs[k0].lo
    acc = 0.0
    for v in reversed(A[k0]):
        acc = acc * u0 + v
    C[k0] = -acc
    # rightward: crossing the boundary at segs[k].hi picks up the atom there
    for k in range(k0, n - 1):
        b = segs[k].hi
        Fb = C[k] + a_end(k)
        C[k + 1] = Fb + p.end_value(k) * d.jump(b)
    # leftward: undo the atom and the segment's own growth
    for k in range(k0 - 1, -1, -1):
        b = segs[k].hi
        Fb_plus = C[k + 1]  # right limit at b
        Fb = Fb_plus - p.end_value(k) * d.jump(b)
        C[k] = Fb - a_end(k)

    coeffs = []
    for i in range(n):
        c = A[i].copy()
        c[0] += C[i]
        coeffs.append(c)
    return PiecewisePoly(d, coeffs)


class MonomialTable:
    """Lazy cache of the monomials g_{x0,n} for one (derivator, center)."""

    def __init__(self, d, x0):
        d._check_domain(float(x0))
        self.d = d
        self.x0 = float(x0)
        one = PiecewisePoly(d, [np.ones(1) for _ in d.segments])
        self._polys = [one]

    def extend(self, order):
        while len(self._polys) <= order:
            n = len(self._polys)
            nxt = _cumint(self._polys[n - 1], self.x0)
            nxt.coeffs = [n * c for c in nxt.coeffs]
            self._polys.append(nxt)

    def eval(self, n, x):
        self.extend(n)
        return self._polys[n].eval(x)


# Tables are shared by structurally equal derivators.  Each table holds its
# derivator alive, so only the 8 newest structures keep theirs.
_TABLES = {}  # derivator -> {center: MonomialTable}, oldest first


def monomial_table(d, x0=0.0):
    per = _TABLES.get(d)
    if per is None:
        per = _TABLES[d] = {}
        if len(_TABLES) > 8:
            del _TABLES[next(iter(_TABLES))]
    key = float(x0)
    if key not in per:
        per[key] = MonomialTable(d, key)
    return per[key]


def g_monomial(d, n, x0, x):
    """g_{x0,n}(x): the n-fold anchored integral of 1 (g_0 = 1)."""
    if n < 0:
        raise DomainError("monomial order must be nonnegative")
    return monomial_table(d, x0).eval(n, x)


# ---------------------------------------------------------------------------
# series with certified tails


def _exp_tail(r, start):
    """Upper bound for sum_{m >= start} r^m / m!, r >= 0."""
    if r == 0.0:
        return 0.0
    log_term = start * math.log(r) - math.lgamma(start + 1)
    if log_term < -700.0:
        return math.exp(-700.0)  # conservative floor, far below any tolerance
    term = math.exp(log_term)
    acc = 0.0
    m = start
    while m < start + 20000:
        acc += term
        ratio = r / (m + 1)
        term *= ratio
        m += 1
        if ratio < 0.5 and term < 1e-22 * max(acc, 1e-300):
            break
    # close the remainder geometrically once the ratio is below 1/2
    ratio = r / (m + 1)
    if ratio < 1.0:
        acc += term / (1.0 - ratio)
    else:  # did not reach the decaying regime; be blunt
        acc = math.inf
    return acc * (1.0 + 1e-12)


def _series_context(d, x, center):
    x, center = float(x), float(center)
    if x < center:
        raise DomainError("series identities need x >= center")
    table = monomial_table(d, center)
    gbar = d.eval(x) - d.eval(center)
    return table, gbar


def gexp_series(d, lam, x, order, center=0.0):
    """Partial sum of sum_n lam^n g_n(x)/n! with a certified tail bound
    (monomial bound 0 <= g_n(x) <= gbar(x)^n)."""
    table, gbar = _series_context(d, x, center)
    table.extend(order)
    value = 0.0
    coef = 1.0  # lam^n / n!
    for n in range(order + 1):
        if n > 0:
            coef = coef * lam / n
        value = value + coef * table.eval(n, x)
    tail = _exp_tail(abs(lam) * gbar, order + 1)
    return value, tail


def _alternating_series(d, rate, x, order, center, parity, signed):
    """Shared core for sin/cos/sinh/cosh partial sums.

    parity 1: orders 1, 3, 5, ...; parity 0: orders 0, 2, 4, ...
    signed=True alternates signs (trigonometric case).
    """
    table, gbar = _series_context(d, x, center)
    top = 2 * order + parity
    table.extend(top)
    value = 0.0
    for k in range(order + 1):
        m = 2 * k + parity
        coef = rate**m / math.factorial(m)
        if signed and (k % 2 == 1):
            coef = -coef
        value = value + coef * table.eval(m, x)
    tail = _exp_tail(abs(rate) * gbar, top + 2)
    return value, tail


def gsin_series(d, b, x, order, center=0.0):
    return _alternating_series(d, b, x, order, center, parity=1, signed=True)


def gcos_series(d, b, x, order, center=0.0):
    return _alternating_series(d, b, x, order, center, parity=0, signed=True)


def gsinh_series(d, b, x, order, center=0.0):
    return _alternating_series(d, b, x, order, center, parity=1, signed=False)


def gcosh_series(d, b, x, order, center=0.0):
    return _alternating_series(d, b, x, order, center, parity=0, signed=False)

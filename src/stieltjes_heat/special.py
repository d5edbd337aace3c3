"""Special functions of the Stieltjes calculus.

The exponential is evaluated by its closed form: a product over atoms times an
ordinary exponential of the atom-free integral.  Sine/cosine pairs come from
the exponential at imaginary rate.  Monomials (iterated anchored integrals of
1) are computed exactly: affine/flat segments are closed under the anchored
integral operator, so each monomial is a piecewise polynomial; no quadrature
error enters, which is what lets series tails be certified at high order.
The tables are plain lists of coefficient rows, one list per segment, and
a value is one sum of products per row, so no array library is imported.
The series partial sums weight the list of monomial values by rate^m / m!
stepped in floats.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from operator import mul

from .errors import DomainError, EvaluationError, GateError
from .lsintegral import integrate

# ---------------------------------------------------------------------------
# exponential and regressivity


def _rate(p):
    """Normalize a constant or callable rate to a callable."""
    if callable(p):
        return p
    return lambda _t, _p=p: _p


def exp_walk(p, walk, gap=0.0):
    """exp_d(p; a, t) at a constant rate p from walk = d.exp_data(a, t), or
    its right limit at t when gap = d.jump(t).  One walk serves every rate."""
    atoms, cont = walk
    prod = 1.0
    for _s, g in atoms:
        prod = prod * (1.0 + p * g)
    cont = p * cont
    if isinstance(cont, complex):
        try:
            val = prod * cmath.exp(cont)
        except ValueError:  # cmath refuses an infinite phase
            raise EvaluationError(f"exponential phase {cont.imag!r} is not finite") from None
    else:
        val = prod * math.exp(cont)
    return val * (1.0 + p * gap) if gap > 0.0 else val


def gexp(d, p, a, t, tol=1e-10):
    """The Stieltjes exponential: product over atoms of (1 + p gap) times
    exp of the atom-free integral of p over [a, t).

    p may be a real/complex constant or a callable.  Requires t >= a.
    """
    a, t = float(a), float(t)
    if t < a:
        raise DomainError(f"gexp needs t >= a, got a={a}, t={t}")
    if not callable(p):
        return exp_walk(p, d.exp_data(a, t))
    prod = 1.0
    for s, gap in d.atoms_in(a, t):
        prod = prod * (1.0 + p(s) * gap)
    cont = integrate(p, a, t, d, tol=tol, exclude_atoms=True)
    return prod * (cmath.exp(cont) if isinstance(cont, complex) else math.exp(cont))


def gexp_right_limit(d, p, a, t, tol=1e-10):
    """Right limit of the exponential at t: include the atom at t if present."""
    val = gexp(d, p, a, t, tol=tol)
    gap = d.jump(t)
    if gap > 0.0:
        rate = _rate(p)(t)
        val = val * (1.0 + rate * gap)
    return val


class RegressivityReport(namedtuple("RegressivityReport", "kind witness", defaults=(None,))):
    """kind is "strongly_regressive", "regressive" or "degenerate"; witness
    is the atom where 1 + p gap vanishes, None when none does."""

    __slots__ = ()

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


class MonomialTable:
    """The monomials g_{x0,0}, g_{x0,1}, ... of one (derivator, center).

    One list of coefficient rows per segment is the only store: row n
    holds the n + 1 coefficients of g_n in s = (x - seg.lo) / (seg.hi -
    seg.lo), so the powers of s stay in [0, 1] at any order (the
    coefficients carry the scale factors (seg.hi - seg.lo)^k, which leave
    the float range past order 709 / log(seg.hi - seg.lo) on segments
    longer than 1).  A value is one sum(map(mul, row, powers)) per row.
    The value at an internal breakpoint comes from the left segment (left
    continuity).
    """

    def __init__(self, d, x0):
        d._check_domain(float(x0))
        self.d = d
        self.x0 = float(x0)
        self._anchor = self._locate(self.x0)
        # density of mu_g in s per segment (0 on flat ones), gap at each
        # internal boundary
        self._density = [s.slope * (s.hi - s.lo) for s in d.segments]
        self._gaps = [d.jump(s.hi) for s in d.segments[:-1]]
        self._coef = [[[1.0]] for _ in d.segments]  # g_0 = 1

    def extend(self, order):
        """Append the rows through `order`."""
        have = len(self._coef[0])
        if order < have:
            return
        k0, s0 = self._anchor
        s0k = [s0**k for k in range(1, order + 1)]
        for n in range(have, order + 1):
            # g_n = n * integral_{x0}^{x} g_{n-1} dmu_g: termwise in s, then
            # one walk from the anchor's segment that crosses each boundary b
            # with the segment's growth plus n g_{n-1}(b) gap(b); the sums run
            # outward from the anchor, so the two sides never cancel
            grows = [[n * dens * a / k for k, a in enumerate(rows[n - 1], 1)]
                     for dens, rows in zip(self._density, self._coef)]
            steps = [sum(grow) + n * sum(rows[n - 1]) * gap
                     for grow, rows, gap in zip(grows, self._coef, self._gaps)]
            walk = [0.0] * len(grows)
            for i in range(k0 + 1, len(grows)):
                walk[i] = walk[i - 1] + steps[i - 1]
            for i in range(k0 - 1, -1, -1):
                walk[i] = walk[i + 1] - steps[i]
            at_anchor = sum(map(mul, grows[k0], s0k))
            for rows, grow, w in zip(self._coef, grows, walk):
                rows.append([w - at_anchor, *grow])

    def _locate(self, x, right=False):
        """(segment index, s) of x; right=True reads a breakpoint from the
        segment on its right."""
        d = self.d
        x = d._check_domain(float(x))
        i = d._seg_index(x)
        if right and i + 1 < len(d.segments) and x == d.segments[i].hi:
            i += 1
        seg = d.segments[i]
        return i, (x - seg.lo) / (seg.hi - seg.lo)

    def eval(self, n, x):
        """g_n(x) from row n."""
        self.extend(n)
        i, s = self._locate(x)
        return sum(map(mul, self._coef[i][n], _powers(s, n)))

    def values(self, order, x, right=False):
        """[g_0(x), ..., g_order(x)]; right=True gives the right limits
        g_j(x+), which differ from the values at atoms only."""
        self.extend(order)
        i, s = self._locate(x, right)
        p = _powers(s, order)
        return [sum(map(mul, row, p)) for row in self._coef[i][: order + 1]]


def _powers(s, order):
    """[s^0, s^1, ..., s^order], each power taken on its own."""
    return [s**k for k in range(order + 1)]


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


def _series_terms(d, rate, x, top, center):
    """The summands rate^m g_m(x) / m!, m = 0..top, with the weights stepped
    in floats (m! itself leaves the float range at m = 171), and the
    monomial bound gbar = g(x) - g(center)."""
    x, center = float(x), float(center)
    if x < center:
        raise DomainError("series identities need x >= center")
    weight, terms = 1.0, []
    for m, g_m in enumerate(monomial_table(d, center).values(top, x)):
        if m:
            weight = weight * (rate / m)
        terms.append(weight * g_m)
    return terms, d.eval(x) - d.eval(center)


def gexp_series(d, lam, x, order, center=0.0):
    """Partial sum of sum_n lam^n g_n(x)/n! with a certified tail bound
    (monomial bound 0 <= g_n(x) <= gbar(x)^n)."""
    terms, gbar = _series_terms(d, lam, x, order, center)
    return sum(terms), _exp_tail(abs(lam) * gbar, order + 1)


def _alternating_series(d, rate, x, order, center, parity, signed):
    """Shared core for sin/cos/sinh/cosh partial sums.

    parity 1: orders 1, 3, 5, ...; parity 0: orders 0, 2, 4, ...
    signed=True alternates signs (trigonometric case).
    """
    top = 2 * order + parity
    terms, gbar = _series_terms(d, rate, x, top, center)
    terms = terms[parity::2]
    if signed:
        terms[1::2] = [-z for z in terms[1::2]]
    return sum(terms), _exp_tail(abs(rate) * gbar, top + 2)


def gsin_series(d, b, x, order, center=0.0):
    return _alternating_series(d, b, x, order, center, parity=1, signed=True)


def gcos_series(d, b, x, order, center=0.0):
    return _alternating_series(d, b, x, order, center, parity=0, signed=True)


def gsinh_series(d, b, x, order, center=0.0):
    return _alternating_series(d, b, x, order, center, parity=1, signed=False)


def gcosh_series(d, b, x, order, center=0.0):
    return _alternating_series(d, b, x, order, center, parity=0, signed=False)

"""Heat equation driven by a single two-variable derivator G(t, x).

Two shapes are supported.  The sum case G = g(t) + h(x) yields G-polynomials
G_{m,n} = g_m(t) h_n(x), heat G-polynomials, and gated polynomial series
solutions.  The product case G = g(t) h(x) (both strictly positive) yields
separated solutions through modified one-factor eigenproblems, in closed
form: an exponential over the measure dg/g^2 in time and a Taylor-stepped
Bessel-type factor in space (ode.SpaceFactor).
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from operator import mul

from .errors import DivergenceError, DomainError, EvaluationError, GateError
from .gderiv import HeatResidual
from .heat1d import _check_rectangle, _stream
from .lsintegral import integrate
from .ode import SpaceFactor
from .special import _powers, classify_regressivity, exp_walk, monomial_table

__all__ = [
    "SumDerivator",
    "ProductDerivator",
    "GPolyContext",
    "G_mn",
    "heat_gpoly",
    "classical_heat_polynomial",
    "iterated_integral",
    "RadiusReport",
    "radius_sigma",
    "GateReport",
    "GPolySolution",
    "gpoly_series_solution",
    "ProductCaseSolution",
    "solve_product_case",
]


class SumDerivator:
    """G(t, x) = g(t) + h(x); every slice shares the component's jump data."""

    kind = "sum"

    def __init__(self, g, h):
        self.g = g
        self.h = h

    def value(self, t, x):
        return self.g.eval(t) + self.h.eval(x)

    def __repr__(self):
        return f"SumDerivator({self.g!r}, {self.h!r})"


class ProductDerivator:
    """G(t, x) = g(t) h(x) with g, h > 0 on their domains.

    Positivity is what keeps the slices nondecreasing, and it is certified at
    the left endpoints (the minimum of a nondecreasing function).
    """

    kind = "product"

    def __init__(self, g, h):
        gmin, hmin = g.eval(g.lo), h.eval(h.lo)
        if gmin <= 0.0 or hmin <= 0.0:
            raise DomainError(
                "product derivator needs g > 0 and h > 0 everywhere; minima "
                f"are g({g.lo}) = {gmin}, h({h.lo}) = {hmin}"
            )
        self.g = g
        self.h = h

    def value(self, t, x):
        return self.g.eval(t) * self.h.eval(x)

    def __repr__(self):
        return f"ProductDerivator({self.g!r}, {self.h!r})"


def _require(G, kind, op):
    if getattr(G, "kind", None) != kind:
        raise TypeError(f"{op} requires a {kind} two-variable derivator, got {G!r}")


# -- sum case: G-polynomials -----------------------------------------------------


def G_mn(m, n, t, x, G):
    """Two-variable monomial G_{m,n}(t, x) = g_m(t) h_n(x) for the sum
    derivator G = g + h: the closed form of the recursion G_{m,0} =
    m I G_{m-1,0}, G_{m,n} = n K G_{m,n-1}."""
    if m < 0 or n < 0:
        raise DomainError(f"monomial degrees must be >= 0, got ({m}, {n})")
    _require(G, "sum", "G_mn")
    return monomial_table(G.g, 0.0).eval(m, t) * monomial_table(G.h, 0.0).eval(n, x)


class GPolyContext(namedtuple("GPolyContext", "G c")):
    """Sum derivator plus diffusion constant, as used by heat G-polynomials."""

    __slots__ = ()

    def __init__(self, G, c):
        _require(G, "sum", "GPolyContext")
        if not c > 0:
            raise DomainError(f"diffusion constant must be positive, got {c}")


def _ladder_terms(n, c, alpha, w):
    """The terms c^(2k) n!/((n-2k)! k!) alpha w_k, k = 0..n//2, of alpha
    v_n^G, as a list, where w_k = g_k(t) h_{n-2k}(x); w = 1 gives the row
    of weights.

    The integer factor is exact while it fits 900 bits; past that the term
    is assembled in log space, so a huge factor times a tiny c^(2k) alpha
    w_k stays finite.  A vanishing alpha or w_k gives a zero term.
    """
    out = [0j if isinstance(alpha, complex) else 0.0] * (n // 2 + 1)
    if alpha == 0:
        return out
    phase = alpha / abs(alpha)
    fac = 1  # n! / ((n - 2k)! k!), stepped exactly in k
    for k in range(n // 2 + 1):
        if k:
            fac = fac * (n - 2 * k + 2) * (n - 2 * k + 1) // k
        wk = float(w[k])
        if wk == 0.0:
            continue
        if fac.bit_length() <= 900:
            out[k] = fac * c ** (2 * k) * alpha * wk
            continue
        logt = (math.lgamma(n + 1) - math.lgamma(n - 2 * k + 1) - math.lgamma(k + 1)
                + 2 * k * math.log(c) + math.log(abs(alpha)) + math.log(abs(wk)))
        mag = math.inf if logt > 709.0 else math.exp(logt)
        out[k] = mag * math.copysign(1.0, wk) * phase
    return out


def _heat_terms(n, c, g_vals, h_vals):
    """The terms of v_n^G from the lists g_0..g_{n//2} and h_0..h_n at one
    point."""
    return _ladder_terms(n, c, 1.0, list(map(mul, g_vals, h_vals[n::-2])))


def heat_gpoly(n, t, x, ctx):
    """Heat G-polynomial v_n^G(t,x) = sum_k n! c^(2k)/((n-2k)! k!) g_k(t) h_{n-2k}(x)."""
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    G = ctx.G
    return sum(_heat_terms(n, ctx.c, monomial_table(G.g, 0.0).values(n // 2, t),
                           monomial_table(G.h, 0.0).values(n, x)))


def classical_heat_polynomial(n, tau, xi):
    """Textbook heat polynomial v_n(tau, xi) = sum_k n!/((n-2k)! k!) tau^k xi^(n-2k)."""
    f = math.factorial
    return sum(f(n) // (f(n - 2 * k) * f(k)) * tau**k * xi ** (n - 2 * k)
               for k in range(n // 2 + 1))


def iterated_integral(H, t, x, G, order="IK", tol=1e-10):
    """Iterated Stieltjes integral of H(s, y) over [0,t) x [0,x).

    order "IK" integrates in y first (inner K, then outer I over s); "KI" the
    reverse.  Nested adaptive quadrature; no separated structure is assumed.
    """
    _require(G, "sum", "iterated_integral")
    g, h = G.g, G.h
    if order == "IK":
        inner = lambda s: integrate(lambda y: H(s, y), 0.0, x, h, tol=tol)
        return integrate(inner, 0.0, t, g, tol=tol)
    if order == "KI":
        inner = lambda y: integrate(lambda s: H(s, y), 0.0, t, g, tol=tol)
        return integrate(inner, 0.0, x, h, tol=tol)
    raise DomainError(f"order must be 'IK' or 'KI', got {order!r}")


# -- sum case: radius estimate and gated series -----------------------------------


RadiusReport = namedtuple("RadiusReport", "sigma sigma_gate trend n_probe r_tail")
RadiusReport.__doc__ = """Estimate of sigma with 1/sigma = lim 2n |alpha_n|^(2/n) / e.

`sigma` is 1 over the mean of the last-quarter ratio values (inf when they
vanish, nan when the trend oscillates); `sigma_gate` uses the largest recent
ratio and is the conservative value gates should use.  `trend` is one of
converged/increasing/decreasing/oscillating, and `r_tail` the tuple of the
last-quarter ratios.
"""


def default_n_probe(N):
    """The radius probe length of a truncation N whose spec names none."""
    return max(2 * N, 120)


def radius_sigma(alpha, n_probe=200):
    """Estimate the series radius from coefficients alpha_n, with trend report."""
    if n_probe < 8:
        raise DomainError(f"need n_probe >= 8, got {n_probe}")
    r = []
    for n in range(1, n_probe + 1):
        a = abs(_stream(alpha, n))
        if a == 0.0:
            r.append(0.0)
        else:
            r.append(math.exp(math.log(2.0 * n / math.e) + 2.0 * math.log(a) / n))
    tail = r[-(n_probe // 4) :]
    prev = r[-(n_probe // 2) : -(n_probe // 4)]
    mean = sum(tail) / len(tail)
    spread = max(tail) - min(tail)
    if spread <= 1e-3 * (mean + 1e-300):
        trend = "converged"
    elif all(b >= a for a, b in zip(tail, tail[1:])):
        trend = "increasing"
    elif all(b <= a for a, b in zip(tail, tail[1:])):
        trend = "decreasing"
    else:
        trend = "oscillating"

    limit_zero = mean == 0.0
    if trend == "decreasing" and prev:
        # sustained decay: the last quarter is markedly below the one before
        prev_mean = sum(prev) / len(prev)
        if mean <= 0.75 * prev_mean:
            limit_zero = True
    if trend == "oscillating":
        sigma = math.nan
    elif limit_zero:
        sigma = math.inf
    else:
        sigma = 1.0 / mean
    gate_r = max(tail)
    sigma_gate = math.inf if gate_r == 0.0 or limit_zero else 1.0 / gate_r
    return RadiusReport(sigma, sigma_gate, trend, n_probe, tuple(tail))


def _gate_verdict(report, g_T, c):
    """The admissibility rule g(T) < sigma_gate/c^2: "refused" when the ratio
    trend oscillates (no sigma claim), else "pass" or "fail"."""
    if report.trend == "oscillating":
        return "refused"
    return "pass" if g_T < report.sigma_gate / c**2 else "fail"


GateReport = namedtuple("GateReport",
                        "g_T sigma sigma_gate c trend ok tail_bound truncation")
GateReport.__doc__ = """Outcome of the g(T) < sigma/c^2 admissibility gate for a G-poly series."""


def _require_finite(name, table, order, N):
    """Refuse a monomial table with a non-finite coefficient in its rows
    0..order, naming the lowest such order and its segment."""
    table.extend(order)
    for n in range(order + 1):
        for j, rows in enumerate(table._coef):
            if not all(map(math.isfinite, rows[n])):
                seg = table.d.segments[j]
                raise EvaluationError(
                    f"monomial {name}_{n} leaves the float range on segment {j} "
                    f"[{seg.lo!r}, {seg.hi!r}] of {name}; truncation N = {N} needs "
                    f"{name}_0..{name}_{order}")


class GPolySolution(HeatResidual):
    """Truncated series sum_{n<=N} alpha_n v_n^G with closed-form G-derivatives.

    The series is sum_{m,n} a_{m,n} g_m(t) h_n(x) over n + 2m <= N, with
    the coefficient grid A, row m the list of a_{m,n} = c^(2m) (n+2m)!/(n!
    m!) alpha_{n+2m}, n = 0..N-2m, built once as floats.  The ladders are
    shifted copies of A: d_Gx h_n = n h_{n-1} shifts columns, d_Gt g_m = m
    g_{m-1} shifts rows, and by the coefficient law the row shift is c^2
    times the d_Gx^2 grid, so the rule residual vanishes.  Sum-case
    G-derivatives reduce to the one-variable ones of g and h, which is what
    the numeric residual differentiates along.

    On segment j of h the monomials h_n are polynomials in the local
    coordinate y in [0, 1] of h's MonomialTable, with the coefficient rows
    C_h[j], so a grid contracts with them once, into K_j = grid . C_h[j]
    (row m the coefficients of sum_n grid[m][n] h_n in the powers of y),
    built on first use and kept on the instance per (grid, j).  The time
    row is the list g_0(t), ..., g_{N/2}(t) from g's table; the space column
    is (j, powers of y, a memo of K_j . powers(y) per grid), and every value,
    slice, rule and residual grid entry is the one contraction
    g(t) . (K_j . powers(y)).  The memo lives as long as its column in the
    instance's column cache.  Monomial rows that leave the float range below
    the orders the series reads raise EvaluationError.  a_mn gives the
    exact rational a_{m,n}.

    The numeric residual differentiates the slices, not the factors: the
    row components g_m(t) reach 1e22 at N = 100 and cancel in the
    contraction, so their own ladders' rounding would swamp it.  Its
    ladders run on the instance's sampling views of g and h, so each t and
    each x is sampled once per solution, and residual_grid keeps the rows
    and columns of one call in an unbounded cache of its own (see
    HeatResidual).
    """

    _factor_ladders = False

    def __init__(self, ctx, alpha, N, radius, tail_bound):
        self.ctx = ctx
        self.g, self.h, self.c = ctx.G.g, ctx.G.h, ctx.c
        self.alpha = alpha
        self.N = N
        self.radius = radius
        self.tail_bound = tail_bound
        a = [complex(_stream(alpha, n)) for n in range(N + 1)]
        if any(not math.isfinite(z.real) or not math.isfinite(z.imag) for z in a):
            raise DivergenceError("series coefficients are non-finite")
        real = all(z.imag == 0.0 for z in a)
        self.A = [[] for _ in range(N // 2 + 1)]
        for n, z in enumerate(a):
            # row k gains a_{k,n-2k}: in each row the columns arrive in order
            for k, v in enumerate(_ladder_terms(n, self.c, z.real if real else z,
                                                [1.0] * (n // 2 + 1))):
                self.A[k].append(v)
        Ax = [[v * n for n, v in enumerate(row[1:], 1)] for row in self.A]
        Axx = [[v * (n * (n - 1)) for n, v in enumerate(row[2:], 2)] for row in self.A]
        self._grids = (self.A, Ax, Axx)
        self._cells = {}  # (grid, j) -> K_j
        self._tg = monomial_table(self.g, 0.0)
        self._th = monomial_table(self.h, 0.0)
        _require_finite("g", self._tg, N // 2, N)
        _require_finite("h", self._th, N, N)

    def _build_cell(self, grid, j):
        rows = self._th._coef[j]
        # column k of C_h[j]: the coefficients of y^k in h_k, ..., h_N
        cols = [[rows[n][k] for n in range(k, self.N + 1)] for k in range(self.N + 1)]
        return [[sum(map(mul, row[k:], cols[k])) for k in range(len(row))]
                for row in self._grids[grid]]

    def _row(self, t, right=False):
        return self._tg.values(self.N // 2, t, right)

    def _col(self, x, right=False):
        j, y = self._th._locate(x, right)
        return j, _powers(y, self.N), {}

    def _dot(self, row, col, grid=0):
        j, q, memo = col
        v = memo.get(grid)
        if v is None:
            cell = self._cells.get((grid, j))
            if cell is None:
                cell = self._cells[grid, j] = self._build_cell(grid, j)
            v = memo[grid] = [sum(map(mul, k, q)) for k in cell]
        return sum(map(mul, row, v))

    def _dhx(self, t, x, right=False):
        col = self._col(x, True) if right else self._cached_col(x)
        return self._dot(self._cached_row(t), col, 1)

    def dgt_rule(self, t, x):
        # the row shift (m + 1) a_{m+1,n} equals c^2 (n+2)(n+1) a_{m,n+2}
        return self.c**2 * self.dhx2_rule(t, x)

    def dhx2_rule(self, t, x):
        return self._dot(self._cached_row(t), self._cached_col(x), 2)

    def a_mn(self, m, n):
        """Exact rational coefficient a_{m,n} of G_{m,n} in the double series."""
        from fractions import Fraction  # only here: a fresh eval never loads it

        if m < 0 or n < 0:
            raise DomainError(f"indices must be >= 0, got ({m}, {n})")
        if n + 2 * m > self.N:
            return Fraction(0)
        alpha = _stream(self.alpha, n + 2 * m)
        factor = (
            Fraction(self.ctx.c) ** (2 * m)
            * Fraction(math.factorial(n + 2 * m), math.factorial(n) * math.factorial(m))
        )
        if isinstance(alpha, complex):
            # no rational representation; exact factor times the coefficient
            return float(factor) * alpha
        return factor * Fraction(alpha)


def gpoly_series_solution(G, alpha, c, T, L, N, n_probe=None):
    """Gated truncation of u = sum alpha_n v_n^G on [0,T] x [0,L].

    The admissibility gate is g(T) < sigma/c^2 with g normalized to g(0) = 0;
    sigma comes from the conservative (largest recent) radius ratio, and an
    oscillating ratio trend refuses rather than guessing.  Returns the
    solution together with a GateReport carrying the certified tail bound
    sum_{n>N} |alpha_n| v_n^G(T, L).  n_probe None probes
    default_n_probe(N) coefficients.
    """
    _require(G, "sum", "gpoly_series_solution")
    _check_rectangle(G.g, G.h, c, T, L)
    ctx = GPolyContext(G, c)
    if N < 0:
        raise DomainError(f"truncation must be >= 0, got {N}")
    report = radius_sigma(alpha, default_n_probe(N) if n_probe is None else n_probe)
    g_T = G.g.measure(0.0, T)
    verdict = _gate_verdict(report, g_T, c)
    if verdict == "refused":
        raise GateError(
            "radius ratio sequence oscillates through depth "
            f"{report.n_probe}; no sigma claim is possible, so the gate "
            f"g(T) < sigma/c^2 cannot be certified"
        )
    if verdict == "fail":
        raise GateError(
            f"series gate violated: g(T) = {g_T} is not below sigma/c^2 = "
            f"{report.sigma_gate}/{c}^2 = {report.sigma_gate / c**2}"
        )
    # the solution refuses non-finite monomial rows before the tail reads past N
    sol = GPolySolution(ctx, alpha, N, report, math.nan)
    sol.tail_bound = tail = _tail_bound(ctx, alpha, N, T, L)
    gate = GateReport(g_T, report.sigma, report.sigma_gate, c, report.trend, True, tail, N)
    return sol, gate


def _tail_bound(ctx, alpha, N, T, L, cap=400, rtol=1e-16):
    """sum_{n>N} |alpha_n| v_n^G(T, L), summed until it provably stalls.

    The summands are the monotone envelope from the convergence proof; once
    the gate holds they decay geometrically, so the partial sum is cut when
    terms stop moving it (relative rtol) or at N + cap with a warning.
    """
    tg, th = monomial_table(ctx.G.g, 0.0), monomial_table(ctx.G.h, 0.0)
    g_at_T, h_at_L = tg.values(N // 2, T), th.values(N, L)
    total = 0.0
    stall = 0
    for n in range(N + 1, N + cap + 1):
        # one new table value per order: g_{n/2}(T) at even n, h_n(L)
        if n % 2 == 0:
            g_at_T.append(tg.eval(n // 2, T))
        h_at_L.append(th.eval(n, L))
        term = abs(_stream(alpha, n)) * sum(_heat_terms(n, ctx.c, g_at_T, h_at_L))
        total += term
        if term <= rtol * (1.0 + total):
            stall += 1
            if stall >= 3:
                return total
        else:
            stall = 0
    warnings.warn(
        f"tail bound did not stall within {cap} extra terms; reporting the "
        "partial sum (an underestimate)",
        UserWarning,
        stacklevel=2,
    )
    return total


# -- product case ------------------------------------------------------------------


def _inverse_square_walk(g, t):
    """exp_data of the measure dg/g^2 on [0, t): the atoms (s, gap/g(s)^2),
    and 1/g(0) - 1/g(t), its integral on affine pieces, less the drops
    1/g(s) - 1/(g(s) + gap) across the atoms."""
    m, g0 = g.measure(0.0, t), g.eval(0.0)  # measure refuses t outside [0, hi]
    atoms = [(s, gap, g.eval(s)) for s, gap in g.atoms_in(0.0, t)]
    cont = m / (g0 * (g0 + m)) - sum(gap / (gs * (gs + gap)) for _, gap, gs in atoms)
    return [(s, gap / gs**2) for s, gap, gs in atoms], max(cont, 0.0)


class ProductCaseSolution(HeatResidual):
    """u(t, x) = w(t) v(x) with w'_g = (lam c^2/g^2) w and v''_h = (lam/h) v.

    w is exp_walk at rate lam c^2 over the measure dg/g^2 and v a SpaceFactor;
    the time row is w(t) and the space column v(x).  The G-slices rescale g
    by h(x) and h by g(t), the slice scales: d_G u in t is d_g u / h(x), and
    dhx_rule is the G-derivative in x, w(t) v'_h(x) / g(t), so that the
    partials carry 1/h(x) and 1/g(t)^2.
    """

    def __init__(self, G, lam, c, v, regressivity, independence):
        self.G = G
        self.g, self.h = G.g, G.h
        self.lam = lam
        self.c = c
        self.v = v
        self.regressivity = regressivity
        self.independence = independence

    def w(self, t, right=False):
        """The time factor at t, or its right limit at an atom t."""
        gap = self.g.jump(t) / self.g.eval(t) ** 2 if right else 0.0
        return exp_walk(self.lam * self.c**2, _inverse_square_walk(self.g, t), gap)

    _row = w

    def _col(self, x):
        return self.v(x)

    @staticmethod
    def _dot(row, col):
        return row * col

    def _slice_scales(self, t, x):
        return self.h.eval(x), self.g.eval(t)

    def _dhx(self, t, x, right=False):
        return self._cached_row(t) * self.v.derivative(x, right) / self.g.eval(t)

    def _scaled(self, t, x):
        # u / (g(t)^2 h(x)): lam c^2 times it is d_G u in t, lam times it d_G^2 u in x
        return self(t, x) / (self.g.eval(t) ** 2 * self.h.eval(x))

    def dgt_rule(self, t, x):
        return self.lam * self.c**2 * self._scaled(t, x)

    def dhx2_rule(self, t, x):
        return self.lam * self._scaled(t, x)


def solve_product_case(G, lam, c, x0, v0, T, L):
    """Separated solution of the product-case heat equation, in closed form.

    w = exp_g(lam c^2 / g^2; 0, .) and v solves v''_h = (lam/h) v with
    v(0) = x0, v'_h(0) = v0.  Degenerate regressivity of the w-rate at an
    atom of g (1 + p gap = 0) is reported as a warning: the solution
    vanishes from that atom onward.  The atom-wise independence factors
    1 - (lam/h(x)) gap(x)^2 are evaluated and attached; a zero factor means
    IC pairs may fail to span the solution space.
    """
    _require(G, "product", "solve_product_case")
    _check_rectangle(G.g, G.h, c, T, L)
    g, h = G.g, G.h

    def p(t):
        return lam * c**2 / g.eval(t) ** 2

    reg = classify_regressivity(g, p, 0.0, T)
    if reg.kind == "degenerate":
        warnings.warn(
            f"1 + p gap vanishes at the atom t = {reg.witness}; the time "
            "factor (and the solution) is 0 from there on",
            UserWarning,
            stacklevel=2,
        )
    v = SpaceFactor(h, lam, x0, v0)

    independence = []
    for ax, gap in h.atoms_in(0.0, L):
        factor = 1.0 - (lam / h.eval(ax)) * gap**2
        independence.append((ax, factor))
        if factor == 0.0:
            warnings.warn(
                f"independence factor vanishes at the atom x = {ax}; "
                "solutions with independent initial data may coincide there",
                UserWarning,
                stacklevel=2,
            )
    return ProductCaseSolution(G, lam, c, v, reg, independence)

"""Heat equation driven by a single two-variable derivator G(t, x).

Two shapes are supported.  The sum case G = g(t) + h(x) yields G-polynomials
G_{m,n} = g_m(t) h_n(x), heat G-polynomials, and gated polynomial series
solutions.  The product case G = g(t) h(x) (both strictly positive) yields
separated solutions through modified one-factor eigenproblems.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DivergenceError, DomainError, GateError
from .gderiv import HeatResidual, _atom_gap, gderiv, gderiv2
from .lsintegral import integrate
from .ode import build_grid, solve_second_order
from .special import classify_regressivity, gexp, monomial_table

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
    "ExpFactor",
    "product_partials",
    "independence_determinant",
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


def _cum_pass(f_left, f_right, gaps, cont):
    """One cumulative Stieltjes integration: F(nodes[k]) = integral over
    [nodes[0], nodes[k]) of the previous level.

    Trapezoid on the continuous part of each panel (using the right limit at
    the left node), exact atom terms with left values.  Returns left values
    and right limits of F at the nodes.
    """
    mids = 0.5 * (f_right[:-1] + f_left[1:])
    inc = mids * cont + f_left[:-1] * gaps[:-1]
    left = np.concatenate(([0.0], np.cumsum(inc)))
    right = left + f_left * gaps
    return left, right


def _chain_tables(d, top, depth, mesh):
    """Monomial values d_1(top), ..., d_depth(top) by iterated midpoint
    integration at the given measure mesh."""
    nodes = np.asarray(build_grid(d, 0.0, top, mesh=mesh).nodes)
    gvals = d.eval_array(nodes)
    gaps = np.array([d.jump(float(t)) for t in nodes])
    cont = np.diff(gvals) - gaps[:-1]
    f_left = np.ones_like(nodes)
    f_right = np.ones_like(nodes)
    out = []
    for m in range(1, depth + 1):
        left, right = _cum_pass(f_left, f_right, gaps, cont)
        f_left, f_right = m * left, m * right
        out.append(f_left[-1])
    return out


def _monomials_numeric(d, top, depth, mesh):
    """Recursion-path monomials with one Richardson step (mesh, mesh/2)."""
    if top == 0.0:
        return [0.0] * depth
    coarse = _chain_tables(d, top, depth, mesh)
    fine = _chain_tables(d, top, depth, 0.5 * mesh)
    return [(4.0 * f - c) / 3.0 for c, f in zip(coarse, fine)]


def G_mn(m, n, t, x, G, method="product", mesh=1e-3):
    """Two-variable monomial G_{m,n}(t, x) for the sum derivator.

    The recursion G_{m,0} = m I G_{m-1,0}, G_{m,n} = n K G_{m,n-1} and the
    closed form g_m(t) h_n(x) are both implemented; "product" is the exact
    fast path, "recursion" integrates the defining operators numerically
    (Richardson-extrapolated trapezoid sums at the given measure mesh) and
    serves as the independent oracle.
    """
    if m < 0 or n < 0:
        raise DomainError(f"monomial degrees must be >= 0, got ({m}, {n})")
    _require(G, "sum", "G_mn")
    if method == "product":
        return monomial_table(G.g, 0.0).eval(m, t) * monomial_table(G.h, 0.0).eval(n, x)
    if method != "recursion":
        raise DomainError(f"unknown method {method!r}")
    gm = 1.0 if m == 0 else _monomials_numeric(G.g, float(t), m, mesh)[-1]
    if n == 0:
        return gm
    # the K-chain is linear in its start, the x-constant function G_{m,0}(t, .) = gm
    return gm * _monomials_numeric(G.h, float(x), n, mesh)[-1]


@dataclass(frozen=True)
class GPolyContext:
    """Sum derivator plus diffusion constant, as used by heat G-polynomials."""

    G: SumDerivator
    c: float

    def __post_init__(self):
        _require(self.G, "sum", "GPolyContext")
        if not self.c > 0:
            raise DomainError(f"diffusion constant must be positive, got {self.c}")


def _ladder_terms(n, c, alpha, w):
    """The terms c^(2k) n!/((n-2k)! k!) alpha w_k, k = 0..n//2, of alpha
    v_n^G, where w_k = g_k(t) h_{n-2k}(x); w = 1 gives the row of weights.

    The integer factor is exact while it fits 900 bits; past that the term
    is assembled in log space, so a huge factor times a tiny c^(2k) alpha
    w_k stays finite.  A vanishing alpha or w_k gives a zero term.
    """
    out = np.zeros(n // 2 + 1, dtype=complex if isinstance(alpha, complex) else float)
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


def heat_gpoly(n, t, x, ctx):
    """Heat G-polynomial v_n^G(t,x) = sum_k n! c^(2k)/((n-2k)! k!) g_k(t) h_{n-2k}(x)."""
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    G = ctx.G
    w = (monomial_table(G.g, 0.0).values(n // 2, t)
         * monomial_table(G.h, 0.0).values(n, x)[n::-2])
    return float(_ladder_terms(n, ctx.c, 1.0, w).sum())


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


@dataclass(frozen=True)
class RadiusReport:
    """Estimate of sigma with 1/sigma = lim 2n |alpha_n|^(2/n) / e.

    `sigma` is 1 over the mean of the last-quarter ratio values (inf when
    they vanish, nan when the trend oscillates); `sigma_gate` uses the
    largest recent ratio and is the conservative value gates should use.
    `trend` is one of converged/increasing/decreasing/oscillating.
    """

    sigma: float
    sigma_gate: float
    trend: str
    n_probe: int
    r_tail: tuple


def _stream(s, n):
    # finite sequences mean finite support: zero beyond the end
    if callable(s):
        return s(n)
    return s[n] if n < len(s) else 0.0


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


@dataclass(frozen=True)
class GateReport:
    """Outcome of the g(T) < sigma/c^2 admissibility gate for a G-poly series."""

    g_T: float
    sigma: float
    sigma_gate: float
    c: float
    trend: str
    ok: bool
    tail_bound: float
    truncation: int


class GPolySolution(HeatResidual):
    """Truncated series sum_{n<=N} alpha_n v_n^G with closed-form G-derivatives.

    The series is the bilinear form g(t)^T A h(x): g(t) = (g_0(t), ...,
    g_{N/2}(t)) and h(x) = (h_0(x), ..., h_N(x)) are monomial vectors and
    A[m, n] = a_{m,n} = c^(2m) (n+2m)!/(n! m!) alpha_{n+2m} is the
    coefficient grid, built once as floats.  The ladders are shifted copies
    of A: d_Gx h_n = n h_{n-1} shifts columns, d_Gt g_m = m g_{m-1} shifts
    rows, and by the coefficient law the row shift is c^2 times the d_Gx^2
    grid, so the rule residual vanishes.  Sum-case G-derivatives reduce to
    the one-variable ones of g and h, which is what the numeric residual
    differentiates along.  a_mn gives the exact rational a_{m,n}.
    """

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
        self.A = np.zeros((N // 2 + 1, N + 1), dtype=float if real else complex)
        for n, z in enumerate(a):
            k = np.arange(n // 2 + 1)
            z = z.real if real else z
            self.A[k, n - 2 * k] = _ladder_terms(n, self.c, z, np.ones(k.size))
        deg = np.arange(N + 1)
        self._Ax = self.A[:, 1:] * deg[1:]
        self._Axx = self.A[:, 2:] * (deg[2:] * deg[1:-1])
        self._tg = monomial_table(self.g, 0.0)
        self._th = monomial_table(self.h, 0.0)

    def _gv(self, t, right=False):
        return self._tg.values(self.N // 2, t, right=right)

    def _hv(self, x, right=False):
        return self._th.values(self.N, x, right=right)

    @staticmethod
    def _form(gv, grid, hv):
        return (gv @ grid @ hv[: grid.shape[1]]).item()

    def __call__(self, t, x):
        return self._form(self._gv(t), self.A, self._hv(x))

    def dgt_rule(self, t, x):
        # the row shift (m + 1) a_{m+1,n} equals c^2 (n+2)(n+1) a_{m,n+2}
        return self.c**2 * self.dhx2_rule(t, x)

    def dhx_rule(self, t, x):
        return self._form(self._gv(t), self._Ax, self._hv(x))

    def dhx2_rule(self, t, x):
        return self._form(self._gv(t), self._Axx, self._hv(x))

    def jump_residual_t(self, t, x):
        """Exact atom-row residual in time: the jump quotient of u, taken on
        the monomial vector g(t), minus c^2 d_h^2 u."""
        gap = _atom_gap(self.g, t, "t")
        dg = self._gv(t, right=True) - self._gv(t)
        quot = self._form(dg, self.A, self._hv(x)) / gap
        return quot - self.c**2 * self.dhx2_rule(t, x)

    def jump_residual_x(self, t, x):
        """Exact atom-row residual in space: d_g u minus c^2 times the jump
        quotient of d_h u, whose right limit comes from the monomial vector
        h(x+)."""
        gap = _atom_gap(self.h, x, "x")
        dplus = self._form(self._gv(t), self._Ax, self._hv(x, right=True))
        quot = (dplus - self.dhx_rule(t, x)) / gap
        return self.dgt_rule(t, x) - self.c**2 * quot

    def a_mn(self, m, n):
        """Exact rational coefficient a_{m,n} of G_{m,n} in the double series."""
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
    sum_{n>N} |alpha_n| v_n^G(T, L).
    """
    _require(G, "sum", "gpoly_series_solution")
    ctx = GPolyContext(G, c)
    if N < 0:
        raise DomainError(f"truncation must be >= 0, got {N}")
    report = radius_sigma(alpha, n_probe=n_probe or max(2 * N, 120))
    g_T = G.g.measure(0.0, T)
    if report.trend == "oscillating":
        raise GateError(
            "radius ratio sequence oscillates through depth "
            f"{report.n_probe}; no sigma claim is possible, so the gate "
            f"g(T) < sigma/c^2 cannot be certified"
        )
    bound = report.sigma_gate / c**2
    if not g_T < bound:
        raise GateError(
            f"series gate violated: g(T) = {g_T} is not below sigma/c^2 = "
            f"{report.sigma_gate}/{c}^2 = {bound}"
        )
    tail = _tail_bound(ctx, alpha, N, T, L)
    sol = GPolySolution(ctx, alpha, N, report, tail)
    gate = GateReport(g_T, report.sigma, report.sigma_gate, c, report.trend, True, tail, N)
    return sol, gate


def _tail_bound(ctx, alpha, N, T, L, cap=400, rtol=1e-16):
    """sum_{n>N} |alpha_n| v_n^G(T, L), summed until it provably stalls.

    The summands are the monotone envelope from the convergence proof; once
    the gate holds they decay geometrically, so the partial sum is cut when
    terms stop moving it (relative rtol) or at N + cap with a warning.
    """
    total = 0.0
    stall = 0
    for n in range(N + 1, N + cap + 1):
        term = abs(_stream(alpha, n)) * heat_gpoly(n, T, L, ctx)
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


class ExpFactor:
    """w = exp_g(p; 0, .) for a function-valued rate p, with w'_g = p w."""

    def __init__(self, d, rate, tol=1e-10):
        self.d = d
        self.rate = rate
        self.tol = tol
        self._cache = {}

    def __call__(self, t):
        t = float(t)
        if t not in self._cache:
            self._cache[t] = gexp(self.d, self.rate, 0.0, t, tol=self.tol)
        return self._cache[t]

    def derivative(self, t):
        return self.rate(float(t)) * self(t)


def product_partials(w, v, t, x, G, mode="rule"):
    """(du/d_G t, d2u/d_G x2) for u = w(t) v(x) over a product derivator.

    rule mode evaluates the closed forms (v(x)/h(x)) w'_g(t) and
    (w(t)/g(t)^2) v''_h(x); numeric mode forms the raw G-slice limit
    quotients with the one-variable machinery (the slice t -> G(t,x) rescales
    g by h(x), so its quotients are the g-quotients divided by h(x), and
    likewise in x).
    """
    _require(G, "product", "product_partials")
    g, h = G.g, G.h
    gt, hx = g.eval(t), h.eval(x)
    if mode == "rule":
        dt = (v(x) / hx) * w.derivative(t)
        dxx = (w(t) / gt**2) * v.second_derivative(x)
        return dt, dxx
    if mode != "numeric":
        raise DomainError(f"mode must be 'rule' or 'numeric', got {mode!r}")
    dt = gderiv(lambda s: w(s) * v(x), t, g) / hx
    dxx = gderiv2(lambda y: w(t) * v(y), x, h) / gt**2
    return dt, dxx


def independence_determinant(v1, v2, x=0.0):
    """v1(x) v2'_h(x) - v2(x) v1'_h(x); nonzero certifies independence."""
    return v1(x) * v2.derivative(x) - v2(x) * v1.derivative(x)


class ProductCaseSolution(HeatResidual):
    """u(t, x) = w(t) v(x) with w'_g = (lam c^2/g^2) w and v''_h = (lam/h) v."""

    def __init__(self, G, lam, c, w, v, regressivity, independence):
        self.G = G
        self.g, self.h = G.g, G.h
        self.lam = lam
        self.c = c
        self.w = w
        self.v = v
        self.regressivity = regressivity
        self.independence = independence

    def __call__(self, t, x):
        return self.w(t) * self.v(x)

    def partials(self, t, x, mode="rule"):
        return product_partials(self.w, self.v, t, x, self.G, mode=mode)

    def dgt_rule(self, t, x):
        return self.partials(t, x)[0]

    def dhx2_rule(self, t, x):
        return self.partials(t, x)[1]

    def residual_numeric(self, t, x):
        # quotients along the G-slices, which rescale g by h(x) and h by g(t)
        dt, dxx = self.partials(t, x, mode="numeric")
        return dt - self.c**2 * dxx


def solve_product_case(G, lam, c, x0, v0, T, L, tol=1e-8):
    """Separated solution of the product-case heat equation.

    w = exp_g(lam c^2 / g^2; 0, .) and v solves v''_h = (lam/h) v with
    v(0) = x0, v'_h(0) = v0.  Degenerate regressivity of the w-rate at an
    atom of g (1 + p gap = 0) is reported as a warning: the solution
    vanishes from that atom onward.  The atom-wise independence factors
    1 - (lam/h(x)) gap(x)^2 are evaluated and attached; a zero factor means
    IC pairs may fail to span the solution space.
    """
    _require(G, "product", "solve_product_case")
    if not c > 0:
        raise DomainError(f"diffusion constant must be positive, got {c}")
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
    w = ExpFactor(g, p)

    def Q(x):
        return -lam / h.eval(x)

    # integrate v over the whole derivator domain, not just [0, L]: numeric
    # difference quotients at x near L probe past it when the domain allows
    v = solve_second_order(h, None, Q, None, x0, v0, (0.0, h.hi), tol=tol)

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
    return ProductCaseSolution(G, lam, c, w, v, reg, independence)

"""Numeric oracles the tests hold the package's closed forms against.

Forward Euler integration against a derivator measure: the scheme
x_{k+1} = x_k + F(t_k, x_k) (g(t_{k+1}) - g(t_k)) discretizes the integral
form of the equation; a step leaving an atom carries the full gap, so jump
relations are reproduced exactly.  Accuracy on the continuous part comes from
Richardson extrapolation over nested mesh halvings (`neville`, a Neville
table over arrays of node values).  Dense output is cubic Hermite in the
measure coordinate gamma = g(x): node values and first derivatives are
integrated data, so evaluations between nodes stay honest.

`G_mn_recursion` integrates the defining recursion of the two-variable
monomials, G_{m,0} = m I G_{m-1,0} and G_{m,n} = n K G_{m,n-1}, by
trapezoid sums, independently of the exact piecewise polynomials of
`special.MonomialTable`.

These oracles use numpy; the package itself does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from stieltjes_heat.errors import DivergenceError, DomainError, NoSolutionError, NonConvergenceError


def neville(pairs, tol, min_levels):
    """Neville extrapolation to step 0 over (step, array) pairs.

    Stops once at least min_levels levels are in and the diagonal moves by at
    most tol * (1 + |diagonal|), both in the sup norm.
    """
    steps, prev = [], []
    last_two, err = (None, None), math.inf
    for step, y in pairs:
        steps.append(step)
        row = [np.asarray(y)]
        for j in range(1, len(steps)):
            ratio = steps[-1 - j] / steps[-1]
            row.append(row[j - 1] + (row[j - 1] - prev[j - 1]) / (ratio - 1.0))
        if prev:
            last_two = (prev[-1], row[-1])
            err = float(np.abs(row[-1] - prev[-1]).max())
            if len(steps) >= min_levels and err <= tol * (1.0 + float(np.abs(row[-1]).max())):
                return row[-1]
        prev = row
    raise NonConvergenceError(
        f"extrapolation to step 0 stalled at change {err:.3e} (tol {tol:.1e})",
        estimates=last_two,
    )


# ---------------------------------------------------------------------------
# Stieltjes-Euler grids and runs


def _structural_points(d, a, b):
    pts = {a, b}
    for s in d.segments:
        for t in (s.lo, s.hi):
            if a < t < b:
                pts.add(t)
    for t, _gap in d.atoms_in(a, b):
        if a < t < b:
            pts.add(t)
    return sorted(pts)


@dataclass
class StieltjesGrid:
    """Nodes for Euler stepping: structural points (breakpoints, atoms) plus
    subdivisions keeping each panel's continuous g-increment below mesh."""

    d: object
    a: float
    b: float
    mesh: float
    nodes: np.ndarray


def build_grid(d, a, b, mesh=1e-3, factor=1):
    if not b > a:
        raise DomainError(f"grid needs a < b, got [{a}, {b}]")
    pts = _structural_points(d, a, b)
    chunks = []
    for u, v in zip(pts, pts[1:]):
        cont = d.eval(v) - d.eval(u) - d.jump(u)
        n = max(1, math.ceil(cont / mesh)) * factor
        chunks.append(np.linspace(u, v, n + 1)[:-1])
    chunks.append(np.array([b]))
    return StieltjesGrid(d, a, b, mesh, np.concatenate(chunks))


class Trajectory:
    """Euler output on a grid: the nodes and the state at each."""

    def __init__(self, ts, states):
        self.ts = np.asarray(ts)
        self.states = np.asarray(states)

    @property
    def final(self):
        return self.states[-1]


def euler_stieltjes(F, x0, grid):
    """Explicit Stieltjes-Euler run of x'_g = F(t, x) over the grid."""
    d = grid.d
    ts = grid.nodes
    gs = [d.eval(t) for t in ts]
    x = np.atleast_1d(np.asarray(x0))
    probe = np.asarray(F(ts[0], x))
    dtype = np.result_type(x.dtype, probe.dtype, np.float64)
    out = np.empty((len(ts), x.size), dtype=dtype)
    out[0] = x
    x = out[0].copy()
    for k in range(len(ts) - 1):
        dg = gs[k + 1] - gs[k]
        x = x + np.asarray(F(ts[k], x)) * dg
        out[k + 1] = x
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        first = int(np.argmax(bad))
        raise DivergenceError(
            f"state became non-finite at t={ts[first]}",
            last_node=ts[max(first - 1, 0)],
        )
    return Trajectory(ts, out)


# ---------------------------------------------------------------------------
# extrapolated linear solves (small fixed dimension, scalar inner loop)


def _euler_tuple(ts, gs, F, y0):
    dim = len(y0)
    cplx = any(isinstance(v, complex) for v in y0) or any(
        isinstance(v, complex) for v in F(ts[0], y0)
    )
    out = np.empty((len(ts), dim), dtype=complex if cplx else float)
    y = list(y0)
    out[0] = y
    for k in range(len(ts) - 1):
        dg = gs[k + 1] - gs[k]
        r = F(ts[k], y)
        for i in range(dim):
            y[i] = y[i] + r[i] * dg
        out[k + 1] = y
    if not np.isfinite(out).all():
        bad = int(np.argmax(~np.isfinite(out).all(axis=1)))
        raise DivergenceError(
            f"state became non-finite at t={ts[bad]}", last_node=ts[max(bad - 1, 0)]
        )
    return out


def _extrapolated_solve(d, a, b, F, y0, mesh, tol, max_halvings):
    """Nested Euler runs with pointwise Neville extrapolation on the level-0
    nodes.  Returns (nodes, values (n x dim))."""

    def levels():
        for k in range(max_halvings + 1):
            step = 2**k
            nodes = build_grid(d, a, b, mesh, factor=step).nodes
            # the level-0 nodes are every step-th node of level k
            yield 1.0 / step, _euler_tuple(nodes, [d.eval(t) for t in nodes], F, y0)[::step]

    return build_grid(d, a, b, mesh).nodes, neville(levels(), tol, min_levels=3)


def _as_coef(c):
    if c is None:
        return lambda _t: 0.0
    if callable(c):
        return c
    return lambda _t, _c=c: _c


class HermiteCurve:
    """Cubic Hermite interpolant in the measure coordinate.

    Node data: left values/slopes per node plus right values/slopes past each
    atom, so jumps are represented exactly and panels stay smooth.
    """

    def __init__(self, d, ts, values, slopes, values_plus, slopes_plus):
        self.d = d
        self.ts = np.asarray(ts)
        self.gs = [d.eval(t) for t in self.ts]
        self.gaps = np.array([d.jump(t) for t in self.ts])
        self.values = values
        self.slopes = slopes
        self.values_plus = values_plus
        self.slopes_plus = slopes_plus

    def __call__(self, x):
        x = float(x)
        if x < self.ts[0] - 1e-12 or x > self.ts[-1] + 1e-12:
            raise DomainError(f"x={x} outside solution range")
        k = np.searchsorted(self.ts, x, side="right") - 1
        k = min(max(k, 0), len(self.ts) - 2)
        if x <= self.ts[k]:
            return self.values[k]
        g0 = self.gs[k] + self.gaps[k]
        g1 = self.gs[k + 1]
        L = g1 - g0
        if L <= 0.0:
            return self.values_plus[k]
        s = (self.d.eval(x) - g0) / L
        s = min(max(s, 0.0), 1.0)
        y0, m0 = self.values_plus[k], self.slopes_plus[k]
        y1, m1 = self.values[k + 1], self.slopes[k + 1]
        s2, s3 = s * s, s * s * s
        return (
            (2 * s3 - 3 * s2 + 1) * y0
            + (s3 - 2 * s2 + s) * L * m0
            + (-2 * s3 + 3 * s2) * y1
            + (s3 - s2) * L * m1
        )


def _hermite(d, ts, values, slope_fn):
    """Hermite curve through node values whose g-slopes are slope_fn(t, value);
    slopes past an atom read the coefficients at the next float, which act
    there."""
    gaps = np.array([d.jump(t) for t in ts])
    slopes = np.array([slope_fn(t, v) for t, v in zip(ts, values)])
    values_plus = values + slopes * gaps
    past = np.where(gaps > 0.0, np.nextafter(ts, np.inf), ts)
    slopes_plus = np.array([slope_fn(t, v) for t, v in zip(past, values_plus)])
    return HermiteCurve(d, ts, values, slopes, values_plus, slopes_plus)


class Ode2Solution:
    """Result of solve_second_order: v and v'_g as callables, with the
    equation's right-hand side available for the second derivative."""

    def __init__(self, d, ts, V, W, rhs):
        self._rhs = rhs
        gaps = np.array([d.jump(t) for t in ts])
        rhs_vals = np.array([rhs(t, v, w) for t, v, w in zip(ts, V, W)])
        V_plus = V + W * gaps
        W_plus = W + rhs_vals * gaps
        # slopes past an atom read the coefficients at the next float, which act there
        past = np.where(gaps > 0.0, np.nextafter(ts, np.inf), ts)
        rhs_plus = np.array([rhs(t, v, w) for t, v, w in zip(past, V_plus, W_plus)])
        self._v = HermiteCurve(d, ts, V, W, V_plus, W_plus)
        self._w = HermiteCurve(d, ts, W, rhs_vals, W_plus, rhs_plus)

    def __call__(self, x):
        return self._v(x)

    def derivative(self, x):
        return self._w(x)

    def second_derivative(self, x):
        return self._rhs(float(x), self._v(x), self._w(x))


def solve_second_order(
    d, P, Q, f, x0, v0, interval, tol=1e-6, mesh=1e-3, max_halvings=6
):
    """Solve v''_g + P v'_g + Q v = f with v(a) = x0, v'_g(a) = v0.

    Integrated as the first-order system (v, w)' = (w, f - P w - Q v) with
    Stieltjes-Euler under mesh halving until successive extrapolants agree to
    tol in sup norm.
    """
    a, b = interval
    Pc, Qc, fc = _as_coef(P), _as_coef(Q), _as_coef(f)

    def rhs(t, v, w):
        return fc(t) - Pc(t) * w - Qc(t) * v

    def F(t, y):
        return (y[1], rhs(t, y[0], y[1]))

    nodes, Y = _extrapolated_solve(d, a, b, F, (x0, v0), mesh, tol, max_halvings)
    return Ode2Solution(d, nodes, Y[:, 0], Y[:, 1], rhs)


class PeriodicFirstOrderSolution:
    """u with u(0) = u(L); value is u0 * homogeneous + particular."""

    def __init__(self, d, p_coef, forcing, u0, homo, part, unique):
        self.d = d
        self._p = p_coef
        self._forcing = forcing
        self.u0 = u0
        self._homo = homo
        self._part = part
        self.unique = unique

    def __call__(self, x):
        return self.u0 * self._homo(x) + self._part(x)

    def derivative(self, x):
        # the equation itself: u' = forcing - p u
        return self._forcing(x) - self._p(x) * self(x)


def solve_periodic_first_order(
    d, p_coef, forcing, L, tol=1e-8, mesh=1e-3, max_halvings=8
):
    """Solve u'_g + p u = forcing on [0, L] with u(0) = u(L).

    Linear shooting: the terminal value is affine in u(0), so one homogeneous
    and one particular integration determine the periodic initial value.
    Flags non-uniqueness (returns the particular representative with u0 = 0)
    and raises NoSolutionError when the data are inconsistent.
    """
    pc, fc = _as_coef(p_coef), _as_coef(forcing)

    def F_h(t, y):
        return (-pc(t) * y[0],)

    def F_p(t, y):
        return (fc(t) - pc(t) * y[0],)

    nodes, Yh = _extrapolated_solve(d, 0.0, L, F_h, (1.0,), mesh, tol, max_halvings)
    _, Yp = _extrapolated_solve(d, 0.0, L, F_p, (0.0,), mesh, tol, max_halvings)

    homo = _hermite(d, nodes, Yh[:, 0], lambda t, v: -pc(t) * v)
    part = _hermite(d, nodes, Yp[:, 0], lambda t, v: fc(t) - pc(t) * v)

    M = Yh[-1, 0]
    bterm = Yp[-1, 0]
    kappa = 1.0 - M
    scale = 1.0 + abs(M)
    if abs(kappa) > 1e-10 * scale:
        u0 = bterm / kappa
        unique = True
    elif abs(bterm) <= 1e-10 * (1.0 + abs(bterm)):
        u0 = 0.0
        unique = False
    else:
        raise NoSolutionError(
            "periodic problem is inconsistent: homogeneous multiplier 1 with "
            f"nonzero forcing defect {bterm!r}"
        )
    return PeriodicFirstOrderSolution(d, pc, fc, u0, homo, part, unique)


# ---------------------------------------------------------------------------
# two-variable monomials by their defining recursion


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
    gvals = np.array([d.eval(t) for t in nodes])
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


def G_mn_recursion(m, n, t, x, G, mesh=1e-3):
    """G_{m,n}(t, x) for the sum derivator G = g + h by the recursion
    G_{m,0} = m I G_{m-1,0}, G_{m,n} = n K G_{m,n-1}, integrated numerically
    (Richardson-extrapolated trapezoid sums at the given measure mesh)."""
    if m < 0 or n < 0:
        raise DomainError(f"monomial degrees must be >= 0, got ({m}, {n})")
    gm = 1.0 if m == 0 else _monomials_numeric(G.g, float(t), m, mesh)[-1]
    if n == 0:
        return gm
    # the K-chain is linear in its start, the x-constant function G_{m,0}(t, .) = gm
    return gm * _monomials_numeric(G.h, float(x), n, mesh)[-1]

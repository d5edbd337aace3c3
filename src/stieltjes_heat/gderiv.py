"""Numeric Stieltjes derivatives.

Difference quotients are taken in measure units: sample points are chosen so
that g(s) - g(t) hits a prescribed step, which makes flat stretches invisible
and keeps the quotient well conditioned.  Steps are clipped so samples never
cross an atom; at atoms the derivative is the exact jump quotient.  A Neville
table extrapolates the quotients to step zero with a convergence check.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NonConvergenceError

_TINY = 1e-15


@dataclass(frozen=True)
class DiffConfig:
    step0: float = 0.05  # initial step, in g-units
    shrink: float = 0.5
    max_levels: int = 10
    min_levels: int = 3
    tol: float = 1e-8


DEFAULT = DiffConfig()
# second derivatives: wider steps (noise from the inner derivative divides by
# the outer step) and a looser target
DEFAULT_OUTER = DiffConfig(step0=0.25, tol=5e-7)
DEFAULT_INNER = DiffConfig(step0=0.05, tol=1e-10)


def _sup(v):
    return float(np.max(np.abs(v))) if isinstance(v, np.ndarray) else abs(v)


def _extrapolate(pairs, tol, min_levels):
    """Neville extrapolation to step 0 over (step, value) pairs.

    Values are scalars or arrays of one shape.  The table stops once at least
    min_levels levels are in and the diagonal moves by at most
    tol * (1 + |diagonal|), both in the sup norm.
    """
    xs = []
    prev_row = []
    last_two = (None, None)
    err = math.inf
    for x, y in pairs:
        xs.append(x)
        row = [y]
        for j in range(1, len(xs)):
            ratio = xs[-1 - j] / xs[-1]
            row.append(row[j - 1] + (row[j - 1] - prev_row[j - 1]) / (ratio - 1.0))
        diag = row[-1]
        if prev_row:
            last_two = (prev_row[-1], diag)
            err = _sup(diag - prev_row[-1])
            if len(xs) >= min_levels and err <= tol * (1.0 + _sup(diag)):
                return diag
        prev_row = row
    raise NonConvergenceError(
        f"extrapolation to step 0 stalled at change {err:.3e} (tol {tol:.1e})",
        estimates=last_two,
    )


def _next_breakpoint(d, t):
    i = bisect.bisect_right(d._bk_list, t)
    return d._bk_list[i] if i < len(d._bk_list) else d.hi


def _limit_cfg(cfg):
    """Tighter settings for one-point limits: jump quotients divide by an
    exact gap, so the limit itself should carry near machine accuracy."""
    return replace(cfg, tol=min(cfg.tol * 1e-3, 1e-11), max_levels=max(cfg.max_levels, 12))


def right_limit_of(f, t, d, cfg=None):
    """f(t+) by extrapolating samples inside the segment right of t."""
    cfg = cfg or DEFAULT
    t = float(t)
    nb = _next_breakpoint(d, t)
    if not nb > t:
        raise DomainError(f"no room right of t={t} inside the domain")
    eps0 = 0.45 * (nb - t)

    def pairs():
        eps = eps0
        for _ in range(cfg.max_levels):
            yield eps, f(t + eps)
            eps *= cfg.shrink

    return _extrapolate(pairs(), cfg.tol, cfg.min_levels)


def _rooms(d, base, gb):
    """(forward, backward, backward cap) measure room around base, taken once
    per quotient: up to the next atom or the top, down to the bottom or to the
    open floor g(a+) of an atom a below, which the cap keeps clear of."""
    na, pa = d.next_atom(base), d.prev_atom(base)
    fwd = d.eval(d.hi if na is None else na) - gb
    bwd = gb - (d.eval(d.lo) if pa is None else d.eval(pa) + d.jump(pa))
    return fwd, bwd, bwd if pa is None else 0.95 * bwd


def _forward_sample(d, base, gb, eta, rooms):
    room = rooms[0]
    if room <= _TINY * (1.0 + abs(gb)):
        return None
    s = d.advance_to_value(gb + min(eta, room))
    if s is None or s <= base:
        return None
    actual = d.eval(s) - gb
    return (s, actual) if actual > 0.0 else None


def _backward_sample(d, base, gb, eta, rooms):
    _, room, cap = rooms
    e = min(eta, cap)
    if room <= _TINY * (1.0 + abs(gb)) or e <= 0.0:
        return None
    s = d.advance_to_value(gb - e)
    if s is None or s >= base:
        return None
    actual = gb - d.eval(s)
    return (s, actual) if actual > 0.0 else None


def _one_sided(f, base, d, cfg, side, gb, rooms):
    fb = f(base)
    sampler = _forward_sample if side > 0 else _backward_sample
    probe = sampler(d, base, gb, cfg.step0, rooms)
    if probe is None:
        raise DomainError(
            f"no measure room on side {side:+d} of t={base} for a one-sided quotient"
        )
    # start below the room: clipped levels all land on the same sample and
    # poison the extrapolation table
    eta0 = min(cfg.step0, 0.9 * rooms[0 if side > 0 else 1])

    def pairs():
        eta = eta0
        for _ in range(cfg.max_levels):
            got = sampler(d, base, gb, eta, rooms)
            if got is not None:
                s, actual = got
                yield actual, (f(s) - fb) / (actual * side)
            eta *= cfg.shrink

    return _extrapolate(pairs(), cfg.tol, cfg.min_levels)


def _central(f, t, d, cfg, gb, rooms):
    eta0 = min(cfg.step0, 0.9 * rooms[0], 0.9 * rooms[1])

    def pairs():
        eta = eta0
        for _ in range(cfg.max_levels):
            fwd = _forward_sample(d, t, gb, eta, rooms)
            bwd = _backward_sample(d, t, gb, eta, rooms)
            if fwd is not None and bwd is not None:
                sp, ap = fwd
                sm, am = bwd
                yield 0.5 * (ap + am), (f(sp) - f(sm)) / (ap + am)
            eta *= cfg.shrink

    return _extrapolate(pairs(), cfg.tol, cfg.min_levels)


def gderiv(f, t, d, cfg=None):
    """Stieltjes derivative of f at t with respect to the derivator d.

    Atoms use the exact jump quotient (f(t+) extrapolated, gap exact);
    constancy points defer to the right end of their run; regular points use
    two-sided quotients, falling back to one side when the other has no
    measure room.
    """
    cfg = cfg or DEFAULT
    t = float(t)
    d._check_domain(t)
    if d.is_atom(t):
        fplus = right_limit_of(f, t, d, _limit_cfg(cfg))
        return (fplus - f(t)) / d.jump(t)
    run = d.constancy_run(t)
    if run is not None:
        b = run[1]
        if d.is_atom(b):
            fplus = right_limit_of(f, b, d, _limit_cfg(cfg))
            return (fplus - f(b)) / d.jump(b)
        if b >= d.hi:
            raise DomainError(
                f"constancy run ending at the domain edge t={b} has no derivative data"
            )
        gb = d.eval(b)
        return _one_sided(f, b, d, cfg, +1, gb, _rooms(d, b, gb))
    gb = d.eval(t)
    rooms = _rooms(d, t, gb)
    has_fwd = _forward_sample(d, t, gb, cfg.step0, rooms) is not None
    has_bwd = _backward_sample(d, t, gb, cfg.step0, rooms) is not None
    if has_fwd and has_bwd:
        return _central(f, t, d, cfg, gb, rooms)
    if has_fwd:
        return _one_sided(f, t, d, cfg, +1, gb, rooms)
    if has_bwd:
        return _one_sided(f, t, d, cfg, -1, gb, rooms)
    raise DomainError(f"no measure room around t={t} for a difference quotient")


def gderiv2(f, t, d):
    """Second Stieltjes derivative: the derivative machinery applied to
    s -> gderiv(f, s).  At atoms this is the exact jump quotient of the
    first-derivative function."""

    def D(s):
        return gderiv(f, s, d, DEFAULT_INNER)

    return gderiv(D, t, d, DEFAULT_OUTER)


def heat_residual(u, t, x, g, h, c):
    """Pointwise residual d_g u - c^2 d_h^2 u from raw difference quotients."""
    du = gderiv(lambda s: u(s, x), t, g)
    d2 = gderiv2(lambda y: u(t, y), x, h)
    return du - c * c * d2


def _atom_gap(d, s, name):
    gap = d.jump(s)
    if gap == 0.0:
        raise DomainError(f"{name}={s} is not an atom of its derivator")
    return gap


def _tidy(z):
    # collapse exact-real complex results (conjugate coefficient pairs)
    if isinstance(z, complex) and z.imag == 0.0:
        return z.real
    return z


class HeatResidual:
    """One solution interface: u(t, x) = <time row, space column>, checked
    against d_g u - c^2 d_h^2 u by rule, numerically and at the atoms.

    A solution class supplies
      _row(t, right=False)    the time part at t, or its right limit at an atom
      _col(x)                 the space part at x
      _dot(row, col)          their contraction, the value u(t, x)
      _dhx(t, x, right=False) d_h u, or its right limit at an atom x
      dgt_rule, dhx2_rule     the closed-form partials
      _slice_scales(t, x)     (sx, st): the time slice's derivator is sx g and
                              the space slice's st h; (1, 1) except in the
                              product case, where they are (h(x), g(t))
    and its derivators g, h and diffusion constant c.  The slices, the
    numeric residual and the atom rows are written here once: a time atom
    row takes the jump quotient of u, a space atom row that of d_h u, over
    the gap of the scaled slice.
    """

    def _slice_scales(self, t, x):
        return 1.0, 1.0

    def __call__(self, t, x):
        return self._dot(self._row(t), self._col(x))

    def along_t(self, x):
        """s -> u(s, x), the slice the time quotients differentiate, with the
        space part taken once."""
        row, dot, col = self._row, self._dot, self._col(x)
        return lambda s: dot(row(s), col)

    def along_x(self, t):
        """y -> u(t, y), the slice the space quotients differentiate, with the
        time part taken once."""
        row, dot, col = self._row(t), self._dot, self._col
        return lambda y: dot(row, col(y))

    def dhx_rule(self, t, x):
        return self._dhx(t, x)

    def residual_rule(self, t, x):
        return self.dgt_rule(t, x) - self.c**2 * self.dhx2_rule(t, x)

    def residual_numeric(self, t, x):
        """The residual from difference quotients along the slices, each
        divided by its slice scale."""
        du = gderiv(self.along_t(x), t, self.g)
        d2 = gderiv2(self.along_x(t), x, self.h)
        sx, st = self._slice_scales(t, x)
        return du / sx - self.c * self.c * (d2 / st**2)

    def residual(self, t, x, mode="rule"):
        if mode == "rule":
            return self.residual_rule(t, x)
        if mode == "numeric":
            return self.residual_numeric(t, x)
        raise DomainError(f"mode must be 'rule' or 'numeric', got {mode!r}")

    def jump_residual_t(self, t, x):
        """Exact atom-row residual in time: the jump quotient of u minus
        c^2 d_h^2 u."""
        gap = _atom_gap(self.g, t, "t") * self._slice_scales(t, x)[0]
        col = self._col(x)
        quot = (self._dot(self._row(t, right=True), col) - self._dot(self._row(t), col)) / gap
        return _tidy(quot - self.c**2 * self.dhx2_rule(t, x))

    def jump_residual_x(self, t, x):
        """Exact atom-row residual in space: d_g u minus c^2 times the jump
        quotient of d_h u."""
        gap = _atom_gap(self.h, x, "x") * self._slice_scales(t, x)[1]
        quot = (self._dhx(t, x, right=True) - self.dhx_rule(t, x)) / gap
        return _tidy(self.dgt_rule(t, x) - self.c**2 * quot)

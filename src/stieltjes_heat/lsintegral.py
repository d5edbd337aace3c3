"""Lebesgue-Stieltjes integrals against a derivator measure.

The measure splits exactly along the stored structure: atoms contribute
f(t) * gap termwise, each affine segment contributes an ordinary weighted
integral (density = slope), flat segments contribute nothing.  Only the
smooth per-segment part needs quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, EvaluationError, NonConvergenceError

DEFAULT_TOL = 1e-10


@dataclass
class Integrand:
    """An integrand with its atom-handling convention.

    exclude_atoms=True integrates over [a, b) \\ D_g, which is what the
    continuous factor of the exponential needs.
    """

    f: callable
    exclude_atoms: bool = False


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


def _quad_real(f, lo, hi, eps):
    out = quad(f, lo, hi, epsabs=eps, epsrel=1e-12, limit=200, full_output=1)
    val, abserr = out[0], out[1]
    if len(out) > 3 and abserr > max(10 * eps, 1e-13 * (1 + abs(val))):
        raise NonConvergenceError(
            f"quadrature on [{lo}, {hi}] did not reach tolerance: {out[3]}"
        )
    return val


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
    if spans:
        eps = tol / len(spans)
        probe = func(0.5 * (spans[0][0] + spans[0][1]))
        if isinstance(probe, complex) or isinstance(total, complex):
            for lo, hi, slope in spans:
                re = _quad_real(lambda s: func(s).real, lo, hi, eps)
                im = _quad_real(lambda s: func(s).imag, lo, hi, eps)
                total += slope * complex(re, im)
        else:
            for lo, hi, slope in spans:
                total += slope * _quad_real(func, lo, hi, eps)
    return total


def integrate_gauss(f, a, b, d):
    """Fixed-order (64-point Gauss-Legendre) Stieltjes sum of f over [a, b).

    Non-adaptive on purpose: the integrand may carry difference-quotient
    noise that adaptive subdivision chases forever.  Atoms contribute their
    left value times the gap.
    """
    z, w = np.polynomial.legendre.leggauss(64)
    total = 0.0
    for lo, hi, slope in _affine_spans(d, a, b):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += slope * half * sum(wi * f(mid + half * zi) for zi, wi in zip(z, w))
    for t, gap in d.atoms_in(a, b):
        total += f(t) * gap
    return total


def integrate_signed(f, x, y, d, tol=DEFAULT_TOL):
    """Signed convention: [x, y) when y >= x, minus [y, x) otherwise."""
    if y >= x:
        return integrate(f, x, y, d, tol=tol)
    return -integrate(f, y, x, d, tol=tol)


def indefinite(f, a, d, tol=DEFAULT_TOL):
    """t -> integral over [a, t) (signed below a).  Results are memoized."""
    ig = _as_integrand(f)
    cache = {}

    def F(t):
        t = float(t)
        if t not in cache:
            cache[t] = integrate_signed(ig, a, t, d, tol=tol)
        return cache[t]

    return F

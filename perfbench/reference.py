"""Independent reference computations for the benchmark's output checks.

Nothing here imports the library under test.  Every quantity is computed from
the problem spec's own JSON (segments and atoms), so a check that compares the
program against these functions compares two separate implementations.

Conventions follow the spec format: a driver is a chain of segments
[from, to) that are affine (value = slope * t + intercept) or flat (value =
level); the value at an internal breakpoint comes from the left segment (left
continuity), and each declared atom (t, gap) is a jump g(t+) - g(t) = gap.
"""

from __future__ import annotations

import bisect
import cmath
import math


class Driver:
    """A piecewise driver read straight from its JSON description."""

    def __init__(self, obj):
        self.segments = []
        for s in obj["segments"]:
            lo, hi = float(s["from"]), float(s["to"])
            if s["kind"] == "affine":
                slope, icept = float(s["slope"]), float(s["intercept"])
            else:
                slope, icept = 0.0, float(s["level"])
            self.segments.append((lo, hi, slope, icept))
        self.atoms = sorted((float(a["t"]), float(a["gap"])) for a in obj.get("atoms", []))
        self._breaks = [seg[0] for seg in self.segments[1:]]
        self.lo = self.segments[0][0]
        self.hi = self.segments[-1][1]

    def __call__(self, t):
        _lo, _hi, slope, icept = self.segments[bisect.bisect_left(self._breaks, t)]
        return slope * t + icept

    def atoms_in(self, a, b):
        """Atoms (t, gap) with a <= t < b."""
        return [(t, gap) for t, gap in self.atoms if a <= t < b]

    def cont_measure(self, a, b):
        """Continuous (atom-free) measure of [a, b): slope times overlap."""
        total = 0.0
        for lo, hi, slope, _icept in self.segments:
            left, right = max(lo, a), min(hi, b)
            if right > left:
                total += slope * (right - left)
        return total


def exp_g(d, p, a, t):
    """exp_g(p; a, t) = prod over atoms in [a, t) of (1 + p gap), times
    exp(p mu_c([a, t))), for a constant real or complex rate p."""
    prod = 1.0
    for _s, gap in d.atoms_in(a, t):
        prod *= 1.0 + p * gap
    cont = p * d.cont_measure(a, t)
    return prod * (cmath.exp(cont) if isinstance(cont, complex) else math.exp(cont))


def exp_g_inverse_square(d, q, t):
    """exp_g(q / g^2; 0, t): the product-case time factor.

    On an affine piece the continuous part integrates in closed form,
    integral of q dg / g^2 = q (1/g(lo+) - 1/g(hi)); atoms contribute
    1 + q gap / g(s)^2 with the left value g(s).
    """
    log_cont = 0.0
    for lo, hi, slope, icept in d.segments:
        left, right = max(lo, 0.0), min(hi, t)
        if right > left and slope > 0.0:
            log_cont += q * (1.0 / (slope * left + icept) - 1.0 / (slope * right + icept))
    prod = 1.0
    for s, gap in d.atoms_in(0.0, t):
        prod *= 1.0 + q * gap / d(s) ** 2
    return prod * math.exp(log_cont)


# -- separated solutions ----------------------------------------------------------


def _space_factor(h, lam, a, b, x):
    """a exp_h(sqrt(lam); 0, x) + b exp_h(-sqrt(lam); 0, x), or a + b h(x) at 0."""
    if lam == 0:
        return a + b * h(x)
    sq = cmath.sqrt(lam)
    return a * exp_g(h, sq, 0.0, x) + b * exp_g(h, -sq, 0.0, x)


def separated_terms(spec):
    """(lam, a, b) triples of a separated spec, in the program's own reading."""
    mode, payload = spec["mode"], spec[spec["mode"]]
    if mode == "ivp":
        terms = [(0.0, scalar(payload.get("a0", 0.0)), scalar(payload.get("b0", 0.0)))]
        terms += [(scalar(m["lam"]), scalar(m["a"]), scalar(m["b"])) for m in payload["modes"]]
        return terms
    if mode == "general":
        return [(scalar(m["lam"]), scalar(m["a"]), scalar(m["b"])) for m in payload["terms"]]
    if mode == "dirichlet":
        a = scalar(payload["a"])
        return [(payload["lam"], -0.5j * a, 0.5j * a)]
    if mode == "neumann":
        b = scalar(payload["b"])
        return [(payload["lam"], 0.5 * b, 0.5 * b)]
    raise ValueError(f"not a closed-form separated mode: {mode}")


def separated_value(spec, g, h, t, x):
    """u(t, x) = sum of exp_g(lam c^2; 0, t) times the space factor."""
    c2 = spec["c"] ** 2
    total = 0.0
    for lam, a, b in separated_terms(spec):
        w = 1.0 if lam == 0 else exp_g(g, lam * c2, 0.0, t)
        total += w * _space_factor(h, lam, a, b, x)
    return total


def scalar(v):
    return complex(v[0], v[1]) if isinstance(v, list) else v


def phase(h, s, L):
    """Phase of exp_h(i s; 0, L): s mu_c(0, L) + sum of atan(s gap)."""
    return s * h.cont_measure(0.0, L) + sum(math.atan(s * gap) for _t, gap in h.atoms_in(0.0, L))


def phase_root(h, L, target):
    """The s > 0 with phase(h, s, L) = target (the phase is increasing in s)."""
    lo, hi = 0.0, 1.0
    while phase(h, hi, L) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phase(h, mid, L) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def periodic_eigenvalues(h, L, count):
    """-(2 pi k / mu_h([0, L)))^2 for k = 0..count-1 (atom-free h)."""
    mu = h(L) - h(0.0)
    return [-((2.0 * math.pi * k / mu) ** 2) for k in range(count)]


# -- heat polynomials ---------------------------------------------------------------


def gpoly_generating_value(spec, g, h, t, x):
    """sum_n v_n^G(t, x) / n! = exp_g(c^2; 0, t) exp_h(1; 0, x)."""
    return exp_g(g, spec["c"] ** 2, 0.0, t) * exp_g(h, 1.0, 0.0, x)


# -- product case: an independent second-order solve ----------------------------------


def product_space_factor(h, lam, v0, dv0, xs, steps=400):
    """v with v''_h = (lam / h) v, v(0) = v0, v'_h(0) = dv0, at the points xs.

    Classical RK4 in the measure coordinate y = h(x) on each affine piece
    (where d2v/dy2 = lam v / y), an exact Stieltjes step at each atom
    (v+ = v + v' gap, v'+ = v' + (lam / h) v gap), nothing on flat pieces.
    """
    out = {}
    want = sorted(set(xs))
    k = 0
    v, w = complex(v0), complex(dv0)
    atoms = dict(h.atoms)
    for lo, hi, slope, icept in h.segments:
        if lo > 0.0 and lo in atoms:
            gap = atoms[lo]
            v, w = v + w * gap, w + (lam / h(lo)) * v * gap
        pts = [p for p in want[k:] if p <= hi]
        start = lo
        for p in pts:
            if slope > 0.0:
                v, w = _rk4(lam, slope * start + icept, slope * p + icept, v, w, steps)
            start = p
            out[p] = v
            k += 1
        if slope > 0.0 and start < hi:
            v, w = _rk4(lam, slope * start + icept, slope * hi + icept, v, w, steps)
        if k == len(want):
            break
    return [out[p] for p in xs]


def _rk4(lam, y0, y1, v, w, steps):
    if y1 <= y0:
        return v, w
    n = max(8, int(steps * (y1 - y0)) + 1)
    dy = (y1 - y0) / n
    y = y0
    for _ in range(n):
        k1v, k1w = w, lam * v / y
        ym = y + 0.5 * dy
        k2v, k2w = w + 0.5 * dy * k1w, lam * (v + 0.5 * dy * k1v) / ym
        k3v, k3w = w + 0.5 * dy * k2w, lam * (v + 0.5 * dy * k2v) / ym
        k4v, k4w = w + dy * k3w, lam * (v + dy * k3v) / (y + dy)
        v += dy * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
        w += dy * (k1w + 2 * k2w + 2 * k3w + k4w) / 6.0
        y += dy
    return v, w


# -- periodic spatial factor: fit to the closed-form family -----------------------------


def periodic_family_defect(h, lam, xs, vs):
    """Least-squares distance of vs from span{cos(s mu(x)), sin(s mu(x))}.

    For atom-free h every periodic solution of v''_h = lam v is such a
    combination, with s = sqrt(-lam) and mu(x) = h(x) - h(0).  Returns the
    largest pointwise misfit over max |v|.
    """
    s = math.sqrt(-lam)
    rows = [(math.cos(s * (h(x) - h(0.0))), math.sin(s * (h(x) - h(0.0)))) for x in xs]
    # normal equations of the 2-column least-squares fit (complex right side)
    a11 = sum(c * c for c, _ in rows)
    a12 = sum(c * sn for c, sn in rows)
    a22 = sum(sn * sn for _, sn in rows)
    b1 = sum(c * v for (c, _), v in zip(rows, vs))
    b2 = sum(sn * v for (_, sn), v in zip(rows, vs))
    det = a11 * a22 - a12 * a12
    A = (b1 * a22 - b2 * a12) / det
    B = (a11 * b2 - a12 * b1) / det
    scale = max(abs(v) for v in vs)
    return max(abs(A * c + B * sn - v) for (c, sn), v in zip(rows, vs)) / scale

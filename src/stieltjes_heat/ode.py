"""The second-order Stieltjes ODE of the product case, in closed form.

The product-case heat equation separates into a time factor and a space
factor v with v''_h = (lam/h) v.  On an affine piece of h, y = h(x) is
linear and the equation is y v_yy = lam v, of Bessel type; `SpaceFactor`
solves it by Taylor steps in y, holding (v, v_h) on flat pieces and applying
the atom matrix [[1, gap], [lam gap/h(xi), 1]] at an atom xi.
`independence_determinant` is the Wronskian of two such factors.  The tests
hold the factor against the Euler/Richardson solve `solve_second_order` of
tests/oracles.py.
"""

from __future__ import annotations

import bisect
import math

from .errors import DomainError, NonConvergenceError


def _taylor_step(lam, y0, v, dv, z):
    """The coefficients a_n of y v_yy = lam v about y0 from (a_0, a_1) =
    (v, v_h), cut after two successive terms n a_n z^n below
    1e-17 (|v| + |z v_h|) at y0 + z, and the state (v, v_h) there.  A series
    that does not settle to a finite state within 400 terms raises."""
    a, val, der, zp, quiet = [v, dv], v + dv * z, dv, z, 0  # zp = z^(n-1)
    for n in range(2, 400):
        a.append((lam * a[n - 2] - (n - 1) * (n - 2) * a[n - 1]) / (y0 * n * (n - 1)))
        val, der, zp = val + a[n] * zp * z, der + n * a[n] * zp, zp * z
        small = abs(n * a[n] * zp) <= 1e-17 * (abs(val) + abs(z * der)) < math.inf
        quiet = quiet + 1 if small else 0
        if quiet == 2:
            return a, (val, der)
    raise NonConvergenceError(f"space-factor series about h = {y0} did not settle to a "
                              f"finite state within 400 terms at step {z}")


class SpaceFactor:
    """v on [0, h.hi] with v''_h = (lam/h) v, v(0) = v0 and v'_h(0) = dv0.

    On an affine piece y = h(x) is linear and the equation is y v_yy = lam v,
    of Bessel type (Abramowitz & Stegun, ch. 9).  y >= min h > 0, so its
    Taylor series about a node y0 converges for |y - y0| < y0, with
    y0 (n+2)(n+1) a_{n+2} = lam a_n - (n+1) n a_{n+1}.  Nodes sit at most
    min(y0/2, sqrt(y0/|lam|)) apart.  Flat pieces hold (v, v_h); an atom at
    xi applies [[1, gap], [lam gap/h(xi), 1]].  A value is one partial step
    from the node on its left, so at an atom it reads the piece on its left;
    the right limit of v'_h reads the cell that starts there.
    """

    def __init__(self, h, lam, v0, dv0):
        self.h = h
        # cells (start x, node value of h, coefficients); cell 0 is x = 0 itself
        cells, state = [(0.0, h.eval(0.0), [v0, dv0])], (v0, dv0)
        for seg in (s for s in h.segments if s.hi > 0.0):
            x = max(seg.lo, 0.0)
            if (gap := h.jump(x)) > 0.0:
                state = self._atom(lam, gap, h.eval(x), *state)
            y, top = seg.value(x), seg.value(seg.hi)
            while True:
                rem = top - y
                bound = min(0.5 * y, math.sqrt(y / abs(lam)) if lam else math.inf)
                # halve a remainder below two bounds: no sliver of a last step
                step = rem if rem <= bound else min(bound, 0.5 * rem)
                coef, state = _taylor_step(lam, y, *state, step)
                cells.append((x, y, coef))
                if step == rem:
                    break
                y += step
                x = (y - seg.intercept) / seg.slope
        self._xs, self._ys, self._coef = zip(*cells)

    @staticmethod
    def _atom(lam, gap, h_xi, v, dv):
        """(v, v_h) across an atom: [[1, gap], [lam gap/h(xi), 1]] (v, v_h)."""
        return v + gap * dv, dv + lam * gap / h_xi * v

    def _cell(self, x, right):
        y = self.h.eval(x) + (self.h.jump(x) if right else 0.0)  # refuses x past hi
        if x < 0.0 and (x := self.h._check_domain(x)) < 0.0:  # x within fuzz reads lo
            raise DomainError(f"x={x} is left of the space factor's anchor 0")
        k = (bisect.bisect_right(self._xs, x) - 1 if right
             else max(bisect.bisect_left(self._xs, x) - 1, 0))
        return self._coef[k], y - self._ys[k]

    def __call__(self, x):
        coef, z = self._cell(x, False)
        out = 0.0
        for a in reversed(coef):
            out = out * z + a
        return out

    def derivative(self, x, right=False):
        """v'_h(x), or its right limit."""
        coef, z = self._cell(x, right)
        out = 0.0
        for n in range(len(coef) - 1, 0, -1):
            out = out * z + n * coef[n]
        return out


def independence_determinant(v1, v2, x=0.0):
    """v1(x) v2'_h(x) - v2(x) v1'_h(x); nonzero certifies independence."""
    return v1(x) * v2.derivative(x) - v2(x) * v1.derivative(x)

"""Heat equation with one derivator per axis: d_g u = c^2 d_h^2 u.

Solutions are superpositions of separated terms w(t) v(x), with
w = exp_g(lam c^2; 0, .) and v drawn from the exp_h family (or affine in h
when lam = 0).  Every term carries closed-form g/h derivatives, so residuals
can be checked both symbolically and against the numeric quotients.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections import namedtuple
from operator import mul

from .derivators import regular_points
from .errors import DivergenceError, DomainError, EvaluationError, GateError
from .gderiv import HeatResidual, _tidy
from .special import exp_walk

__all__ = [
    "HeatProblem",
    "SeparatedTerm",
    "HeatSolution",
    "SeriesDiagnostics",
    "general_solution",
    "solve_ivp",
    "series_solution",
    "find_boundary_eigenvalues",
    "find_periodic_eigenvalues",
    "periodic_solution",
    "dirichlet_solution",
    "neumann_solution",
]


def _check_rectangle(g, h, c, T, L):
    """The rule every mode's rectangle keeps: c > 0, T, L > 0, and the
    domains of g and h cover [0, T] and [0, L]; DomainError otherwise."""
    if not c > 0:
        raise DomainError(f"diffusion constant must be positive, got {c}")
    if not (T > 0 and L > 0):
        raise DomainError(f"need T, L > 0, got T={T}, L={L}")
    for d, end, label in ((g, T, "T"), (h, L, "L")):
        if d.lo > 0.0 or d.hi < end:
            raise DomainError(
                f"derivator domain [{d.lo}, {d.hi}] does not cover "
                f"[0, {end}] required by {label}"
            )


class HeatProblem(namedtuple("HeatProblem", "g h c T L")):
    """Rectangle [0, T] x [0, L] with time derivator g and space derivator h."""

    __slots__ = ()

    def __init__(self, g, h, c, T, L):
        _check_rectangle(g, h, c, T, L)
        for d, end, label in ((g, T, "T"), (h, L, "L")):
            # terminal instants inside a jump or a constancy run make the
            # endpoint derivative one-sided in a degenerate way; warn, and
            # leave pointwise operations to their own domain checks
            if d.is_atom(end) or d.constancy_run(end) is not None:
                warnings.warn(
                    f"{label}={end} lies in the jump/constancy set of its "
                    "derivator; endpoint derivatives are not two-sided there",
                    UserWarning,
                    stacklevel=2,
                )


class SeparatedTerm:
    """One closed-form product solution w(t) * v(x).

    For lam != 0, v = a exp_h(s; 0, x) + b exp_h(-s; 0, x) with s = sqrt(lam);
    for lam = 0, v = a + b h(x).  For real lam < 0, s = i sqrt(-lam) and
    exp_h(-s) is the conjugate of exp_h(s): the closed form
    prod(1 + p gap) exp(p mu_c) conjugates factor by factor, atoms included,
    so one exponential serves both and conjugate coefficient pairs give
    exactly real values.  The derivative rules w'_g = lam c^2 w and
    v''_h = lam v hold pointwise everywhere, including at atoms, where they
    coincide with the jump quotients.
    """

    def __init__(self, problem: HeatProblem, lam, a, b):
        self.problem = problem
        self.lam = lam
        self.a = a
        self.b = b
        self.rate = lam * problem.c**2
        z = complex(lam)
        self._conj = z.imag == 0.0 and z.real < 0.0
        if self._conj:
            self._s = 1j * math.sqrt(-z.real)
        else:
            self._s = math.sqrt(z.real) if z.imag == 0.0 else cmath.sqrt(z)

    def w(self, tw, gap=0.0):
        """exp_g(lam c^2; 0, t) from tw = g.exp_data(0, t), or its right limit
        at t when gap = g.jump(t) > 0."""
        if self.lam == 0:
            return 1.0
        return exp_walk(self.rate, tw, gap)

    def _pair(self, xw, gap):
        """(exp_h(s; 0, x), exp_h(-s; 0, x)), or their right limits at x."""
        s = self._s
        ep = exp_walk(s, xw, gap)
        return ep, (ep.conjugate() if self._conj else exp_walk(-s, xw, gap))

    def v(self, x, xw):
        """v(x) from xw = h.exp_data(0, x); a lam = 0 term reads h(x) instead."""
        if self.lam == 0:
            return self.a + self.b * self.problem.h.eval(x)
        ep, em = self._pair(xw, 0.0)
        return self.a * ep + self.b * em

    def dv(self, xw, gap=0.0):
        """d_h v at x, or its right limit when gap = h.jump(x) > 0."""
        if self.lam == 0:
            return self.b
        ep, em = self._pair(xw, gap)
        return self._s * (self.a * ep - self.b * em)


class HeatSolution(HeatResidual):
    """Finite superposition of separated terms with closed-form partials,
    given as (lam, a, b) triples and kept as SeparatedTerms in terms.

    The time row holds every term's w(t) and the space column its v(x), each
    from one walk of g and of h; lam = 0 terms read neither walk, but the
    walks refuse the same points for every solution.
    """

    def __init__(self, problem: HeatProblem, terms):
        self.problem = problem
        self.g, self.h, self.c = problem.g, problem.h, problem.c
        self.terms = tuple(SeparatedTerm(problem, lam, a, b) for lam, a, b in terms)

    def _row(self, t, right=False):
        tw, gap = self.g.exp_data(0.0, t), self.g.jump(t) if right else 0.0
        return [tm.w(tw, gap) for tm in self.terms]

    def _col(self, x):
        xw = self.h.exp_data(0.0, x)
        return [tm.v(x, xw) for tm in self.terms]

    @staticmethod
    def _dot(row, col):
        return _tidy(sum(map(mul, row, col), 0.0))

    def _dhx(self, t, x, right=False):
        ws = self._cached_row(t)
        xw, gap = self.h.exp_data(0.0, x), self.h.jump(x) if right else 0.0
        return _tidy(sum((w * tm.dv(xw, gap) for tm, w in zip(self.terms, ws)), 0.0))

    def initial(self, x):
        return self(0.0, x)

    def dgt_rule(self, t, x):
        wv = zip(self.terms, self._cached_row(t), self._cached_col(x))
        return _tidy(sum((tm.rate * w * v for tm, w, v in wv), 0.0))

    def dhx2_rule(self, t, x):
        wv = zip(self.terms, self._cached_row(t), self._cached_col(x))
        return _tidy(sum((tm.lam * w * v for tm, w, v in wv), 0.0))


def general_solution(problem: HeatProblem, terms) -> HeatSolution:
    """Superpose separated terms, given as (lam, a, b) triples."""
    return HeatSolution(problem, terms)


def solve_ivp(problem: HeatProblem, u0_spec) -> HeatSolution:
    """Solution with u(0, x) = a0 + b0 h(x) + sum a_n exp_h(sqrt(lam_n);0,x)
    + b_n exp_h(-sqrt(lam_n);0,x).

    u0_spec: {"a0": .., "b0": .., "modes": [(lam_n, a_n, b_n), ...]}.  The
    initial condition holds by construction: every time factor equals 1 at
    t = 0.  lam_n = 0 in the mode list is rejected (fold it into a0/b0).
    """
    a0 = u0_spec.get("a0", 0.0)
    b0 = u0_spec.get("b0", 0.0)
    modes = u0_spec.get("modes", ())
    terms = []
    if a0 != 0 or b0 != 0:
        terms.append((0.0, a0, b0))
    for lam, a, b in modes:
        if lam == 0:
            raise DomainError(
                "mode eigenvalue 0 is not allowed; fold constants into a0/b0"
            )
        terms.append((lam, a, b))
    return HeatSolution(problem, terms)


SeriesDiagnostics = namedtuple("SeriesDiagnostics", "truncation value_tail dgt_tail "
                               "dhx_tail dhx2_tail tail_ratio contracting")
SeriesDiagnostics.__doc__ = """Sup-norm tail estimates for a truncated separated series.

Tails are trailing five-term sup-norm sums on a regular probe grid, for the
value and for each differentiated series.  `contracting` applies the
trailing ratio < 0.9 heuristic; it is a diagnostic, not a proof of
convergence of the infinite series.
"""


def _stream(s, n):
    """Term n of a coefficient stream: a callable, or a finite sequence that
    is zero beyond its end (finite support)."""
    if callable(s):
        return s(n)
    return s[n] if n < len(s) else 0.0


def series_solution(problem, a_stream, b_stream, lam_stream, N, probe=(7, 7)):
    """Truncated series sum_{n<=N} w_n v_n with contraction diagnostics.

    Streams are sequences or callables; index 0 feeds the lam = 0 term
    (a0 + b0 h(x)) and indices 1..N feed modes with eigenvalue lam_stream(n).
    Returns (HeatSolution, SeriesDiagnostics); warns when the trailing
    sup-norm ratios fail to contract.
    """
    if N < 1:
        raise DomainError(f"need N >= 1 series terms, got {N}")
    terms = [(0.0, _stream(a_stream, 0), _stream(b_stream, 0))]
    for n in range(1, N + 1):
        lam = _stream(lam_stream, n)
        if lam == 0:
            raise DomainError(f"lam_stream({n}) = 0; index 0 owns the constant term")
        terms.append((lam, _stream(a_stream, n), _stream(b_stream, n)))
    sol = HeatSolution(problem, terms)

    nt, nx = probe
    ts = [0.0] + regular_points(problem.g, 0.0, problem.T, nt)
    xs = [0.0] + regular_points(problem.h, 0.0, problem.L, nx)
    sup_value, sup_dgt, sup_dhx, sup_dhx2 = [], [], [], []
    tws = [problem.g.exp_data(0.0, t) for t in ts]
    xws = [(x, problem.h.exp_data(0.0, x)) for x in xs]
    for tm in sol.terms:
        wmax = max(abs(tm.w(tw)) for tw in tws)
        vmax = max(abs(tm.v(x, xw)) for x, xw in xws)
        dvmax = max(abs(tm.dv(xw)) for _, xw in xws)
        sup_value.append(wmax * vmax)
        sup_dgt.append(abs(tm.rate) * wmax * vmax)
        sup_dhx.append(wmax * dvmax)
        sup_dhx2.append(abs(tm.lam) * wmax * vmax)
    arrays = (sup_value, sup_dgt, sup_dhx, sup_dhx2)
    if not all(math.isfinite(s) for arr in arrays for s in arr):
        raise DivergenceError("series terms are non-finite on the probe grid")

    k0 = max(1, N - 4)
    tails = [sum(arr[k0:]) for arr in arrays]
    ratios = [
        sup_value[n] / sup_value[n - 1]
        for n in range(k0, N + 1)
        if sup_value[n - 1] > 0.0
    ]
    tail_ratio = sum(ratios) / len(ratios) if ratios else 0.0
    contracting = tail_ratio < 0.9
    if not contracting:
        warnings.warn(
            f"series tails do not contract (trailing ratio {tail_ratio:.3g}); "
            "the truncation is reported, not certified",
            UserWarning,
            stacklevel=2,
        )
    diag = SeriesDiagnostics(N, *tails, tail_ratio=tail_ratio, contracting=contracting)
    return sol, diag


# -- periodic boundary machinery -----------------------------------------------


def _periodic_gate(walk, s):
    """exp_h(-is; 0, L) from walk = h.exp_data(0, L), shared by every s: the
    periodic gate, the eigenvalue scan and (conjugated) the Dirichlet and
    Neumann gates read it."""
    return exp_walk(complex(0.0, -s), walk)


def _phase_roots(walk, lam_range, count, step, admit):
    """lam = -s^2 at the roots s of phi(s) = step k, k >= 1, on the range.

    With s = sqrt(-lam), z(s) = exp_h(-is; 0, L) is
    prod(1 - is gap) exp(-is mu_c) over the atoms of h in [0, L) and its
    continuous measure mu_c, read from walk = h.exp_data(0, L).  So
    arg z = -phi(s) with phi(s) = s mu_c + sum atan(s gap), which increases
    strictly in s.  On the range s_lo = sqrt(-lam_hi) <= s <= s_hi =
    sqrt(-lam_lo), each k >= 1 with phi(s_lo) <= step k <= phi(s_hi) gives
    one root, bisected on phi from the previous root (or s_lo) to s_hi
    until the bracket is 1e-12 wide or its midpoint is an end (adjacent
    floats).  A root is kept when admit(s) holds, and the first one it
    refuses ends the scan.  At most count roots, ordered by |lam|.  The
    range must be finite with lam_lo < 0 and lam_hi <= 0.
    """
    lam_lo, lam_hi = sorted(lam_range)
    if not (math.isfinite(lam_lo) and math.isfinite(lam_hi)) or lam_lo >= 0 or lam_hi > 0:
        raise DomainError(
            "scan range must be finite and satisfy lam_lo < 0 and lam_hi <= 0, "
            f"got {lam_range}"
        )
    atoms, cont = walk
    phi = lambda s: s * cont + sum(math.atan(s * g) for _t, g in atoms)
    s1, s_hi = math.sqrt(-lam_hi), math.sqrt(-lam_lo)
    k, phi_hi = max(1, math.ceil(phi(s1) / step)), phi(s_hi)
    out = []
    while len(out) < count and step * k <= phi_hi:
        a, b = s1, s_hi
        mid = 0.5 * (a + b)
        while b - a > 1e-12 and a < mid < b:
            a, b = (mid, b) if phi(mid) < step * k else (a, mid)
            mid = 0.5 * (a + b)
        s1 = mid
        if not admit(s1):
            break
        out.append(-s1 * s1)
        k += 1
    return out


def find_periodic_eigenvalues(problem, lam_range, count=8):
    """Real eigenvalues lam <= 0 with exp_h(-sqrt(lam); 0, L) = 1.

    z = exp_h(-is; 0, L) > 0 exactly where phi(s) = 2 pi k, so these are
    the roots of _phase_roots at step 2 pi.  A root is kept when
    |z - 1| < 1e-9; since |z| = prod(1 + s^2 gap^2)^(1/2) does not decrease
    in s, the first root that fails ends the scan.  lam = 0 always
    satisfies the gate and is included when the range allows; an h with no
    measure on [0, L) has z = 1 for every s and yields that lam = 0 alone.
    At most `count` eigenvalues, ordered by |lam|.  The range must be finite
    with lam_lo < 0 and lam_hi <= 0.
    """
    walk = problem.h.exp_data(0.0, problem.L)
    zero = [0.0] if max(lam_range) == 0 else []
    admit = lambda s: abs(_periodic_gate(walk, s) - 1.0) < 1e-9
    return (zero + _phase_roots(walk, lam_range, count - len(zero), 2 * math.pi, admit))[:count]


def find_boundary_eigenvalues(problem, lam_range, count=8):
    """Real eigenvalues lam < 0 of the Dirichlet and Neumann problems, the
    zeros of sin_h(sqrt(-lam); 0, L) = -Im exp_h(-i sqrt(-lam); 0, L).

    sin_h(L) vanishes exactly where phi(s) = pi m, so these are the roots
    of _phase_roots at step pi, m >= 1.  A root is kept when _sin_gate
    admits its lam, so each listed lam solves by dirichlet_solution and
    neumann_solution; the first root it refuses ends the scan.  At most
    `count` eigenvalues, ordered by |lam|.  The range must be finite with
    lam_lo < 0 and lam_hi <= 0.
    """

    def admit(s):
        try:
            _sin_gate(problem, -s * s, "Dirichlet")
        except GateError:
            return False
        return True

    walk = problem.h.exp_data(0.0, problem.L)
    return _phase_roots(walk, lam_range, count, math.pi, admit)


def periodic_solution(problem, lam):
    """Separated solution of the periodic problem for eigenvalue lam <= 0.

    Closed form: u = exp_g(lam c^2; 0, t) v(x) with v = sin_h(s; 0, x) / s
    = (exp_h(is; 0, x) - exp_h(-is; 0, x)) / (2is), s = sqrt(-lam); lam = 0
    gives the constant 1.  v''_h = lam v holds everywhere, atoms included.

    Gate: |exp_h(-is; 0, L) - 1| < 1e-9.  Since |exp_h(-is; 0, L)| is the
    product of (1 + s^2 gap^2)^(1/2) over the atoms of h in [0, L), the gate
    admits no atom there with s gap above 5e-5; and exp_h(is; 0, L) is the
    conjugate of exp_h(-is; 0, L), so it equals 1 as well.  Hence v(L) = 0 = v(0) and
    v'_h(L) = (exp_h(is) + exp_h(-is)) / 2 = 1 = v'_h(0).  This v is the
    u0 = 0 representative of the periodic problem v'_h - is v =
    exp_h(-is; 0, .), whose homogeneous multiplier is then 1; the tests hold
    it against the shooting solve `solve_periodic_first_order` of
    tests/oracles.py.
    u(t,0) = u(t,L) and d_h u(t,0) = d_h u(t,L) are re-verified within 1e-6
    at 11 regular times.
    """
    if isinstance(lam, complex) or lam > 0:
        raise DomainError(f"periodic eigenvalues are real and <= 0, got {lam!r}")
    if lam == 0:
        return HeatSolution(problem, [(0.0, 1.0, 0.0)])
    h, L = problem.h, problem.L
    s = math.sqrt(-lam)
    gate = _periodic_gate(h.exp_data(0.0, L), s)
    if abs(gate - 1.0) >= 1e-9:
        raise GateError(
            f"exp_h(-sqrt(lam); 0, L) = {gate!r} is not 1 (defect "
            f"{abs(gate - 1.0):.3e}); lam = {lam} is not a periodic eigenvalue"
        )
    # sin_h(s) / s = (exp_h(is) - exp_h(-is)) / (2is)
    sol = HeatSolution(problem, [(lam, -0.5j / s, 0.5j / s)])

    dev_u = dev_du = 0.0
    for t in regular_points(problem.g, 0.0, problem.T, 11):
        dev_u = max(dev_u, abs(sol(t, 0.0) - sol(t, L)))
        dev_du = max(dev_du, abs(sol.dhx_rule(t, 0.0) - sol.dhx_rule(t, L)))
    if dev_u > 1e-6 or dev_du > 1e-6:
        raise EvaluationError(
            f"periodic boundary check failed: |u(t,0)-u(t,L)| = {dev_u:.3e}, "
            f"|u'_h(t,0)-u'_h(t,L)| = {dev_du:.3e} exceed 1e-6"
        )
    return sol


# -- Dirichlet / Neumann gates ---------------------------------------------------


def _sin_gate(problem, lam, kind):
    """Admit lam when sin_h(sqrt(-lam); 0, L) vanishes within 1e-9, read in
    closed form as Im z of z = exp_h(i sqrt(-lam); 0, L), the conjugate of
    the periodic gate's exp_h(-i sqrt(-lam); 0, L); lam must be real, finite
    and < 0.  Both boundary problems vanish at L on this condition: the
    Dirichlet value sin_h(L) and the Neumann flux -sqrt(-lam) sin_h(L)."""
    if isinstance(lam, complex) or not (math.isfinite(lam) and lam < 0):
        raise DomainError(
            f"Dirichlet and Neumann eigenvalues are real, finite and < 0, got {lam!r}"
        )
    z = _periodic_gate(problem.h.exp_data(0.0, problem.L), math.sqrt(-lam)).conjugate()
    if not abs(z.imag) < 1e-9:
        raise GateError(
            f"sin_h(sqrt(-lam); 0, L) = {z.imag!r} at L={problem.L} does not vanish "
            f"within 1e-9; lam = {lam} is not a {kind} eigenvalue"
        )


def _boundary_verify(sol, problem, quantity, label):
    dev = 0.0
    for t in [0.0] + regular_points(problem.g, 0.0, problem.T, 7):
        for x in (0.0, problem.L):
            dev = max(dev, abs(quantity(t, x)))
    if dev > 1e-6:
        raise EvaluationError(
            f"{label} boundary values reach {dev:.3e} > 1e-6; the gate "
            "holds but the boundary data do not vanish"
        )


def dirichlet_solution(problem, lam, a):
    """u = a exp_g(lam c^2; 0, t) sin_h(sqrt(-lam); 0, x) with u(t,0)=u(t,L)=0.

    Gate: |sin_h(sqrt(-lam); 0, L)| < 1e-9 (_sin_gate).  The boundary
    values are re-verified directly (within 1e-6) after construction.
    """
    _sin_gate(problem, lam, "Dirichlet")
    # a sin_h = (a / 2i) exp_h(sqrt(lam)) - (a / 2i) exp_h(-sqrt(lam))
    sol = HeatSolution(problem, [(lam, -0.5j * a, 0.5j * a)])
    _boundary_verify(sol, problem, sol, "Dirichlet")
    return sol


def neumann_solution(problem, lam, b):
    """u = b exp_g(lam c^2; 0, t) cos_h(sqrt(-lam); 0, x) with vanishing
    boundary h-derivatives.

    The h-derivative of cos_h is -sqrt(-lam) sin_h: it vanishes at x = 0,
    and at L exactly when sin_h(sqrt(-lam); 0, L) does, so the gate is the
    Dirichlet one, |sin_h(L)| < 1e-9 (_sin_gate).  It admits the odd modes,
    where cos_h(L) = -1, as well as the even ones.  The flux at both walls
    is re-verified directly (within 1e-6) after construction.
    """
    _sin_gate(problem, lam, "Neumann")
    half = 0.5 * b
    sol = HeatSolution(problem, [(lam, half, half)])
    _boundary_verify(sol, problem, sol.dhx_rule, "Neumann flux")
    return sol

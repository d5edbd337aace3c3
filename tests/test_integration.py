"""Lebesgue-Stieltjes integration against independent brute-force sums."""

import math

import numpy as np
import pytest
from conftest import segment_chains
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes_heat import (
    DomainError,
    EvaluationError,
    NonConvergenceError,
    gderiv,
    gexp,
    identity,
    indefinite,
    integrate,
    integrate_signed,
    regular_points,
)


def _g_at(d, ts):
    """g at every entry of the array ts, from the segments: a breakpoint
    takes its left segment's value, as d.eval does."""
    gv = np.empty_like(ts)
    for k, s in enumerate(d.segments):
        m = (ts <= s.hi) if k == 0 else (ts > s.lo) & (ts <= s.hi)
        gv[m] = s.slope * ts[m] + s.intercept
    return gv


def brute_stieltjes(f, a, b, d, panels=1_000_000):
    """Midpoint Riemann-Stieltjes sum over [a, b) with atoms on nodes.

    The continuous part uses midpoint values weighted by the continuous
    increment of each panel; every atom contributes its left value times the
    gap, exactly.  Slow but assumption-free.
    """
    edges = np.linspace(a, b, panels + 1)
    gv = _g_at(d, edges)
    inc = np.diff(gv)
    # remove atom masses from the panels that contain them
    for t, gap in d.atoms_in(a, b):
        i = min(int((t - a) / (b - a) * panels), panels - 1)
        # the atom may straddle a node; its mass lands in the panel whose
        # left edge is <= t < right edge
        while edges[i] > t:
            i -= 1
        while edges[i + 1] <= t:
            i += 1
        inc[i] -= gap
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = np.array([f(m) for m in mids])
    total = float(np.dot(vals, np.clip(inc, 0.0, None)))
    for t, gap in d.atoms_in(a, b):
        total += f(t) * gap
    return total


ORACLE_CASES = [
    # (function, fixture name, a, b)
    (lambda x: 1.0, "jump_g", 0.0, 1.5),
    (lambda x: x, "jump_g", 0.0, 1.2),
    (lambda x: math.sin(x), "jump_g", 0.1, 1.4),
    (lambda x: math.exp(-x), "plateau_h", 0.0, 2.5),
    (lambda x: x * x, "plateau_h", 0.3, 2.2),
    (lambda x: math.cos(2 * x), "staircase", 0.0, 4.0),
    (lambda x: 1.0 / (1.0 + x), "staircase", 0.5, 3.5),
    (lambda x: x**3 - x, "flatstep", 0.0, 3.0),
    (lambda x: math.sqrt(x + 0.1), "mixed", 0.0, 2.0),
    (lambda x: math.sin(3 * x) + 0.5, "mixed", 0.2, 1.9),
]


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_integral_against_brute_force(case, request):
    f, fixture, a, b = ORACLE_CASES[case]
    d = request.getfixturevalue(fixture)
    want = brute_stieltjes(f, a, b, d, panels=1_000_000)
    got = integrate(f, a, b, d)
    assert abs(got - want) < 1e-8, (got, want)


def test_empty_and_point_intervals(jump_g):
    assert integrate(lambda x: 7.0, 0.3, 0.3, jump_g) == 0.0
    # [a, b) over a pure rest is zero
    assert integrate(lambda x: 5.0, 1.1, 1.4, jump_g) == pytest.approx(
        jump_g.measure(1.1, 1.4) * 5.0
    )


def test_atom_only_interval(jump_g):
    # the window [0.5, 0.5 + eps) holds the atom and almost nothing else
    val = integrate(lambda x: x + 1.0, 0.5, 0.500001, jump_g)
    assert abs(val - 1.5 * 1.0) < 1e-5


def test_signed_convention(plateau_h):
    a, b = 0.2, 2.1
    f = lambda x: math.sin(x)
    assert integrate_signed(f, a, b, plateau_h) == pytest.approx(
        integrate(f, a, b, plateau_h)
    )
    assert integrate_signed(f, b, a, plateau_h) == pytest.approx(
        -integrate(f, a, b, plateau_h)
    )
    assert integrate_signed(f, a, a, plateau_h) == 0.0


def test_exclude_atoms_isolates_continuous_part(jump_g):
    f = lambda x: x + 2.0
    whole = integrate(f, 0.0, 1.5, jump_g)
    cont = integrate(f, 0.0, 1.5, jump_g, exclude_atoms=True)
    assert whole - cont == pytest.approx(f(0.5) * 1.0)


def test_complex_integrand(jump_g):
    f = lambda x: complex(math.cos(x), math.sin(x))
    z = integrate(f, 0.0, 1.5, jump_g)
    re = integrate(lambda x: math.cos(x), 0.0, 1.5, jump_g)
    im = integrate(lambda x: math.sin(x), 0.0, 1.5, jump_g)
    assert z == pytest.approx(complex(re, im))


def test_ftc_derivative_of_indefinite(jump_g, plateau_h, mixed):
    # round trip per the fundamental theorem, checked away from atoms/rests
    for d in (jump_g, plateau_h, mixed):
        f = lambda s: math.sin(s) + 0.25 * s
        F = indefinite(f, d.lo, d)
        for t in regular_points(d, d.lo, d.hi, 9):
            assert abs(gderiv(F, t, d) - f(t)) < 1e-6


def test_ftc_indefinite_of_derivative_crosses_atoms(jump_g, mixed):
    # integrating the (numeric) derivative of exp_g recovers its increments,
    # atom contributions included
    for d in (jump_g, mixed):
        E = lambda s: gexp(d, 0.7, d.lo, s)
        D = lambda s: gderiv(E, s, d)
        z, w = np.polynomial.legendre.leggauss(48)
        total = 0.0
        b = d.hi - 0.05
        for seg in d.segments:
            if seg.kind != "affine" or seg.slope == 0.0:
                continue
            lo, hi = max(seg.lo, d.lo), min(seg.hi, b)
            if hi <= lo:
                continue
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            total += seg.slope * half * sum(
                wi * D(mid + half * zi) for zi, wi in zip(z, w)
            )
        for t, gap in d.atoms_in(d.lo, b):
            total += D(t) * gap
        assert abs(total - (E(b) - E(d.lo))) < 1e-6


@settings(max_examples=40, deadline=None)
@given(segment_chains(), st.floats(min_value=0.0, max_value=1.0), st.data())
def test_cached_indefinite_matches_integrate_signed(d, q, data):
    # whole-piece integrals taken once, then one piece per point: at the
    # breakpoints, at the atoms (left-continuous: their mass lies above),
    # inside pieces and below a
    a = d.lo + q * (d.hi - d.lo)
    f = lambda s: math.cos(3.0 * s) + 0.5 * s
    F = indefinite(f, a, d)
    inner = data.draw(st.lists(st.floats(min_value=d.lo, max_value=d.hi), max_size=4))
    ts = [s.lo for s in d.segments] + [d.hi, a] + inner
    for t in ts + [t for t, _ in d.atoms]:
        ref = integrate_signed(f, a, t, d)
        assert abs(F(t) - ref) <= 1e-12 * (1.0 + abs(ref)), (t, F(t), ref)


def test_indefinite_is_left_continuous_with_atom_steps(jump_g):
    f = lambda x: 1.0
    F = indefinite(f, 0.0, jump_g)
    # F(t) = mu([0, t)): left value at the atom excludes its mass
    assert F(0.5) == pytest.approx(0.5)
    assert F(0.500001) == pytest.approx(1.5, abs=1e-5)
    assert F(1.5) == pytest.approx(2.5)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_additivity_over_split(mixed, a, b, m):
    lo, hi = min(a, b), max(a, b)
    mid = lo + (hi - lo) * min(max(m / 2.0, 0.0), 1.0) * 0.5 + (hi - lo) * 0.25
    f = lambda x: x + 0.5
    whole = integrate(f, lo, hi, mixed)
    parts = integrate(f, lo, mid, mixed) + integrate(f, mid, hi, mixed)
    assert whole == pytest.approx(parts, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.1, max_value=3.9))
def test_nonnegative_integrand_monotone(staircase, b):
    f = lambda x: 1.0 + math.cos(x) ** 2
    assert integrate(f, 0.0, b, staircase) >= 0.0
    assert integrate(f, 0.0, b, staircase) <= integrate(f, 0.0, 4.0, staircase) + 1e-12


# -- indefinite: the piecewise Chebyshev antiderivative -----------------------


def _points(d, a, inner):
    """Breakpoints, the domain end, a, the atoms, and inner points (some of
    them below a when a > d.lo)."""
    return [s.lo for s in d.segments] + [d.hi, a] + [t for t, _ in d.atoms] + inner


@settings(max_examples=50, deadline=None)
@given(segment_chains(), st.floats(min_value=0.0, max_value=1.0),
       st.sampled_from([lambda s: complex(math.cos(3.0 * s), s * s - 0.5),
                        lambda s: math.cos(40.0 * s)]), st.data())
def test_indefinite_matches_integrate_signed(d, q, f, data):
    # a complex integrand, and cos(40 s), whose pieces need panel splits
    a = d.lo + q * (d.hi - d.lo)
    F = indefinite(f, a, d)
    inner = data.draw(st.lists(st.floats(min_value=d.lo, max_value=d.hi), max_size=6))
    for t in _points(d, a, inner):
        ref = integrate_signed(f, a, t, d)
        assert abs(F(t) - ref) <= 1e-12 * (1.0 + abs(ref)), (t, F(t), ref)


def test_indefinite_oscillatory_against_closed_form():
    # cos(40 s) over [0, 3) turns 19 times: one degree-16 panel cannot hold it
    calls = []

    def f(s):
        calls.append(s)
        return math.cos(40.0 * s)

    F = indefinite(f, 0.0, identity(0.0, 3.0))
    for k in range(61):
        t = 0.05 * k
        assert abs(F(t) - math.sin(40.0 * t) / 40.0) <= 1e-13, t
    assert len(calls) > 10 * 17


@settings(max_examples=20, deadline=None)
@given(segment_chains(), st.floats(min_value=0.0, max_value=1.0), st.data())
def test_indefinite_calls_f_on_its_first_call_only(d, q, data):
    calls = []

    def f(s):
        calls.append(s)
        return math.exp(-s) + s

    a = d.lo + q * (d.hi - d.lo)
    F = indefinite(f, a, d)
    assert calls == []
    F(a)
    built = len(calls)
    inner = data.draw(st.lists(st.floats(min_value=d.lo, max_value=d.hi), max_size=8))
    for t in _points(d, a, inner):
        F(t)
    assert len(calls) == built


def test_indefinite_refusals():
    d = identity(-1.0, 3.0)
    F = indefinite(lambda s: s, 0.0, d)
    with pytest.raises(DomainError):
        F(3.5)
    with pytest.raises(DomainError):
        F(-1.5)
    # within the domain fuzz the ends clamp, as d._check_domain does
    assert F(3.0 + 1e-12) == F(3.0)
    with pytest.raises(EvaluationError):
        indefinite(lambda s: math.inf if s > 1.0 else 1.0, 0.0, d)(0.5)
    for lo in (0.0, 1.3):
        with pytest.raises(NonConvergenceError, match="panels"):
            indefinite(lambda s: 1.0 / (s - lo), lo, d)(lo + 0.5)


def test_indefinite_checks_its_anchor(jump_g):
    # the anchor is refused when F is made, under its own name, not as the
    # t of the first call
    with pytest.raises(DomainError, match=r"anchor a=-1\.0"):
        indefinite(lambda s: 1.0, -1.0, jump_g)
    with pytest.raises(DomainError, match="anchor"):
        indefinite(lambda s: 1.0, 1.6, jump_g)
    # within the fuzz it reads the domain end
    assert indefinite(lambda s: 1.0, 1.5 + 1e-12, jump_g)(0.5) == pytest.approx(-2.0)

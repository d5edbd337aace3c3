"""Exponentials, trig pairs, monomials, and series with certified tails."""

import cmath
import math
from fractions import Fraction

import pytest
from conftest import segment_chains
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes_heat import (
    DomainError,
    MonomialTable,
    classify_regressivity,
    g_monomial,
    gcos_series,
    gcosh_series,
    gderiv,
    gexp,
    gexp_right_limit,
    gexp_series,
    gsin_gcos,
    gsin_series,
    gsinh_gcosh,
    gsinh_series,
    identity,
    integrate,
    integrate_signed,
    regular_points,
)

RATES = (0.3, -0.3, 2.0, 1j)


# ---------------------------------------------------------------------------
# exponential: closed form, characterizations


def test_classical_exponential():
    d = identity(0.0, 2.0)
    for lam in RATES:
        for t in (0.0, 0.4, 1.3, 2.0):
            want = cmath.exp(lam * t) if isinstance(lam, complex) else math.exp(lam * t)
            assert gexp(d, lam, 0.0, t) == pytest.approx(want, rel=1e-12)


def test_jump_driver_product_formula(jump_g):
    # hand evaluation: continuous rate up to the atom, exact factor across it
    lam = 0.7
    assert gexp(jump_g, lam, 0.0, 0.3) == pytest.approx(math.exp(lam * 0.3))
    # the window [0, 0.6) holds the atom at 1/2 with gap 1
    want = math.exp(lam * 0.5) * (1.0 + lam) * math.exp(lam * 0.1)
    assert gexp(jump_g, lam, 0.0, 0.6) == pytest.approx(want, rel=1e-12)


def test_exponential_integral_identity(
    jump_g, plateau_h, ident, staircase, mixed
):
    # exp(t) = 1 + lam * integral of exp over [a, t)
    for d in (jump_g, plateau_h, ident, staircase, mixed):
        ts = regular_points(d, d.lo, d.hi, 4)
        for lam in RATES:
            f = lambda s: gexp(d, lam, d.lo, s)
            for t in ts:
                lhs = f(t)
                rhs = 1.0 + lam * integrate(f, d.lo, t, d)
                assert abs(lhs - rhs) < 1e-8 * (1.0 + abs(lhs))


def test_exponential_derivative_identity(jump_g, plateau_h, ident, staircase, mixed):
    for d in (jump_g, plateau_h, ident, staircase, mixed):
        ts = regular_points(d, d.lo, d.hi, 20)
        for lam in RATES:
            f = lambda s: gexp(d, lam, d.lo, s)
            for t in ts:
                got = gderiv(f, t, d)
                assert abs(got - lam * f(t)) < 1e-6 * (1.0 + abs(f(t)))


def test_exponential_refuses_points_below_the_anchor(jump_g):
    for p in (0.5, lambda s: 0.5):
        with pytest.raises(DomainError, match="t >= a"):
            gexp(jump_g, p, 0.3, 0.2)


def test_right_limit_applies_atom_factor(jump_g):
    lam = 0.9
    left = gexp(jump_g, lam, 0.0, 0.5)
    assert gexp_right_limit(jump_g, lam, 0.0, 0.5) == pytest.approx(
        left * (1.0 + lam), rel=1e-14
    )
    # approaching from the right recovers the same limit
    assert gexp(jump_g, lam, 0.0, 0.5 + 1e-10) == pytest.approx(
        left * (1.0 + lam), rel=1e-8
    )


def test_time_dependent_rate(jump_g):
    # p(t) = t: continuous part integrates p dg, atoms use p at the atom
    val = gexp(jump_g, lambda t: t, 0.0, 0.8)
    want = math.exp(0.5**2 / 2) * (1.0 + 0.5) * math.exp((0.8**2 - 0.5**2) / 2)
    assert val == pytest.approx(want, rel=1e-10)


def test_translation_invariant_windows(staircase, flatstep):
    # on drivers whose measure and atom pattern repeat with period 1 the
    # exponential factor over [x, x+1) is independent of x
    for d, starts in ((staircase, (0.0, 0.25, 0.7, 1.3, 2.9)), (flatstep, (0.0, 0.1, 0.55, 1.4, 1.95))):
        lam = 0.6
        ref = gexp(d, lam, starts[0], starts[0] + 1.0)
        for x in starts[1:]:
            assert gexp(d, lam, x, x + 1.0) == pytest.approx(ref, rel=1e-12)


def test_regressivity_classification(jump_g):
    assert classify_regressivity(jump_g, 0.5, 0.0, 1.5).kind == "strongly_regressive"
    r = classify_regressivity(jump_g, -2.0, 0.0, 1.5)
    assert r.kind == "regressive" and r.is_regressive
    r = classify_regressivity(jump_g, -1.0, 0.0, 1.5)
    assert r.kind == "degenerate" and r.witness == 0.5 and not r.is_regressive
    assert classify_regressivity(jump_g, 1j, 0.0, 1.5).kind == "regressive"


# ---------------------------------------------------------------------------
# trig / hyperbolic pairs


def test_classical_trig_pair():
    d = identity(0.0, 2.0)
    for t in (0.0, 0.5, 1.2, 1.9):
        s, c = gsin_gcos(d, 1.7, t)
        assert s == pytest.approx(math.sin(1.7 * t), abs=1e-12)
        assert c == pytest.approx(math.cos(1.7 * t), abs=1e-12)
        sh, ch = gsinh_gcosh(d, 0.8, t)
        assert sh == pytest.approx(math.sinh(0.8 * t), rel=1e-12)
        assert ch == pytest.approx(math.cosh(0.8 * t), rel=1e-12)


def test_trig_pair_is_exponential_split(plateau_h):
    b = 1.1
    for t in (0.3, 0.9, 1.2, 2.1):
        s, c = gsin_gcos(plateau_h, b, t)
        z = gexp(plateau_h, 1j * b, 0.0, t)
        assert complex(c, s) == pytest.approx(z, rel=1e-13)


def test_trig_system_odes(plateau_h):
    # S' = b C, C' = -b S in the driver's derivative, at regular points
    b = 0.9
    S = lambda x: gsin_gcos(plateau_h, b, x)[0]
    C = lambda x: gsin_gcos(plateau_h, b, x)[1]
    for x in regular_points(plateau_h, 0.0, 2.5, 8):
        assert abs(gderiv(S, x, plateau_h) - b * C(x)) < 1e-6
        assert abs(gderiv(C, x, plateau_h) + b * S(x)) < 1e-6


def test_pythagoras_deforms_at_atoms(jump_g):
    # cosh^2 - sinh^2 = prod (1 - b^2 gap^2); sin^2 + cos^2 = prod (1 + b^2 gap^2)
    b = 0.8
    sh, ch = gsinh_gcosh(jump_g, b, 1.0)
    assert ch * ch - sh * sh == pytest.approx(1.0 - b * b * 1.0**2, rel=1e-10)
    s, c = gsin_gcos(jump_g, b, 1.0)
    assert s * s + c * c == pytest.approx(1.0 + b * b * 1.0**2, rel=1e-10)


# ---------------------------------------------------------------------------
# monomials


def test_classical_monomials_are_powers():
    d = identity(0.0, 2.0)
    for n in range(7):
        for x in (0.0, 0.5, 1.25, 2.0):
            assert g_monomial(d, n, 0.0, x) == pytest.approx(x**n, rel=1e-12)


def test_frozen_monomial_value(jump_g):
    # frozen: 2 * (1/8 + 1/2 + 7/8) = 3.0
    assert g_monomial(jump_g, 2, 0.0, 1.0) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("fixture", ["jump_g", "mixed"])
def test_monomials_against_nested_quadrature(fixture, request):
    # independent oracle: g_n = n * anchored integral of g_{n-1}
    d = request.getfixturevalue(fixture)
    xs = regular_points(d, d.lo, d.hi, 3)
    prev = lambda x: 1.0
    for n in (1, 2, 3):
        cur = lambda x, p=prev, k=n: k * integrate(p, d.lo, x, d)
        for x in xs:
            assert g_monomial(d, n, d.lo, x) == pytest.approx(cur(x), abs=1e-8)
        prev = cur


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.5), st.integers(min_value=0, max_value=8))
def test_monomial_bound(jump_g, x, n):
    # 0 <= g_n(x) <= (g(x) - g(0))^n, the bound behind every tail estimate
    v = g_monomial(jump_g, n, 0.0, x)
    gbar = jump_g.eval(x) - jump_g.eval(0.0)
    assert -1e-12 <= v <= gbar**n + 1e-12


@settings(max_examples=60, deadline=None)
@given(segment_chains(), st.data())
def test_monomial_values_match_scalar_eval(d, data):
    # the list of all orders against the per-order path
    table = MonomialTable(d, 0.0)
    points = [d.lo, d.hi] + [s.lo for s in d.segments[1:]]
    points.append(data.draw(st.floats(min_value=d.lo, max_value=d.hi)))
    for order in (data.draw(st.integers(0, 4)), data.draw(st.integers(0, 8))):
        for x in points:
            vals = table.values(order, x)
            right = table.values(order, x, right=True)
            assert len(vals) == len(right) == order + 1
            for j in range(order + 1):
                want = table.eval(j, x)
                assert abs(vals[j] - want) <= 1e-12 * (1.0 + abs(want))
                # right limits: g_j(x+) - g_j(x) = j g_{j-1}(x) gap(x)
                step = j * vals[j - 1] * d.jump(x) if j else 0.0
                assert abs(right[j] - (want + step)) <= 1e-12 * (1.0 + abs(want) + abs(step))


@settings(max_examples=30, deadline=None)
@given(segment_chains(), st.data())
def test_monomial_recursion_against_quadrature(d, data):
    # g_j(x) = j * integral_0^x g_{j-1} dmu_g, the integral taken by
    # lsintegral (atoms termwise, affine pieces by quadrature), on both sides
    # of the anchor 0
    table = MonomialTable(d, 0.0)
    points = [d.lo, d.hi] + [s.lo for s in d.segments[1:]]
    points.append(data.draw(st.floats(min_value=d.lo, max_value=d.hi)))
    for j in range(1, 7):
        prev = lambda s, k=j - 1: table.eval(k, s)
        for x in points:
            want = j * integrate_signed(prev, 0.0, x, d, tol=1e-12)
            assert abs(table.eval(j, x) - want) <= 1e-9 * (1.0 + abs(want))


def _exact_monomials(d, order):
    """g_0, ..., g_order of d anchored at 0, exactly: per segment the
    Fraction coefficients in x itself (not the table's local coordinate),
    from g_n = n * integral_0^x g_{n-1} dmu_g, with the constants fixed by
    crossing each breakpoint b outward from 0 with n g_{n-1}(b) gap(b)."""
    segs = [(Fraction(s.lo), Fraction(s.hi), Fraction(s.slope)) for s in d.segments]
    gap = {Fraction(t): Fraction(g) for t, g in d.atoms}
    at = lambda p, x: sum(c * x**k for k, c in enumerate(p))
    k0 = next(i for i, (_lo, hi, _m) in enumerate(segs) if hi >= 0)
    polys = [[[Fraction(1)] for _ in segs]]
    for n in range(1, order + 1):
        prev = polys[-1]
        cur = [[Fraction(0)] + [n * m * c / (k + 1) for k, c in enumerate(p)]
               for p, (_lo, _hi, m) in zip(prev, segs)]
        cur[k0][0] = -at(cur[k0], Fraction(0))
        for i in range(k0 + 1, len(segs)):
            b = segs[i][0]
            right = at(cur[i - 1], b) + n * at(prev[i - 1], b) * gap.get(b, 0)
            cur[i][0] = right - at(cur[i], b)
        for i in range(k0 - 1, -1, -1):
            b = segs[i][1]
            left = at(cur[i + 1], b) - n * at(prev[i], b) * gap.get(b, 0)
            cur[i][0] = left - at(cur[i], b)
        polys.append(cur)
    return polys, at


@settings(max_examples=40, deadline=None)
@given(segment_chains(), st.data())
def test_monomial_rows_match_the_exact_recurrence(d, data):
    # the float rows in local coordinates against the recurrence run in
    # exact rationals, at segment ends (values and right limits) and inside
    order = 6
    polys, at = _exact_monomials(d, order)
    table = MonomialTable(d, 0.0)
    for i, seg in enumerate(d.segments):
        inner = seg.lo + data.draw(st.floats(0.01, 1.0)) * (seg.hi - seg.lo)
        for x, k, right in ((seg.hi, i, False), (inner, i, False),
                            (seg.lo, i, i > 0)):
            got = table.values(order, x, right=right)
            for n in range(order + 1):
                want = float(at(polys[n][k], Fraction(x)))
                assert abs(got[n] - want) <= 1e-12 * (1.0 + abs(want)), (n, x, right)


@settings(max_examples=40, deadline=None)
@given(segment_chains(), st.data())
def test_series_match_the_closed_forms_on_random_derivators(d, data):
    # rates with |rate| (g(x) - g(lo)) <= 4, so no partial sum cancels more
    # than about e^4 of its terms, and orders from 2 to 30
    x = data.draw(st.floats(d.lo, d.hi))
    scale = data.draw(st.floats(-4.0, 4.0)) / (1.0 + d.eval(d.hi) - d.eval(d.lo))
    order = data.draw(st.integers(2, 30))
    for lam in (scale, 1j * scale):
        value, tail = gexp_series(d, lam, x, order, center=d.lo)
        closed = gexp(d, lam, d.lo, x)
        assert abs(value - closed) <= tail + 1e-12 * (1.0 + abs(closed))
    S, C = gsin_gcos(d, scale, x, a=d.lo)
    for series, closed in ((gsin_series, S), (gcos_series, C)):
        value, tail = series(d, scale, x, order, center=d.lo)
        assert abs(value - closed) <= tail + 1e-12 * (1.0 + abs(closed))


def test_monomial_rejects_negative_order(jump_g):
    with pytest.raises(DomainError):
        g_monomial(jump_g, -1, 0.0, 1.0)


# ---------------------------------------------------------------------------
# series with certified tails


def test_exp_series_matches_closed_form(jump_g, plateau_h, mixed, staircase):
    for d in (jump_g, plateau_h, mixed, staircase):
        x = d.hi - 0.1
        gbar = d.eval(x) - d.eval(d.lo)
        for lam in (0.5, -0.8, 3.0 / gbar, 2j / gbar):
            value, tail = gexp_series(d, lam, x, 60, center=d.lo)
            closed = gexp(d, lam, d.lo, x)
            assert tail < 1e-10
            assert abs(value - closed) <= tail + 1e-13 * (1.0 + abs(closed))


def test_trig_series_match_closed_forms(plateau_h):
    b, x = 1.2, 2.3
    s, tail_s = gsin_series(plateau_h, b, x, 60)
    c, tail_c = gcos_series(plateau_h, b, x, 60)
    S, C = gsin_gcos(plateau_h, b, x)
    assert tail_s < 1e-10 and tail_c < 1e-10
    assert abs(s - S) <= tail_s + 1e-13
    assert abs(c - C) <= tail_c + 1e-13
    sh, tail_sh = gsinh_series(plateau_h, b, x, 60)
    ch, tail_ch = gcosh_series(plateau_h, b, x, 60)
    SH, CH = gsinh_gcosh(plateau_h, b, x)
    assert abs(sh - SH) <= tail_sh + 1e-13
    assert abs(ch - CH) <= tail_ch + 1e-13


def test_trig_series_past_order_170_match_closed_forms():
    # order 100 sums monomials to order 201, past where m! fits a float
    h = identity(0.0, 2.0)
    for b in (math.pi, 2 * math.pi, 3 * math.pi, math.sqrt(2.0)):
        s, tail_s = gsin_series(h, b, 1.0, 100)
        c, tail_c = gcos_series(h, b, 1.0, 100)
        S, C = gsin_gcos(h, b, 1.0)
        assert abs(s - S) <= tail_s + 1e-12
        assert abs(c - C) <= tail_c + 1e-12


def test_series_tail_certified_at_low_order(jump_g):
    # a short partial sum must still bracket the truth by its own tail bound
    value, tail = gexp_series(jump_g, 1.0, 1.4, 6)
    closed = gexp(jump_g, 1.0, 0.0, 1.4)
    assert abs(value - closed) <= tail
    assert tail > 1e-8  # the bound is doing real work here


def test_series_rejects_backward_evaluation(jump_g):
    with pytest.raises(DomainError):
        gexp_series(jump_g, 1.0, 0.2, 10, center=1.0)

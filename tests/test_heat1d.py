"""Separated solutions of d_g u = c^2 d_h^2 u on a rectangle."""

import cmath
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import from_zero, residual_both_routes, segment_chains
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from oracles import solve_periodic_first_order

from stieltjes_heat import (
    Derivator,
    DivergenceError,
    DomainError,
    GateError,
    HeatProblem,
    dirichlet_solution,
    find_boundary_eigenvalues,
    find_periodic_eigenvalues,
    general_solution,
    gexp,
    gexp_right_limit,
    gsin_gcos,
    heat1d,
    identity,
    neumann_solution,
    periodic_solution,
    regular_points,
    series_solution,
    solve_ivp,
)

IVP_SPEC = {"a0": 1.0, "b0": -1.0, "modes": [(0.6, 2.0, 0.0)]}


def worked_u0(h, x):
    # 1 - h(x) + 2 exp_h(sqrt(3/5); 0, x)
    return 1.0 - h.eval(x) + 2.0 * gexp(h, math.sqrt(0.6), 0.0, x)


def test_worked_example_initial_condition(prob_jumpy):
    sol = solve_ivp(prob_jumpy, IVP_SPEC)
    xs = np.linspace(0.0, 2.0, 201)
    for x in xs:
        assert abs(sol.initial(x) - worked_u0(prob_jumpy.h, x)) < 1e-12
    assert sol(0.0, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_worked_example_closed_form(prob_jumpy):
    # u = (1 - h) + 2 exp_g(3/20) exp_h(sqrt(3/5)) written out by hand
    g, h = prob_jumpy.g, prob_jumpy.h
    sol = solve_ivp(prob_jumpy, IVP_SPEC)
    for t in (0.0, 0.3, 0.8, 1.0):
        for x in (0.0, 0.7, 1.2, 2.0):
            want = (
                1.0
                - h.eval(x)
                + 2.0
                * gexp(g, 0.15, 0.0, t)
                * gexp(h, math.sqrt(0.6), 0.0, x)
            )
            assert sol(t, x) == pytest.approx(want, rel=1e-14)


def test_worked_example_rule_residual_is_zero(prob_jumpy):
    sol = solve_ivp(prob_jumpy, IVP_SPEC)
    for t in (0.1, 0.5, 0.9):
        for x in (0.2, 1.5, 1.9):
            assert sol.residual_rule(t, x) == 0.0


def test_worked_example_numeric_residual(prob_jumpy):
    sol = solve_ivp(prob_jumpy, IVP_SPEC)
    ts = regular_points(prob_jumpy.g, 0.0, 1.0, 6)
    xs = regular_points(prob_jumpy.h, 0.0, 2.0, 6)
    for t in ts:
        for x in xs:
            assert abs(sol.residual_numeric(t, x)) < 1e-6 * (1 + abs(sol(t, x)))


def test_worked_example_jump_rows(prob_jumpy):
    sol = solve_ivp(prob_jumpy, IVP_SPEC)
    for x in (0.0, 0.6, 1.1, 1.9):
        assert abs(sol.jump_residual_t(0.5, x)) < 1e-10
    for t in (0.0, 0.4, 0.8):
        assert abs(sol.jump_residual_x(t, 1.5)) < 1e-10
    with pytest.raises(DomainError):
        sol.jump_residual_t(0.3, 0.0)
    with pytest.raises(DomainError):
        sol.jump_residual_x(0.0, 1.0)


def test_negative_eigenvalue_stays_real(prob_jumpy):
    # conjugate routing: cosine terms (a = b real) and sine terms
    # (a = -b, imaginary) must produce exactly real u
    sol = general_solution(prob_jumpy, [(-1.3, 0.7, 0.7), (-0.4, -0.2j, 0.2j)])
    for t in (0.0, 0.5, 1.0):
        for x in (0.3, 1.5, 2.0):
            u = sol(t, x)
            assert isinstance(u, float)  # imag part tidied away exactly
    # and it matches the sin/cos assembly by hand
    s = math.sqrt(1.3)
    sn, cs = gsin_gcos(prob_jumpy.h, s, 0.9)
    w = gexp(prob_jumpy.g, -1.3 * 0.25, 0.0, 0.7)
    one = general_solution(prob_jumpy, [(-1.3, 0.7, 0.7)])
    assert one(0.7, 0.9) == pytest.approx(w * 1.4 * cs, rel=1e-12)


# a term with lam < 0 takes exp_h(-i sigma) as the conjugate of exp_h(i sigma);
# here the two are separate exponentials, at a random x and at every atom
@settings(max_examples=60, deadline=None)
@given(
    segment_chains(),
    st.floats(min_value=-30.0, max_value=-0.05, exclude_max=True),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False),
    st.data(),
)
def test_oscillatory_term_is_the_exponential_pair(h, lam, a, b, data):
    g = identity(0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # L = h.hi may end a flat stretch
        prob = HeatProblem(g, h, 0.7, 1.0, h.hi)
    sol = general_solution(prob, [(lam, a, b)])
    s = math.sqrt(-lam)
    t = data.draw(st.floats(min_value=0.0, max_value=1.0))
    w = gexp(g, lam * 0.49, 0.0, t)
    atoms = [x for x, _gap in h.atoms_in(0.0, h.hi)]
    for x in [data.draw(st.floats(min_value=0.0, max_value=h.hi))] + atoms:
        ep, em = gexp(h, 1j * s, 0.0, x), gexp(h, -1j * s, 0.0, x)
        want = w * (a * ep + b * em)
        assert abs(sol(t, x) - want) <= 1e-12 * (1.0 + abs(want))
        want = w * 1j * s * (a * ep - b * em)
        assert abs(sol.dhx_rule(t, x) - want) <= 1e-12 * (1.0 + abs(want))
    for x in atoms:
        assert abs(sol.jump_residual_x(t, x)) <= 1e-9 * (1.0 + abs(sol(t, x)))


@st.composite
def separated_terms(draw):
    """(lam, a, b) of each kind: lam > 0, real lam < 0 with conjugate
    coefficients, complex lam, and lam = 0 (a + b h(x))."""
    coef = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(["pos", "neg", "complex", "zero"]))
    if kind == "zero":
        return 0.0, draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    a = draw(coef)
    if kind == "pos":
        return draw(st.floats(0.05, 5.0)), a, draw(coef)
    if kind == "neg":
        return draw(st.floats(-5.0, -0.05)), a, a.conjugate()
    im = draw(st.floats(0.1, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return complex(draw(st.floats(-3.0, 3.0)), im), a, draw(coef)


def _per_term_sums(prob, terms, t, x):
    """The solution's values, rules and atom residuals summed term by term
    from gexp and gexp_right_limit, each exponential on its own."""
    g, h, c2 = prob.g, prob.h, prob.c**2

    def tidy(z):
        return z.real if isinstance(z, complex) and z.imag == 0.0 else z

    def w(lam, right=False):
        exp = gexp_right_limit if right else gexp
        return 1.0 if lam == 0 else exp(g, lam * c2, 0.0, t)

    def v_dv(lam, a, b, right=False):
        if lam == 0:
            return a + b * h.eval(x), b
        z = complex(lam)
        conj = z.imag == 0.0 and z.real < 0.0
        s = 1j * math.sqrt(-z.real) if conj else (
            math.sqrt(z.real) if z.imag == 0.0 else cmath.sqrt(z))
        exp = gexp_right_limit if right else gexp
        ep = exp(h, s, 0.0, x)
        em = ep.conjugate() if conj else exp(h, -s, 0.0, x)
        return a * ep + b * em, s * (a * ep - b * em)

    out = {
        "u": tidy(sum((w(lam) * v_dv(lam, a, b)[0] for lam, a, b in terms), 0.0)),
        "dgt": tidy(sum((lam * c2 * w(lam) * v_dv(lam, a, b)[0]
                         for lam, a, b in terms), 0.0)),
        "dhx": tidy(sum((w(lam) * v_dv(lam, a, b)[1] for lam, a, b in terms), 0.0)),
        "dhx2": tidy(sum((lam * w(lam) * v_dv(lam, a, b)[0]
                          for lam, a, b in terms), 0.0)),
    }
    gap = g.jump(t)
    if gap > 0.0:
        up = sum((w(lam, True) * v_dv(lam, a, b)[0] for lam, a, b in terms), 0.0)
        out["jump_t"] = tidy((up - out["u"]) / gap - c2 * out["dhx2"])
    gap = h.jump(x)
    if gap > 0.0:
        dplus = sum((w(lam) * v_dv(lam, a, b, True)[1] for lam, a, b in terms), 0.0)
        out["jump_x"] = tidy(out["dgt"] - c2 * ((dplus - out["dhx"]) / gap))
    return out


# every term reads one shared walk of g and of h; the sums must not move by
# a single bit from the term-by-term exponentials
@settings(max_examples=40, deadline=None)
@given(
    segment_chains(),
    segment_chains(),
    st.lists(separated_terms(), min_size=1, max_size=4),
    st.floats(min_value=0.2, max_value=1.5),
    st.data(),
)
def test_shared_walks_are_bit_identical_to_per_term_exponentials(g, h, terms, c, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # T, L may end a flat stretch
        prob = HeatProblem(g, h, c, g.hi, h.hi)
    sol = general_solution(prob, terms)

    def points(d):
        breaks = {s.lo for s in d.segments} | {d.hi}
        pts = sorted(p for p in breaks | {t for t, _ in d.atoms} if p >= 0.0)
        return [data.draw(st.floats(min_value=0.0, max_value=d.hi))] + pts

    for t in points(g):
        for x in points(h):
            want = _per_term_sums(prob, terms, t, x)
            got = {"u": sol(t, x), "dgt": sol.dgt_rule(t, x),
                   "dhx": sol.dhx_rule(t, x), "dhx2": sol.dhx2_rule(t, x)}
            if "jump_t" in want:
                got["jump_t"] = sol.jump_residual_t(t, x)
            if "jump_x" in want:
                got["jump_x"] = sol.jump_residual_x(t, x)
            assert {k: repr(z) for k, z in got.items()} == {
                k: repr(z) for k, z in want.items()}, (t, x)


# the slices the residual ladders differentiate take the fixed coordinate's
# factors once; values, residual rows and u-evaluation counts must not move
@settings(max_examples=25, deadline=None)
@given(
    segment_chains(),
    segment_chains(),
    st.lists(separated_terms(), min_size=1, max_size=4),
    st.floats(min_value=0.2, max_value=1.5),
    st.data(),
)
def test_slices_are_bit_identical_to_plain_evaluation(g, h, terms, c, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # T, L may end a flat stretch
        prob = HeatProblem(g, h, c, g.hi, h.hi)
    sol = general_solution(prob, terms)

    def points(d):
        breaks = {s.lo for s in d.segments} | {d.hi}
        return sorted(p for p in breaks | {t for t, _ in d.atoms} if p >= 0.0)

    t = data.draw(st.floats(min_value=0.0, max_value=g.hi))
    x = data.draw(st.floats(min_value=0.0, max_value=h.hi))
    ux, ys = sol.along_x(t), points(h) + [x]
    assert [repr(ux(y)) for y in ys] == [repr(sol(t, y)) for y in ys]
    ut, ss = sol.along_t(x), points(g) + [t]
    assert [repr(ut(s)) for s in ss] == [repr(sol(s, x)) for s in ss]
    sliced, plain = residual_both_routes(sol, t, x)
    assert sliced == plain


def test_worked_example_residual_rows_match_the_plain_route(prob_jumpy):
    sol = solve_ivp(prob_jumpy, IVP_SPEC)
    for t in regular_points(prob_jumpy.g, 0.0, 1.0, 3):
        for x in regular_points(prob_jumpy.h, 0.0, 2.0, 3):
            sliced, plain = residual_both_routes(sol, t, x)
            assert sliced == plain and 0 < sliced[1] <= 60


def test_lam0_only_solution_refuses_what_a_walk_refuses():
    ident = identity(0.0, 1.0)
    prob = HeatProblem(ident, ident, 1.0, 1.0, 1.0)
    still = general_solution(prob, [(0.0, 1.0, 2.0)])
    moving = general_solution(prob, [(0.0, 1.0, 2.0), (1.0, 1.0, 0.0)])
    with pytest.raises(DomainError):
        still(-7.0, 0.5)
    with pytest.raises(DomainError):
        still.dhx_rule(99.0, 42.0)

    def refused(sol, t, x):
        out = []
        for f in (sol, sol.dgt_rule, sol.dhx_rule, sol.dhx2_rule,
                  lambda t, x: sol.along_x(t)(x), lambda t, x: sol.along_t(x)(t)):
            try:
                f(t, x)
                out.append(False)
            except DomainError:
                out.append(True)
        return out

    pts = [-7.0, -1e-12, -0.0, 0.0, 0.5, 1.0, 1.0 + 1e-10, 1.0 + 1e-6, 99.0]
    for t in pts:
        for x in pts:
            want = refused(moving, t, x)
            assert refused(still, t, x) == want, (t, x)
            # both ends accept the derivators' fuzz of 2e-9 and read the end
            assert want == [not (-1e-9 <= t <= 1.0 + 1e-9 and -1e-9 <= x <= 1.0 + 1e-9)] * 6


def test_complex_eigenvalue_mode(prob_jumpy):
    lam = 0.5 + 0.8j
    sol = general_solution(prob_jumpy, [(lam, 1.0, 0.0)])
    s = cmath.sqrt(lam)
    for t, x in ((0.2, 0.4), (0.8, 1.7)):
        want = gexp(prob_jumpy.g, lam * 0.25, 0.0, t) * gexp(
            prob_jumpy.h, s, 0.0, x
        )
        assert sol(t, x) == pytest.approx(want, rel=1e-12)
    assert sol.residual_rule(0.2, 0.4) == 0.0


def test_ivp_rejects_zero_mode(prob_jumpy):
    with pytest.raises(DomainError):
        solve_ivp(prob_jumpy, {"a0": 0.0, "b0": 0.0, "modes": [(0.0, 1.0, 0.0)]})


def test_superposition_is_additive(prob_jumpy):
    s1 = general_solution(prob_jumpy, [(0.6, 2.0, 0.0)])
    s2 = general_solution(prob_jumpy, [(-0.9, 0.3, 0.3)])
    both = general_solution(prob_jumpy, [(0.6, 2.0, 0.0), (-0.9, 0.3, 0.3)])
    for t, x in ((0.1, 0.2), (0.7, 1.6), (1.0, 2.0)):
        assert both(t, x) == pytest.approx(s1(t, x) + s2(t, x), rel=1e-14)


# ---------------------------------------------------------------------------
# truncated series with diagnostics


def test_series_contracting(prob_jumpy):
    a = lambda n: 0.5**n
    b = lambda n: 0.0
    lam = lambda n: -float(n)
    sol, diag = series_solution(prob_jumpy, a, b, lam, N=12)
    assert diag.contracting
    assert diag.truncation == 12
    assert diag.value_tail < 0.1
    assert sol(0.0, 0.0) == pytest.approx(sum(0.5**n for n in range(13)))


def test_series_non_contracting_warns(prob_jumpy):
    a = lambda n: 1.1**n
    with pytest.warns(UserWarning, match="do not contract"):
        _, diag = series_solution(prob_jumpy, a, lambda n: 0.0, lambda n: -float(n), N=10)
    assert not diag.contracting


def test_series_divergent_coefficients_raise(prob_jumpy):
    a = lambda n: math.nan if n > 3 else 1.0
    with pytest.raises(DivergenceError):
        series_solution(prob_jumpy, a, lambda n: 0.0, lambda n: -float(n), N=6)


def test_series_of_list_streams_is_the_sum_of_its_terms(prob_jumpy):
    # index 0 is the affine term a0 + b0 h(x), index n a mode of eigenvalue lam[n]
    g, h, c2 = prob_jumpy.g, prob_jumpy.h, prob_jumpy.c**2
    a, b, lam = [1.0, 0.5, -0.05], [0.3, 0.2, 0.0], [0.0, -1.5, 0.4]
    sol, diag = series_solution(prob_jumpy, a, b, lam, N=2)
    assert diag.truncation == 2
    for t, x in ((0.0, 0.0), (0.3, 0.7), (0.5, 1.5), (1.0, 2.0)):
        want = a[0] + b[0] * h.eval(x)
        for n in (1, 2):
            s = cmath.sqrt(lam[n])
            v = a[n] * gexp(h, s, 0.0, x) + b[n] * gexp(h, -s, 0.0, x)
            want += gexp(g, lam[n] * c2, 0.0, t) * v
        assert abs(sol(t, x) - want) <= 1e-13 * (1.0 + abs(want))
    # a list shorter than N + 1 is zero past its end, and eigenvalue 0 is refused
    with pytest.raises(DomainError, match="lam_stream"):
        series_solution(prob_jumpy, a, b, lam, N=3)


def test_series_rejects_zero_eigenvalue(prob_jumpy):
    with pytest.raises(DomainError):
        series_solution(prob_jumpy, lambda n: 1.0, lambda n: 0.0, lambda n: 0.0, N=3)


# ---------------------------------------------------------------------------
# periodic machinery


def test_classical_periodic_eigenvalues(prob_classical):
    lams = find_periodic_eigenvalues(prob_classical, (-400.0, 0.0), count=4)
    want = [0.0] + [-((2 * math.pi * k) ** 2) for k in (1, 2, 3)]
    assert len(lams) == 4
    for got, ref in zip(lams, want):
        assert abs(got - ref) < 1e-9 * max(1.0, abs(ref))


def test_plateau_h_has_no_negative_eigenvalues(prob_jumpy):
    # the atom at 3/2 forces |exp_h(-is; 0, L)| > 1 for s != 0
    lams = find_periodic_eigenvalues(prob_jumpy, (-50.0, 0.0), count=5)
    assert lams == [0.0]


def test_eigenvalue_scan_rejects_bad_range(prob_classical):
    with pytest.raises(DomainError):
        find_periodic_eigenvalues(prob_classical, (0.0, 4.0))


@pytest.mark.parametrize("lam_range", [(math.nan, 0.0), (-math.inf, 0.0)])
def test_eigenvalue_scan_refuses_non_finite_range(prob_classical, lam_range):
    with pytest.raises(DomainError, match="finite"):
        find_periodic_eigenvalues(prob_classical, lam_range)


def _scan_grid(lam_range):
    """The oracle's log grid of s = sqrt(-lam), 2048 points per decade."""
    lam_lo, lam_hi = sorted(lam_range)
    s_max = math.sqrt(-lam_lo)
    s_min = math.sqrt(-lam_hi) if lam_hi < 0 else s_max * 1e-4
    n_grid = max(2, int(2048 * math.log10(s_max / s_min)) + 1)
    return np.geomspace(s_min, s_max, n_grid)


def _scalar_scan(problem, lam_range, count):
    """A grid scan, one scalar gate call per grid point and a bisection of
    each sign change of Im exp_h(-is; 0, L): the oracle for the phase
    bisection wherever h has measure on [0, L)."""
    out = [0.0] if max(lam_range) == 0 else []
    walk = problem.h.exp_data(0.0, problem.L)
    gate = heat1d._periodic_gate
    f = lambda s: gate(walk, s).imag

    def bisect(s1, s2, f1):
        while s2 - s1 > 1e-12:
            mid = 0.5 * (s1 + s2)
            fm = f(mid)
            if fm == 0.0:
                return mid
            if (f1 < 0) == (fm < 0):
                s1, f1 = mid, fm
            else:
                s2 = mid
        return 0.5 * (s1 + s2)

    grid = _scan_grid(lam_range)
    prev_s, prev_f = grid[0], f(grid[0])
    for s in grid[1:]:
        if len(out) >= count:
            break
        fs = f(s)
        root = None
        if fs == 0.0:
            root = s
        elif (prev_f < 0) != (fs < 0):
            root = bisect(prev_s, s, prev_f)
        if root is not None and abs(gate(walk, root) - 1.0) < 1e-9:
            out.append(float(-root * root))
        prev_s, prev_f = s, fs
    return out[:count]


def _affine_problem(a):
    """h(x) = a x on [0, 2], L = 1: roots s = 2 pi k / a."""
    h = Derivator.from_pieces([("affine", 0.0, 2.0, a, 0.0)])
    return HeatProblem(identity(0.0, 1.0), h, 1.0, 1.0, 1.0)


def _ks(lams, a):
    """The k of each eigenvalue -(2 pi k / a)^2, rounded to 1e-6."""
    return [round(math.sqrt(-lam) * a / (2 * math.pi), 6) for lam in lams]


@settings(max_examples=40, deadline=None)
@given(
    st.booleans().flatmap(lambda atoms: segment_chains(atoms=atoms)),
    st.floats(min_value=0.3, max_value=1.0),
    st.floats(min_value=0.5, max_value=4.5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=8),
)
def test_phase_scan_matches_the_scalar_scan(h, frac, top, decades, count):
    # lam_hi = 0 when decades is 0, else lam spans 1-5 decades below -10^top
    L = frac * h.hi
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # L at the end of a rest
        prob = HeatProblem(identity(0.0, 1.0), h, 1.0, 1.0, L)
    lam_range = (-(10.0**top), -(10.0 ** (top - decades)) if decades else 0.0)
    got = find_periodic_eigenvalues(prob, lam_range, count=count)
    atoms, cont = h.exp_data(0.0, L)
    if not atoms and cont == 0.0:
        # z = 1 for every s: only lam = 0 is listed, where the range allows
        assert got == ([0.0] if decades == 0 else [])
        return
    want = _scalar_scan(prob, lam_range, count)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-9 * abs(w)


def test_phase_scan_count_zero_is_empty(prob_classical):
    assert find_periodic_eigenvalues(prob_classical, (-400.0, 0.0), count=0) == []


def test_phase_scan_of_h_without_measure_on_0_L():
    # h is flat on [0, 1]: exp_h(-is; 0, 1) = 1 for every s, and only
    # lam = 0 is listed, not every s of the range
    h = Derivator.from_pieces([("flat", 0.0, 1.0, 0.0), ("affine", 1.0, 2.0, 1.0, -1.0)])
    prob = HeatProblem(identity(0.0, 1.0), h, 1.0, 1.0, 1.0)
    assert find_periodic_eigenvalues(prob, (-400.0, 0.0), count=8) == [0.0]
    assert find_periodic_eigenvalues(prob, (-400.0, -1.0), count=8) == []


def test_phase_scan_returns_for_roots_past_float_resolution():
    # at s near 1e4 adjacent floats are about 1.8e-12 apart, so a bisection
    # that waits for a 1e-12 bracket never ends; run it in its own process
    code = (
        "from stieltjes_heat import HeatProblem, identity, find_periodic_eigenvalues\n"
        "p = HeatProblem(identity(0.0, 2.0), identity(0.0, 2.0), 1.0, 1.0, 1.0)\n"
        "print(*map(repr, find_periodic_eigenvalues(p, (-1e9, -1e8), count=2)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(heat1d.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    got = [float(v) for v in out.stdout.split()]
    want = [-((2 * math.pi * k) ** 2) for k in (1592, 1593)]
    assert len(got) == 2
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-9 * abs(w)


def test_phase_scan_finds_the_first_root_near_zero():
    # h = 1000 x puts k = 1 at s = 2 pi / 1000, below 1e-4 of s_max = 100,
    # where the oracle's grid starts
    got = find_periodic_eigenvalues(_affine_problem(1000.0), (-1e4, 0.0), count=8)
    assert _ks(got, 1000.0) == [float(k) for k in range(8)]


def test_phase_scan_keeps_roots_closer_than_a_grid_step():
    # h = 100 x spaces the roots 2 pi / 100 apart in s, closer than the
    # oracle's grid steps near s = 1000-3162
    got = find_periodic_eigenvalues(_affine_problem(100.0), (-1e7, -1e6), count=8)
    assert _ks(got, 100.0) == [float(k) for k in range(15916, 15924)]


def test_phase_scan_lists_a_root_on_a_grid_point_once():
    # h is flat at 0, jumps by g at 1/2 and rises with slope a from 0.6, so
    # with mu = 0.4 a and y = -s mu, Im exp_h(-is; 0, 1) = sin y - (s g) cos y.
    # At the oracle's grid point s nearest 2 pi, a puts y just above -2 pi
    # and g is tuned by ulps until the scalar gate reads exactly 0.0 there;
    # the oracle lists that root twice
    def h_of(a, g):
        return Derivator.from_pieces([
            ("flat", 0.0, 0.5, 0.0),
            ("flat", 0.5, 0.6, g),
            ("affine", 0.6, 2.0, a, g - 0.6 * a),
        ])

    lam_range = (-400.0, 0.0)
    grid = _scan_grid(lam_range)
    s = grid[int(np.searchsorted(grid, 2 * math.pi))]
    g = 1e-11
    a = (2 * math.pi - s * g) / (0.4 * s)
    found = None
    for _ in range(5):
        g = math.sin(-(s * h_of(a, g).exp_data(0.0, 1.0)[1])) / s
        for step in (0, 1, -1, 2, -2, 3, -3):
            gg = g
            for _ in range(abs(step)):
                gg = math.nextafter(gg, math.copysign(math.inf, step))
            walk = h_of(a, gg).exp_data(0.0, 1.0)
            if heat1d._periodic_gate(walk, s).imag == 0.0:
                found = gg
                break
        if found is not None:
            break
    assert found is not None
    prob = HeatProblem(identity(0.0, 1.0), h_of(a, found), 1.0, 1.0, 1.0)
    got = find_periodic_eigenvalues(prob, lam_range, count=8)
    assert len(set(got)) == len(got) == 4
    assert sum(abs(lam + s * s) <= 1e-9 * s * s for lam in got) == 1


def test_periodic_solution_classical(prob_classical):
    lam = -((2 * math.pi) ** 2)
    sol = periodic_solution(prob_classical, lam)
    for t in (0.0, 0.3, 0.9):
        assert abs(sol(t, 0.0) - sol(t, 1.0)) < 1e-6
        assert abs(sol.dhx_rule(t, 0.0) - sol.dhx_rule(t, 1.0)) < 1e-6
    # residual in rule form is identically zero
    assert abs(sol.residual_rule(0.4, 0.6)) < 1e-12


def test_periodic_solution_gates_non_eigenvalue(prob_classical):
    with pytest.raises(GateError):
        periodic_solution(prob_classical, -10.0)
    with pytest.raises(DomainError):
        periodic_solution(prob_classical, 3.0)


def test_periodic_lam_zero_is_constant(prob_classical):
    sol = periodic_solution(prob_classical, 0.0)
    assert sol(0.3, 0.7) == 1.0


def test_periodic_numeric_residual_rows_all_succeed(prob_classical):
    # the numeric quotients step past x = L; the closed form is defined on
    # the whole driver domain, so every row of the 7x7 grid answers
    sol = periodic_solution(prob_classical, -((2 * math.pi) ** 2))
    ts = regular_points(prob_classical.g, 0.0, prob_classical.T, 7)
    xs = regular_points(prob_classical.h, 0.0, prob_classical.L, 7)
    worst = max(
        abs(sol.residual_numeric(t, x)) / (1.0 + abs(sol(t, x))) for t in ts for x in xs
    )
    assert worst <= 1e-6


# at s = 2 pi k / mu_h([0, L)) the Euler path of the oracle needs mu well
# away from 0 (about 1e-6 at mu = 0.07), hence the floor of 0.5
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(segment_chains(atoms=False), st.sampled_from([1, 2]), st.data())
def test_periodic_closed_form_matches_the_ode_oracle(h, k, data):
    L = h.hi
    mu = h.measure(0.0, L)
    assume(mu >= 0.5)
    s = 2 * math.pi * k / mu
    prob = HeatProblem(identity(0.0, 1.0), h, 1.0, 1.0, L)
    sol = periodic_solution(prob, -s * s)
    # v'_h - is v = exp_h(-is; 0, .), the forcing written out for an
    # atom-free h so that the oracle shares no code with special.gexp
    h0 = h.eval(0.0)
    oracle = solve_periodic_first_order(
        h, -1j * s, lambda x: cmath.exp(-1j * s * (h.eval(x) - h0)), L
    )
    xs = [0.0, L, data.draw(st.floats(min_value=0.0, max_value=L))]
    xs += [seg.lo for seg in h.segments if 0.0 < seg.lo < L]
    for x in xs:
        want = oracle(x)
        assert abs(sol(0.0, x) - want) <= 1e-8 * (1.0 + abs(want))
        want = oracle.derivative(x)
        assert abs(sol.dhx_rule(0.0, x) - want) <= 1e-8 * (1.0 + abs(want))


# ---------------------------------------------------------------------------
# Dirichlet and Neumann gates and collapses


# the gates read z = exp_h(i s; 0, L) = cos_h(L) + i sin_h(L) in closed form;
# s mu is k pi within a few ulps, so sin_h(L) is far below the 1e-9 gate
@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(segment_chains(atoms=False), st.integers(min_value=1, max_value=20))
def test_gates_admit_the_closed_form_zeros_and_refuse_the_midpoints(h, k):
    L = h.hi
    mu = h.measure(0.0, L)
    assume(mu >= 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # L at the end of a rest
        prob = HeatProblem(identity(0.0, 1.0), h, 1.0, 1.0, L)
    s = k * math.pi / mu
    sol = dirichlet_solution(prob, -s * s, a=1.0)
    assert abs(sol(0.0, L)) < 1e-9
    # the Neumann flux vanishes at L with sin_h(L): odd k give cos_h(L) = -1
    sol = neumann_solution(prob, -s * s, b=1.0)
    assert abs(sol(0.0, L) - (-1.0) ** k) < 1e-9
    s = (k + 0.5) * math.pi / mu
    with pytest.raises(GateError):
        dirichlet_solution(prob, -s * s, a=1.0)
    with pytest.raises(GateError):
        neumann_solution(prob, -s * s, b=1.0)


# with atoms in (0, L) the zeros of sin_h(L) are the roots of the phase
# phi(s) = s mu_c + sum atan(s gap), here read off h's segments and atoms.
# The scan ends at the first root its gate refuses; the gate reads
# |sin_h(L)| < 1e-9 absolutely, while a root bisected to a 1e-12 bracket
# carries up to |z| phi'(s) 5e-13 of it, |z| = prod (1 + s^2 gap^2)^(1/2)
# (three unit atoms near s = 16 below), so past 1e-9 an eigenvalue may be
# refused (ROADMAP item 16)
_THREE_UNIT_ATOMS = {
    "segments": [
        {"from": 0.0, "to": 0.9359012997739391, "kind": "flat", "level": 0.0},
        {"from": 0.9359012997739391, "to": 1.685901299773939, "kind": "affine",
         "slope": 0.596499457703408, "intercept": 0.4417353822209307},
        {"from": 1.685901299773939, "to": 1.9897633464484334, "kind": "affine",
         "slope": 0.8158397270908485, "intercept": 1.0719493369678785},
        {"from": 1.9897633464484334, "to": 2.989753346448434, "kind": "flat",
         "level": 3.695277322509742}],
    "atoms": [{"t": 0.9359012997739391, "gap": 1.0}, {"t": 1.685901299773939, "gap": 1.0},
              {"t": 1.9897633464484334, "gap": 1.0}]}


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(segment_chains(atoms=True), st.integers(min_value=1, max_value=6))
@example(Derivator.from_json(_THREE_UNIT_ATOMS), 5)
def test_gates_admit_the_phase_roots_with_interior_atoms_and_refuse_the_midpoints(h, count):
    h = from_zero(h)
    L = h.hi
    mu_c = sum(seg.slope * (seg.hi - seg.lo) for seg in h.segments)
    assume(mu_c >= 0.5)
    phi = lambda s: s * mu_c + sum(math.atan(s * gap) for _, gap in h.atoms)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # L at the end of a rest
        prob = HeatProblem(identity(0.0, 1.0), h, 1.0, 1.0, L)
    # phi(s) >= s mu_c: the range holds at least count + 1 roots
    s_hi = (count + 1) * math.pi / mu_c
    roots = [math.sqrt(-lam) for lam in find_boundary_eigenvalues(prob, (-s_hi * s_hi, 0.0),
                                                                   count=count)]
    assert len(roots) <= count
    for m, s in enumerate(roots, start=1):
        assert abs(phi(s) - m * math.pi) <= 1e-9
        dirichlet_solution(prob, -s * s, a=1.0)
        neumann_solution(prob, -s * s, b=1.0)
    for a, b in zip([0.0] + roots, roots):
        s = 0.5 * (a + b)
        with pytest.raises(GateError):
            dirichlet_solution(prob, -s * s, a=1.0)
        with pytest.raises(GateError):
            neumann_solution(prob, -s * s, b=1.0)
    if len(roots) < count:
        # the next root, to adjacent floats: its bracket's reach exceeds the gate
        m, a, b = len(roots) + 1, (roots or [0.0])[-1], s_hi
        while a < (mid := 0.5 * (a + b)) < b:
            a, b = (mid, b) if phi(mid) < m * math.pi else (a, mid)
        z = math.prod(math.hypot(1.0, a * gap) for _, gap in h.atoms)
        dphi = mu_c + sum(gap / (1.0 + (a * gap) ** 2) for _, gap in h.atoms)
        assert z * dphi * 5e-13 > 1e-9


def test_gates_admit_high_classical_modes(prob_classical):
    # k pi for k up to 16: the monomial series these gates once summed
    # refused them on rounding, with |sin_h(L)| below 2e-15
    for k in (8, 10, 12, 16):
        lam = -((k * math.pi) ** 2)
        dirichlet_solution(prob_classical, lam, a=1.0)
        neumann_solution(prob_classical, lam, b=1.0)


def test_gates_refuse_non_negative_and_non_real_eigenvalues(prob_classical):
    for lam in (0.0, 4.0, math.nan, -math.inf, complex(-1.0, 0.5), complex(-1.0, 0.0)):
        with pytest.raises(DomainError):
            dirichlet_solution(prob_classical, lam, a=1.0)
        with pytest.raises(DomainError):
            neumann_solution(prob_classical, lam, b=1.0)


def test_dirichlet_classical_collapse(prob_classical):
    lam = -(math.pi**2)
    sol = dirichlet_solution(prob_classical, lam, a=1.5)
    for t in (0.0, 0.4, 1.0):
        for x in (0.0, 0.25, 0.7, 1.0):
            want = 1.5 * math.exp(lam * t) * math.sin(math.pi * x)
            assert sol(t, x) == pytest.approx(want, abs=1e-9)


def test_dirichlet_gates_non_eigenvalue(prob_classical):
    with pytest.raises(GateError):
        dirichlet_solution(prob_classical, -2.0, a=1.0)


def test_neumann_classical_collapse(prob_classical):
    lam = -((2 * math.pi) ** 2)
    sol = neumann_solution(prob_classical, lam, b=0.75)
    for t in (0.0, 0.5, 1.0):
        for x in (0.0, 0.3, 1.0):
            want = 0.75 * math.exp(lam * t) * math.cos(2 * math.pi * x)
            assert sol(t, x) == pytest.approx(want, abs=1e-9)
        # flux vanishes at both walls
        assert abs(sol.dhx_rule(t, 0.0)) < 1e-9
        assert abs(sol.dhx_rule(t, 1.0)) < 1e-9


def test_neumann_gates_wrong_eigenvalue(prob_classical):
    # -2 leaves sin_h(1) = sin(sqrt 2) far from 0: the flux at L does not vanish
    with pytest.raises(GateError, match="sin_h"):
        neumann_solution(prob_classical, -2.0, b=1.0)


def test_neumann_admits_the_odd_classical_modes(prob_classical):
    # u = e^(-(k pi)^2 t) cos(k pi x) has zero flux at x = 0 and 1 for odd k too,
    # where cos_h(1) = -1
    for k in (1, 3, 5):
        lam = -((k * math.pi) ** 2)
        sol = neumann_solution(prob_classical, lam, b=1.0)
        for t in (0.0, 0.1):
            for x in (0.0, 0.3, 1.0):
                want = math.exp(lam * t) * math.cos(k * math.pi * x)
                assert sol(t, x) == pytest.approx(want, abs=1e-9)
            assert abs(sol.dhx_rule(t, 0.0)) < 1e-9
            assert abs(sol.dhx_rule(t, 1.0)) < 1e-9


def _root(f, lo, hi):
    """A root of f in [lo, hi], f(lo) < 0 < f(hi) or the reverse, by bisection."""
    assert f(lo) * f(hi) < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if f(lo) * f(mid) <= 0 else (mid, hi)
    return lo


def test_neumann_gate_with_an_interior_atom_reads_the_sine():
    # with an interior atom cos_h^2 + sin_h^2 is not 1: where cos_h(L) = 1,
    # sin_h(L) is far from 0 and the flux -s b w sin_h(L) at L does not
    # vanish (refused); where sin_h(L) = 0, cos_h(L) is not 1 and the flux
    # vanishes at both walls (admitted)
    h = Derivator.from_pieces([("affine", 0.0, 0.5, 1.0, 0.0), ("affine", 0.5, 1.0, 1.0, 0.5)])
    prob = HeatProblem(identity(0.0, 1.0), h, 1.0, 1.0, 1.0)
    s = _root(lambda s: gsin_gcos(h, s, 1.0)[1] - 1.0, 4.0, 5.5)
    sin_L, cos_L = gsin_gcos(h, s, 1.0)
    assert abs(cos_L - 1.0) < 1e-9 and abs(sin_L) > 0.1
    with pytest.raises(GateError, match="sin_h"):
        neumann_solution(prob, -s * s, b=1.0)
    s = _root(lambda s: gsin_gcos(h, s, 1.0)[0], 1.5, 2.5)
    assert abs(gsin_gcos(h, s, 1.0)[1] - 1.0) > 0.1
    sol = neumann_solution(prob, -s * s, b=1.0)
    for t in (0.0, 0.5, 1.0):
        assert abs(sol.dhx_rule(t, 0.0)) < 1e-9 and abs(sol.dhx_rule(t, 1.0)) < 1e-9


def test_boundary_eigenvalues_classical(prob_classical):
    # lam = -(m pi / L)^2, m >= 1, each solved by both modes
    got = find_boundary_eigenvalues(prob_classical, (-((8.5 * math.pi) ** 2), 0.0))
    assert len(got) == 8
    for m, lam in enumerate(got, start=1):
        assert lam == pytest.approx(-((m * math.pi) ** 2), rel=1e-9)
        dirichlet_solution(prob_classical, lam, a=1.0)
        neumann_solution(prob_classical, lam, b=1.0)
    # the range's upper end and the count cut the list
    lam_range = (-((8.5 * math.pi) ** 2), -((1.5 * math.pi) ** 2))
    assert find_boundary_eigenvalues(prob_classical, lam_range, count=3) == pytest.approx(
        [-((m * math.pi) ** 2) for m in (2, 3, 4)], rel=1e-9)


def test_boundary_eigenvalues_with_an_interior_atom():
    # the zeros of sin_h(s; 0, 1), found here from the sign changes of
    # gsin_gcos on a grid of s, are not m pi / mu: each solves both modes,
    # and the midpoints between them are refused
    h = Derivator.from_pieces([("affine", 0.0, 0.5, 1.0, 0.0), ("affine", 0.5, 1.0, 1.0, 0.5)])
    prob = HeatProblem(identity(0.0, 1.0), h, 1.0, 1.0, 1.0)
    got = find_boundary_eigenvalues(prob, (-400.0, 0.0), count=20)
    sin = lambda s: gsin_gcos(h, s, 1.0)[0]
    grid = [0.01 * k for k in range(1, 2001)]
    want = [_root(sin, a, b) for a, b in zip(grid, grid[1:]) if sin(a) * sin(b) < 0]
    assert len(got) == len(want) == 6
    for lam, s in zip(got, want):
        assert math.sqrt(-lam) == pytest.approx(s, abs=1e-9)
        assert abs(s / math.pi - round(s / math.pi)) > 0.05  # not the atom-free roots
        dirichlet_solution(prob, lam, a=1.0)
        neumann_solution(prob, lam, b=1.0)
    for a, b in zip(got, got[1:]):
        with pytest.raises(GateError):
            dirichlet_solution(prob, 0.5 * (a + b), a=1.0)
        with pytest.raises(GateError):
            neumann_solution(prob, 0.5 * (a + b), b=1.0)


def test_classical_ivp_is_textbook():
    prob = HeatProblem(identity(0.0, 1.0), identity(0.0, 1.0), 1.0, 1.0, 1.0)
    sol = solve_ivp(prob, {"a0": 0.0, "b0": 0.0, "modes": [(-math.pi**2, 0.5, 0.5)]})
    for t in (0.0, 0.2, 0.8):
        for x in (0.1, 0.5, 0.9):
            want = math.exp(-math.pi**2 * t) * math.cos(math.pi * x)
            assert sol(t, x) == pytest.approx(want, abs=1e-9)


def test_problem_validation():
    with pytest.raises(DomainError):
        HeatProblem(identity(0.0, 1.0), identity(0.0, 1.0), -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        HeatProblem(identity(0.0, 0.5), identity(0.0, 1.0), 1.0, 1.0, 1.0)
    with pytest.warns(UserWarning, match="jump/constancy"):
        from stieltjes_heat import Derivator

        g = Derivator.from_pieces(
            [("affine", 0.0, 1.0, 1.0, 0.0), ("affine", 1.0, 2.0, 1.0, 2.0)]
        )
        HeatProblem(g, identity(0.0, 1.0), 1.0, 1.0, 1.0)


def test_endpoint_warning_points_at_the_line_that_builds_the_problem():
    # T at the atom of g: the warning names this file, not the record's own code
    g = Derivator.from_pieces([("affine", 0.0, 1.0, 1.0, 0.0), ("affine", 1.0, 2.0, 1.0, 0.5)])
    with pytest.warns(UserWarning, match="T=1.0 lies in the jump/constancy set") as seen:
        HeatProblem(g, identity(0.0, 2.0), 1.0, 1.0, 1.0)
    assert [w.filename for w in seen] == [__file__]

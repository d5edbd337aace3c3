"""Two-variable derivators: monomials, gated series, product case."""

import cmath
import math
import pathlib
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import from_zero, gpoly_bilinear, residual_both_routes, segment_chains
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import G_mn_recursion, solve_second_order

from stieltjes_heat import (
    DivergenceError,
    DomainError,
    G_mn,
    GateError,
    GPolySolution,
    MonomialTable,
    NonConvergenceError,
    Derivator,
    ProductDerivator,
    SpaceFactor,
    SumDerivator,
    classical_heat_polynomial,
    gderiv,
    gderiv2,
    gexp,
    gpoly_series_solution,
    heat_gpoly,
    GPolyContext,
    identity,
    independence_determinant,
    iterated_integral,
    load_problem,
    radius_sigma,
    regular_points,
    solve,
    solve_product_case,
)

SPECS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "specs"
INV_SQRT_FACT = lambda n: math.exp(-0.5 * math.lgamma(n + 1))


@pytest.fixture(scope="session")
def sum_fixtures(jump_g, plateau_h, ident, mixed):
    # evaluation points cross the atoms while keeping G_mn magnitudes O(1)
    return [
        (SumDerivator(jump_g, plateau_h), 0.7, 0.9),
        (SumDerivator(ident, ident), 1.1, 0.9),
        (SumDerivator(jump_g, mixed), 0.6, 0.8),
    ]


def test_recursion_matches_product_form(sum_fixtures):
    for G, t, x in sum_fixtures:
        for m in range(6):
            for n in range(6):
                exact = G_mn(m, n, t, x, G)
                rec = G_mn_recursion(m, n, t, x, G, mesh=1.25e-4)
                assert abs(rec - exact) < 1e-10, (m, n, rec, exact)


def test_low_order_monomials_by_hand(jump_g, plateau_h):
    G = SumDerivator(jump_g, plateau_h)
    t, x = 0.7, 0.9
    gbar = jump_g.measure(0.0, t)
    hbar = plateau_h.measure(0.0, x)
    assert G_mn(0, 0, t, x, G) == 1.0
    assert G_mn(1, 0, t, x, G) == pytest.approx(gbar, rel=1e-14)
    assert G_mn(0, 1, t, x, G) == pytest.approx(hbar, rel=1e-14)
    assert G_mn(2, 3, t, x, G) == pytest.approx(
        G_mn(2, 0, t, x, G) * G_mn(0, 3, t, x, G), rel=1e-13
    )


def test_iterated_integral_commutes(sum_fixtures):
    # Fubini for the separated integrand H = (s + 1)(y^2 + 1); IK = KI within
    # twice the quadrature tolerance
    H = lambda s, y: (s + 1.0) * (y * y + 1.0)
    tol = 1e-10
    for G, t, x in sum_fixtures:
        ik = iterated_integral(H, t, x, G, order="IK", tol=tol)
        ki = iterated_integral(H, t, x, G, order="KI", tol=tol)
        assert abs(ik - ki) <= 2.0 * tol * (1.0 + abs(ik))


def test_iterated_integral_requires_sum(jump_g):
    shifted = identity(0.0, 2.0)
    G = ProductDerivator(
        shifted.shift_up(1.0) if hasattr(shifted, "shift_up") else _one_plus(),
        _one_plus(),
    )
    with pytest.raises(TypeError):
        iterated_integral(lambda s, y: 1.0, 0.5, 0.5, G, order="IK")


def _one_plus():
    from stieltjes_heat import Derivator

    return Derivator.from_pieces([("affine", 0.0, 2.0, 1.0, 1.0)])


# ---------------------------------------------------------------------------
# heat G-polynomial ladders


def test_gpoly_ladders_numeric(jump_g, plateau_h):
    G = SumDerivator(jump_g, plateau_h)
    from stieltjes_heat import GPolyContext

    ctx = GPolyContext(G, 0.5)
    c2 = 0.25
    ts = regular_points(jump_g, 0.0, 1.2, 3)
    xs = regular_points(plateau_h, 0.0, 2.2, 3)
    for n in range(1, 9):
        for t in ts:
            for x in xs:
                vx = gderiv(lambda y: heat_gpoly(n, t, y, ctx), x, plateau_h)
                want_x = n * heat_gpoly(n - 1, t, x, ctx)
                assert abs(vx - want_x) < 1e-6 * (1.0 + abs(want_x))
                vt = gderiv(lambda s: heat_gpoly(n, s, x, ctx), t, jump_g)
                want_t = c2 * n * (n - 1) * heat_gpoly(n - 2, t, x, ctx) if n >= 2 else 0.0
                assert abs(vt - want_t) < 1e-6 * (1.0 + abs(want_t))


def test_gpoly_second_ladder(jump_g, plateau_h):
    G = SumDerivator(jump_g, plateau_h)
    ctx = GPolyContext(G, 0.5)
    t = 0.8
    for n in range(2, 7):
        for x in (0.4, 1.8):
            d2 = gderiv2(lambda y: heat_gpoly(n, t, y, ctx), x, plateau_h)
            want = n * (n - 1) * heat_gpoly(n - 2, t, x, ctx)
            assert abs(d2 - want) < 1e-5 * (1.0 + abs(want))


def test_classical_heat_polynomials_exact():
    G = SumDerivator(identity(0.0, 2.0), identity(0.0, 2.0))
    ctx = GPolyContext(G, 1.0)
    for t in (0.0, 0.5, 1.3):
        for x in (0.0, 0.7, 1.9):
            assert heat_gpoly(2, t, x, ctx) == pytest.approx(x * x + 2 * t, rel=1e-15)
            assert heat_gpoly(3, t, x, ctx) == pytest.approx(
                x**3 + 6 * t * x, rel=1e-15
            )
            for n in range(6):
                assert heat_gpoly(n, t, x, ctx) == pytest.approx(
                    classical_heat_polynomial(n, t, x), rel=1e-13
                )


def test_gpoly_reduces_to_space_monomial_at_t0(jump_g, plateau_h):
    from stieltjes_heat import g_monomial

    G = SumDerivator(jump_g, plateau_h)
    ctx = GPolyContext(G, 0.5)
    for n in range(7):
        for x in (0.3, 1.2, 2.1):
            assert heat_gpoly(n, 0.0, x, ctx) == pytest.approx(
                g_monomial(plateau_h, n, 0.0, x), rel=1e-14
            )


def test_gpoly_bounded_by_classical(jump_g, plateau_h):
    # 0 <= v_n^G(t, x) <= v_n classical at (gbar, hbar): the monomial bounds
    # g_m <= gbar^m, h_n <= hbar^n transfer termwise
    G = SumDerivator(jump_g, plateau_h)
    ctx = GPolyContext(G, 0.5)
    for n in range(9):
        for t, x in ((0.3, 0.8), (0.7, 1.3), (1.1, 2.2)):
            v = heat_gpoly(n, t, x, ctx)
            cap = classical_heat_polynomial(
                n, 0.25 * jump_g.measure(0.0, t), plateau_h.measure(0.0, x)
            )
            assert -1e-12 <= v <= cap * (1 + 1e-12) + 1e-12


def test_gpoly_large_order_stays_finite(jump_g, plateau_h):
    # the log-space fallback must keep huge factorials out of overflow
    G = SumDerivator(jump_g, plateau_h)
    ctx = GPolyContext(G, 0.5)
    v = heat_gpoly(300, 1.2, 2.3, ctx)
    assert math.isfinite(v) and v > 0.0


# ---------------------------------------------------------------------------
# radius estimates


def test_radius_inverse_sqrt_factorial():
    rep = radius_sigma(INV_SQRT_FACT, n_probe=200)
    assert 0.475 <= rep.sigma <= 0.525
    assert rep.sigma_gate <= rep.sigma
    assert rep.trend in ("converged", "increasing")


def test_radius_finite_support_is_infinite():
    rep = radius_sigma([1.0, -2.0, 0.5, 3.0], n_probe=120)
    assert rep.sigma == math.inf
    assert rep.sigma_gate == math.inf


def test_radius_growing_coefficients_shrink_sigma():
    rep = radius_sigma(lambda n: 2.0**n, n_probe=120)
    assert rep.trend == "increasing"
    assert rep.sigma < 0.01


def test_radius_rejects_short_probe():
    with pytest.raises(DomainError):
        radius_sigma(lambda n: 1.0, n_probe=4)


# ---------------------------------------------------------------------------
# gated series solution


@pytest.fixture(scope="session")
def gated(jump_g, plateau_h):
    G = SumDerivator(jump_g, plateau_h)
    sol, gate = gpoly_series_solution(
        G, INV_SQRT_FACT, c=1.0, T=0.2, L=2.3, N=40
    )
    return G, sol, gate


def test_gate_passes_inside_radius(gated):
    _, sol, gate = gated
    assert gate.ok
    assert gate.g_T == pytest.approx(0.2)
    assert gate.g_T < gate.sigma_gate / gate.c**2
    assert math.isfinite(gate.tail_bound) and gate.tail_bound > 0.0


def test_tail_bound_shrinks_with_truncation(jump_g, plateau_h):
    G = SumDerivator(jump_g, plateau_h)
    tails = []
    for N in (20, 40, 80):
        _, gate = gpoly_series_solution(G, INV_SQRT_FACT, c=1.0, T=0.2, L=2.3, N=N)
        tails.append(gate.tail_bound)
    assert tails[0] > tails[1] > tails[2]
    assert tails[2] < 1e-3 * tails[0]


def test_gated_series_residual(gated):
    G, sol, _ = gated
    # the ladder structure makes the rule residual vanish identically
    for t, x in ((0.05, 0.4), (0.15, 1.9)):
        assert sol.residual_rule(t, x) == 0.0
    ts = regular_points(G.g, 0.0, 0.2, 4)
    xs = regular_points(G.h, 0.0, 2.3, 4)
    for t in ts:
        for x in xs:
            r = sol.residual_numeric(t, x)
            assert abs(r) < 1e-5 * (1.0 + abs(sol(t, x)))


def test_gate_fires_when_T_grows(jump_g, plateau_h):
    G = SumDerivator(jump_g, plateau_h)
    with pytest.raises(GateError, match="gate violated"):
        gpoly_series_solution(G, INV_SQRT_FACT, c=1.0, T=1.4, L=2.3, N=40)


def test_gate_refuses_oscillating_trend(jump_g, plateau_h):
    G = SumDerivator(jump_g, plateau_h)
    osc = lambda n: 2.0**n if n % 2 == 0 else 1e-3**1  # wild alternation
    with pytest.raises(GateError, match="oscillates"):
        gpoly_series_solution(G, osc, c=1.0, T=0.1, L=1.0, N=10)


def test_non_finite_coefficients_raise(jump_g, plateau_h):
    G = SumDerivator(jump_g, plateau_h)
    bad = lambda n: math.inf if n == 3 else 1.0 / math.factorial(n)
    with pytest.raises(DivergenceError):
        gpoly_series_solution(G, bad, c=1.0, T=0.1, L=1.0, N=10)


def test_initial_slice_is_space_series(gated, plateau_h):
    # u(0, x) = sum alpha_n h_n(x): the time factor of every ladder term
    # vanishes at t = 0 except the pure space monomial
    from stieltjes_heat import g_monomial

    _, sol, _ = gated
    for x in (0.3, 1.1, 2.2):
        want = sum(
            INV_SQRT_FACT(n) * g_monomial(plateau_h, n, 0.0, x) for n in range(41)
        )
        assert sol(0.0, x) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# coefficient law


def test_coefficient_law_is_exact(gated):
    _, sol, _ = gated
    c = 1.0
    for m in range(4):
        for n in range(5):
            a = sol.a_mn(m, n)
            alpha = INV_SQRT_FACT(n + 2 * m)
            want = (
                Fraction(c) ** (2 * m)
                * Fraction(
                    math.factorial(n + 2 * m),
                    math.factorial(n) * math.factorial(m),
                )
                * Fraction(alpha)
            )
            assert a == want  # exact rational equality


def test_coefficient_recurrence(gated):
    # a_{m+1,n} = c^2 (n+2)(n+1)/(m+1) a_{m,n+2}, exactly in Fraction space
    _, sol, _ = gated
    for m in range(3):
        for n in range(4):
            lhs = sol.a_mn(m + 1, n)
            rhs = Fraction(n + 2) * Fraction(n + 1) / Fraction(m + 1) * sol.a_mn(m, n + 2)
            assert lhs == rhs


def test_coefficients_vanish_beyond_truncation(gated):
    _, sol, _ = gated
    assert sol.a_mn(21, 0) == Fraction(0)
    assert sol.a_mn(0, 41) == Fraction(0)


def test_complex_coefficients_supported(jump_g, plateau_h):
    G = SumDerivator(jump_g, plateau_h)
    alpha = lambda n: (1.0 + 0.5j) * math.exp(-math.lgamma(n + 1))
    sol, gate = gpoly_series_solution(G, alpha, c=1.0, T=0.3, L=1.0, N=12)
    assert gate.sigma == math.inf
    a = sol.a_mn(1, 1)
    assert isinstance(a, complex)
    assert a == pytest.approx(6.0 * alpha(3), rel=1e-12)  # (1+2)!/(1!1!) = 6
    u = sol(0.1, 0.5)
    assert isinstance(u, complex) and u.imag != 0.0


@pytest.mark.parametrize("phase", [1.0, 1.0 + 0.5j])
def test_gpoly_slices_are_bit_identical_to_plain_evaluation(jump_g, plateau_h, phase):
    G = SumDerivator(jump_g, plateau_h)
    sol, _ = gpoly_series_solution(G, lambda n: phase * INV_SQRT_FACT(n),
                                   c=1.0, T=0.2, L=2.3, N=40)
    ts = [0.0] + regular_points(jump_g, 0.0, 0.2, 3) + [0.2]
    xs = [0.0] + regular_points(plateau_h, 0.0, 2.3, 3) + [1.5, 2.3]  # 1.5: an atom
    for t in ts:
        ux = sol.along_x(t)
        assert [repr(ux(x)) for x in xs] == [repr(sol(t, x)) for x in xs]
    for x in xs:
        ut = sol.along_t(x)
        assert [repr(ut(t)) for t in ts] == [repr(sol(t, x)) for t in ts]
    for t, x in ((ts[1], xs[2]), (ts[3], xs[1])):
        sliced, plain = residual_both_routes(sol, t, x)
        assert sliced == plain and 0 < sliced[1] <= 60


def test_finite_alpha_list_is_polynomial(jump_g, plateau_h):
    # a finite coefficient list means finite support: the solution is the
    # exact finite ladder sum and the radius is infinite
    G = SumDerivator(jump_g, plateau_h)
    ctx = GPolyContext(G, 0.5)
    sol, gate = gpoly_series_solution(G, [2.0, 0.0, 1.0], c=0.5, T=1.2, L=2.3, N=8)
    assert gate.sigma == math.inf
    assert gate.tail_bound == 0.0
    for t, x in ((0.4, 0.9), (1.1, 2.2)):
        want = 2.0 + heat_gpoly(2, t, x, ctx)
        assert sol(t, x) == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# the series value: the coefficient grid and its per-cell polynomials

ALPHAS = {
    "list": [0.5, -1.0, 2.0, 0.0, 0.25, -0.125, 1.5],
    "inv-factorial": lambda n: math.exp(-math.lgamma(n + 1)),
    "complex": lambda n: (1.0 - 0.5j) * math.exp(-math.lgamma(n + 1)),
}


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(ALPHAS)),
    st.sampled_from([1.0, 0.7]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_bilinear_form_is_the_classical_series_on_identity_drivers(kind, c, t, x):
    # g = t, h = x: v_n^G(t, x) is the textbook v_n(c^2 t, x)
    alpha = ALPHAS[kind]
    G = SumDerivator(identity(0.0, 1.0), identity(0.0, 2.0))
    sol, _ = gpoly_series_solution(G, alpha, c=c, T=1.0, L=2.0, N=14)
    coef = alpha if isinstance(alpha, list) else [alpha(n) for n in range(15)]
    terms = [a * classical_heat_polynomial(n, c * c * t, x) for n, a in enumerate(coef)]
    want = sum(terms)
    assert abs(sol(t, x) - want) <= 1e-12 * (1.0 + sum(abs(z) for z in terms))


@pytest.mark.parametrize("c", [1.0, 0.7])
def test_coefficient_grid_is_the_exact_law_rounded(jump_g, plateau_h, c):
    G = SumDerivator(jump_g, plateau_h)
    for alpha in (INV_SQRT_FACT, ALPHAS["complex"]):
        sol, _ = gpoly_series_solution(G, alpha, c=c, T=0.2, L=2.3, N=40)
        for m in range(21):
            for n in range(41 - 2 * m):
                want = complex(sol.a_mn(m, n))
                assert abs(sol.A[m][n] - want) <= 4e-16 * abs(want)


def test_series_past_the_log_space_cutover(jump_g, plateau_h):
    # at N = 300 the factors (n+2m)!/(n! m!) pass 900 bits; the grid entries
    # must stay finite and the form must match a per-term sum built here
    G = SumDerivator(jump_g, plateau_h)
    N, t, x = 300, 0.15, 2.2
    sol, gate = gpoly_series_solution(G, INV_SQRT_FACT, c=1.0, T=0.2, L=2.3, N=N)
    assert all(math.isfinite(a) for row in sol.A for a in row)
    assert math.isfinite(gate.tail_bound)
    logspace = [(m, n) for m in range(0, N // 2 + 1, 7) for n in range(0, N - 2 * m + 1, 11)
                if (math.factorial(n + 2 * m) // (math.factorial(n) * math.factorial(m))
                    ).bit_length() > 900]
    assert len(logspace) > 20
    for m, n in logspace:
        want = float(sol.a_mn(m, n))
        assert abs(sol.A[m][n] - want) <= 1e-11 * want
    tg, th = MonomialTable(G.g, 0.0), MonomialTable(G.h, 0.0)
    gk = [tg.eval(m, t) for m in range(N // 2 + 1)]
    hj = [th.eval(j, x) for j in range(N + 1)]
    terms = []
    for m in range(1, N // 2 + 1):
        for n in range(N - 2 * m + 1):
            # a_{m,n} g_m h_n in log space: lgamma, not the exact integers
            log_a = (math.lgamma(n + 2 * m + 1) - math.lgamma(n + 1) - math.lgamma(m + 1)
                     - 0.5 * math.lgamma(n + 2 * m + 1))
            terms.append(math.exp(log_a + math.log(gk[m]) + math.log(hj[n])))
    terms.extend(INV_SQRT_FACT(n) * hj[n] for n in range(N + 1))
    u = sol(t, x)
    assert math.isfinite(u)
    assert u == pytest.approx(math.fsum(terms), rel=1e-11)


def test_gpoly_atom_rows_use_exact_jump_quotients(jump_g, plateau_h):
    G = SumDerivator(jump_g, plateau_h)
    alpha = ALPHAS["inv-factorial"]
    sol, _ = gpoly_series_solution(G, alpha, c=0.5, T=1.0, L=2.3, N=20)
    for x in (0.4, 1.5, 2.2):
        assert abs(sol.jump_residual_t(0.5, x)) <= 1e-12 * (1.0 + abs(sol(0.5, x)))
    for t in (0.0, 0.5, 0.9):
        assert abs(sol.jump_residual_x(t, 1.5)) <= 1e-12 * (1.0 + abs(sol(t, 1.5)))

    class OffFlux(GPolySolution):
        def dhx_rule(self, t, x):
            return super().dhx_rule(t, x) + 1e-3

    off = OffFlux(sol.ctx, alpha, sol.N, sol.radius, sol.tail_bound)
    assert off(0.9, 1.5) == sol(0.9, 1.5)
    # the jump quotient of d_h u picks up the wrong left value: c^2 1e-3 / gap
    assert off.jump_residual_x(0.9, 1.5) == pytest.approx(0.25 * 1e-3 / 1.0, rel=1e-6)


# alpha kinds for the cell kernel: those above, and slower, alternating and
# turning-phase ones
CELL_ALPHAS = {
    **ALPHAS,
    "inv-sqrt-factorial": INV_SQRT_FACT,
    "alternating": lambda n: (-0.8) ** n,
    "phase": lambda n: cmath.exp(0.7j * n - math.lgamma(n + 1)),
}


def _shifted_grids(sol):
    """The ladder grids from A: d_Gx and d_Gx^2 shift columns, d_Gt rows."""
    return {
        "x": [[n * a for n, a in enumerate(row) if n >= 1] for row in sol.A],
        "xx": [[n * (n - 1) * a for n, a in enumerate(row) if n >= 2] for row in sol.A],
        "t": [[m * a for a in row] for m, row in enumerate(sol.A) if m >= 1],
    }


@settings(max_examples=60, deadline=None)
@given(g=segment_chains(), h=segment_chains(), N=st.integers(0, 40),
       c=st.floats(0.3, 1.2), kind=st.sampled_from(sorted(CELL_ALPHAS)), data=st.data())
def test_cell_polynomials_match_the_bilinear_form(g, h, N, c, kind, data):
    # the contraction g(t) . (K_j . powers(y)) against g(t)^T A h(x) from
    # the tables' value lists, within 1e-13 of the series' magnitude
    # sum_mn |a_mn| g_m(t) h_n(x) (|u| when no terms cancel): the value, the right limits of the row at g's atoms, of
    # d_h u at h's atoms, and the two closed-form partials, d_g u through
    # the row shift of A
    g, h = from_zero(g), from_zero(h)
    sol = GPolySolution(GPolyContext(SumDerivator(g, h), c), CELL_ALPHAS[kind], N, None, 0.0)
    grids = _shifted_grids(sol)

    def points(d):
        ends = [0.0, d.hi] + [s.hi for s in d.segments]
        inner = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
        return ends + [d.hi * f for f in inner]

    def close(got, grid, t, x, **right):
        want = gpoly_bilinear(sol, t, x, grid, **right)
        scale = 1.0 + gpoly_bilinear(sol, t, x, [list(map(abs, row)) for row in grid], **right)
        assert abs(got - want) <= 1e-13 * scale, (got, want, t, x, right)

    ts, xs = points(g), points(h)
    for t in ts:
        row = sol._row(t)  # one row across every column and grid
        for x in xs:
            close(sol(t, x), sol.A, t, x)
            close(sol.dhx_rule(t, x), grids["x"], t, x)
            close(sol.dhx2_rule(t, x), grids["xx"], t, x)
            close(sol.dgt_rule(t, x), grids["t"], t, x)
            for k, grid in enumerate((sol.A, grids["x"], grids["xx"])):
                close(sol._dot(row, sol._col(x), k), grid, t, x)
    for a, _gap in g.atoms:
        for x in xs:
            close(sol._dot(sol._row(a, right=True), sol._col(x)), sol.A, a, x, right_t=True)
    for b, _gap in h.atoms:
        for t in ts:
            close(sol._dhx(t, b, right=True), grids["x"], t, b, right_x=True)


def test_residual_grid_builds_each_cell_once():
    parsed = load_problem((SPECS / "gpoly_gate.json").read_text())
    sol, _info = solve(parsed)
    built = []
    build = sol._build_cell
    sol._build_cell = lambda *key: built.append(key) or build(*key)
    ts = [parsed.T * i / 8 for i in range(9)] + [a for a, _ in parsed.g.atoms]
    xs = [parsed.L * j / 8 for j in range(9)] + [b for b, _ in parsed.h.atoms]
    sol.residual_grid(ts, xs)
    # one K_j per (grid, j); the numeric residual reads the value grid only
    assert built and len(built) == len(set(built))
    assert {grid for grid, _j in built} == {0}
    assert len(built) <= len(parsed.h.segments)


# ---------------------------------------------------------------------------
# product case


@pytest.fixture(scope="session")
def one_plus_pair():
    from stieltjes_heat import Derivator

    g = Derivator.from_pieces([("affine", 0.0, 2.0, 1.0, 1.0)])  # 1 + t
    h = Derivator.from_pieces([("affine", 0.0, 2.0, 1.0, 1.0)])  # 1 + x
    return ProductDerivator(g, h)


def test_product_derivator_requires_positivity():
    with pytest.raises(DomainError):
        ProductDerivator(identity(0.0, 1.0), _one_plus())


def test_product_case_residual_grid(one_plus_pair):
    G = one_plus_pair
    sol = solve_product_case(G, lam=1.0, c=1.0, x0=1.0, v0=0.0, T=1.0, L=1.0)
    assert sol.regressivity.kind == "strongly_regressive"
    for t in np.linspace(0.0, 1.0, 11):
        for x in np.linspace(0.0, 1.0, 11):
            u = abs(sol(t, x))
            assert abs(sol.residual(t, x, mode="rule")) < 1e-13 * (1.0 + u)
            r = sol.residual(t, x, mode="numeric")
            assert abs(r) < 1e-5 * (1.0 + u)


def test_product_case_independence_determinant(one_plus_pair):
    # the canonical pair starts at W(0) = 1 exactly; v''_h = (lam/h) v has no
    # v'_h term, so W stays constant along pieces and gains each atom's
    # factor 1 - lam gap^2/h(xi) (Abel's identity)
    h_atom = Derivator.from_pieces(
        [("affine", 0.0, 0.5, 1.0, 1.0), ("flat", 0.5, 1.0, 2.0), ("affine", 1.0, 2.0, 1.0, 1.5)]
    )
    for h, lam in ((one_plus_pair.h, 1.0), (h_atom, 1.3), (h_atom, -2.0)):
        v1, v2 = SpaceFactor(h, lam, 1.0, 0.0), SpaceFactor(h, lam, 0.0, 1.0)
        assert float(independence_determinant(v1, v2, x=0.0)) == 1.0
        want = math.prod(1.0 - lam * gap**2 / h.eval(a) for a, gap in h.atoms_in(0.0, 1.8))
        assert independence_determinant(v1, v2, x=1.8) == pytest.approx(want, rel=1e-13)


def test_product_partials_match_modes(one_plus_pair):
    # the rule partials against raw quotients along the G-slices, which
    # rescale g by h(x) and h by g(t)
    G = one_plus_pair
    sol = solve_product_case(G, lam=0.7, c=1.0, x0=1.0, v0=0.5, T=1.0, L=1.0)
    for t, x in ((0.2, 0.3), (0.8, 0.9)):
        nt = gderiv(lambda s: sol(s, x), t, G.g) / G.h.eval(x)
        nxx = gderiv2(lambda y: sol(t, y), x, G.h) / G.g.eval(t) ** 2
        assert nt == pytest.approx(sol.dgt_rule(t, x), rel=1e-6)
        assert nxx == pytest.approx(sol.dhx2_rule(t, x), rel=1e-5)


def test_product_slices_and_numeric_residual_read_the_plain_values():
    # g = 1 + t with a gap-0.5 atom at 0.6; h = 1 + x/2 with a gap-0.25 atom
    # at 0.9 and a flat run on [1.2, 1.4]
    g = Derivator.from_pieces([("affine", 0.0, 0.6, 1.0, 1.0), ("affine", 0.6, 2.0, 1.0, 1.5)])
    h = Derivator.from_pieces([("affine", 0.0, 0.9, 0.5, 1.0), ("affine", 0.9, 1.2, 0.5, 1.25),
                               ("flat", 1.2, 1.4, 1.85), ("affine", 1.4, 2.0, 0.5, 1.15)])
    c, T, L = 0.8, 1.8, 1.8
    sol = solve_product_case(ProductDerivator(g, h), lam=-1.5, c=c, x0=1.0, v0=0.5, T=T, L=L)
    ts = regular_points(g, 0.0, T, 4)
    xs = regular_points(h, 0.0, L, 4)
    for t in ts + [0.0, 0.6, T]:
        ux = sol.along_x(t)
        for y in xs + [0.0, 0.9, 1.3, L]:
            assert repr(ux(y)) == repr(sol(t, y)), (t, y)
    for x in xs + [0.0, 0.9, 1.3, L]:
        ut = sol.along_t(x)
        for s in ts + [0.0, 0.6, T]:
            assert repr(ut(s)) == repr(sol(s, x)), (s, x)
    for t in ts[1:3] + [0.6]:
        for x in xs[1:3] + [0.9]:
            dt = gderiv(lambda s: sol(s, x), t, g) / h.eval(x)
            dxx = gderiv2(lambda y: sol(t, y), x, h) / g.eval(t) ** 2
            assert repr(sol.residual_numeric(t, x)) == repr(dt - c * c * dxx), (t, x)


def test_product_case_requires_product(jump_g, plateau_h):
    G = SumDerivator(jump_g, plateau_h)
    with pytest.raises(TypeError):
        solve_product_case(G, lam=1.0, c=1.0, x0=1.0, v0=0.0, T=1.0, L=1.0)


@st.composite
def positive_chains(draw):
    """Random drivers on [0, hi] with g(0) in [0.5, 1.5]: 1-3 affine or flat
    segments and an atom or none at each internal breakpoint."""
    n = draw(st.integers(min_value=1, max_value=3))
    lo, level, pieces = 0.0, draw(st.floats(min_value=0.5, max_value=1.5)), []
    for i in range(n):
        length = draw(st.floats(min_value=0.2, max_value=0.5))
        if i:
            level += draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        if i and draw(st.booleans()):
            pieces.append(("flat", lo, lo + length, level))
        else:
            slope = draw(st.floats(min_value=0.1, max_value=1.0))
            pieces.append(("affine", lo, lo + length, slope, level - slope * lo))
            level += slope * length
        lo += length
    return Derivator.from_pieces(pieces)


@settings(max_examples=12, deadline=None)
@given(g=positive_chains(), h=positive_chains(),
       lam=st.sampled_from([0.3, 1.0, 2.5, 250.0, 1000.0]), sign=st.sampled_from([-1.0, 1.0]),
       ic=st.tuples(st.floats(min_value=-1.0, max_value=1.0),
                    st.floats(min_value=-1.0, max_value=1.0)))
def test_product_closed_forms_match_the_oracles(g, h, lam, sign, ic):
    # the space factor against the Euler/Richardson solve, left and right of
    # the atoms; the time factor against the callable-rate quadrature gexp
    lam, c = sign * lam, 0.8
    sol = solve_product_case(ProductDerivator(g, h), lam, c, *ic, T=g.hi, L=h.hi)
    oracle = solve_second_order(h, None, lambda x: -lam / h.eval(x), None, *ic, (0.0, h.hi),
                                tol=1e-8, mesh=1e-3 if abs(lam) < 10 else 2e-4)
    xs = list(regular_points(h, 0.0, h.hi, 7)) + [a for a, _ in h.atoms] + [h.hi]
    pairs = [(sol.v(x), oracle(x)) for x in xs]
    pairs += [(sol.v.derivative(x), oracle.derivative(x)) for x in xs]
    pairs += [(sol.v.derivative(a, right=True), oracle.derivative(np.nextafter(a, np.inf)))
              for a, _ in h.atoms]
    scale = 1.0 + max(abs(want) for _, want in pairs[: len(xs)])
    assert max(abs(got - want) for got, want in pairs) <= 1e-9 * scale
    q = lam * c**2
    for t in list(regular_points(g, 0.0, g.hi, 7)) + [a for a, _ in g.atoms] + [g.hi]:
        want = gexp(g, lambda s: q / g.eval(s) ** 2, 0.0, t)
        assert abs(sol.w(t) - want) <= 1e-12 * abs(want)


def test_space_factor_refuses_and_raises():
    h = Derivator.from_pieces([("affine", 0.0, 2.0, 1.0, 1.0)])
    v = SpaceFactor(h, 1.0, 1.0, 0.0)
    for x in (-0.5, 2.5):
        with pytest.raises(DomainError):
            v(x)
    # 1 + x on [0, 2] at lam = 1e6: v grows like exp(2 sqrt(lam h)), past
    # the float range, and the series says so instead of returning inf
    with pytest.raises(NonConvergenceError, match="finite state"):
        SpaceFactor(h, 1e6, 1.0, 0.0)


def test_product_case_degenerate_rate_warns():
    from stieltjes_heat import Derivator

    # g has an atom at 1 with gap 1; p(1) = lam / g(1)^2 = lam / 4;
    # 1 + p gap = 0 at lam = -4
    g = Derivator.from_pieces(
        [("affine", 0.0, 1.0, 1.0, 1.0), ("affine", 1.0, 2.0, 1.0, 2.0)]
    )
    G = ProductDerivator(g, _one_plus())
    with pytest.warns(UserWarning, match="1 \\+ p gap vanishes"):
        solve_product_case(G, lam=-4.0, c=1.0, x0=1.0, v0=0.0, T=2.0, L=1.0)


def test_product_case_zero_independence_factor_warns():
    from stieltjes_heat import Derivator

    # h has an atom at 1 with gap 1 and h(1) = 2: factor 1 - (lam/2) = 0 at lam = 2
    h = Derivator.from_pieces(
        [("affine", 0.0, 1.0, 1.0, 1.0), ("affine", 1.0, 2.0, 1.0, 2.0)]
    )
    G = ProductDerivator(_one_plus(), h)
    with pytest.warns(UserWarning, match="independence factor vanishes"):
        sol = solve_product_case(G, lam=2.0, c=1.0, x0=1.0, v0=0.0, T=1.0, L=2.0)
    assert any(f == 0.0 for _, f in sol.independence)


@pytest.mark.parametrize(
    "T, L, match",
    [(0.0, 1.0, "need T, L > 0"), (0.1, 0.0, "need T, L > 0"), (0.0, 0.0, "need T, L > 0"),
     (-0.1, 1.0, "need T, L > 0"), (math.nan, 1.0, "need T, L > 0"),
     (50.0, 1.0, "does not cover"), (0.1, 50.0, "does not cover")],
)
def test_library_two_variable_solvers_keep_the_rectangle_rule(T, L, match):
    # called from the library, the sum and product solvers refuse the
    # rectangles HeatProblem (and so the CLI) refuses
    gate = load_problem((SPECS / "gpoly_gate.json").read_text())
    with pytest.raises(DomainError, match=match):
        gpoly_series_solution(gate.G, INV_SQRT_FACT, gate.c, T, L, 10)
    prod = load_problem((SPECS / "product_eigen.json").read_text())
    with pytest.raises(DomainError, match=match):
        solve_product_case(prod.G, lam=1.0, c=prod.c, x0=1.0, v0=0.0, T=T, L=L)

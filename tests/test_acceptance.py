"""Acceptance suite: one test per release criterion, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines;
without -s they are captured and shown only for failures.
"""

import cmath
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from oracles import G_mn_recursion

import stieltjes_heat as sh
from stieltjes_heat import (
    G_mn,
    GPolyContext,
    GateError,
    SpaceFactor,
    SumDerivator,
    classical_heat_polynomial,
    dirichlet_solution,
    find_periodic_eigenvalues,
    g_monomial,
    gderiv,
    gexp,
    gexp_series,
    gpoly_series_solution,
    gsin_gcos,
    heat_gpoly,
    identity,
    indefinite,
    independence_determinant,
    integrate,
    iterated_integral,
    neumann_solution,
    periodic_solution,
    radius_sigma,
    regular_points,
    solve_ivp,
    solve_product_case,
)

IVP_SPEC = {"a0": 1.0, "b0": -1.0, "modes": [(0.6, 2.0, 0.0)]}
INV_SQRT_FACT = lambda n: math.exp(-0.5 * math.lgamma(n + 1))


@contextmanager
def criterion(num, label):
    holder = {}
    try:
        yield holder
    except BaseException:
        print(f"criterion {num:02d} FAIL: {label}")
        raise
    detail = holder.get("detail", label)
    print(f"criterion {num:02d} PASS: {detail}")


def test_criterion_01_worked_example(prob_jumpy):
    with criterion(1, "worked example reproduction") as c:
        g, h = prob_jumpy.g, prob_jumpy.h
        sol = solve_ivp(prob_jumpy, IVP_SPEC)
        u0 = lambda x: 1.0 - h.eval(x) + 2.0 * gexp(h, math.sqrt(0.6), 0.0, x)
        dev0 = max(abs(sol.initial(x) - u0(x)) for x in np.linspace(0.0, 2.0, 201))
        assert dev0 < 1e-12
        ts = regular_points(g, 0.0, 1.0, 21)
        xs = regular_points(h, 0.0, 2.0, 21)
        res = max(abs(sol.residual_numeric(t, x)) for t in ts for x in xs)
        assert res < 1e-6
        jt = max(abs(sol.jump_residual_t(0.5, x)) for x in xs)
        jx = max(abs(sol.jump_residual_x(t, 1.5)) for t in ts)
        assert jt < 1e-10 and jx < 1e-10
        c["detail"] = (
            f"u0 dev {dev0:.2e} on 201 pts; residual {res:.2e} on 21x21; "
            f"jump rows {max(jt, jx):.2e}"
        )


def test_criterion_02_exponential_characterization(
    jump_g, plateau_h, ident, staircase, mixed
):
    with criterion(2, "g-exponential characterization") as c:
        worst_int = worst_ode = 0.0
        for d in (jump_g, plateau_h, ident, staircase, mixed):
            pts20 = regular_points(d, d.lo, d.hi, 20)
            for lam in (0.3, -0.3, 2.0, 1j):
                E = lambda s: gexp(d, lam, d.lo, s)
                for t in pts20[::5]:
                    lhs = E(t)
                    rhs = 1.0 + lam * integrate(E, d.lo, t, d)
                    worst_int = max(worst_int, abs(lhs - rhs) / (1.0 + abs(lhs)))
                for t in pts20:
                    dev = abs(gderiv(E, t, d) - lam * E(t)) / (1.0 + abs(E(t)))
                    worst_ode = max(worst_ode, dev)
        assert worst_int < 1e-8
        assert worst_ode < 1e-6
        c["detail"] = (
            f"integral identity dev {worst_int:.2e} (tol 1e-8), "
            f"derivative dev {worst_ode:.2e} (tol 1e-6), 5 drivers x 4 rates"
        )


def test_criterion_03_series_agreement(jump_g, plateau_h, mixed):
    with criterion(3, "series vs closed form with certified tails") as c:
        worst = worst_tail = 0.0
        for d in (jump_g, plateau_h, mixed):
            x = d.hi - 0.05
            gbar = d.eval(x) - d.eval(d.lo)
            for lam in (0.4, -1.0, 3.0 / gbar, -3.0 / gbar):
                value, tail = gexp_series(d, lam, x, 60, center=d.lo)
                closed = gexp(d, lam, d.lo, x)
                assert tail < 1e-10
                gap = abs(value - closed)
                assert gap <= tail + 1e-13 * (1.0 + abs(closed))
                worst = max(worst, gap)
                worst_tail = max(worst_tail, tail)
        c["detail"] = (
            f"N=60 partial sums within tails; worst gap {worst:.2e}, "
            f"worst tail {worst_tail:.2e} (tol 1e-10) at |lam| gbar <= 3"
        )


def test_criterion_04_ftc_round_trips(jump_g, plateau_h, mixed):
    with criterion(4, "fundamental theorem round trips") as c:
        worst_d = worst_i = 0.0
        for d in (jump_g, plateau_h, mixed):
            # derivative of the indefinite integral
            f = lambda s: math.sin(s) + 0.25 * s
            F = indefinite(f, d.lo, d)
            for t in regular_points(d, d.lo, d.hi, 10):
                worst_d = max(worst_d, abs(gderiv(F, t, d) - f(t)))
            # integral of the derivative, across the atoms: d_g E = lam E
            lam, b = 0.7, d.hi - 0.05
            E = lambda s: gexp(d, lam, d.lo, s)
            got = integrate(lambda s: lam * E(s), d.lo, b, d)
            worst_i = max(worst_i, abs(got - (E(b) - E(d.lo))))
        assert worst_d < 1e-6 and worst_i < 1e-6
        c["detail"] = (
            f"derivative-of-integral dev {worst_d:.2e}, integral-of-derivative "
            f"dev {worst_i:.2e} across atoms (tol 1e-6)"
        )


def test_criterion_05_integral_oracle(request):
    from test_integration import ORACLE_CASES, brute_stieltjes

    with criterion(5, "integral vs brute-force sums") as c:
        worst = 0.0
        for f, fixture, a, b in ORACLE_CASES:
            d = request.getfixturevalue(fixture)
            want = brute_stieltjes(f, a, b, d, panels=1_000_000)
            worst = max(worst, abs(integrate(f, a, b, d) - want))
        assert worst < 1e-8
        c["detail"] = f"10 (f, derivator) pairs, 1e6 panels, worst dev {worst:.2e}"


def test_criterion_06_gpoly_equivalence(jump_g, plateau_h, ident, mixed):
    with criterion(6, "two-variable monomial recursion and commutation") as c:
        fixtures = [
            (SumDerivator(jump_g, plateau_h), 0.7, 0.9),
            (SumDerivator(ident, ident), 1.1, 0.9),
            (SumDerivator(jump_g, mixed), 0.6, 0.8),
        ]
        worst = 0.0
        for G, t, x in fixtures:
            for m in range(6):
                for n in range(6):
                    exact = G_mn(m, n, t, x, G)
                    rec = G_mn_recursion(m, n, t, x, G, mesh=1.25e-4)
                    worst = max(worst, abs(rec - exact))
        assert worst < 1e-10
        tol = 1e-10
        H = lambda s, y: (s + 1.0) * (y * y + 1.0)
        worst_c = 0.0
        for G, t, x in fixtures:
            ik = iterated_integral(H, t, x, G, order="IK", tol=tol)
            ki = iterated_integral(H, t, x, G, order="KI", tol=tol)
            assert abs(ik - ki) <= 2.0 * tol * (1.0 + abs(ik))
            worst_c = max(worst_c, abs(ik - ki) / (1.0 + abs(ik)))
        c["detail"] = (
            f"recursion dev {worst:.2e} (tol 1e-10, m,n<=5, 3 fixtures); "
            f"IK vs KI dev {worst_c:.2e} (tol {2*tol:.0e})"
        )


def test_criterion_07_heat_gpoly_ladders(jump_g, plateau_h):
    with criterion(7, "heat polynomial derivative ladders") as c:
        G = SumDerivator(jump_g, plateau_h)
        ctx = GPolyContext(G, 0.5)
        c2 = 0.25
        worst = 0.0
        ts = regular_points(jump_g, 0.0, 1.2, 3)
        xs = regular_points(plateau_h, 0.0, 2.2, 3)
        for n in range(1, 9):
            for t in ts:
                for x in xs:
                    vx = gderiv(lambda y: heat_gpoly(n, t, y, ctx), x, plateau_h)
                    wx = n * heat_gpoly(n - 1, t, x, ctx)
                    worst = max(worst, abs(vx - wx) / (1.0 + abs(wx)))
                    vt = gderiv(lambda s: heat_gpoly(n, s, x, ctx), t, jump_g)
                    wt = c2 * n * (n - 1) * heat_gpoly(n - 2, t, x, ctx) if n > 1 else 0.0
                    worst = max(worst, abs(vt - wt) / (1.0 + abs(wt)))
        assert worst < 1e-6
        Gc = SumDerivator(identity(0.0, 2.0), identity(0.0, 2.0))
        ctxc = GPolyContext(Gc, 1.0)
        worst_cl = 0.0
        for t in (0.0, 0.5, 1.3):
            for x in (0.0, 0.7, 1.9):
                worst_cl = max(
                    worst_cl,
                    abs(heat_gpoly(2, t, x, ctxc) - (x * x + 2 * t)),
                    abs(heat_gpoly(3, t, x, ctxc) - (x**3 + 6 * t * x)),
                )
        assert worst_cl < 1e-12
        c["detail"] = (
            f"ladder dev {worst:.2e} for n<=8 (tol 1e-6); classical v2, v3 "
            f"dev {worst_cl:.2e}"
        )


def test_criterion_08_radius_estimator():
    with criterion(8, "series radius estimator") as c:
        rep = radius_sigma(INV_SQRT_FACT, n_probe=200)
        assert 0.475 <= rep.sigma <= 0.525
        fin = radius_sigma([1.0, -2.0, 0.5, 3.0], n_probe=120)
        assert fin.sigma == math.inf
        grow = radius_sigma(lambda n: 2.0**n, n_probe=120)
        assert grow.trend == "increasing" and grow.sigma < 0.01
        c["detail"] = (
            f"(n!)^-1/2 -> sigma {rep.sigma:.4f} in [0.475, 0.525]; finite "
            f"support -> inf; 2^n -> sigma {grow.sigma:.1e}, trend increasing"
        )


def test_criterion_09_gated_series(jump_g, plateau_h):
    with criterion(9, "gated series solution") as c:
        G = SumDerivator(jump_g, plateau_h)
        sol, gate = gpoly_series_solution(G, INV_SQRT_FACT, c=1.0, T=0.2, L=2.3, N=40)
        assert gate.ok and gate.g_T < gate.sigma_gate
        worst = 0.0
        for t in regular_points(jump_g, 0.0, 0.2, 4):
            for x in regular_points(plateau_h, 0.0, 2.3, 4):
                r = abs(sol.residual_numeric(t, x)) / (1.0 + abs(sol(t, x)))
                worst = max(worst, r)
        assert worst < 1e-5
        with pytest.raises(GateError):
            gpoly_series_solution(G, INV_SQRT_FACT, c=1.0, T=1.4, L=2.3, N=40)
        c["detail"] = (
            f"g(T)={gate.g_T} < sigma/c^2={gate.sigma_gate:.3f}; N=40 residual "
            f"{worst:.2e} (tol 1e-5); gate fires at T=1.4"
        )


def test_criterion_10_periodic_machinery(prob_classical, staircase, flatstep):
    with criterion(10, "periodic eigenvalues, boundaries, translation") as c:
        lams = find_periodic_eigenvalues(prob_classical, (-400.0, 0.0), count=4)
        want = [0.0] + [-((2 * math.pi * k) ** 2) for k in (1, 2, 3)]
        dev_e = max(
            abs(got - ref) / max(1.0, abs(ref)) for got, ref in zip(lams, want)
        )
        assert len(lams) == 4 and dev_e < 1e-9
        sol = periodic_solution(prob_classical, lams[1])
        dev_b = max(
            max(
                abs(sol(t, 0.0) - sol(t, 1.0)),
                abs(sol.dhx_rule(t, 0.0) - sol.dhx_rule(t, 1.0)),
            )
            for t in (0.0, 0.3, 0.9)
        )
        assert dev_b < 1e-6
        dirichlet_solution(prob_classical, -(math.pi**2), a=1.0)
        with pytest.raises(GateError):
            dirichlet_solution(prob_classical, -2.0, a=1.0)
        neumann_solution(prob_classical, -((2 * math.pi) ** 2), b=1.0)
        neumann_solution(prob_classical, -(math.pi**2), b=1.0)
        with pytest.raises(GateError):
            neumann_solution(prob_classical, -2.0, b=1.0)
        # translation invariance: same window measure and atom pattern
        for d, period in ((staircase, 1.0), (flatstep, 1.0)):
            base = d.measure(0.0, period)
            base_atoms = [gap for _, gap in d.atoms_in(0.0, period)]
            for x0 in (0.25, 0.5, 1.25, 2.0):
                assert abs(d.measure(x0, x0 + period) - base) < 1e-12
                gaps = [gap for _, gap in d.atoms_in(x0, x0 + period)]
                assert len(gaps) == len(base_atoms)
                for got, ref in zip(gaps, base_atoms):
                    assert abs(got - ref) < 1e-12
        # the staircase gaps are representable floats and repeat bit-exactly
        stair_gaps = {gap for _, gap in staircase.atoms_in(0.0, 4.0)}
        assert stair_gaps == {0.5}
        c["detail"] = (
            f"eigenvalues -(2 pi k)^2 dev {dev_e:.2e} (tol 1e-9); boundary dev "
            f"{dev_b:.2e}; sin/cos gates classify; translation windows invariant"
        )


def test_criterion_11_product_case():
    with criterion(11, "product-derivator separated solution") as c:
        from stieltjes_heat import Derivator, ProductDerivator

        one_plus = Derivator.from_pieces([("affine", 0.0, 2.0, 1.0, 1.0)])
        G = ProductDerivator(one_plus, one_plus)
        sol = solve_product_case(G, lam=1.0, c=1.0, x0=1.0, v0=0.0, T=1.0, L=1.0)
        worst = 0.0
        for t in np.linspace(0.0, 1.0, 11):
            for x in np.linspace(0.0, 1.0, 11):
                r = abs(sol.residual(t, x, mode="numeric"))
                worst = max(worst, r / (1.0 + abs(sol(t, x))))
        assert worst < 1e-5
        v1, v2 = SpaceFactor(G.h, 1.0, 1.0, 0.0), SpaceFactor(G.h, 1.0, 0.0, 1.0)
        assert float(independence_determinant(v1, v2, x=0.0)) == 1.0
        det = float(independence_determinant(v1, v2, x=1.0))
        assert abs(det - 1.0) <= 1e-12  # no atoms: W stays 1 (Abel's identity)
        c["detail"] = (
            f"g=1+t, h=1+x, lam=1: residual {worst:.2e} on 11x11 (tol 1e-5); "
            f"independence determinant 1 at x = 0 exactly, {det!r} at x = L"
        )


def test_criterion_12_classical_regression():
    with criterion(12, "classical collapse of every solver") as c:
        d = identity(0.0, 2.0)
        worst = 0.0
        for lam in (0.7, -1.1, 0.4j):
            for t in (0.0, 0.6, 1.7):
                worst = max(worst, abs(gexp(d, lam, 0.0, t) - cmath.exp(lam * t)))
        for b in (1.0, 2.5):
            for t in (0.3, 1.2):
                s, co = gsin_gcos(d, b, t)
                worst = max(worst, abs(s - math.sin(b * t)), abs(co - math.cos(b * t)))
        for n in range(6):
            for x in (0.4, 1.5):
                worst = max(worst, abs(g_monomial(d, n, 0.0, x) - x**n))
        Gc = SumDerivator(identity(0.0, 1.0), identity(0.0, 1.0))
        ctx = GPolyContext(Gc, 1.0)
        for n in range(5):
            for t in (0.2, 0.8):
                for x in (0.1, 0.9):
                    worst = max(
                        worst,
                        abs(heat_gpoly(n, t, x, ctx) - classical_heat_polynomial(n, t, x)),
                    )
        from stieltjes_heat import HeatProblem

        prob = HeatProblem(identity(0.0, 1.0), identity(0.0, 1.0), 1.0, 1.0, 1.0)
        sol = dirichlet_solution(prob, -(math.pi**2), a=1.0)
        for t in (0.0, 0.5):
            for x in (0.0, 0.3, 1.0):
                want = math.exp(-(math.pi**2) * t) * math.sin(math.pi * x)
                worst = max(worst, abs(sol(t, x) - want))
        assert worst < 1e-9
        c["detail"] = (
            f"identity drivers: exp/trig/monomials/heat polynomials/Dirichlet "
            f"modes all within {worst:.2e} of textbook forms (tol 1e-9)"
        )

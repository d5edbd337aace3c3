"""One residual surface for every solution kind, on the demo specs."""

import pathlib

import pytest

from stieltjes_heat import DomainError, gderiv, load_problem, regular_points, solve

SPECS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "specs"


@pytest.mark.parametrize(
    "name", ["worked_ivp", "periodic_classical", "product_eigen", "gpoly_gate"]
)
def test_every_solution_answers_the_residual_interface(name):
    parsed = load_problem((SPECS / f"{name}.json").read_text())
    sol, _info = solve(parsed)
    t = regular_points(parsed.g, 0.0, parsed.T, 3)[1]
    x = regular_points(parsed.h, 0.0, parsed.L, 3)[1]
    scale = 1.0 + abs(sol(t, x))

    rule = sol.residual_rule(t, x)
    assert sol.residual(t, x, mode="rule") == rule
    assert abs(rule) <= 1e-9 * scale
    numeric = sol.residual_numeric(t, x)
    assert sol.residual(t, x, mode="numeric") == numeric
    assert abs(numeric) <= 1e-4 * scale
    with pytest.raises(DomainError):
        sol.residual(t, x, mode="bogus")

    g_atoms = parsed.g.atoms_in(0.0, parsed.T)
    h_atoms = parsed.h.atoms_in(0.0, parsed.L)
    for tau, _gap in g_atoms:
        assert abs(sol.jump_residual_t(tau, x)) <= 1e-9 * (1.0 + abs(sol(tau, x)))
    for xi, _gap in h_atoms:
        assert abs(sol.jump_residual_x(t, xi)) <= 1e-9 * (1.0 + abs(sol(t, xi)))
    # off the atoms the jump residuals refuse
    if not parsed.g.is_atom(t):
        with pytest.raises(DomainError):
            sol.jump_residual_t(t, x)
    if not parsed.h.is_atom(x):
        with pytest.raises(DomainError):
            sol.jump_residual_x(t, x)


@pytest.mark.parametrize(
    "name", ["worked_ivp", "periodic_classical", "product_eigen", "gpoly_gate"]
)
def test_every_solution_answers_dhx_rule_and_real_jump_rows(name):
    parsed = load_problem((SPECS / f"{name}.json").read_text())
    sol, _info = solve(parsed)
    # the product case's space slice runs along g(t) h: its quotient carries 1/g(t)
    product = parsed.mode == "product-eigen"
    for t in regular_points(parsed.g, 0.0, parsed.T, 3):
        for x in regular_points(parsed.h, 0.0, parsed.L, 3):
            want = gderiv(sol.along_x(t), x, parsed.h) / (parsed.g.eval(t) if product else 1.0)
            assert abs(sol.dhx_rule(t, x) - want) <= 1e-6 * (1.0 + abs(want))

    xs = regular_points(parsed.h, 0.0, parsed.L, 3)
    ts = regular_points(parsed.g, 0.0, parsed.T, 3)
    rows = [sol.jump_residual_t(tau, x) for tau, _ in parsed.g.atoms_in(0.0, parsed.T) for x in xs]
    rows += [sol.jump_residual_x(t, xi) for xi, _ in parsed.h.atoms_in(0.0, parsed.L) for t in ts]
    assert bool(rows) == (name in ("worked_ivp", "gpoly_gate"))
    assert all(type(r) is float for r in rows)


@pytest.mark.parametrize(
    "name", ["worked_ivp", "periodic_classical", "product_eigen", "gpoly_gate"]
)
def test_points_within_the_domain_fuzz_read_the_domain_end(name):
    # the derivators accept points up to 1e-9 (1 + |lo| + |hi|) past an end
    # and clamp them; every solution then gives the end point's values
    parsed = load_problem((SPECS / f"{name}.json").read_text())
    sol, _info = solve(parsed)
    g, h, eps = parsed.g, parsed.h, 1e-12
    t, x = 0.5 * parsed.T, 0.5 * parsed.L
    reads = ("__call__", "dhx_rule", "dhx2_rule", "dgt_rule")
    for (tf, xf), (te, xe) in [
        ((-eps, x), (0.0, x)),
        ((t, -eps), (t, 0.0)),
        ((g.hi + eps, x), (g.hi, x)),
        ((t, h.hi + eps), (t, h.hi)),
    ]:
        for read in reads:
            got, want = getattr(sol, read)(tf, xf), getattr(sol, read)(te, xe)
            assert repr(got) == repr(want), (read, tf, xf)
    # T + 1e-12 and L + 1e-12 lie inside the demo domains: regular points
    for tf, xf, te, xe in [(parsed.T + eps, x, parsed.T, x), (t, parsed.L + eps, t, parsed.L)]:
        for read in reads:
            got, want = getattr(sol, read)(tf, xf), getattr(sol, read)(te, xe)
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want)), (read, tf, xf)

"""One residual surface for every solution kind, on the demo specs."""

import pathlib

import pytest

from stieltjes_heat import DomainError, load_problem, regular_points, solve

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

"""The Stieltjes-Euler oracle of tests/oracles.py: convergence, jumps, dense
output, shooting."""

import math

import numpy as np
import pytest
from oracles import build_grid, euler_stieltjes, solve_periodic_first_order, solve_second_order

from stieltjes_heat import (
    DivergenceError,
    NoSolutionError,
    gexp,
    gsinh_gcosh,
    identity,
    regular_points,
)


def test_euler_linear_converges_to_exponential(jump_g):
    lam = 0.8
    errs = []
    for mesh in (4e-3, 1e-3):
        grid = build_grid(jump_g, 0.0, 1.4, mesh=mesh)
        traj = euler_stieltjes(lambda t, x: lam * x, 1.0, grid)
        errs.append(abs(traj.final[0] - gexp(jump_g, lam, 0.0, 1.4)))
    # first order in the mesh: a 4x refinement buys roughly 4x accuracy
    assert errs[1] < errs[0] / 2.5
    assert errs[1] < 1e-2


def test_euler_atom_step_is_exact():
    # on a pure-jump driver the only increments are the gaps, so each step
    # applies x -> x (1 + lam gap) with no discretization error at all
    from stieltjes_heat import Derivator

    d = Derivator.from_pieces(
        [("flat", 0.0, 1.0, 0.0), ("flat", 1.0, 2.0, 1.0), ("flat", 2.0, 3.0, 2.5)]
    )
    lam = 0.5
    grid = build_grid(d, 0.0, 3.0, mesh=0.25)
    traj = euler_stieltjes(lambda t, x: lam * x, 1.0, grid)
    assert traj.final[0] == (1.0 + lam * 1.0) * (1.0 + lam * 1.5)


def test_grid_nodes_include_structure(plateau_h):
    grid = build_grid(plateau_h, 0.0, 2.5, mesh=0.3)
    nodes = set(np.round(grid.nodes, 12))
    for t in (0.0, 1.0, 1.5, 2.5):
        assert t in nodes


def test_second_order_matches_hyperbolic_pair(plateau_h):
    # v'' = b^2 v with (v, v') = (1, 0) is cosh_h; with (0, b) it is b sinh_h
    b = 0.7
    sol = solve_second_order(
        plateau_h, None, -b * b, None, 1.0, 0.0, (0.0, 2.5), tol=1e-10
    )
    for x in (0.0, 0.6, 1.2, 1.8, 2.4):
        _, ch = gsinh_gcosh(plateau_h, b, x)
        assert sol(x) == pytest.approx(ch, rel=1e-8, abs=1e-10)


def test_second_order_classical_sine():
    d = identity(0.0, 2.0)
    w = 2.0
    sol = solve_second_order(d, None, w * w, None, 0.0, w, (0.0, 2.0), tol=1e-10)
    for x in (0.3, 0.9, 1.5, 2.0):
        assert sol(x) == pytest.approx(math.sin(w * x), abs=1e-8)
        assert sol.derivative(x) == pytest.approx(w * math.cos(w * x), abs=1e-7)
        assert sol.second_derivative(x) == pytest.approx(
            -w * w * math.sin(w * x), abs=1e-6
        )


def test_dense_output_between_nodes(jump_g):
    lam = 1.1
    sol = solve_second_order(
        jump_g, None, -lam * lam, None, 1.0, lam, (0.0, 1.5), tol=1e-10
    )
    # closed form: v = exp_g at rate lam solves v'' = lam^2 v with these ICs
    for x in regular_points(jump_g, 0.0, 1.5, 9):
        want = gexp(jump_g, lam, 0.0, x)
        assert sol(x) == pytest.approx(want, rel=1e-7)
        assert sol.derivative(x) == pytest.approx(lam * want, rel=1e-7)


def test_dense_output_left_continuous_at_atom(jump_g):
    lam = 0.9
    sol = solve_second_order(
        jump_g, None, -lam * lam, None, 1.0, lam, (0.0, 1.5), tol=1e-10
    )
    left = gexp(jump_g, lam, 0.0, 0.5)
    assert sol(0.5) == pytest.approx(left, rel=1e-9)
    assert sol(0.5 + 1e-9) == pytest.approx(left * (1.0 + lam), rel=1e-6)


def test_dense_derivative_right_of_an_atom():
    # v'' = -Q v with Q = -1 up to the atom at 1 and -4 past it: the slopes
    # right of the atom must read the coefficient that acts there, not its
    # value at the atom itself
    from stieltjes_heat import Derivator

    d = Derivator.from_pieces([("affine", 0.0, 1.0, 1.0, 0.0), ("affine", 1.0, 2.0, 1.0, 0.5)])
    sol = solve_second_order(d, None, lambda x: -1.0 if x <= 1.0 else -4.0, None,
                             1.0, 0.3, (0.0, 2.0), tol=1e-10)
    v1, w1 = math.cosh(1.0) + 0.3 * math.sinh(1.0), math.sinh(1.0) + 0.3 * math.cosh(1.0)
    vp, wp = v1 + 0.5 * w1, w1 + 0.5 * v1  # across the gap 1/2, with Q(1) = -1
    for x in (1.0001, 1.0004, 1.0007, 1.3):
        s = 2.0 * (x - 1.0)
        assert sol(x) == pytest.approx(vp * math.cosh(s) + 0.5 * wp * math.sinh(s), rel=1e-9)
        assert sol.derivative(x) == pytest.approx(2.0 * vp * math.sinh(s) + wp * math.cosh(s),
                                                  rel=1e-9)


def test_forced_second_order(plateau_h):
    # v'' = 1 from rest: v(x) = g_2(x)/2 in the monomial scale
    from stieltjes_heat import g_monomial

    sol = solve_second_order(plateau_h, None, None, 1.0, 0.0, 0.0, (0.0, 2.5), tol=1e-10)
    for x in (0.5, 1.2, 2.0, 2.5):
        assert sol(x) == pytest.approx(g_monomial(plateau_h, 2, 0.0, x) / 2.0, rel=1e-7)


def test_divergence_reports_last_good_node():
    d = identity(0.0, 10.0)
    grid = build_grid(d, 0.0, 10.0, mesh=0.05)
    with pytest.raises(DivergenceError) as exc, np.errstate(over="ignore", invalid="ignore"):
        euler_stieltjes(lambda t, x: x * x, 1.0, grid)
    assert exc.value.last_node is not None
    assert 0.0 < exc.value.last_node < 10.0


def test_periodic_unique_solution():
    # u' + u = 1 + sin on [0, 2pi]: unique periodic orbit
    d = identity(0.0, 2 * math.pi)
    sol = solve_periodic_first_order(
        d, 1.0, lambda t: 1.0 + math.sin(t), 2 * math.pi
    )
    assert sol.unique
    assert sol(0.0) == pytest.approx(sol(2 * math.pi), abs=1e-8)
    # closed form: 1 + (sin - cos)/2 + C e^{-t} with C = 0 by periodicity
    want = lambda t: 1.0 + 0.5 * (math.sin(t) - math.cos(t))
    for t in (0.0, 1.0, 3.0, 5.0):
        assert sol(t) == pytest.approx(want(t), abs=1e-7)


def test_periodic_degenerate_zero_coefficient():
    # u' = 0: every constant is periodic; the u0 = 0 representative returns
    d = identity(0.0, 1.0)
    sol = solve_periodic_first_order(d, 0.0, 0.0, 1.0)
    assert not sol.unique
    assert sol(0.4) == pytest.approx(0.0, abs=1e-12)


def test_periodic_inconsistent_raises():
    # u' = 1 has u(L) - u(0) = L != 0: no periodic solution
    d = identity(0.0, 1.0)
    with pytest.raises(NoSolutionError):
        solve_periodic_first_order(d, 0.0, 1.0, 1.0)


def test_periodic_with_atoms(jump_g):
    # the shooting map stays affine across jumps; verify the boundary identity
    sol = solve_periodic_first_order(jump_g, 0.6, lambda t: math.cos(t), 1.5)
    assert sol.unique
    assert sol(0.0) == pytest.approx(sol(1.5), abs=1e-8)
    # and the reported derivative satisfies the equation pointwise
    for t in regular_points(jump_g, 0.0, 1.5, 5):
        assert sol.derivative(t) == pytest.approx(
            math.cos(t) - 0.6 * sol(t), rel=1e-9
        )

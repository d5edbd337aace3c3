"""Boundary-value modes: scanning for periodic eigenvalues, and the
Dirichlet/Neumann solutions, both gated on sin_h at x = L in closed form
(it carries the Dirichlet value and the Neumann flux there), that collapse to classical sine/cosine modes when the space driver is
the identity.

Run:  python3 demos/04_boundary_modes.py
"""

import math

from stieltjes_heat import (
    Derivator,
    HeatProblem,
    dirichlet_solution,
    find_periodic_eigenvalues,
    gcos_series,
    gsin_gcos,
    gsin_series,
    identity,
    neumann_solution,
    periodic_solution,
)

# drivers run past L so difference quotients at the right wall have room
classical = HeatProblem(identity(0.0, 2.0), identity(0.0, 2.0), 1.0, 1.0, 1.0)

print("== periodic eigenvalue scan, identity driver, L = 1 ==")
lams = find_periodic_eigenvalues(classical, (-400.0, 0.0), count=4)
print(f"found: {[f'{v:.6f}' for v in lams]}")
print(f"expect 0, -4pi^2, -16pi^2, -36pi^2 = "
      f"{[f'{-4 * math.pi**2 * k * k:.6f}' for k in range(4)]}")

# the mode decays like e^(lam t): keep t small so the value is visible
sol = periodic_solution(classical, lams[1])
val = sol(0.05, 0.3)
print(f"u(0.05, 0.3) = {val.real:.9f} (imag residue {abs(val.imag):.1e})")
print(f"boundary mismatch |u(0.05, 0) - u(0.05, 1)| = "
      f"{abs(sol(0.05, 0.0) - sol(0.05, 1.0)):.3e}")
print(f"residual at (0.05, 0.3): {abs(sol.residual_rule(0.05, 0.3)):.3e}")

print("\n== the same scan with an atom in the driver ==")
h = Derivator.from_pieces(
    [
        ("affine", 0.0, 1.0, 1.0, 2.0),
        ("flat", 1.0, 1.5, 3.0),
        ("affine", 1.5, 2.5, 2.0, 1.0),
    ]
)
g = Derivator.from_pieces(
    [("affine", 0.0, 0.5, 1.0, 0.0), ("affine", 0.5, 1.5, 1.0, 1.0)]
)
jumpy = HeatProblem(g, h, 0.5, 1.0, 2.0)
print(f"eigenvalues in (-50, 0]: {find_periodic_eigenvalues(jumpy, (-50.0, 0.0), count=5)}")
print("(the jump breaks the oscillatory return condition; only 0 survives)")

print("\n== sine / cosine at x = L = 1: closed form, and the order-60 series ==")
for lam in (-math.pi**2, -2.0, -((2 * math.pi) ** 2)):
    s = math.sqrt(-lam)
    sin_L, cos_L = gsin_gcos(classical.h, s, 1.0)
    (sin_ser, sin_tail), (cos_ser, cos_tail) = (
        series(classical.h, s, 1.0, 60) for series in (gsin_series, gcos_series)
    )
    print(f"lam = {lam:+9.4f}: sin_h(L) = {sin_L:+.3e} (series {sin_ser:+.3e}, "
          f"tail {sin_tail:.1e}), cos_h(L) = {cos_L:+.6f} (series {cos_ser:+.6f}, "
          f"tail {cos_tail:.1e})")
print("Dirichlet and Neumann admit lam when |sin_h(L)| < 1e-9 (value and flux vanish at L)")

print("\n== classical collapses ==")
d = dirichlet_solution(classical, -math.pi**2, a=1.5)
t, x = 0.4, 0.7
want = 1.5 * math.exp(-math.pi**2 * t) * math.sin(math.pi * x)
print(f"dirichlet u({t}, {x}) = {d(t, x):.12f}  vs  1.5 e^(lam t) sin(pi x) = {want:.12f}")

n = neumann_solution(classical, -((2 * math.pi) ** 2), b=0.75)
want = 0.75 * math.exp(-((2 * math.pi) ** 2) * t) * math.cos(2 * math.pi * x)
print(f"neumann   u({t}, {x}) = {n(t, x):.12f}  vs  0.75 e^(lam t) cos(2pi x) = {want:.12f}")
print(f"wall flux at x=0: {n.dhx_rule(t, 0.0):+.3e}, at x=1: {n.dhx_rule(t, 1.0):+.3e}")

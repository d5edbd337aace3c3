"""Separated solutions when the two-variable driver is a product
G(t, x) = g(t) h(x), both in closed form: the time factor is the
exponential over the measure dg/g^2, the space factor a Taylor-stepped
solution of v''_h = (lam/h) v, and atom-wise independence factors flag
degenerate initial data.

Run:  python3 demos/06_product_derivator.py
"""

import math

from stieltjes_heat import (
    Derivator,
    ProductDerivator,
    SpaceFactor,
    independence_determinant,
    solve_product_case,
)

# both factors 1 + x: positive on the domain, as the product form requires
one_plus = Derivator.from_pieces([("affine", 0.0, 2.0, 1.0, 1.0)])
G = ProductDerivator(one_plus, one_plus)

sol = solve_product_case(G, lam=1.0, c=1.0, x0=1.0, v0=0.0, T=1.8, L=1.8)

print("== the separated solution u(t, x) = w(t) v(x) ==")
for t, x in [(0.0, 0.0), (0.5, 0.5), (1.0, 1.5), (1.8, 1.8)]:
    print(f"u({t}, {x}) = {sol(t, x):.10f}")
print(f"time-factor regressivity: {sol.regressivity.kind}")
print(f"independence factors at atoms of h: {sol.independence or 'none (no atoms)'}")

print("\n== residual d_g u - c^2 d2_h u, rule vs numeric ==")
for t, x in [(0.2, 0.3), (0.8, 0.9), (1.5, 1.2)]:
    rule = sol.residual(t, x, mode="rule")
    numeric = sol.residual(t, x, mode="numeric")
    print(f"  at ({t}, {x}): rule {rule:+.3e}, numeric {numeric:+.3e}")

print("\n== a driver with an atom in space ==")
h_atom = Derivator.from_pieces(
    [("affine", 0.0, 1.0, 1.0, 1.0), ("affine", 1.0, 2.0, 1.0, 2.0)]
)
G2 = ProductDerivator(one_plus, h_atom)
sol2 = solve_product_case(G2, lam=0.5, c=1.0, x0=1.0, v0=0.0, T=1.8, L=1.8)
print(f"independence factors: {sol2.independence}")
print(f"u(1.0, 1.0)  = {sol2(1.0, 1.0):.10f}   (left of the jump)")
print(f"u(1.0, 1.01) = {sol2(1.0, 1.01):.10f}   (just past it)")

print("\n== Wronskian of the canonical initial-condition pair at x = L ==")
# no v'_h term, so W(x) = 1 at x = 0, constant along pieces, and multiplied
# by each atom matrix's determinant, the independence factor (Abel's identity)
for label, h, sol_ in (("no atoms", one_plus, sol), ("atom at x = 1", h_atom, sol2)):
    pair = [SpaceFactor(h, sol_.lam, *ic) for ic in ((1.0, 0.0), (0.0, 1.0))]
    W = independence_determinant(*pair, x=1.8)
    P = math.prod(f for _, f in sol_.independence)
    print(f"{label}: W(L) = {W:.15f}, product of atom factors = {P:.15f}")

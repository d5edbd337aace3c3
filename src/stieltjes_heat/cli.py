"""Command-line front end: solve problem specs, evaluate grids, emit CSV,
and run the residual/invariant check suites.

Exit codes are the machine contract: 0 success, 2 gate refusal, 3 usage,
parse or validation error, 4 numeric failure.  Stdout formats are documented but
advisory.
"""

import argparse
import cmath
import math
import sys

from .derivators import regular_points
from .errors import (
    DivergenceError,
    DomainError,
    EvaluationError,
    GateError,
    InvariantError,
    NoSolutionError,
    NonConvergenceError,
    SchemaError,
)
from .gderiv import gderiv
from .heat1d import find_boundary_eigenvalues, find_periodic_eigenvalues
from .heat2d import _gate_verdict, radius_sigma
from .lsintegral import indefinite, integrate_gauss
from .ode import SpaceFactor
from .problems import TWO_VAR_MODES, load_problem, mode_params, scan_params, solve
from .special import gexp

_PARSE_ERRORS = (SchemaError, DomainError, InvariantError)
# OverflowError: float arithmetic past the double range (gexp, ratio**n)
_NUMERIC_ERRORS = (NonConvergenceError, DivergenceError, NoSolutionError,
                   EvaluationError, OverflowError)


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error instead of exiting 2, the gate-refusal code."""

    def error(self, message):
        raise ValueError(message)


def _parser():
    p = _Parser(
        prog="stieltjes-heat",
        description="Heat equation with Stieltjes derivatives: solve problem "
        "specs, evaluate solution grids, scan eigenvalues, check invariants.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, desc in (
        ("eval", "solve the spec and write a t,x,u_re,u_im,residual CSV grid"),
        ("check", "run the residual/invariant suite; exit 0 iff all pass"),
        ("radius", "print the series radius estimate and the gate comparison"),
        ("eigs", "scan for the eigenvalues of the spec's mode and print them"),
    ):
        s = sub.add_parser(name, help=desc)
        s.add_argument("spec", help="path to the problem JSON, or '-' for stdin")
        s.add_argument("--out", default=None, metavar="PATH",
                       help="write output to PATH instead of stdout")
        if name == "eval":
            s.add_argument("--grid", default="21x21", metavar="NTxNX",
                           help="evaluation grid resolution (default 21x21)")
            s.add_argument("--include-atoms", action="store_true",
                           help="append rows at atom coordinates (exact jump laws)")
            s.add_argument("--emit-diagnostics", action="store_true",
                           help="populate the residual column of the CSV")
    return p


def _parse_grid(text):
    try:
        nt, nx = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise SchemaError(f"--grid must look like '21x21', got {text!r}")
    if nt < 2 or nx < 2:
        raise SchemaError(f"--grid needs nt, nx >= 2, got {nt}x{nx}")
    return nt, nx


def _read_spec(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- eval --------------------------------------------------------------------


def _csv_row(sol, t, x, res=None):
    """One CSV row; the residual column holds |res|, empty when res is None."""
    u = complex(sol(t, x))
    col = "" if res is None else repr(float(abs(res)))
    return f"{t!r},{x!r},{u.real!r},{u.imag!r},{col}"


def _atom_rows(sol, parsed, ts, xs, emit):
    """Extra rows at atom coordinates, with the atom-row residuals."""
    rows = []
    for tau, _gap in parsed.g.atoms_in(0.0, parsed.T):
        for x in xs:
            res = sol.jump_residual_t(tau, x) if emit else None
            rows.append(_csv_row(sol, tau, x, res))
    for xi, _gap in parsed.h.atoms_in(0.0, parsed.L):
        for t in ts:
            res = sol.jump_residual_x(t, xi) if emit else None
            rows.append(_csv_row(sol, t, xi, res))
    return rows


def cmd_eval(args, parsed):
    sol, _info = solve(parsed)
    nt, nx = _parse_grid(args.grid)
    ts = [parsed.T * i / (nt - 1) for i in range(nt)]
    xs = [parsed.L * j / (nx - 1) for j in range(nx)]
    lines = ["t,x,u_re,u_im,residual"]
    res, fallbacks = sol.residual_grid(ts, xs) if args.emit_diagnostics else (None, [])
    # where the numeric residual raised, the exact rule residual stands in
    rule = {(i, j): sol.residual_rule(ts[i], xs[j]) for i, j, _ in fallbacks}
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            r = None if res is None else rule.get((i, j), res[i][j])
            lines.append(_csv_row(sol, t, x, r))
    if args.include_atoms:
        lines.extend(_atom_rows(sol, parsed, ts, xs, args.emit_diagnostics))
    _emit(lines, args.out)
    if fallbacks:
        i, j, e = fallbacks[0]
        print(f"eval: {len(fallbacks)} of {nt * nx} grid rows carry the rule residual "
              f"(0 by construction): their numeric residual raised, first at "
              f"(t, x) = ({ts[i]!r}, {xs[j]!r}): {_one_line(e)}", file=sys.stderr)
    return 0


# -- check -------------------------------------------------------------------


def _check_ftc(d, label, rows):
    """Both halves of the fundamental theorem on d, each derivative one
    gderiv call per point (the Gauss sum's per node).  A numeric derivative
    that does not settle FAILs its row; it does not end check."""
    f = lambda s: math.sin(s) + 0.25 * s
    F = indefinite(f, d.lo, d)
    pts = regular_points(d, d.lo, d.hi, 10)
    try:
        dev = max(abs(gderiv(F, t, d) - f(t)) for t in pts)
        row = (dev < 1e-6, f"max dev {dev:.3g} at 10 regular points")
    except NonConvergenceError as e:
        row = (False, f"gderiv of the integral: {_one_line(e)}")
    rows.append((f"ftc-derivative-of-integral({label})", *row))

    E = lambda s: gexp(d, 0.7, d.lo, s)
    D = lambda s: gderiv(E, s, d)
    b = pts[-1]
    try:
        dev2 = abs(integrate_gauss(D, d.lo, b, d) - (E(b) - E(d.lo)))
        row = (dev2 < 1e-6, f"dev {dev2:.3g}")
    except NonConvergenceError as e:
        row = (False, f"gderiv of the exponential: {_one_line(e)}")
    rows.append((f"ftc-integral-of-derivative({label})", *row))


def _check_special(d, label, rows):
    pts = regular_points(d, d.lo, d.hi, 8)
    E = lambda s: gexp(d, 0.8, d.lo, s)
    e = [E(t) for t in pts]
    dev = max(abs(gderiv(E, t, d) - 0.8 * w) for t, w in zip(pts, e))
    dev /= 1.0 + max(map(abs, e))
    rows.append((f"gexp-ode({label})", dev < 1e-6, f"max rel dev {dev:.3g}"))

    # Z = C + iS = exp_d(0.9i; lo, .): S' = 0.9 C and C' = -0.9 S, from one ladder
    Z = lambda s: gexp(d, 0.9j, d.lo, s)
    z, dz = [Z(t) for t in pts], [gderiv(Z, t, d) for t in pts]
    dev_s = max(abs(w.imag - 0.9 * v.real) for v, w in zip(z, dz))
    dev_c = max(abs(w.real + 0.9 * v.imag) for v, w in zip(z, dz))
    dev = max(dev_s, dev_c)
    rows.append((f"gsincos-ode({label})", dev < 1e-6, f"max dev {dev:.3g}"))


def _check_residual(sol, parsed, rows, tol):
    """Numeric residual on a 5x5 grid, one residual_grid pass; a raise FAILs
    the row (no rule stand-in), named by the first raising entry in row
    order."""
    ts = regular_points(parsed.g, 0.0, parsed.T, 5)
    xs = regular_points(parsed.h, 0.0, parsed.L, 5)
    res, errors = sol.residual_grid(ts, xs)
    if errors:
        i, j, e = errors[0]
        rows.append(("pde-residual", False, f"numeric residual at "
                     f"(t, x) = ({ts[i]!r}, {xs[j]!r}): {_one_line(e)}"))
        return
    dev = max(abs(res[i][j]) / (1.0 + abs(sol(t, x)))
              for i, t in enumerate(ts) for j, x in enumerate(xs))
    rows.append(("pde-residual", dev < tol,
                 f"max relative residual {dev:.3g} on a 5x5 regular grid (tol {tol:g})"))


def _check_atom_jumps(sol, parsed, rows):
    """Exact jump-quotient residuals at the atoms, scaled like pde-residual:
    |res| <= 1e-9 (1 + |u(t, x)|)."""
    g_atoms = parsed.g.atoms_in(0.0, parsed.T)
    h_atoms = parsed.h.atoms_in(0.0, parsed.L)
    if g_atoms:
        xs = regular_points(parsed.h, 0.0, parsed.L, 3)
        dev = max(abs(sol.jump_residual_t(tau, x)) / (1.0 + abs(sol(tau, x)))
                  for tau, _ in g_atoms for x in xs)
        rows.append(("atom-jump(t)", dev < 1e-9, f"max relative residual {dev:.3g}"))
    if h_atoms:
        ts = regular_points(parsed.g, 0.0, parsed.T, 3)
        dev = max(abs(sol.jump_residual_x(t, xi)) / (1.0 + abs(sol(t, xi)))
                  for xi, _ in h_atoms for t in ts)
        rows.append(("atom-jump(x)", dev < 1e-9, f"max relative residual {dev:.3g}"))


def _ivp_initial(h, spec, x):
    """u0(x) assembled independently through the complex exponential."""
    val = complex(spec["a0"]) + complex(spec["b0"]) * h.eval(x)
    for lam, a, b in spec["modes"]:
        sq = cmath.sqrt(lam)
        val += a * gexp(h, sq, 0.0, x) + b * gexp(h, -sq, 0.0, x)
    return val


def _check_mode(sol, info, parsed, rows):
    mode, p = parsed.mode, mode_params(parsed)
    if mode == "ivp":
        xs = [parsed.L * j / 200 for j in range(201)]
        dev = max(abs(complex(sol(0.0, x)) - _ivp_initial(parsed.h, p, x))
                  for x in xs)
        rows.append(("initial-values", dev < 1e-12,
                     f"max |u(0,x) - u0(x)| {dev:.3g} on 201 points"))
    elif mode == "periodic":
        ts = regular_points(parsed.g, 0.0, parsed.T, 7)
        L = parsed.L
        dev_u = max(abs(sol(t, 0.0) - sol(t, L)) for t in ts)
        dev_f = max(abs(sol.dhx_rule(t, 0.0) - sol.dhx_rule(t, L)) for t in ts)
        dev = max(dev_u, dev_f)
        rows.append(("boundary-periodicity", dev < 1e-6,
                     f"max value/flux mismatch {dev:.3g}"))
    elif mode == "dirichlet":
        ts = regular_points(parsed.g, 0.0, parsed.T, 7)
        dev = max(abs(sol(t, xb)) for t in ts for xb in (0.0, parsed.L))
        rows.append(("boundary-zero", dev < 1e-6, f"max |u| at x=0,L {dev:.3g}"))
    elif mode == "neumann":
        ts = regular_points(parsed.g, 0.0, parsed.T, 7)
        dev = max(abs(sol.dhx_rule(t, xb)) for t in ts for xb in (0.0, parsed.L))
        rows.append(("flux-zero", dev < 1e-6, f"max |du/dx| at x=0,L {dev:.3g}"))
    elif mode == "gpoly-series":
        gate = info["gate"]
        rows.append(("radius-gate", gate.ok,
                     f"g(T)={gate.g_T!r} vs sigma_gate/c^2="
                     f"{gate.sigma_gate / parsed.c**2!r} ({gate.trend})"))
        # the truncation must not cost more than the residual tolerance
        cap = 1e-5 * (1.0 + abs(sol(parsed.T, parsed.L)))
        rows.append(("tail-bound", gate.tail_bound <= cap,
                     f"tail {gate.tail_bound:.3g} at N={gate.truncation} vs "
                     f"1e-5 (1 + |u(T, L)|) = {cap:.3g}"))
        # the float grid the series sums, not the exact a_mn that hold the law by construction
        A, c2, worst = sol.A, parsed.c**2, 0.0
        for m in range(len(A) - 1):
            for n, a in enumerate(A[m + 1]):
                lhs, rhs = (m + 1) * a, c2 * (n + 2) * (n + 1) * A[m][n + 2]
                scale = max(abs(lhs), abs(rhs))
                dev = abs(lhs - rhs) / scale if scale else 0.0
                worst = max(worst, math.inf if math.isnan(dev) else dev)
        rows.append(("coefficient-law", worst <= 1e-9,
                     f"max rel dev {worst:.3g} of (m+1) A[m+1][n] from c^2 (n+2)(n+1) "
                     f"A[m][n+2] over the grid (tol 1e-9)"))
        for m, n, value in p["a_claims"]:
            want = complex(sol.a_mn(m, n))
            got = complex(value)
            ok = abs(got - want) <= 1e-9 * (1.0 + abs(want))
            rows.append((f"coefficient-claim(m={m},n={n})", ok,
                         f"claimed {got}, law gives {want}"))
    elif mode == "product-eigen":
        # Abel's identity: with no v'_h term the Wronskian is 1 at x = 0, constant
        # along pieces, and gains each atom matrix's determinant, its independence factor
        v1, v2 = (SpaceFactor(parsed.h, p["lam"], *ic) for ic in ((1.0, 0.0), (0.0, 1.0)))
        L = parsed.L
        # W(L) is a difference of two products that grow with lam: its rounding scales with
        # them, and a bound above 1e-6 |P| certifies nothing, so that row FAILs
        a, b = v1(L) * v2.derivative(L), v2(L) * v1.derivative(L)
        W, P = a - b, math.prod(f for _, f in sol.independence)
        bound = 1e-9 * (1.0 + abs(a) + abs(b))
        if bound > 1e-6 * abs(P):
            rows.append(("independence-determinant", False,
                         f"cannot certify: the rounding bound {bound:.3g} of W(L) = {W!r} "
                         f"exceeds 1e-6 |P| for atom factors P = {P!r}"))
        else:
            rows.append(("independence-determinant", abs(W - P) <= bound,
                         f"canonical IC pair gives W(L) = {W!r}, atom factors {P!r}"))
        kind = sol.regressivity.kind
        rows.append(("regressivity", kind != "degenerate",
                     f"time-factor rate is {kind}"))


def cmd_check(args, parsed):
    sol, info = solve(parsed)
    rows = []
    _check_ftc(parsed.g, "g", rows)
    _check_ftc(parsed.h, "h", rows)
    _check_special(parsed.g, "g", rows)
    _check_special(parsed.h, "h", rows)
    _check_mode(sol, info, parsed, rows)
    tol = 1e-5 if parsed.mode in ("gpoly-series", "product-eigen") else 1e-6
    _check_residual(sol, parsed, rows, tol)
    _check_atom_jumps(sol, parsed, rows)
    width = max(len(name) for name, _, _ in rows)
    lines = []
    for name, ok, detail in rows:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    failed = sum(1 for _, ok, _ in rows if not ok)
    if failed:
        lines.append(f"{failed} of {len(rows)} checks FAILED")
    else:
        lines.append(f"all {len(rows)} checks passed")
    _emit(lines, args.out)
    return 0 if failed == 0 else 1


# -- radius ------------------------------------------------------------------


def cmd_radius(args, parsed):
    if parsed.mode != "gpoly-series":
        raise SchemaError("radius requires a spec with mode 'gpoly-series'")
    p = mode_params(parsed)
    rep = radius_sigma(p["alpha"], n_probe=p["n_probe"])
    g_T = parsed.g.measure(0.0, parsed.T)
    lines = [
        f"sigma = {rep.sigma!r}",
        f"sigma_gate = {rep.sigma_gate!r}",
        f"trend = {rep.trend}",
        f"n_probe = {rep.n_probe}",
        f"g(T) = {g_T!r}",
        f"sigma_gate/c^2 = {rep.sigma_gate / parsed.c**2!r}",
    ]
    verdict = _gate_verdict(rep, g_T, parsed.c)
    if verdict == "refused":
        lines.append("gate = refused (no sigma claim for an oscillating trend)")
    else:
        lines.append(f"gate = {verdict}")
    _emit(lines, args.out)
    return 2 if verdict == "refused" else 0


# -- eigs --------------------------------------------------------------------


def cmd_eigs(args, parsed):
    if parsed.mode in TWO_VAR_MODES:
        raise SchemaError("eigs requires a separated problem (fields g and h)")
    mode_params(parsed)  # validate the mode payload, as eval and check do
    lam_range, count = scan_params(parsed)
    # Dirichlet and Neumann eigenvalues are the zeros of sin_h(L), the
    # others those of the periodic gate
    boundary = parsed.mode in ("dirichlet", "neumann")
    find = find_boundary_eigenvalues if boundary else find_periodic_eigenvalues
    eigs = find(parsed.problem, lam_range, count=count)
    lines = ["lam"] + [repr(lam) for lam in eigs]
    _emit(lines, args.out)
    return 0


# -- entry point ---------------------------------------------------------------


def _one_line(msg):
    return " ".join(str(msg).split())


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except ValueError as e:
        print(f"usage error: {_one_line(e)}", file=sys.stderr)
        return 3
    try:
        parsed = load_problem(_read_spec(args.spec))
        handler = {"eval": cmd_eval, "check": cmd_check,
                   "radius": cmd_radius, "eigs": cmd_eigs}[args.cmd]
        return handler(args, parsed)
    except GateError as e:
        print(f"gate error: {_one_line(e)}", file=sys.stderr)
        return 2
    except _PARSE_ERRORS as e:
        print(f"spec error: {_one_line(e)}", file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS as e:
        print(f"numeric failure: {_one_line(e)}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"cannot read spec: {_one_line(e)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

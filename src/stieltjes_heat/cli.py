"""Command-line front end: solve problem specs, evaluate grids, emit CSV,
and run the residual/invariant check suites.

Exit codes are the machine contract: 0 success, 2 gate refusal, 3 parse or
validation error, 4 numeric failure.  Stdout formats are documented but
advisory.
"""

import argparse
import cmath
import math
import sys
from fractions import Fraction

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
    StieltjesError,
)
from .gderiv import gderiv
from .heat1d import check_cos_condition, check_sin_condition, find_periodic_eigenvalues
from .heat2d import radius_sigma
from .lsintegral import indefinite, integrate_gauss
from .ode import solve_second_order
from .problems import load_problem, mode_params, scan_params, solve
from .special import gexp, gsin_gcos

_PARSE_ERRORS = (SchemaError, DomainError, InvariantError)
# OverflowError: float arithmetic past the double range (gexp, ratio**n)
_NUMERIC_ERRORS = (NonConvergenceError, DivergenceError, NoSolutionError,
                   EvaluationError, OverflowError)


def _parser():
    p = argparse.ArgumentParser(
        prog="stieltjes-heat",
        description="Heat equation with Stieltjes derivatives: solve problem "
        "specs, evaluate solution grids, scan eigenvalues, check invariants.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, desc in (
        ("eval", "solve the spec and write a t,x,u_re,u_im,residual CSV grid"),
        ("check", "run the residual/invariant suite; exit 0 iff all pass"),
        ("radius", "print the series radius estimate and the gate comparison"),
        ("eigs", "scan for periodic eigenvalues and print them"),
    ):
        s = sub.add_parser(name, help=desc)
        s.add_argument("spec", help="path to the problem JSON, or '-' for stdin")
        s.add_argument("--grid", default="21x21", metavar="NTxNX",
                       help="evaluation grid resolution (default 21x21)")
        s.add_argument("--out", default=None, metavar="PATH",
                       help="write output to PATH instead of stdout")
        s.add_argument("--tol", type=float, default=None, metavar="X",
                       help="solver tolerance override")
        s.add_argument("--include-atoms", action="store_true",
                       help="append rows at atom coordinates (exact jump laws)")
        s.add_argument("--emit-diagnostics", action="store_true",
                       help="populate the residual column of the CSV")
    return p


def _parse_grid(text):
    parts = text.lower().split("x")
    try:
        nt, nx = int(parts[0]), int(parts[1])
    except (ValueError, IndexError):
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


def _point_residual(sol, t, x):
    """Numeric residual where the quotients are well posed, the exact rule
    residual otherwise."""
    try:
        return sol.residual_numeric(t, x)
    except StieltjesError:
        return sol.residual_rule(t, x)


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
    sol, _info = solve(parsed, tol=args.tol)
    nt, nx = _parse_grid(args.grid)
    ts = [parsed.T * i / (nt - 1) for i in range(nt)]
    xs = [parsed.L * j / (nx - 1) for j in range(nx)]
    lines = ["t,x,u_re,u_im,residual"]
    for t in ts:
        for x in xs:
            res = _point_residual(sol, t, x) if args.emit_diagnostics else None
            lines.append(_csv_row(sol, t, x, res))
    if args.include_atoms:
        lines.extend(_atom_rows(sol, parsed, ts, xs, args.emit_diagnostics))
    _emit(lines, args.out)
    return 0


# -- check -------------------------------------------------------------------


def _check_ftc(d, label, rows):
    f = lambda s: math.sin(s) + 0.25 * s
    F = indefinite(f, d.lo, d)
    pts = regular_points(d, d.lo, d.hi, 10)
    dev = max(abs(gderiv(F, t, d) - f(t)) for t in pts)
    rows.append((f"ftc-derivative-of-integral({label})", dev < 1e-6,
                 f"max dev {dev:.3g} at 10 regular points"))

    E = lambda s: gexp(d, 0.7, d.lo, s)
    D = lambda s: gderiv(E, s, d)
    b = pts[-1]
    dev2 = abs(integrate_gauss(D, d.lo, b, d) - (E(b) - E(d.lo)))
    rows.append((f"ftc-integral-of-derivative({label})", dev2 < 1e-6,
                 f"dev {dev2:.3g}"))


def _check_special(d, label, rows):
    pts = regular_points(d, d.lo, d.hi, 8)
    E = lambda s: gexp(d, 0.8, d.lo, s)
    scale = 1.0 + max(abs(E(t)) for t in pts)
    dev = max(abs(gderiv(E, t, d) - 0.8 * E(t)) for t in pts) / scale
    rows.append((f"gexp-ode({label})", dev < 1e-6, f"max rel dev {dev:.3g}"))

    S = lambda s: gsin_gcos(d, 0.9, s, d.lo)[0]
    C = lambda s: gsin_gcos(d, 0.9, s, d.lo)[1]
    dev_s = max(abs(gderiv(S, t, d) - 0.9 * C(t)) for t in pts)
    dev_c = max(abs(gderiv(C, t, d) + 0.9 * S(t)) for t in pts)
    dev = max(dev_s, dev_c)
    rows.append((f"gsincos-ode({label})", dev < 1e-6, f"max dev {dev:.3g}"))


def _check_residual(sol, parsed, rows, tol):
    ts = regular_points(parsed.g, 0.0, parsed.T, 5)
    xs = regular_points(parsed.h, 0.0, parsed.L, 5)
    dev = max(
        abs(_point_residual(sol, t, x)) / (1.0 + abs(sol(t, x)))
        for t in ts
        for x in xs
    )
    rows.append(("pde-residual", dev < tol,
                 f"max relative residual {dev:.3g} on a 5x5 regular grid (tol {tol:g})"))


def _check_atom_jumps(sol, parsed, rows):
    g_atoms = parsed.g.atoms_in(0.0, parsed.T)
    h_atoms = parsed.h.atoms_in(0.0, parsed.L)
    if g_atoms:
        xs = regular_points(parsed.h, 0.0, parsed.L, 3)
        dev = max(abs(sol.jump_residual_t(tau, x)) for tau, _ in g_atoms for x in xs)
        rows.append(("atom-jump(t)", dev < 1e-9, f"max |residual| {dev:.3g}"))
    if h_atoms:
        ts = regular_points(parsed.g, 0.0, parsed.T, 3)
        dev = max(abs(sol.jump_residual_x(t, xi)) for xi, _ in h_atoms for t in ts)
        rows.append(("atom-jump(x)", dev < 1e-9, f"max |residual| {dev:.3g}"))


def _ivp_initial(h, spec, x):
    """u0(x) assembled independently through the complex exponential."""
    val = complex(spec["a0"]) + complex(spec["b0"]) * h.eval(x)
    for lam, a, b in spec["modes"]:
        sq = cmath.sqrt(lam)
        val += a * gexp(h, sq, 0.0, x) + b * gexp(h, -sq, 0.0, x)
    return val


def _check_mode(sol, info, parsed, rows, args):
    mode, p = parsed.mode, mode_params(parsed)
    if mode == "ivp":
        xs = [parsed.L * j / 200 for j in range(201)]
        dev = max(abs(complex(sol(0.0, x)) - _ivp_initial(parsed.h, p, x))
                  for x in xs)
        rows.append(("initial-values", dev < 1e-12,
                     f"max |u(0,x) - u0(x)| {dev:.3g} on 201 points"))
        _check_residual(sol, parsed, rows, 1e-6)
        _check_atom_jumps(sol, parsed, rows)
    elif mode == "general":
        _check_residual(sol, parsed, rows, 1e-6)
        _check_atom_jumps(sol, parsed, rows)
    elif mode == "periodic":
        ts = regular_points(parsed.g, 0.0, parsed.T, 7)
        L = parsed.L
        dev_u = max(abs(sol(t, 0.0) - sol(t, L)) for t in ts)
        dev_f = max(abs(sol.dhx_rule(t, 0.0) - sol.dhx_rule(t, L)) for t in ts)
        dev = max(dev_u, dev_f)
        rows.append(("boundary-periodicity", dev < 1e-6,
                     f"max value/flux mismatch {dev:.3g}"))
        _check_residual(sol, parsed, rows, 1e-6)
    elif mode == "dirichlet":
        _value, _tail, ok = check_sin_condition(parsed.h, p["lam"], parsed.L, N=p["N"])
        rows.append(("sine-gate", ok, "series value within its tail bound"))
        ts = regular_points(parsed.g, 0.0, parsed.T, 7)
        dev = max(abs(sol(t, xb)) for t in ts for xb in (0.0, parsed.L))
        rows.append(("boundary-zero", dev < 1e-6, f"max |u| at x=0,L {dev:.3g}"))
        _check_residual(sol, parsed, rows, 1e-6)
        _check_atom_jumps(sol, parsed, rows)
    elif mode == "neumann":
        _value, _tail, ok = check_cos_condition(parsed.h, p["lam"], parsed.L, N=p["N"])
        rows.append(("cosine-gate", ok, "series value within its tail bound"))
        ts = regular_points(parsed.g, 0.0, parsed.T, 7)
        dev = max(abs(sol.dhx_rule(t, xb)) for t in ts for xb in (0.0, parsed.L))
        rows.append(("flux-zero", dev < 1e-6, f"max |du/dx| at x=0,L {dev:.3g}"))
        _check_residual(sol, parsed, rows, 1e-6)
        _check_atom_jumps(sol, parsed, rows)
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
        _check_residual(sol, parsed, rows, 1e-5)
        _check_atom_jumps(sol, parsed, rows)
        ok = True
        for m in range(4):
            for n in range(5):
                lhs = sol.a_mn(m + 1, n)
                rhs = (Fraction(parsed.c) ** 2 * (n + 2) * (n + 1)
                       * sol.a_mn(m, n + 2) / (m + 1))
                if isinstance(lhs, complex) or isinstance(rhs, complex):
                    ok = ok and abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
                else:
                    ok = ok and lhs == rhs
        rows.append(("coefficient-law", ok,
                     "a(m+1,n) == c^2 (n+2)(n+1)/(m+1) a(m,n+2) for m<4, n<5"))
        for m, n, value in p["a_claims"]:
            want = complex(sol.a_mn(m, n))
            got = complex(value)
            ok = abs(got - want) <= 1e-9 * (1.0 + abs(want))
            rows.append((f"coefficient-claim(m={m},n={n})", ok,
                         f"claimed {got}, law gives {want}"))
    elif mode == "product-eigen":
        _check_residual(sol, parsed, rows, 1e-5)
        lam = p["lam"]
        h = parsed.h
        Q = lambda x: -lam / h.eval(x)
        kw = {} if args.tol is None else {"tol": args.tol}
        v1 = solve_second_order(h, None, Q, None, 1.0, 0.0, (0.0, parsed.L), **kw)
        v2 = solve_second_order(h, None, Q, None, 0.0, 1.0, (0.0, parsed.L), **kw)
        det = float(v1(0.0) * v2.derivative(0.0) - v2(0.0) * v1.derivative(0.0))
        rows.append(("independence-determinant", det == 1.0,
                     f"canonical IC pair gives det {det!r} at x=0"))
        kind = sol.regressivity.kind
        rows.append(("regressivity", kind != "degenerate",
                     f"time-factor rate is {kind}"))


def cmd_check(args, parsed):
    sol, info = solve(parsed, tol=args.tol)
    rows = []
    _check_ftc(parsed.g, "g", rows)
    _check_ftc(parsed.h, "h", rows)
    _check_special(parsed.g, "g", rows)
    _check_special(parsed.h, "h", rows)
    _check_mode(sol, info, parsed, rows, args)
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
    if math.isnan(rep.sigma_gate):
        lines.append("gate = refused (no sigma claim for an oscillating trend)")
    elif g_T < rep.sigma_gate / parsed.c**2:
        lines.append("gate = pass")
    else:
        lines.append("gate = fail")
    _emit(lines, args.out)
    return 0


# -- eigs --------------------------------------------------------------------


def cmd_eigs(args, parsed):
    if parsed.problem is None:
        raise SchemaError("eigs requires a separated problem (fields g and h)")
    lam_range, count = scan_params(parsed)
    eigs = find_periodic_eigenvalues(parsed.problem, lam_range, count=count)
    lines = ["lam"] + [repr(lam) for lam in eigs]
    _emit(lines, args.out)
    return 0


# -- entry point ---------------------------------------------------------------


def _one_line(msg):
    return " ".join(str(msg).split())


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.tol is not None and not args.tol > 0:
            raise SchemaError(f"--tol must be positive, got {args.tol}")
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

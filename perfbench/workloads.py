"""The three workloads: what one round runs, and how each output is checked.

A round is a fixed list of jobs, so every round attempts the same number of
operations whatever the seed:

* setup  - a fresh interpreter imports the CLI module and loads one spec;
* cli    - a fresh `stieltjes-heat eval SPEC --grid 21x21 --out FILE` process;
* check  - `cli.main(["check", SPEC])` in process, once per spec kind;
* build/read - per spec kind: load_problem + solve (the build), then values
  over the 21x21 CLI grid plus atom rows and numeric residual rows at a 3x3
  subgrid of the 5x5 regular-point grid `check` uses (the read).

Every job gets its own freshly generated spec, and the objects of the
previous job are collected first, so no job finds the monomial tables of
another in the process-wide cache.  Outputs are compared with the reference
module or with a property the method must have, never with stored output.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import time

import reference as ref
import specgen
# library calls go through module attributes, so that the tracer's wrappers
# see the benchmark's own calls too
from stieltjes_heat import cli, derivators, heat1d, problems
from stieltjes_heat.errors import DomainError, NonConvergenceError

GRID = 21
SETUP_CODE = (
    "import sys\n"
    "import stieltjes_heat.cli\n"
    "from stieltjes_heat.problems import load_problem\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    load_problem(fh.read())\n"
)
SUBPROCESS_TIMEOUT = 120
# Residual rows must satisfy |r| <= ROW_TOL (1 + |u|).  `check` asks 1e-6
# (1e-5 for gpoly and product), but its numeric second derivative now and
# then settles on a value about 1e-5 off, so a row check that tight would
# fail on some seeds only; 1e-4 still catches a residual that is wrong.
ROW_TOL = 1e-4


# Every in-process timing is scaled by PACE_REF / pace, where pace is the time
# of a fixed pure-Python kernel measured just before and just after the timed
# work.  On a shared 2-core host the speed of the whole machine flips between
# levels about 35% apart, for seconds to minutes at a time; the scaling takes
# that common factor out, so two runs of the same code agree.  PACE_REF is the
# kernel's time on the machine the README's reference figures come from, so
# scaled times read as seconds there.  Child processes (setup, cli) are not
# scaled: their time is mostly imports, which do not follow the kernel's
# pace.  The raw times are kept in the result file.
PACE_REF = 0.0005


def pace():
    """Median time of three runs of a fixed pure-Python kernel."""
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        table = {}
        for i in range(1500):
            acc = acc * 0.5 + _probe_step(i)
            table[i & 127] = acc
        runs.append(time.perf_counter() - start)
    return sorted(runs)[1]


def _probe_step(i):
    return math.sqrt(i) + (i % 13)


class Mismatch(Exception):
    """An output disagrees with its reference or property."""


class RoundResult:
    """Times of one round, in-process ones scaled (see PACE_REF); the raw
    in-process times are in `raw`."""

    def __init__(self):
        self.setup = []
        self.cli = []
        self.check = []
        self.solve = []
        self.n_values = 0
        self.t_values = 0.0
        self.n_rows = 0
        self.t_rows = 0.0
        self.raw = {"check": [], "solve": [], "t_values": 0.0, "t_rows": 0.0}
        self.attempted = 0
        self.failed = 0
        self.named_failures = 0  # classical periodic rows that raise
        self.unexpected = []  # failures other than the named periodic rows
        self.mismatches = []
        self.inproc_s = 0.0  # wall time of the in-process jobs
        self.trace_rows = {"residual_rows": 0, "f_evals": 0, "heat_gpoly": 0}

    def add(self, kind, seconds, pace_before, pace_after):
        """Record one in-process timing, scaled to the reference pace."""
        scaled = seconds * 2.0 * PACE_REF / (pace_before + pace_after)
        if kind in ("t_values", "t_rows"):
            setattr(self, kind, getattr(self, kind) + scaled)
            self.raw[kind] += seconds
        else:
            getattr(self, kind).append(scaled)
            self.raw[kind].append(seconds)

    def samples(self):
        return {k: getattr(self, k) for k in (
            "setup", "cli", "check", "solve", "n_values", "t_values", "n_rows", "t_rows",
            "raw")}


class Context:
    """Paths and settings shared by the jobs of one run."""

    def __init__(self, src, scratch):
        self.scratch = scratch
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.tracer = None
        self._n = 0

    @contextlib.contextmanager
    def quiet(self):
        """Keep spec generation and output checks out of the trace."""
        if self.tracer is None:
            yield
            return
        was, self.tracer.active = self.tracer.active, False
        try:
            yield
        finally:
            self.tracer.active = was

    def write_spec(self, spec):
        self._n += 1
        path = os.path.join(self.scratch, f"spec{self._n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return path

    def run(self, argv):
        """Run one child process to completion; returns (wall s, exit code)."""
        start = time.perf_counter()
        proc = subprocess.run(argv, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=SUBPROCESS_TIMEOUT)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
        return wall, proc.returncode


# -- grids ------------------------------------------------------------------------


def value_points(spec):
    """The CLI's 21x21 grid plus its atom rows (g atoms x xs, h atoms x ts)."""
    T, L = spec["T"], spec["L"]
    g, h = _drivers(spec)
    ts = [T * i / (GRID - 1) for i in range(GRID)]
    xs = [L * j / (GRID - 1) for j in range(GRID)]
    pts = [(t, x) for t in ts for x in xs]
    pts += [(tau, x) for tau, _ in g.atoms_in(0.0, T) for x in xs]
    pts += [(t, xi) for xi, _ in h.atoms_in(0.0, L) for t in ts]
    return pts


def residual_points(parsed, n=5, stride=2):
    ts = derivators.regular_points(parsed.g, 0.0, parsed.T, n)[::stride]
    xs = derivators.regular_points(parsed.h, 0.0, parsed.L, n)[::stride]
    return [(t, x) for t in ts for x in xs]


def _grid_edge(pts, axis):
    """The last grid coordinate, L * 20 / 20 as the CLI computes it (which
    may differ from L in the last bit)."""
    return max(p[axis] for p in pts)


def _drivers(spec):
    if "G" in spec:
        return ref.Driver(spec["G"]["g"]), ref.Driver(spec["G"]["h"])
    return ref.Driver(spec["g"]), ref.Driver(spec["h"])


# -- output checks ------------------------------------------------------------------


def _close(got, want, rtol, what):
    if not abs(got - want) <= rtol * (1.0 + abs(want)):
        raise Mismatch(f"{what}: got {got!r}, reference {want!r}")


def check_separated(spec, pts, vals, sol=None):
    g, h = _drivers(spec)
    for (t, x), u in zip(pts, vals):
        _close(u, ref.separated_value(spec, g, h, t, x), 1e-8, f"u({t}, {x})")
    mode, L = spec["mode"], spec["L"]
    ts = sorted({t for t, _ in pts})
    if mode == "dirichlet":
        for t in ts:
            for xb in (0.0, L):
                _close(ref.separated_value(spec, g, h, t, xb), 0.0, 1e-8, "reference boundary")
        edge = _grid_edge(pts, 1)
        for (t, x), u in zip(pts, vals):
            if x in (0.0, edge):
                _close(u, 0.0, 1e-8, f"Dirichlet value u({t}, {x})")
    if mode == "neumann" and sol is not None:
        # cos_h' = -s sin_h vanishes where the phase is a multiple of pi
        s = (-spec["neumann"]["lam"]) ** 0.5
        _close(math.remainder(ref.phase(h, s, L), 2 * math.pi), 0.0, 1e-9, "Neumann phase")
        for t in ts:
            for xb in (0.0, L):
                _close(sol.dhx_rule(t, xb), 0.0, 1e-8, f"Neumann flux at ({t}, {xb})")


def check_gpoly(spec, pts, vals, tail, sol_2n=None):
    """inv-factorial: the generating-function identity within the tail bound;
    inv-sqrt-factorial: |u_N - u_2N| <= tail bound (sol_2n given)."""
    g, h = _drivers(spec)
    kind = spec["gpoly-series"]["alpha"]["kind"]
    pairs = list(zip(pts, vals))
    if sol_2n is not None:
        pairs = pairs[::20]  # u_2N costs four times a value of u_N
    for (t, x), u in pairs:
        if kind == "inv-factorial":
            want = ref.gpoly_generating_value(spec, g, h, t, x)
            if not abs(u - want) <= tail + 1e-12 * (1.0 + abs(want)):
                raise Mismatch(f"u({t}, {x}) = {u!r} vs generating value {want!r} "
                               f"beyond tail bound {tail!r}")
        elif sol_2n is not None:
            want = sol_2n(t, x)
            if not abs(u - want) <= tail + 1e-12 * (1.0 + abs(want)):
                raise Mismatch(f"|u_N - u_2N| at ({t}, {x}) exceeds tail bound {tail!r}")


def check_periodic(spec, pts, vals):
    """u = exp_g(lam c^2; 0, t) v(x) with v in span{cos, sin}(s mu_h(x)) and
    u(t, 0) = u(t, L)."""
    g, h = _drivers(spec)
    lam = spec["periodic"]["lam"]
    rate = lam * spec["c"] ** 2
    edge = _grid_edge(pts, 1)
    table = dict(zip(pts, vals))
    xs = sorted({x for _, x in pts if (0.0, x) in table})
    v = [table[(0.0, x)] for x in xs]
    if ref.periodic_family_defect(h, lam, xs, v) > 1e-6:
        raise Mismatch("spatial factor leaves the cos/sin family of the eigenvalue")
    scale = max(abs(a) for a in v)
    for (t, x), u in zip(pts, vals):
        if (0.0, x) in table:
            want = ref.exp_g(g, rate, 0.0, t) * table[(0.0, x)]
            if not abs(u - want) <= 1e-8 * scale:
                raise Mismatch(f"u({t}, {x}) is not w(t) v(x)")
        if x == 0.0 and (t, edge) in table:
            if not abs(u - table[(t, edge)]) <= 1e-6 * scale:
                raise Mismatch(f"u({t}, 0) != u({t}, L)")


def check_product(spec, pts, vals):
    """w from the closed form on affine pieces, v from an independent RK4."""
    g, h = _drivers(spec)
    p = spec["product-eigen"]
    lam, c = p["lam"], spec["c"]
    xs = sorted({x for _, x in pts})
    v = dict(zip(xs, ref.product_space_factor(h, lam, p["v0"], p["dv0"], xs)))
    scale = max(abs(a) for a in v.values())
    for (t, x), u in zip(pts, vals):
        want = ref.exp_g_inverse_square(g, lam * c * c, t) * v[x]
        if not abs(u - want) <= 1e-6 * (scale + abs(want)):
            raise Mismatch(f"u({t}, {x}) = {u!r}, reference {want!r}")


# -- jobs --------------------------------------------------------------------------------


def setup_job(ctx, res, spec):
    path = ctx.write_spec(spec)
    res.attempted += 1
    wall, rc = ctx.run([sys.executable, "-c", SETUP_CODE, path])
    if rc != 0:
        res.failed += 1
        res.unexpected.append(f"setup exited {rc}")
        return
    res.setup.append(wall)


def cli_job(ctx, res, spec, verify):
    path = ctx.write_spec(spec)
    out = path[:-5] + ".csv"
    res.attempted += 1
    wall, rc = ctx.run([sys.executable, "-m", "stieltjes_heat.cli", "eval", path,
                        "--grid", f"{GRID}x{GRID}", "--out", out])
    if rc != 0:
        res.failed += 1
        res.unexpected.append(f"cli eval exited {rc}")
        return
    res.cli.append(wall)
    with ctx.quiet():
        _verify_csv(out, spec, verify)


def _verify_csv(out, spec, verify):
    pts, vals = [], []
    with open(out, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t,x,u_re,u_im,residual":
            raise Mismatch(f"CSV header {header!r}")
        for line in fh:
            t, x, re, im, _res = line.strip().split(",")
            pts.append((float(t), float(x)))
            vals.append(complex(float(re), float(im)))
    if len(pts) != GRID * GRID:
        raise Mismatch(f"CSV has {len(pts)} rows, expected {GRID * GRID}")
    verify(spec, pts, vals)


def check_job(ctx, res, spec):
    path = ctx.write_spec(spec)
    gc.collect()
    buf = io.StringIO()
    res.attempted += 1
    before = pace()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["check", path])
    wall = time.perf_counter() - start
    after = pace()
    res.inproc_s += wall
    lines = buf.getvalue().strip().splitlines()
    last = lines[-1] if lines else ""
    if rc != 0 or not last.startswith("all "):
        res.failed += 1
        res.unexpected.append(f"check exited {rc}: {last}")
        return
    res.add("check", wall, before, after)


def build_read_job(ctx, res, spec, kind, verify, rows=True, timed_solve=True):
    """Build (load_problem + solve), then read values and residual rows."""
    text = json.dumps(spec)
    gc.collect()
    tr = ctx.tracer
    res.attempted += 1
    p_solve = pace()
    start = time.perf_counter()
    parsed = problems.load_problem(text)
    if kind == "periodic":
        # the scan supplies lam: the eigenvalue nearest the spec's own
        payload = parsed.payload
        eigs = heat1d.find_periodic_eigenvalues(
            parsed.problem, tuple(payload["lam_range"]), count=payload["count"])
        payload["lam"] = min(eigs, key=lambda e: abs(e - spec["periodic"]["lam"]))
    sol, info = problems.solve(parsed)
    t_solve = time.perf_counter() - start
    p_values = pace()
    if timed_solve:
        res.add("solve", t_solve, p_solve, p_values)
    res.inproc_s += t_solve

    pts = value_points(spec) if verify is not None else []
    start = time.perf_counter()
    vals = [complex(sol(t, x)) for t, x in pts]
    t_vals = time.perf_counter() - start
    p_rows = pace()
    # the grid is one operation: how many atom rows it has depends on the spec
    res.attempted += 1 if pts else 0
    if pts:
        res.n_values += len(pts)
        res.add("t_values", t_vals, p_values, p_rows)
    res.inproc_s += t_vals

    if rows:
        grid = (residual_points(parsed, 7, 1) if kind == "classical"
                else residual_points(parsed))
        before = (tr.f_evals, tr.calls("heat2d.heat_gpoly")) if tr else None
        residual = sol.residual if kind == "product" else sol.residual_numeric
        kw = {"mode": "numeric"} if kind == "product" else {}
        out = []
        start = time.perf_counter()
        for t, x in grid:
            try:
                out.append((t, x, residual(t, x, **kw)))
            except (DomainError, NonConvergenceError) as e:
                if kind != "classical":
                    raise
                out.append((t, x, e))
        t_rows = time.perf_counter() - start
        res.attempted += len(grid)
        res.n_rows += len(grid)
        res.add("t_rows", t_rows, p_rows, pace())
        res.inproc_s += t_rows
        if tr:
            res.trace_rows["residual_rows"] += len(grid)
            res.trace_rows["f_evals"] += tr.f_evals - before[0]
            res.trace_rows["heat_gpoly"] += tr.calls("heat2d.heat_gpoly") - before[1]
        raised = sum(1 for _t, _x, r in out if isinstance(r, Exception))
        res.failed += raised
        res.named_failures += raised
        with ctx.quiet():
            for t, x, r in out:
                if not isinstance(r, Exception) and not abs(r) <= ROW_TOL * (1.0 + abs(sol(t, x))):
                    raise Mismatch(f"{kind} residual {r!r} at ({t}, {x}) beyond {ROW_TOL}")

    with ctx.quiet():
        _verify_build(spec, kind, verify, sol, info, pts, vals,
                      eigs if kind == "periodic" else None)


def _verify_build(spec, kind, verify, sol, info, pts, vals, eigs):
    if kind == "periodic":
        count = spec["periodic"]["count"]
        want = ref.periodic_eigenvalues(_drivers(spec)[1], spec["L"], count)
        if len(eigs) != len(want) or any(
                abs(a - b) > 1e-8 * (1.0 + abs(b)) for a, b in zip(eigs, want)):
            raise Mismatch(f"periodic eigenvalues {eigs} vs reference {want}")
    if verify is not None:
        if kind == "gpoly":
            tail = info["gate"].tail_bound
            if not tail <= 1e-5 * (1.0 + abs(sol(spec["T"], spec["L"]))):
                raise Mismatch(f"tail bound {tail!r} above the check tolerance")
            sol_2n = None
            if spec["gpoly-series"]["alpha"]["kind"] == "inv-sqrt-factorial":
                sol_2n = _gpoly_solution(spec, 2 * spec["gpoly-series"]["N"])[0]
            verify(spec, pts, vals, tail, sol_2n)
        elif kind == "separated":
            verify(spec, pts, vals, sol)
        else:
            verify(spec, pts, vals)


# -- spec preparation ---------------------------------------------------------------------------


def _gpoly_solution(spec, N):
    s = dict(spec)
    s["gpoly-series"] = dict(spec["gpoly-series"], N=N)
    parsed = problems.load_problem(json.dumps(s))
    sol, info = problems.solve(parsed)
    return sol, info["gate"].tail_bound, parsed


def _tail_ok(spec, N):
    sol, tail, parsed = _gpoly_solution(spec, N)
    return tail <= 1e-5 * (1.0 + abs(sol(parsed.T, parsed.L)))


def with_truncation(ctx, spec):
    """Set N to the smallest truncation whose reported tail bound is below
    the check tolerance 1e-5 (1 + |u(T, L)|)."""
    with ctx.quiet():
        return _truncate(spec)


def _truncate(spec):
    hi = 4
    while not _tail_ok(spec, hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_ok(spec, mid):
            hi = mid
        else:
            lo = mid
    spec["gpoly-series"]["N"] = hi
    return spec


def fresh(ctx, make, *args):
    """A newly generated spec; every spec goes through load_problem before
    any job times it."""
    with ctx.quiet():
        spec = make(*args)
        problems.load_problem(json.dumps(spec))
    return spec


# -- rounds -----------------------------------------------------------------------------------


def _guarded(res, fn, *args):
    try:
        fn(*args)
    except Mismatch as e:
        res.mismatches.append(str(e))
    except Exception as e:  # a job that crashed: count it, keep the run going
        res.failed += 1
        res.unexpected.append(f"{fn.__name__}: {type(e).__name__}: {e}")


def _check_rng(workload, r):
    """Specs of the check jobs come from a pool that does not depend on the
    seed: `check` fails now and then on random specs (a numeric derivative
    that settles on a wrong value, or on none), and an operation that fails
    on some seeds only would make the failed share differ between runs."""
    return random.Random(f"{workload}:check:{r}")


def separated_round(ctx, res, rng, r):
    modes = specgen.SEPARATED_MODES
    gen = lambda m, g=rng: fresh(ctx, specgen.separated_spec, g, m)
    _guarded(res, setup_job, ctx, res, gen(modes[r % 4]))
    _guarded(res, cli_job, ctx, res, gen(modes[(r + 1) % 4]), check_separated)
    pool = _check_rng("separated", r)
    for m in modes:
        _guarded(res, check_job, ctx, res, gen(m, pool))
    for m in modes:
        _guarded(res, build_read_job, ctx, res, gen(m), "separated", check_separated)


def gpoly_round(ctx, res, rng, r):
    kinds = specgen.GPOLY_KINDS
    gen = lambda k, g=rng: with_truncation(ctx, fresh(ctx, specgen.gpoly_spec, g, k))

    def cli_check(spec, pts, vals):
        sol, tail, _ = _gpoly_solution(spec, spec["gpoly-series"]["N"])
        sol_2n = None
        if spec["gpoly-series"]["alpha"]["kind"] == "inv-sqrt-factorial":
            sol_2n = _gpoly_solution(spec, 2 * spec["gpoly-series"]["N"])[0]
        check_gpoly(spec, pts, vals, tail, sol_2n)

    _guarded(res, setup_job, ctx, res, gen(kinds[r % 2]))
    _guarded(res, cli_job, ctx, res, gen(kinds[(r + 1) % 2]), cli_check)
    pool = _check_rng("gpoly", r)
    for k in kinds:
        _guarded(res, check_job, ctx, res, gen(k, pool))
    for k in kinds:
        _guarded(res, build_read_job, ctx, res, gen(k), "gpoly", check_gpoly)


def ode_round(ctx, res, rng, r):
    makers = {"periodic": (specgen.periodic_spec, check_periodic),
              "product": (specgen.product_spec, check_product)}
    kinds = ("periodic", "product")
    gen = lambda k, g=rng: fresh(ctx, makers[k][0], g)
    _guarded(res, setup_job, ctx, res, gen(kinds[r % 2]))
    k = kinds[(r + 1) % 2]
    _guarded(res, cli_job, ctx, res, gen(k), makers[k][1])
    pool = _check_rng("ode", r)
    for k in kinds:
        _guarded(res, check_job, ctx, res, gen(k, pool))
    for k in kinds:
        # random periodic specs get no residual rows: how many of them fail
        # to converge depends on the spec (see the classical rows below)
        _guarded(res, build_read_job, ctx, res, gen(k), k, makers[k][1],
                 k == "product")
    # the named fault: numeric residual rows of the classical periodic problem
    _guarded(res, build_read_job, ctx, res, specgen.CLASSICAL_PERIODIC, "classical",
             None, True, False)


ROUNDS = {"separated": separated_round, "gpoly": gpoly_round, "ode": ode_round}

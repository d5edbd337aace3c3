"""Seeded benchmark of the stieltjes-heat library and CLI.

    python3 perfbench/run.py --workload separated|gpoly|ode --seed N \
        --seconds S --trace 0|1

Runs whole rounds of the workload (see workloads.py) for about S seconds,
checks every output against the reference module and the method's own
properties, prints each metric as
`name = value unit`, and prints one JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 runs every round twice
on the same specs, once plain and once with the per-module tracer installed,
and reports the per-layer metrics of the traced passes plus the tracing
overhead.  Result files go to perfbench/out/.  The library is imported from
src/ next to this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MIN_ROUNDS = 2

END_TO_END_UNITS = {
    "setup_s": "s", "cli_s": "s", "solve_s": "s", "values_per_s": "1/s",
    "residuals_per_s": "1/s", "check_s": "s", "peak_rss_mb": "MB",
}


def _load_library():
    """Import the library from src/; exit with code 2 when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "stieltjes_heat", "__init__.py")):
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import stieltjes_heat

    if not os.path.abspath(stieltjes_heat.__file__).startswith(SRC + os.sep):
        print(f"perfbench: stieltjes_heat imported from {stieltjes_heat.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


def run_rounds(workload, seed, seconds, traced, scratch, min_rounds=None):
    """Whole rounds until the next one would end past `seconds`.

    Returns (plain results, traced results, tracer); round r of every pass
    draws its specs from the same seed string, so both passes see the same
    inputs.
    """
    import tracer as tracing
    import workloads

    ctx = workloads.Context(SRC, scratch)
    if min_rounds is None:
        # a traced round runs twice, and its traced pass is slower
        min_rounds = 1 if traced else MIN_ROUNDS
    tr = tracing.Tracer() if traced else None
    plain, with_trace = [], []
    start = time.perf_counter()
    r = 0
    while True:
        for on in ((False, True) if traced else (False,)):
            res = workloads.RoundResult()
            rng = random.Random(f"{workload}:{seed}:{r}")
            if on:
                tr.install()
                ctx.tracer = tr
            try:
                workloads.ROUNDS[workload](ctx, res, rng, r)
            finally:
                if on:
                    tr.uninstall()
                    ctx.tracer = None
            (with_trace if on else plain).append(res)
        r += 1
        elapsed = time.perf_counter() - start
        if r >= min_rounds and elapsed * (r + 1) / r > seconds:
            return plain, with_trace, tr


def _mean(xs):
    return sum(xs) / len(xs)


def end_to_end(rounds):
    """Medians of the child-process times; means and work rates of the
    in-process phases over the whole run, from pace-scaled times."""
    setup = [s for r in rounds for s in r.setup]
    cli = [s for r in rounds for s in r.cli]
    solve = [s for r in rounds for s in r.solve]
    check = [s for r in rounds for s in r.check]
    t_values = sum(r.t_values for r in rounds)
    t_rows = sum(r.t_rows for r in rounds)
    values = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "cli_s": statistics.median(cli) if cli else 0.0,
        "solve_s": _mean(solve) if solve else 0.0,
        "values_per_s": sum(r.n_values for r in rounds) / t_values if t_values else 0.0,
        "residuals_per_s": sum(r.n_rows for r in rounds) / t_rows if t_rows else 0.0,
        "check_s": _mean(check) if check else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(plain, traced, tr):
    """Per-round counts and self times of each module, from the traced passes."""
    import tracer as tracing

    n = len(traced)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer, (calls, self_s) in tr.layer_totals().items():
        put(f"{layer}.calls", calls / n, "count")
        put(f"{layer}.self_s", self_s / n, "s")
        path = os.path.join(SRC, tracing.PACKAGE, f"{layer}.py")
        with open(path, encoding="utf-8") as fh:
            put(f"{layer}.lines", sum(1 for _ in fh), "lines")
    put("special.gexp_const.calls", tr.calls("special.gexp_const") / n, "count")
    put("special.gexp_callable.calls", tr.calls("special.gexp_callable") / n, "count")
    put("special.monomial_evals", tr.calls("special.MonomialTable.eval") / n, "count")
    put("lsintegral.quad.calls", tr.calls("lsintegral.quad") / n, "count")
    rows = sum(r.trace_rows["residual_rows"] for r in traced)
    f_evals = sum(r.trace_rows["f_evals"] for r in traced)
    gpoly_rows = sum(r.trace_rows["heat_gpoly"] for r in traced)
    put("gderiv.u_evals_per_residual", f_evals / rows if rows else 0.0, "count")
    attempts = tr.calls("gderiv.gderiv")
    put("gderiv.converged_per_attempt",
        (attempts - tr.raised("gderiv.gderiv")) / attempts if attempts else 1.0, "ratio")
    put("heat2d.heat_gpoly.calls", tr.calls("heat2d.heat_gpoly") / n, "count")
    put("heat2d.heat_gpoly_per_residual", gpoly_rows / rows if rows else 0.0, "count")
    put("ode.solves.calls", (tr.calls("ode.solve_second_order")
                             + tr.calls("ode.solve_periodic_first_order")) / n, "count")
    put("ode.dense_evals", tr.calls("ode.HermiteCurve.__call__") / n, "count")
    put("heat1d.eig_scan_s", tr.seconds("heat1d.find_periodic_eigenvalues") / n, "s")
    put("trace.overhead_ratio",
        sum(r.inproc_s for r in traced) / sum(r.inproc_s for r in plain), "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("separated", "gpoly", "ode"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _load_library()
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch)
    try:
        plain, traced, tr = run_rounds(args.workload, args.seed, args.seconds,
                                       bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    everything = plain + traced
    problems = [m for r in everything for m in r.mismatches + r.unexpected]
    for msg in problems[:20]:
        print(f"perfbench: {msg}", file=sys.stderr)
    metrics = per_layer(plain, traced, tr) if args.trace else end_to_end(plain)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(r.failed for r in everything),
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(dict(result, problems=problems, functions=tr.dump() if tr else None,
                       rounds=[r.samples() for r in plain]), fh, indent=1)
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

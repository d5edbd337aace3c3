"""Quick self-test of the benchmark: `python3 perfbench/selftest.py`.

1. The reference module against values worked out by hand.
2. One round of each workload at tiny size (a 6x6 CLI grid), plain and
   traced: every output must match its reference, and the only failed
   operations must be the named periodic residual rows.
3. The entry point must refuse, with a nonzero exit code, to run in a
   directory that holds the benchmark but not the library.

Exits 0 when everything holds.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import run  # noqa: E402

WORKED_G = {"segments": [
    {"from": 0.0, "to": 0.5, "kind": "affine", "slope": 1.0, "intercept": 0.0},
    {"from": 0.5, "to": 1.5, "kind": "affine", "slope": 1.0, "intercept": 1.0}],
    "atoms": [{"t": 0.5, "gap": 1.0}]}
WORKED_H = {"segments": [
    {"from": 0.0, "to": 1.0, "kind": "affine", "slope": 1.0, "intercept": 2.0},
    {"from": 1.0, "to": 1.5, "kind": "flat", "level": 3.0},
    {"from": 1.5, "to": 2.5, "kind": "affine", "slope": 2.0, "intercept": 1.0}],
    "atoms": [{"t": 1.5, "gap": 1.0}]}
IDENTITY = {"segments": [
    {"from": 0.0, "to": 2.0, "kind": "affine", "slope": 1.0, "intercept": 1.0}],
    "atoms": []}


def _near(got, want, tol=1e-12):
    assert abs(got - want) <= tol * (1.0 + abs(want)), (got, want)


def reference_hand_values():
    g, h = ref.Driver(WORKED_G), ref.Driver(WORKED_H)
    # the README's worked exponential: e^0.15 * 1.3 * e^0.15
    _near(ref.exp_g(g, 0.3, 0.0, 1.0), math.exp(0.15) * 1.3 * math.exp(0.15))
    # left continuity at the atom of h, and the flat run before it
    _near(h(1.5), 3.0)
    _near(h(1.25), 3.0)
    _near(h(2.0), 5.0)
    # worked IVP: u = 1 - h(x) + 2 w(t) exp_h(sqrt(0.6); 0, x), c = 0.5
    spec = {"mode": "ivp", "c": 0.5, "ivp": {"a0": 1.0, "b0": -1.0,
            "modes": [{"lam": 0.6, "a": 2.0, "b": 0.0}]}}
    s = math.sqrt(0.6)
    want = 1 - 5 + 2 * 1.15 * math.exp(0.15) * (1 + s) * math.exp(2 * s)
    _near(ref.separated_value(spec, g, h, 1.0, 2.0), want)
    # sin_h(s; 0, L) = 0 at phase pi: the identity driver gives s = pi / L
    ident = ref.Driver(IDENTITY)
    _near(ref.phase_root(ident, 1.0, math.pi), math.pi)
    _near(ref.periodic_eigenvalues(ident, 1.0, 2)[1], -4 * math.pi ** 2)
    xs = [0.1 * k for k in range(11)]
    vs = [complex(math.cos(2 * math.pi * x), 0.5) for x in xs]
    assert ref.periodic_family_defect(ident, -4 * math.pi ** 2, xs, vs) > 0.1
    vs = [2 * math.cos(2 * math.pi * x) - 1j * math.sin(2 * math.pi * x) for x in xs]
    assert ref.periodic_family_defect(ident, -4 * math.pi ** 2, xs, vs) < 1e-12
    # product time factor on g = t + 1: exp(q (1 - 1/(1 + t)))
    _near(ref.exp_g_inverse_square(ident, 0.8, 1.0), math.exp(0.4))
    # lam = 0 makes v affine in h; the atom of h adds v'_h(1.5) gap = 2
    v = ref.product_space_factor(h, 0.0, 1.0, 2.0, [1.0, 1.5, 2.0])
    _near(v[0].real, 3.0, 1e-10)
    _near(v[1].real, 3.0, 1e-10)
    _near(v[2].real, 1.0 + 2.0 * (5.0 - 2.0), 1e-10)
    # the generating identity at the origin
    _near(ref.gpoly_generating_value({"c": 0.7}, g, h, 0.0, 0.0), 1.0)
    print("reference hand values: ok")


def tiny_rounds():
    import workloads

    workloads.GRID = 6
    scratch = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(scratch)
    try:
        for workload in ("separated", "gpoly", "ode"):
            plain, traced, tr = run.run_rounds(workload, 0, 0.0, workload == "ode",
                                               scratch, min_rounds=1)
            for res in plain + traced:
                assert not res.mismatches, res.mismatches
                assert not res.unexpected, res.unexpected
                assert res.failed == res.named_failures, (res.failed, res.named_failures)
                assert res.named_failures == (14 if workload == "ode" else 0)
            metrics = run.end_to_end(plain)
            assert all(m["value"] > 0 for m in metrics.values()), metrics
            if traced:
                layers = run.per_layer(plain, traced, tr)
                for name in ("ode.solves.calls", "ode.dense_evals", "heat1d.eig_scan_s",
                             "special.gexp_callable.calls", "lsintegral.quad.calls",
                             "gderiv.u_evals_per_residual", "cli.calls"):
                    assert layers[name]["value"] > 0, name
                assert layers["trace.overhead_ratio"]["value"] > 1.0
            print(f"{workload}: one tiny round ok "
                  f"({plain[0].attempted} operations, {plain[0].failed} failed)")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def refuses_without_library():
    bare = os.path.join(run.OUT, f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "separated", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0, proc.stdout
        assert "{" not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("refuses to run without the library: ok")


if __name__ == "__main__":
    run._load_library()
    reference_hand_values()
    tiny_rounds()
    refuses_without_library()
    print("selftest passed")

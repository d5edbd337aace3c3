"""What a fresh process imports: no numpy on any solve, eval or check path.

The closed forms are evaluated by scalar walks and the heat-polynomial
series by list contractions, so importing the CLI, loading any spec,
solving, evaluating and checking every mode, with or without the residual
grid of `eval --emit-diagnostics`, the periodic eigenvalue scan and the
radius report leave numpy unimported; only the test oracles in `ode` and
`G_mn(method="recursion")` import it.  Each test starts its own interpreter,
since this test process has numpy loaded already.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPECS = ROOT / "demos" / "specs"


def _run(code, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def _unit_spec(mode, payload):
    ident = {"segments": [{"from": 0.0, "to": 1.0, "kind": "affine",
                           "slope": 1.0, "intercept": 0.0}]}
    return {"g": ident, "h": ident, "c": 1.0, "T": 1.0, "L": 1.0,
            "mode": mode, mode: payload}


def test_scalar_paths_import_no_numpy(tmp_path):
    inline = {
        "dirichlet": _unit_spec("dirichlet", {"lam": -(math.pi**2), "a": 1.0}),
        "neumann": _unit_spec("neumann", {"lam": -((2 * math.pi) ** 2), "b": 1.0}),
        "general": _unit_spec("general", {"terms": [{"lam": 0.5, "a": 1.0, "b": -0.5}]}),
    }
    solved = [str(SPECS / f"{n}.json") for n in ("worked_ivp", "periodic_classical",
                                                  "product_eigen")]
    for name, spec in inline.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        solved.append(str(path))
    code = (
        "import contextlib, io, json, sys\n"
        "import stieltjes_heat.cli as cli\n"
        "from stieltjes_heat.problems import load_problem, solve\n"
        "seen = ['numpy' in sys.modules]\n"
        "demos, solved = json.loads(sys.argv[1]), json.loads(sys.argv[2])\n"
        "for path in demos + solved:\n"
        "    load_problem(open(path).read())\n"
        "seen.append('numpy' in sys.modules)\n"
        "rcs = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for path in solved:\n"
        "        sol, _ = solve(load_problem(open(path).read()))\n"
        "        [sol(t, x) for t in (0.0, 0.3, 0.9) for x in (0.1, 0.5, 0.95)]\n"
        "        rcs.append(cli.main(['eval', path, '--grid', '5x5']))\n"
        "        rcs.append(cli.main(['eval', path, '--grid', '5x5', '--include-atoms',\n"
        "                             '--emit-diagnostics']))\n"
        "    rcs.append(cli.main(['eigs', solved[1]]))\n"
        "    seen.append('numpy' in sys.modules)\n"
        "    # the heat-polynomial series runs on lists\n"
        "    rcs.append(cli.main(['eval', sys.argv[3], '--grid', '5x5']))\n"
        "    rcs.append(cli.main(['eval', sys.argv[3], '--grid', '5x5', '--include-atoms',\n"
        "                         '--emit-diagnostics']))\n"
        "    rcs.append(cli.main(['check', sys.argv[3]]))\n"
        "    rcs.append(cli.main(['radius', sys.argv[3]]))\n"
        "seen.append('numpy' in sys.modules)\n"
        "print(seen, rcs)\n"
    )
    demos = sorted(str(p) for p in SPECS.glob("*.json"))
    last = _run(code, json.dumps(demos), json.dumps(solved), str(SPECS / "gpoly_gate.json"))
    assert last == f"[False, False, False, False] {[0] * (2 * len(solved) + 5)}"


def test_check_imports_no_numpy_off_the_heat_polynomial_series():
    # every check row on the separated and product-case demo specs, the
    # fundamental-theorem and special-function rows included, runs on floats
    code = (
        "import contextlib, io, sys\n"
        "import stieltjes_heat.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rcs = [cli.main(['check', path]) for path in sys.argv[1:]]\n"
        "print(rcs, 'numpy' in sys.modules)\n"
    )
    specs = [str(SPECS / f"{n}.json") for n in ("worked_ivp", "periodic_classical",
                                                 "product_eigen")]
    assert _run(code, *specs) == "[0, 0, 0] False"

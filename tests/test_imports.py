"""What a fresh process imports: numpy only on the paths that build arrays.

The closed forms are evaluated by scalar walks, so importing the CLI, loading
any spec, solving and evaluating a separated or product-case spec, with or
without the residual grid of `eval --emit-diagnostics`, and the periodic
eigenvalue scan leave numpy unimported; the heat-polynomial solve, `check`
and every array query import it when they first run.  Each test starts its
own interpreter, since this test process has numpy loaded already.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np

from stieltjes_heat import Derivator, gderiv, gexp, indefinite

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
        "    # the array paths still import it and run\n"
        "    rcs.append(cli.main(['eval', sys.argv[3], '--grid', '5x5']))\n"
        "    rcs.append(cli.main(['check', solved[0]]))\n"
        "seen.append('numpy' in sys.modules)\n"
        "print(seen, rcs)\n"
    )
    demos = sorted(str(p) for p in SPECS.glob("*.json"))
    last = _run(code, json.dumps(demos), json.dumps(solved), str(SPECS / "gpoly_gate.json"))
    assert last == f"[False, False, False, True] {[0] * (2 * len(solved) + 3)}"


JUMP_G = {
    "segments": [
        {"from": 0.0, "to": 0.5, "kind": "affine", "slope": 1.0, "intercept": 0.0},
        {"from": 0.5, "to": 1.0, "kind": "flat", "level": 1.5},
        {"from": 1.0, "to": 2.0, "kind": "affine", "slope": 2.0, "intercept": -0.5},
    ],
    "atoms": [{"t": 0.5, "gap": 1.0}],
}
# every array route on one driver with an atom and a flat stretch; run here
# and in a fresh process, with np, JUMP_G and the package's names in scope
ARRAY_ROUTES = """
d = Derivator.from_json(JUMP_G)
ts = np.array([0.1, 0.3, 0.5, 0.7, 1.2, 1.8])
cube = lambda s: s * s * s
results = repr([
    d.eval_array(ts).tolist(),
    d.advance_to_value_array(np.array([0.2, 1.0, 1.5, 1.6, 3.0])).tolist(),
    gexp(d, 0.7, 0.0, ts).tolist(),
    gexp(d, 0.9j, 0.0, ts).tolist(),
    gderiv(cube, ts, d).tolist(),
    indefinite(cube, 0.0, d)(ts).tolist(),
])
"""


def test_numpy_imported_after_the_package_takes_the_array_routes():
    """A package imported before numpy must still see arrays as arrays: the
    same values as in this process, where numpy came first."""
    code = (
        "import sys\n"
        "from stieltjes_heat import Derivator, gderiv, gexp, indefinite\n"
        "assert 'numpy' not in sys.modules\n"
        "import numpy as np\n"
        f"JUMP_G = {JUMP_G!r}\n"
        + ARRAY_ROUTES
        + "print(results)\n"
    )
    here = dict(np=np, Derivator=Derivator, gderiv=gderiv, gexp=gexp,
                indefinite=indefinite, JUMP_G=JUMP_G)
    exec(ARRAY_ROUTES, here)
    assert "nan" in here["results"]  # a value inside the atom's gap
    assert _run(code) == here["results"]

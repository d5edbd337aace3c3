"""What the package imports: no numpy, no test oracle, no exact arithmetic
on a solve, eval or eigs path.

The closed forms are evaluated by scalar walks and the heat-polynomial
series by list contractions, so importing the CLI, loading any spec,
solving, evaluating and checking every mode, with or without the residual
grid of `eval --emit-diagnostics`, the periodic eigenvalue scan and the
radius report leave numpy unimported, and the package declares no runtime
dependency.  The numeric oracles the tests hold the closed forms against
(Euler/Richardson solves, the trapezoid recursion of the two-variable
monomials) live in tests/oracles.py, with numpy; a static test reads every
module under src/ and finds no import of numpy or of a module under tests/.
`fractions` (and with it `decimal`) is loaded only by the exact coefficients
`GPolySolution.a_mn` that check's coefficient-claim rows read.  The records
are namedtuples and slotted classes, so a fresh import of the CLI loads no
`dataclasses` and none of the modules it pulls in (`inspect`, `ast`, `dis`,
`tokenize`): only the standard modules of CLI_IMPORTS.  The dynamic tests
each start their own interpreter, since this test process has numpy and the
oracles loaded already.
"""

import ast
import json
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPECS = ROOT / "demos" / "specs"


# every module a fresh `import stieltjes_heat.cli` may load besides the
# package, on Python 3.10 to 3.13, beyond what an interpreter started without
# site (-S) has loaded: the standard modules that modules under src/ import,
# then those these import, with their C parts
CLI_IMPORTS = {
    "__future__", "argparse", "bisect", "cmath", "collections", "functools",
    "heapq", "itertools", "json", "math", "operator", "warnings",
    "_bisect", "_collections", "_collections_abc", "_functools", "_heapq", "_json",
    "_locale", "_operator", "_sre", "_stat", "copyreg", "enum", "genericpath",
    "gettext", "keyword", "os", "posixpath", "re", "reprlib", "sre_compile",
    "sre_constants", "sre_parse", "stat", "types",
}


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
        "def loaded(names=('numpy', 'fractions', 'decimal', 'oracles')):\n"
        "    return [m for m in names if m in sys.modules]\n"
        "seen = [loaded()]\n"
        "demos, solved = json.loads(sys.argv[1]), json.loads(sys.argv[2])\n"
        "for path in demos + solved:\n"
        "    load_problem(open(path).read())\n"
        "seen.append(loaded())\n"
        "rcs = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for path in solved:\n"
        "        sol, _ = solve(load_problem(open(path).read()))\n"
        "        [sol(t, x) for t in (0.0, 0.3, 0.9) for x in (0.1, 0.5, 0.95)]\n"
        "        rcs.append(cli.main(['eval', path, '--grid', '5x5']))\n"
        "        rcs.append(cli.main(['eval', path, '--grid', '5x5', '--include-atoms',\n"
        "                             '--emit-diagnostics']))\n"
        "    rcs.append(cli.main(['eigs', solved[1]]))\n"
        "    seen.append(loaded())\n"
        "    # the heat-polynomial series runs on lists\n"
        "    rcs.append(cli.main(['eval', sys.argv[3], '--grid', '5x5']))\n"
        "    rcs.append(cli.main(['eval', sys.argv[3], '--grid', '5x5', '--include-atoms',\n"
        "                         '--emit-diagnostics']))\n"
        "    seen.append(loaded())\n"
        "    # its coefficient-claim rows read the exact a_mn, through fractions\n"
        "    rcs.append(cli.main(['check', sys.argv[3]]))\n"
        "    rcs.append(cli.main(['radius', sys.argv[3]]))\n"
        "seen.append(loaded(('numpy', 'oracles')))\n"
        "print(seen, rcs)\n"
    )
    demos = sorted(str(p) for p in SPECS.glob("*.json"))
    last = _run(code, json.dumps(demos), json.dumps(solved), str(SPECS / "gpoly_gate.json"))
    assert last == f"{[[]] * 5} {[0] * (2 * len(solved) + 5)}"


def test_no_module_under_src_imports_numpy_or_the_tests():
    # the package's own imports, read statically: relative imports stay inside it
    tests = {p.stem for p in (ROOT / "tests").glob("*.py")} | {"tests"}
    modules = sorted((ROOT / "src" / "stieltjes_heat").glob("*.py"))
    assert {p.stem for p in modules} >= {"__init__", "cli", "heat2d", "ode"}
    bad = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [(path.name, n) for n in names
                    if n.split(".")[0] in tests | {"numpy", "dataclasses"}]
    assert bad == []


def test_a_fresh_cli_import_loads_only_the_standard_modules_it_needs():
    # -I -S: no site, no user site and no PYTHONPATH, so what a .pth file of
    # this environment imports cannot hide a module the package loads
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "bare = set(sys.modules)\n"
        "import stieltjes_heat.cli\n"
        "print(sorted(m for m in set(sys.modules) - bare if m.split('.')[0] != 'stieltjes_heat'))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    loaded = {m.split(".")[0] for m in ast.literal_eval(out.stdout)}
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()
    assert loaded - CLI_IMPORTS == set()


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

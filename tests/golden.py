"""Golden corpus of CLI outputs, compared byte for byte.

    python tests/golden.py --write   # regenerate tests/data/golden/
    python tests/golden.py --check   # compare; exit 1 and name each difference

Each corpus file holds one spec (JSON) and, for each command run on it, the
exit code, stdout and stderr.  The commands are `check`, `eval --grid 9x9
--include-atoms --emit-diagnostics`, and `radius` for the heat-polynomial
series or `eigs` for every other mode; a refusal is an output like any
other.  The specs are the demo specs and two seed-independent draws per kind
from perfbench/specgen.py (the gpoly draws at N = 14).  Only --write imports
perfbench/; --check needs neither it nor pytest.

Every command runs in process, under warnings.catch_warnings() with the
default filters, so a warning that an earlier command raised prints again.
A warning is written to stderr as "Category: message", without the source
path that Python's own format carries.  `meta.json` records the Python and
libc that wrote the corpus: the float sums behind the fundamental-theorem
rows differ from Python 3.12 on (its sum() compensates), so the tier-1 test
skips there and on another libc.
"""

import argparse
import contextlib
import io
import json
import pathlib
import platform
import random
import sys
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "golden"
sys.path.insert(0, str(ROOT / "src"))

from stieltjes_heat import cli  # noqa: E402

GPOLY_N = 14
DEMOS = ("worked_ivp", "periodic_classical", "product_eigen", "gpoly_gate")


def _show(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"{category.__name__}: {message}\n")


def run(spec_text, argv):
    """(exit code, stdout, stderr) of the CLI on argv with spec_text on stdin.
    An exception that escapes the CLI is its stderr line, with exit None."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(spec_text)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.resetwarnings()
            warnings.simplefilter("default")
            warnings.showwarning = _show
            try:
                code = cli.main([*argv[:1], "-", *argv[1:]])
            except Exception as e:  # a crash is an output too
                code = None
                err.write(f"uncaught {type(e).__name__}: {e}\n")
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def commands(spec):
    last = ["radius"] if spec["mode"] == "gpoly-series" else ["eigs"]
    return (["check"], ["eval", "--grid", "9x9", "--include-atoms", "--emit-diagnostics"],
            last)


def _drawn_specs():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import specgen

    def gpoly(rng, kind):
        spec = specgen.gpoly_spec(rng, kind)
        spec["gpoly-series"]["N"] = GPOLY_N
        return spec

    kinds = [(m, specgen.separated_spec, (m,)) for m in specgen.SEPARATED_MODES]
    kinds += [("periodic", specgen.periodic_spec, ()), ("product", specgen.product_spec, ())]
    kinds += [(f"gpoly_{k}", gpoly, (k,)) for k in specgen.GPOLY_KINDS]
    for name, make, args in kinds:
        for i in range(2):
            yield f"{name}_{i}", make(random.Random(f"golden:{name}:{i}"), *args)


def _platform():
    return {"python": platform.python_version(), "libc": list(platform.libc_ver())}


def write():
    DATA.mkdir(parents=True, exist_ok=True)
    for old in DATA.glob("*.json"):
        old.unlink()
    specs = [(n, json.loads((ROOT / "demos" / "specs" / f"{n}.json").read_text()))
             for n in DEMOS]
    specs += list(_drawn_specs())
    for name, spec in specs:
        text = json.dumps(spec)
        runs = [{"argv": argv, **dict(zip(("exit", "stdout", "stderr"), run(text, argv)))}
                for argv in commands(spec)]
        body = json.dumps({"spec": spec, "runs": runs}, indent=1) + "\n"
        (DATA / f"{name}.json").write_text(body, encoding="utf-8")
    (DATA / "meta.json").write_text(json.dumps(_platform(), indent=1) + "\n")
    print(f"wrote {len(specs)} specs to {DATA}")


def skip_reason():
    """Why the corpus cannot hold on this interpreter, or None."""
    meta = json.loads((DATA / "meta.json").read_text())
    if sys.version_info >= (3, 12):
        return ("Python >= 3.12 sums floats with compensation, which moves the "
                "fundamental-theorem rows of check")
    if list(platform.libc_ver()) != meta["libc"]:
        return f"corpus written on libc {meta['libc']}, running on {list(platform.libc_ver())}"
    return None


def check():
    """The differences from the corpus, one line each."""
    diffs = []
    for path in sorted(DATA.glob("*.json")):
        if path.name == "meta.json":
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        text = json.dumps(doc["spec"])
        for want in doc["runs"]:
            got = dict(zip(("exit", "stdout", "stderr"), run(text, want["argv"])))
            for key, value in got.items():
                if value != want[key]:
                    diffs.append(f"{path.stem} {' '.join(want['argv'])}: {key} differs: "
                                 f"{_first_difference(want[key], value)}")
    return diffs


def _first_difference(want, got):
    if not (isinstance(want, str) and isinstance(got, str)):
        return f"{want!r} -> {got!r}"
    w, g = want.splitlines(), got.splitlines()
    for k, (a, b) in enumerate(zip(w, g)):
        if a != b:
            return f"line {k + 1}: {a!r} -> {b!r}"
    return f"{len(w)} lines -> {len(g)} lines"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="regenerate the corpus")
    mode.add_argument("--check", action="store_true", help="compare against the corpus")
    args = p.parse_args(argv)
    if args.write:
        write()
        return 0
    reason = skip_reason()
    if reason:
        print(f"note: {reason}; comparing anyway")
    diffs = check()
    for line in diffs:
        print(line)
    print(f"golden: {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

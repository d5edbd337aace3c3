"""The one adaptive rule, Chebyshev panels behind `integrate` and
`indefinite`, held against QUADPACK.

tests/data/qags_reference.json freezes 200 Stieltjes integrals computed with
QAGS (see tests/data/make_qags_reference.py, the only file that writes it);
`integrate` and `indefinite` must each reproduce every one within
1e-12 (1 + |ref|).  When scipy is installed, the same comparison also runs
live on random `segment_chains()`.
"""

import importlib.util
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from conftest import segment_chains
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes_heat import Derivator, identity, indefinite, integrate, lsintegral
from stieltjes_heat.errors import DomainError, NonConvergenceError

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
_spec = importlib.util.spec_from_file_location("make_qags_reference",
                                               DATA / "make_qags_reference.py")
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)


def _gap(got, want):
    return abs(got - want) / (1.0 + abs(want))


def _frozen_misses(rule, excluding=True):
    """The frozen QAGS cases that rule(integrand, a, b, d, exclude_atoms)
    misses; the cases that exclude the atoms only when excluding."""
    cases = json.loads((DATA / "qags_reference.json").read_text())["cases"]
    assert len(cases) == 200
    bad = []
    for i, c in enumerate(cases):
        if c["exclude_atoms"] and not excluding:
            continue
        f = ref.FAMILIES[c["family"]](c["params"])
        got = rule(f, c["a"], c["b"], Derivator.from_pieces(c["pieces"]),
                   exclude_atoms=c["exclude_atoms"])
        want = complex(*c["ref"]) if isinstance(c["ref"], list) else c["ref"]
        if not _gap(got, want) <= 1e-12:
            bad.append((i, c["family"], got, want))
    return bad


def test_integrate_matches_frozen_qags():
    assert not _frozen_misses(integrate)


def test_indefinite_matches_frozen_qags():
    # integrate_signed, which test_integration holds F against, runs the
    # same panels, so F needs a reference of its own; F keeps the atoms
    F = lambda f, a, b, d, exclude_atoms: indefinite(f, a, d)(b)
    assert not _frozen_misses(F, excluding=False)


@settings(max_examples=40, deadline=None)
@given(d=segment_chains(), seed=st.integers(0, 2**32 - 1), exclude=st.booleans())
def test_integrate_matches_live_qags(d, seed, exclude):
    pytest.importorskip("scipy.integrate")
    rng = random.Random(seed)
    a, b = ref.random_interval(rng, d)
    family, params = ref.random_integrand(rng, d)
    f = ref.FAMILIES[family](params)
    want = ref.qags_stieltjes(f, a, b, d, exclude)
    assert _gap(integrate(f, a, b, d, exclude_atoms=exclude), want) <= 1e-12


def test_rule_is_exact_on_polynomials():
    # a Chebyshev panel (degree 16) integrates degree <= 16 exactly, the
    # 10-point Gauss sum degree <= 19
    xs = np.array(lsintegral._GAUSS_NODES)
    for k in range(20):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(lsintegral._GAUSS, xs**k) - exact) < 1e-15
        if k <= 16:
            panel = lsintegral._cheb_panel(lambda s: s**k, -1.0, 1.0)
            assert abs(sum(panel[2]) - exact) < 1e-15


@pytest.mark.parametrize("kind", ["real", "complex", "exclude_atoms"])
@pytest.mark.parametrize("w", [1.0, 40.0])
@pytest.mark.parametrize("name", ["jump_g", "plateau_h", "mixed"])
def test_integrate_and_indefinite_run_one_rule(name, w, kind, request):
    # over the whole domain both tile each affine piece with the same panels
    # (tol shared by width) and add the same atoms: f sees the same points,
    # and the sums differ only in the order of their terms; w = 40 needs
    # panel splits.  F keeps the atoms, so integrate's exclude_atoms sum is
    # F's total with each atom's f(t) gap taken back out
    d = request.getfixturevalue(name)
    seen = {"integrate": [], "indefinite": []}

    def value(s):
        v = math.cos(w * s) + 0.25 * s
        return complex(v, math.sin(w * s)) if kind == "complex" else v

    def make(route):
        def f(s):
            seen[route].append(s)
            return value(s)

        return f

    exclude = kind == "exclude_atoms"
    got = integrate(make("integrate"), d.lo, d.hi, d, exclude_atoms=exclude)
    want = indefinite(make("indefinite"), d.lo, d)(d.hi)
    if exclude:
        atoms = d.atoms_in(d.lo, d.hi)
        assert atoms
        want -= sum(value(t) * gap for t, gap in atoms)
        for t, _ in atoms:
            seen["indefinite"].remove(t)
    assert sorted(seen["integrate"]) == sorted(seen["indefinite"])
    assert len(seen["integrate"]) >= 17 * sum(s.kind == "affine" for s in d.segments)
    assert abs(got - want) <= 1e-15 * (1.0 + abs(want))


def test_complex_integrand_is_one_pass():
    calls = []

    def f(s):
        calls.append(s)
        return complex(np.cos(3 * s), np.sin(3 * s))

    got = lsintegral.quad(f, 0.0, 1.0, 1e-10)
    assert abs(got - (np.exp(3j) - 1) / 3j) < 1e-14
    assert len(calls) == 17  # one panel, real and imaginary parts together


@pytest.mark.parametrize("lo, hi", [(0.0, 0.7), (1.3, 2.0), (-0.9, 0.4)])
def test_singular_integrand_does_not_converge(lo, hi):
    # 1/(s - lo) has no integral on an affine piece starting at lo: the panel
    # cap (lo = 0) or the narrowest splittable panel (lo != 0) ends the search
    d = identity(-1.0, 3.0)
    with pytest.raises(NonConvergenceError) as e:
        integrate(lambda s: 1.0 / (s - lo), lo, hi, d)
    assert f"quadrature on [{lo}, {hi}]" in str(e.value)
    assert "panels" in str(e.value)


def test_gauss_sum_calls_f_once_on_the_nodes_of_every_piece(plateau_h):
    # ten nodes on each affine piece of [0, 2.5), one scalar call each; the
    # atom at 1.5 adds its left value times the gap; the flat piece adds
    # nothing
    calls = []

    def f(s):
        calls.append(s)
        return s**19

    got = lsintegral.integrate_gauss(f, 0.0, 2.5, plateau_h)
    assert len(calls) == 21 and all(type(s) is float for s in calls)
    assert len(set(calls[:20])) == 20 and calls[20] == 1.5
    # the 10-point Gauss rule is exact for degree 19 on each piece
    want = 1.0 / 20 + 1.5**19 * 1.0 + 2.0 * (2.5**20 - 1.5**20) / 20
    assert got == pytest.approx(want, rel=1e-14)


def test_gauss_sum_refuses_what_integrate_refuses(jump_g):
    # reversed ends and ends outside the domain [0, 1.5] raise, as in
    # integrate, instead of summing the pieces the span happens to meet
    one = lambda s: 1.0
    assert lsintegral.integrate_gauss(one, 0.0, 1.5, jump_g) == pytest.approx(2.5)
    for a, b in ((1.0, 0.5), (0.0, 6.5), (-1.0, 1.0)):
        for rule in (integrate, lsintegral.integrate_gauss):
            with pytest.raises(DomainError):
                rule(one, a, b, jump_g)


def test_cli_never_imports_scipy():
    code = (
        "import sys\n"
        "from stieltjes_heat import cli\n"
        "rcs = [cli.main([cmd, spec, *extra]) for spec in sys.argv[1:]\n"
        "       for cmd, extra in (('eval', ['--grid', '5x5']), ('check', []))]\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'], rcs)\n"
    )
    specs = sorted(str(p) for p in (ROOT / "demos" / "specs").glob("*.json"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code, *specs], capture_output=True,
                         text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[] " + str([0] * 2 * len(specs))

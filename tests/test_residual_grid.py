"""The residual grid: one pass over ts x xs gives, entry for entry, what
residual_numeric(t, x) gives, and check's pde-residual row reads it."""

import copy
import gc
import importlib
import json
import math
import pathlib
import warnings
import weakref

import pytest
from conftest import from_zero, segment_chains
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stieltjes_heat import (
    DomainError,
    HeatProblem,
    ProductDerivator,
    StieltjesError,
    SumDerivator,
    cli,
    general_solution,
    gpoly_series_solution,
    load_problem,
    regular_points,
    solve,
    solve_product_case,
)
gd = importlib.import_module("stieltjes_heat.gderiv")  # the module, not the function

SPECS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "specs"


def grid_points(d):
    """Regular points, both ends, the atoms and points 1e-3 and 1e-13 off
    them: entries of every route (ladders, one-sided, nested, jump)."""
    hi = d.hi
    pts = [0.0, 1e-13, 0.37 * hi, hi - 1e-3, hi]
    try:
        pts += regular_points(d, 0.0, hi, 3)
    except DomainError:
        pass  # no affine interior
    for a, _ in d.atoms:
        pts += [a, a - 1e-3, a + 1e-3, a + 1e-13]
    return sorted({p for p in pts if 0.0 <= p <= hi})


@st.composite
def solutions(draw):
    """A separated solution, a heat-polynomial series over the sum
    derivator, or a product-case solution, on random drivers."""
    kind = draw(st.sampled_from(["separated", "gpoly", "product"]))
    lift = 1.0 if kind == "product" else 0.0  # the product case needs g, h > 0
    g = from_zero(draw(segment_chains()), lift)
    h = from_zero(draw(segment_chains()), lift)
    c = draw(st.floats(min_value=0.3, max_value=1.2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # T, L may end a flat stretch; degenerate rates
        if kind == "separated":
            lam = st.floats(min_value=-4.0, max_value=4.0).filter(lambda v: abs(v) > 0.05)
            coef = st.floats(min_value=-2.0, max_value=2.0)
            terms = draw(st.lists(st.tuples(lam, coef, coef), min_size=1, max_size=3))
            return general_solution(HeatProblem(g, h, c, g.hi, h.hi), terms)
        if kind == "gpoly":
            alpha = lambda n: math.exp(-math.lgamma(n + 1))
            return gpoly_series_solution(SumDerivator(g, h), alpha, c=c, T=g.hi, L=h.hi, N=12)[0]
        lam = draw(st.floats(min_value=-3.0, max_value=3.0))
        v0, dv0 = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        return solve_product_case(ProductDerivator(g, h), lam, c, v0, dv0, g.hi, h.hi)


def _raised(e):
    return f"{type(e).__name__}: {e}"


def _outcome(fn):
    try:
        return repr(complex(fn()))
    except StieltjesError as e:
        return _raised(e)


@settings(max_examples=45, deadline=None)
@given(solutions())
def test_grid_entries_equal_the_scalar_residual(sol):
    ts, xs = grid_points(sol.g), grid_points(sol.h)
    assume(len(ts) * len(xs) <= 150)
    grid, errors = sol.residual_grid(ts, xs)
    assert len(grid) == len(ts) and all(len(row) == len(xs) for row in grid)
    raised = {(i, j): _raised(e) for i, j, e in errors}
    assert list(raised) == sorted(raised)  # row-major
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            want = _outcome(lambda: sol.residual_numeric(t, x))
            got = raised.get((i, j)) or repr(complex(grid[i][j]))
            assert got == want, (t, x)


def test_grid_names_every_raise_with_the_scalar_error(jump_g, plateau_h):
    # t below 0 and x past the domain raise on every route: the grid keeps
    # going and lists them row-major, with the scalar route's messages.
    # Points past a domain end by less than the domain check's fuzz
    # (t = 1.5 + 1e-12, t = -1e-12, x = 2.5 + 1e-12) take the scalar route:
    # each entry is residual_numeric's value or its error
    sol = general_solution(HeatProblem(jump_g, plateau_h, 0.5, 1.0, 2.0), [(-1.0, 0.5, 0.5)])
    ts, xs = [0.2, -0.5, 1.5 + 1e-12, -1e-12], [0.3, 9.0, 2.5 + 1e-12]
    grid, errors = sol.residual_grid(ts, xs)
    raised = {(i, j): e for i, j, e in errors}
    assert list(raised) == sorted(raised)  # row-major
    assert {(0, 1), (1, 0), (1, 1)} <= set(raised)
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            if (i, j) in raised:
                e = raised[i, j]
                with pytest.raises(type(e)) as info:
                    sol.residual_numeric(t, x)
                assert str(info.value) == str(e)
                assert math.isnan(grid[i][j])
            else:
                assert repr(grid[i][j]) == repr(sol.residual_numeric(t, x)), (t, x)


@pytest.mark.parametrize(
    "name", ["worked_ivp", "periodic_classical", "product_eigen", "gpoly_gate"]
)
def test_regular_entries_take_the_shared_samples(name, monkeypatch):
    # check's 5x5 regular grid runs no scalar ladder; on an eval grid the
    # t = 0 row and the x = 0 column are one-sided, so they run gderiv and
    # gderiv2 (on the shared rows and columns)
    parsed = load_problem((SPECS / f"{name}.json").read_text())
    sol, _info = solve(parsed)
    calls = []

    def counted(name, fn):
        return lambda *a, **kw: calls.append(name) or fn(*a, **kw)

    for fn in ("gderiv", "gderiv2"):
        monkeypatch.setattr(gd, fn, counted(fn, getattr(gd, fn)))
    sol.residual_grid(regular_points(parsed.g, 0.0, parsed.T, 5),
                      regular_points(parsed.h, 0.0, parsed.L, 5))
    assert calls == []
    ts = [parsed.T * i / 3 for i in range(4)]
    xs = [parsed.L * j / 3 for j in range(4)]
    _grid, errors = sol.residual_grid(ts, xs)
    assert errors == []
    assert calls.count("gderiv") >= len(xs) and calls.count("gderiv2") >= len(ts)


def test_check_fails_only_the_uncertified_determinant_at_large_lambda(tmp_path, capsys):
    # at lam = 1000 the time factor grows by hundreds of orders of magnitude
    # over [0, T]; the central d_g ladders, extrapolated in h^2, still settle
    # on the 5x5 regular grid, so pde-residual PASSes.  The Wronskian's
    # rounding bound there is far above 1e-6 |P|, so that row cannot certify
    spec = json.loads((SPECS / "product_eigen.json").read_text())
    spec["product-eigen"]["lam"] = 1000.0
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    fails = {line.split()[1]: line for line in out.splitlines() if line.startswith("FAIL")}
    assert sorted(fails) == ["independence-determinant"]
    assert "cannot certify" in fails["independence-determinant"]
    assert "PASS  pde-residual" in out


def _cache_sizes(sol):
    return sol._cached_row.cache_info().currsize, sol._cached_col.cache_info().currsize


@settings(max_examples=25, deadline=None)
@given(solutions())
def test_cached_rows_and_columns_give_what_fresh_ones_give(sol):
    # an instance that swept a grid in reverse order reads its rows and
    # columns from its caches: every value, slice, rule, residual and atom
    # row is the one a fresh instance builds
    ts, xs = grid_points(sol.g)[::2], grid_points(sol.h)[::2]
    fresh = copy.deepcopy(sol)
    assert "_cached_row" not in fresh.__dict__
    for t in reversed(ts):
        for x in reversed(xs):
            _outcome(lambda: sol(t, x))
            _outcome(lambda: sol.residual_numeric(t, x))
    for t in ts:
        for x in xs:
            for part in (lambda s: s(t, x), lambda s: s.along_t(x)(t),
                         lambda s: s.along_x(t)(x), lambda s: s.dgt_rule(t, x),
                         lambda s: s.dhx2_rule(t, x), lambda s: s.dhx_rule(t, x),
                         lambda s: s.residual_numeric(t, x),
                         lambda s: s.jump_residual_t(t, x), lambda s: s.jump_residual_x(t, x)):
                assert _outcome(lambda: part(sol)) == _outcome(lambda: part(fresh)), (t, x)


@settings(max_examples=6, deadline=None)
@given(solutions())
def test_row_and_column_caches_are_bounded_and_per_instance(sol):
    cap = gd.CACHE_SIZE
    other = copy.deepcopy(sol)
    for k in range(cap + 1):
        sol(sol.g.hi * k / cap, sol.h.hi * k / cap)
    assert _cache_sizes(sol) == (cap, cap)
    assert _cache_sizes(other) == (0, 0)
    other(0.0, 0.0)
    ref = weakref.ref(other)
    del other
    gc.collect()
    assert ref() is None  # no cache outside the instance keeps it alive


@settings(max_examples=10, deadline=None)
@given(solutions())
def test_out_of_domain_rows_raise_and_are_not_kept(sol):
    x = 0.5 * sol.h.hi
    for t in (-1.0, sol.g.hi + 1.0):
        raised = []
        for _ in range(2):
            with pytest.raises(DomainError) as info:
                sol(t, x)
            raised.append(str(info.value))
        assert raised[0] == raised[1]
    assert _cache_sizes(sol) == (0, 0)

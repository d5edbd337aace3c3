"""Second derivatives: the three-point ladders at regular points, the nested
quotient everywhere else, and refusals that name the ladder."""

import importlib
import math
import warnings
from types import SimpleNamespace

import pytest
from conftest import segment_chains
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stieltjes_heat import (
    Derivator,
    DomainError,
    HeatProblem,
    NonConvergenceError,
    Segment,
    SumDerivator,
    general_solution,
    gderiv,
    gderiv2,
    gexp,
    gpoly_series_solution,
    identity,
    regular_points,
)
from stieltjes_heat import cli

gd = importlib.import_module("stieltjes_heat.gderiv")  # the module, not the function


def nested(f, t, d):
    """The quotient of the first-derivative function, as gderiv2 takes it
    at atoms, in constancy runs and close to an atom or an edge."""
    return gderiv(lambda s: gderiv(f, s, d, gd.DEFAULT_INNER), t, d, gd.DEFAULT_OUTER)


def counting(f):
    n = [0]

    def counted(s):
        n[0] += 1
        return f(s)

    return counted, n


def from_zero(d):
    """d moved to start at 0: the solutions are walks from the anchor 0."""
    lo = d.lo
    segs = [Segment(s.lo - lo, s.hi - lo, s.kind, s.slope, s.intercept + s.slope * lo)
            for s in d.segments]
    return Derivator(segs, [(t - lo, gap) for t, gap in d.atoms])


@st.composite
def random_solutions(draw):
    """A separated solution with one to three exponential terms, or a
    heat-polynomial series over the sum derivator of g and h."""
    g, h = from_zero(draw(segment_chains())), from_zero(draw(segment_chains()))
    c = draw(st.floats(min_value=0.3, max_value=1.2))
    if draw(st.booleans()):
        lam = st.floats(min_value=-4.0, max_value=4.0).filter(lambda v: abs(v) > 0.05)
        coef = st.floats(min_value=-2.0, max_value=2.0)
        terms = draw(st.lists(st.tuples(lam, coef, coef), min_size=1, max_size=3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # T, L may end a flat stretch
            prob = HeatProblem(g, h, c, g.hi, h.hi)
        return general_solution(prob, terms)
    sol, _ = gpoly_series_solution(SumDerivator(g, h), lambda n: math.exp(-math.lgamma(n + 1)),
                                   c=c, T=g.hi, L=h.hi, N=16)
    return sol


# the three-point ladders against the closed-form d_h^2 u, and check's
# pde-residual row on the same solutions
@settings(max_examples=30, deadline=None)
@given(random_solutions(), st.data())
def test_three_point_ladders_match_the_rule(sol, data):
    g, h = sol.g, sol.h
    try:
        ts, xs = regular_points(g, 0.0, g.hi, 5), regular_points(h, 0.0, h.hi, 5)
    except DomainError:
        assume(False)  # no affine interior on one side
    for _ in range(3):
        t, x = data.draw(st.sampled_from(ts)), data.draw(st.sampled_from(xs))
        if min(gd._rooms(h, x, h.eval(x))[:2]) < gd.THREE_POINT_ROOM:
            continue  # the nested route; check's row below covers it
        rule = sol.dhx2_rule(t, x)
        got = gderiv2(sol.along_x(t), x, h)
        scale = sol._slice_scales(t, x)[1] ** 2
        assert abs(got / scale - rule) <= 1e-8 * (1.0 + abs(rule)), (t, x)
    rows = []
    cli._check_residual(sol, SimpleNamespace(g=g, h=h, T=g.hi, L=h.hi), rows, 1e-6)
    assert rows[0][1], rows[0][2]


def test_regular_point_takes_one_cheap_accurate_ladder_pair(plateau_h):
    f, n = counting(lambda x: gexp(plateau_h, 0.3, 0.0, x))
    for x in regular_points(plateau_h, 0.0, 2.5, 5):
        n[0] = 0
        got = gderiv2(f, x, plateau_h)
        assert abs(got - 0.09 * gexp(plateau_h, 0.3, 0.0, x)) < 1e-10
        assert n[0] <= 30


def test_disagreeing_second_ladder_is_refused_by_name(plateau_h, monkeypatch):
    three_point = gd._three_point

    def off(f, levels, cfg, ft):
        got = three_point(f, levels, cfg, ft)
        return got * (1.0 + 1e-5) if cfg.step0 != gd.DEFAULT_OUTER.step0 else got

    monkeypatch.setattr(gd, "_three_point", off)
    f = lambda x: gexp(plateau_h, 0.3, 0.0, x)
    with pytest.raises(NonConvergenceError, match="the second three-point ladder") as err:
        gderiv2(f, 0.7, plateau_h)
    first, second = err.value.estimates
    assert second == pytest.approx(first * (1.0 + 1e-5), rel=1e-8)


def test_stalled_ladder_is_refused_by_name_with_both_estimates():
    # noise at 1e-7 relative settles neither ladder to 1e-9
    f = lambda x: math.exp(x) * (1.0 + 1e-7 * math.sin(1e6 * x))
    with pytest.raises(NonConvergenceError, match="the first three-point ladder") as err:
        gderiv2(f, 1.0, identity(0.0, 2.0))
    assert "the second three-point ladder" in str(err.value)
    assert len(err.value.estimates) == 2
    assert all(e is not None for e in err.value.estimates)


def test_atoms_runs_and_edges_keep_the_nested_quotient(jump_g, plateau_h):
    f = lambda x: gexp(plateau_h, 0.3, 0.0, x) + math.sin(x)
    # 1.5: an atom; 1.2: inside the rest (1, 1.5); 0.0 and 2.5: room on one
    # side only; 0.01 and 1.505: room on both sides, below THREE_POINT_ROOM
    for x in (1.5, 1.2, 0.0, 2.5, 0.01, 1.505):
        assert repr(gderiv2(f, x, plateau_h)) == repr(nested(f, x, plateau_h)), x
    f = lambda t: gexp(jump_g, -0.8, 0.0, t)
    for t in (0.5, 0.0, 0.49, 0.51):
        assert repr(gderiv2(f, t, jump_g)) == repr(nested(f, t, jump_g)), t


def test_two_sided_first_derivative_uses_every_sample(jump_g):
    # the probes at step0 are the ladder's first level, not extra samples
    d = jump_g
    calls = [0]
    advance = d.advance_to_value

    def counted(y):
        calls[0] += 1
        return advance(y)

    f, n = counting(math.sin)
    d.advance_to_value = counted
    try:
        gderiv(f, 0.25, d)
    finally:
        del d.advance_to_value
    assert calls[0] == n[0] > 0

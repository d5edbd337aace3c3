"""Driver construction, queries, and serialization."""

import json
import math

import pytest
from conftest import segment_chains
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stieltjes_heat import (
    Derivator,
    DomainError,
    SchemaError,
    gexp,
    identity,
    indefinite,
    integrate,
    load_problem,
    regular_points,
)
from stieltjes_heat.derivators import Segment
from stieltjes_heat.lsintegral import integrate_gauss


def test_left_continuity_at_atom(jump_g):
    # value at the jump point comes from the left
    assert jump_g.eval(0.5) == 0.5
    assert jump_g.right_limit(0.5) == 1.5
    assert jump_g.jump(0.5) == 1.0
    assert jump_g.is_atom(0.5)
    assert not jump_g.is_atom(0.25)


def test_left_continuity_at_breakpoint_without_atom(plateau_h):
    # h is continuous at 1 (affine meets the flat level), atomic at 3/2
    assert plateau_h.eval(1.0) == 3.0
    assert plateau_h.jump(1.0) == 0.0
    assert plateau_h.eval(1.5) == 3.0
    assert plateau_h.right_limit(1.5) == 4.0


@settings(max_examples=60, deadline=None)
@given(segment_chains())
def test_walk_measure_subtracts_the_gaps_in_atom_order(d):
    # between the breakpoints, the atoms and both domain ends pushed out by
    # half the fuzz, the walk's continuous measure subtracts the gaps from
    # the measure in atom order, as continuous_measure always has
    fuzz = 1e-9 * (1.0 + abs(d.lo) + abs(d.hi))
    ts = sorted({s.lo for s in d.segments} | {t for t, _ in d.atoms}
                | {d.hi, d.lo - fuzz / 2, d.hi + fuzz / 2})
    for i, a in enumerate(ts):
        for b in ts[i:]:
            m = d.measure(a, b)
            for _, gap in d.atoms_in(a, b):
                m -= gap
            atoms, cont = d.exp_data(a, b)
            assert atoms == d.atoms_in(a, b)
            assert cont.hex() == max(m, 0.0).hex() == d.continuous_measure(a, b).hex()


def test_domain_is_enforced(jump_g):
    with pytest.raises(DomainError):
        jump_g.eval(-0.1)
    with pytest.raises(DomainError):
        jump_g.eval(1.6)
    with pytest.raises(DomainError):
        jump_g.right_limit(1.5)  # nothing beyond the upper edge


def _one(s):
    return 1.0


@pytest.mark.parametrize("route", [
    lambda d: d.eval(math.nan),
    lambda d: d.measure(0.0, math.nan),
    lambda d: d.measure(math.nan, 1.0),
    lambda d: integrate(_one, math.nan, 1.0, d),
    lambda d: integrate(_one, 0.0, math.nan, d),
    lambda d: integrate_gauss(_one, math.nan, 1.0, d),
    lambda d: integrate_gauss(_one, 0.0, math.nan, d),
    lambda d: indefinite(_one, math.nan, d),
    lambda d: indefinite(_one, 0.0, d)(math.nan),
    lambda d: gexp(d, 1.0, 0.0, math.nan),
    lambda d: gexp(d, 1.0, math.nan, 1.0),
    lambda d: gexp(d, lambda s: 1.0, 0.0, math.nan),
    lambda d: gexp(d, lambda s: 1.0, math.nan, 1.0),
    lambda d: d.atoms_in(math.nan, 1.0),
    lambda d: d.atoms_in(0.0, math.nan),
    lambda d: d.constancy_run(math.nan),
], ids=["eval", "measure-b", "measure-a", "integrate-a", "integrate-b",
        "integrate_gauss-a", "integrate_gauss-b", "indefinite-anchor", "indefinite-t",
        "gexp-const-t", "gexp-const-a", "gexp-callable-t", "gexp-callable-a",
        "atoms_in-a", "atoms_in-b", "constancy_run"])
def test_nan_is_outside_the_domain(jump_g, route):
    # nan compares false with both domain ends: it must fail an in-domain
    # test rather than slip past an out-of-domain one, on every route
    with pytest.raises(DomainError):
        route(jump_g)


def test_atoms_in_is_half_open(jump_g, staircase):
    assert jump_g.atoms_in(0.0, 0.5) == ()
    assert jump_g.atoms_in(0.0, 0.50001) == ((0.5, 1.0),)
    assert jump_g.atoms_in(0.5, 1.5) == ((0.5, 1.0),)
    assert [t for t, _ in staircase.atoms_in(1.0, 3.0)] == [1.5, 2.5]


def test_measure_and_continuous_measure(plateau_h):
    # [0, 2): total rise 5 - 2 = 3, one atom of gap 1 inside
    assert plateau_h.measure(0.0, 2.0) == 3.0
    assert plateau_h.continuous_measure(0.0, 2.0) == 2.0
    # the flat run carries no measure
    assert plateau_h.measure(1.1, 1.4) == 0.0
    with pytest.raises(DomainError):
        plateau_h.measure(1.0, 0.5)


def test_measure_reads_its_anchor_once(mixed):
    d = Derivator(mixed.segments, mixed.atoms)
    seen = []
    d.eval = lambda t: seen.append(t) or Derivator.eval(d, t)
    got = [d.measure(0.0, b) for b in (0.3, 1.1, 1.7)] + [d.measure(0.5, 1.7)]
    assert got == [mixed.eval(b) - mixed.eval(a)
                   for a, b in ((0.0, 0.3), (0.0, 1.1), (0.0, 1.7), (0.5, 1.7))]
    assert seen == [0.3, 0.0, 1.1, 1.7, 1.7, 0.5]
    with pytest.raises(DomainError):  # a kept anchor does not skip the domain check
        d.measure(0.0, 99.0)


def test_constancy_run_and_t_star(plateau_h, mixed):
    assert plateau_h.constancy_run(1.2) == (1.0, 1.5)
    assert plateau_h.constancy_run(0.7) is None
    assert plateau_h.t_star(1.2) == 1.5
    assert plateau_h.t_star(0.7) == 0.7
    assert mixed.constancy_run(1.25) == (1.0, 1.5)


def test_t_star_refuses_what_the_domain_check_refuses(jump_g, plateau_h):
    # jump_g lives on [0, 1.5]: nan and points past either end are refused,
    # points within the domain check's fuzz read the end
    for t in (math.nan, 5.0, -3.0, 1.5 + 1e-6, -1e-6):
        with pytest.raises(DomainError):
            jump_g.t_star(t)
    assert jump_g.t_star(1.5 + 1e-12) == 1.5 and jump_g.t_star(-1e-12) == 0.0
    with pytest.raises(DomainError):
        plateau_h.t_star(math.nan)


def test_atom_stepping(staircase):
    assert staircase.next_atom(0.0) == 0.5
    assert staircase.next_atom(0.5) == 1.5
    assert staircase.next_atom(3.5) is None
    assert staircase.prev_atom(1.0) == 0.5
    assert staircase.prev_atom(0.25) is None


def test_advance_to_value_inverts_eval(mixed):
    for y in (0.1, 0.9, 1.4, 1.9):
        s = mixed.advance_to_value(y)
        assert s is not None
        assert math.isclose(mixed.eval(s), y, abs_tol=1e-12)
    # values strictly inside the gap at 1/2 are never attained
    assert mixed.advance_to_value(1.1) is None
    # the flat level resolves to the right end of the rest
    assert mixed.advance_to_value(1.55) == 1.5


def _scan_to_value(d, y):
    """The reversed linear scan that advance_to_value replaced: the oracle."""
    tol = 1e-12 * (1.0 + abs(y))
    for s in reversed(d.segments):
        vlo, vhi = s.value(s.lo), s.value(s.hi)
        if y > vhi + tol:
            return None
        if y >= vlo - tol:
            if s.kind == "flat":
                return s.hi
            hit = min(max((y - s.intercept) / s.slope, s.lo), s.hi)
            if hit <= s.lo and s.lo in d._atom_gap:
                return None
            return hit
    return None


# a flat level, then a rise that starts 1.5e-11 below it: inside the
# validation tolerance 1e-12 (1 + |left| + |right|), so no atom, but more than
# tol(y) below, so the lower end values are out of order by more than a
# bisection's margin covers unless it bisects their suffix minima
_DIP = Derivator.from_pieces([("affine", 0.0, 1.0, 10.0, 0.0), ("flat", 1.0, 2.0, 10.0),
                              ("affine", 2.0, 3.0, 1.0, 8.0 - 1.5e-11)])


def _rise_to(level):
    """A rise, then a flat level.  Just above 1 and just inside -1, y + tol(y)
    and level - tol(y) round on different float spacings, so level <= y + tol
    and the scan's level - tol <= y can disagree, either way round: a
    bisection on y + tol without a margin misplaces y."""
    return Derivator.from_pieces([("affine", 0.0, 1.0, 1.0, level - 1.0),
                                  ("flat", 1.0, 2.0, level)])


def _advance_inputs(d, frac):
    """Values where advance_to_value's comparisons are close calls: segment
    end values with the floats around them, points inside segments and jump
    gaps, and values off both ends of the range."""
    ys = []
    for s in d.segments:
        for v in (s.value(s.lo), s.value(s.hi)):
            # the end value, and nine floats around each y with y -/+ tol(y) = v
            # for tol(y) = 1e-12 (1 + |y|), where the comparisons round
            ys.append(v)
            for k in (1e-12, -1e-12):
                for y in ((v - k) / (1 + k), (v - k) / (1 - k)):
                    for _ in range(4):
                        y = math.nextafter(y, -math.inf)
                    for _ in range(9):
                        ys.append(y)
                        y = math.nextafter(y, math.inf)
        ys.append(s.value(s.lo + frac * (s.hi - s.lo)))  # inside; a flat level
    for t, gap in d.atoms:
        ys.append(d.eval(t) + frac * gap)  # strictly inside the jump gap, or its ends
        ys.append(d.eval(t) + 0.5 * gap)
    bottom, top = d.eval(d.lo), d.eval(d.hi)
    return ys + [bottom - 1.0, bottom - 1e-9, top + 1e-9, top + 1.0]


@settings(max_examples=150, deadline=None)
@example(_DIP, 0.5)
@example(_rise_to(1.0000000000007), 0.5)
@example(_rise_to(-0.9999999999988939), 0.5)
@given(segment_chains(), st.floats(min_value=0.0, max_value=1.0))
def test_advance_to_value_matches_the_reversed_scan(d, frac):
    for y in _advance_inputs(d, frac):
        got, want = d.advance_to_value(y), _scan_to_value(d, y)
        assert repr(got) == repr(want), (y, got, want)


def test_translation_condition(staircase, flatstep, jump_g, ident):
    ok, dev = staircase.check_translation_condition(1.0)
    assert ok and dev <= 1e-12
    ok, dev = flatstep.check_translation_condition(1.0)
    assert ok and dev <= 1e-12
    ok, dev = jump_g.check_translation_condition(0.5)
    assert not ok and dev > 1e-3
    ok, _ = ident.check_translation_condition(1.0)
    assert ok


def test_json_round_trip(plateau_h, mixed):
    for d in (plateau_h, mixed):
        assert Derivator.from_json(d.to_json()) == d


@settings(max_examples=60, deadline=None)
@given(segment_chains(), segment_chains())
def test_json_round_trip_of_random_chains(g, h):
    # the object and its JSON text both rebuild the derivator, and a
    # gpoly-series spec of two chains loads the same pair
    assert Derivator.from_json(g.to_json()) == g
    assert Derivator.from_json(json.dumps(g.to_json())) == g
    spec = {
        "mode": "gpoly-series", "c": 1.0, "T": g.hi, "L": h.hi,
        "G": {"kind": "sum", "g": g.to_json(), "h": h.to_json()},
        "gpoly-series": {"alpha": {"kind": "inv-factorial"}, "N": 8},
    }
    parsed = load_problem(json.dumps(spec))
    assert parsed.G.g == g and parsed.G.h == h


def test_from_json_rejects_bad_shapes():
    with pytest.raises(SchemaError):
        Derivator.from_json("{not json")
    with pytest.raises(SchemaError):
        Derivator.from_json([1, 2])
    with pytest.raises(SchemaError):
        Derivator.from_json({"segments": []})
    with pytest.raises(SchemaError):
        Derivator.from_json({"segments": [{"from": 0, "to": 1, "kind": "weird"}]})
    with pytest.raises(SchemaError):
        Derivator.from_json(
            {"segments": [{"from": 0, "to": 1, "kind": "affine", "slope": 1,
                           "intercept": 0}],
             "domain": [0, 2]}
        )


def test_construction_rejects_invalid_invariants():
    # decreasing piece
    with pytest.raises(Exception):
        Derivator([Segment.affine(0.0, 1.0, -1.0, 0.0)])
    # undeclared boundary jump
    with pytest.raises(Exception):
        Derivator(
            [Segment.affine(0.0, 1.0, 1.0, 0.0), Segment.affine(1.0, 2.0, 1.0, 5.0)]
        )


def test_regular_points_avoid_atoms_and_rests(plateau_h):
    pts = regular_points(plateau_h, 0.0, 2.5, 25)
    assert len(pts) == 25
    for p in pts:
        assert not plateau_h.is_atom(p)
        assert plateau_h.constancy_run(p) is None
        assert 0.0 < p < 2.5
    assert pts == sorted(pts)


def test_regular_points_needs_affine_interior():
    rest = Derivator.from_pieces([("flat", 0.0, 1.0, 2.0)])
    with pytest.raises(DomainError):
        regular_points(rest, 0.0, 1.0, 3)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=4.0), st.floats(min_value=0.0, max_value=4.0))
def test_measure_additivity(staircase, a, b):
    a, b = min(a, b), max(a, b)
    mid = 0.5 * (a + b)
    total = staircase.measure(a, b)
    assert math.isclose(
        total, staircase.measure(a, mid) + staircase.measure(mid, b), abs_tol=1e-12
    )
    assert total >= -1e-15


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0))
def test_right_limit_dominates_value(mixed, t):
    # nondecreasing plus left continuity: g(t) <= g(t+)
    if t < mixed.hi:
        assert mixed.right_limit(t) >= mixed.eval(t)

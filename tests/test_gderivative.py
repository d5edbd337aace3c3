"""Derivatives with respect to a driver: quotients, atoms, rests."""

import importlib
import math

import numpy as np
import pytest
from conftest import plain_residual, segment_chains
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stieltjes_heat import (
    Derivator,
    DiffConfig,
    DomainError,
    StieltjesError,
    gderiv,
    gderiv2,
    gexp,
    identity,
    regular_points,
)

gd = importlib.import_module("stieltjes_heat.gderiv")  # the module, not the function


def test_matches_closed_form_on_affine_pieces(jump_g):
    # on a slope-1 affine piece d/dg f = f'
    f = lambda t: math.sin(2.0 * t)
    for t in (0.1, 0.25, 0.4, 0.7, 1.1, 1.4):
        assert abs(gderiv(f, t, jump_g) - 2.0 * math.cos(2.0 * t)) < 1e-8


def test_slope_scaling(mixed):
    # slope s rescales the quotient: d/dg f = f' / s
    f = lambda t: t * t
    assert gderiv(f, 0.2, mixed) == pytest.approx(2 * 0.2 / 2.0, abs=1e-8)
    assert gderiv(f, 0.8, mixed) == pytest.approx(2 * 0.8 / 0.5, abs=1e-8)
    assert gderiv(f, 1.8, mixed) == pytest.approx(2 * 1.8 / 1.0, abs=1e-8)


def test_atom_uses_exact_jump_quotient(jump_g):
    f = lambda t: t * t + 3.0
    # at an atom the derivative is (f(t+) - f(t)) / gap, no limits involved
    want = (f(0.5) - f(0.5)) / 1.0  # f continuous: zero
    assert gderiv(f, 0.5, jump_g) == pytest.approx(want, abs=1e-12)

    g2 = Derivator.from_pieces(
        [("affine", 0.0, 1.0, 1.0, 0.0), ("affine", 1.0, 2.0, 1.0, 2.0)]
    )
    step = lambda t: 5.0 if t > 1.0 else 1.0
    assert gderiv(step, 1.0, g2) == pytest.approx((5.0 - 1.0) / 2.0)


def test_constancy_run_differentiates_at_right_end(plateau_h):
    # inside (1, 1.5] the driver rests; the quotient is taken at t* = 1.5,
    # so any f that is flat there differentiates to the value at the exit
    f = lambda t: gexp(plateau_h, 0.5, 0.0, t)
    v = gderiv(f, 1.2, plateau_h)
    w = gderiv(f, 1.45, plateau_h)
    assert v == pytest.approx(w, rel=1e-9)
    # the exit of the rest carries an atom, so the quotient is the exact
    # jump quotient at t* = 1.5: (f(1.5+) - f(1.5)) / gap
    from stieltjes_heat import gexp_right_limit

    want = (gexp_right_limit(plateau_h, 0.5, 0.0, 1.5) - f(1.5)) / 1.0
    assert v == pytest.approx(want, rel=1e-10)


def test_exponential_is_own_derivative(jump_g, mixed, flatstep):
    for d in (jump_g, mixed, flatstep):
        lam = 0.8
        f = lambda t: gexp(d, lam, d.lo, t)
        for t in regular_points(d, d.lo, d.hi, 7):
            assert abs(gderiv(f, t, d) - lam * f(t)) < 1e-7 * (1 + abs(f(t)))


@settings(max_examples=60, deadline=None)
@given(segment_chains())
def test_central_ladders_reach_near_machine_accuracy_in_few_levels(d):
    # between atoms the exponential is smooth in g, so the central quotient's
    # error is even in the step, and its table in h^2 settles within 1e-12
    # in at most 4 levels (8 samples)
    assume(any(seg.kind == "affine" for seg in d.segments))
    for p in (0.8, -2.0, 0.9j, 3.0, -0.5 + 2j):
        for t in regular_points(d, d.lo, d.hi, 7):
            samples = []

            def f(s):
                samples.append(s)
                return gexp(d, p, d.lo, s)

            got = gderiv(f, t, d)
            want = p * gexp(d, p, d.lo, t)
            assert abs(got - want) <= 1e-12 * (1 + abs(want)), (p, t)
            assert len(samples) <= 8, (p, t)


def test_near_edge_points_still_converge(jump_g, mixed):
    # quotient ladders must shrink into the available room near atoms and
    # segment edges instead of clipping; these points sit within 1% of one
    f = lambda t: math.cos(1.3 * t)
    for d, pts in ((jump_g, (0.004, 0.496, 0.504, 1.492)), (mixed, (0.496, 0.504))):
        for t in pts:
            got = gderiv(f, t, d)
            slope = next(
                s.slope for s in d.segments if s.kind == "affine" and s.lo <= t < s.hi
            )
            assert abs(got - (-1.3 * math.sin(1.3 * t)) / slope) < 1e-6


def test_point_just_right_of_an_atom_keeps_a_central_quotient(jump_g):
    # at t = 0.52 the room down to the open floor g(0.5+) = 1.5 is 0.02 < step0;
    # the backward probe stops 5% short of that floor and finds a sample, so
    # the quotient stays two-sided (a probe onto the floor itself finds none)
    seen = []

    def f(s):
        seen.append(s)
        return math.sin(2.0 * s)

    assert gderiv(f, 0.52, jump_g) == pytest.approx(2.0 * math.cos(1.04), abs=1e-8)
    assert min(seen) < 0.52 and all(s > 0.5 for s in seen)


def test_second_derivative(plateau_h):
    f = lambda x: gexp(plateau_h, 0.3, 0.0, x)
    for x in regular_points(plateau_h, 0.0, 2.5, 5):
        got = gderiv2(f, x, plateau_h)
        assert abs(got - 0.09 * f(x)) < 1e-5 * (1 + abs(f(x)))


def test_identity_driver_reduces_to_ordinary_derivative():
    d = identity(0.0, 2.0)
    f = lambda t: math.exp(0.5 * t) * math.sin(t)
    fp = lambda t: math.exp(0.5 * t) * (0.5 * math.sin(t) + math.cos(t))
    for t in (0.2, 0.7, 1.3, 1.8):
        assert abs(gderiv(f, t, d) - fp(t)) < 1e-8


def test_domain_errors(jump_g):
    with pytest.raises(DomainError):
        gderiv(lambda t: t, -0.5, jump_g)
    with pytest.raises(DomainError):
        gderiv(lambda t: t, 2.0, jump_g)


def test_quotient_config_is_respected(jump_g):
    # a deliberately coarse ladder still converges on smooth data
    cfg = DiffConfig(step0=1e-2, tol=1e-9)
    f = lambda t: t**3
    assert gderiv(f, 0.25, jump_g, cfg=cfg) == pytest.approx(3 * 0.25**2, abs=1e-6)


def test_heat_residual_vanishes_on_true_solution(prob_jumpy):
    g, h, c = prob_jumpy.g, prob_jumpy.h, prob_jumpy.c
    lam = 0.6
    u = lambda t, x: gexp(g, lam * c * c, 0.0, t) * gexp(h, lam**0.5, 0.0, x)
    for t in regular_points(g, 0.0, 1.0, 4):
        for x in regular_points(h, 0.0, 2.0, 4):
            r = plain_residual(u, t, x, g, h, c)
            assert abs(r) < 1e-6 * (1 + abs(u(t, x)))


def test_neville_kernel_scalar_and_array_limits():
    from stieltjes_heat.gderiv import _extrapolate

    f = lambda h: 2.0 + 3.0 * h - 5.0 * h * h + h**3
    pairs = [(0.1 * 0.5**k, f(0.1 * 0.5**k)) for k in range(8)]
    assert _extrapolate(iter(pairs), 1e-10) == pytest.approx(2.0, abs=1e-12)

    # arrays of node values go to the oracles' own table
    from oracles import neville

    vec = lambda h: np.array([f(h), -1.0 + h * h, 4.0j + h])
    pairs = ((0.1 * 0.5**k, vec(0.1 * 0.5**k)) for k in range(8))
    got = neville(pairs, 1e-10, 3)
    assert isinstance(got, np.ndarray) and got.shape == (3,)
    assert np.max(np.abs(got - np.array([2.0, -1.0, 4.0j]))) < 1e-12


def test_neville_kernel_refuses_a_diverging_sequence():
    from stieltjes_heat.errors import NonConvergenceError
    from stieltjes_heat.gderiv import _extrapolate

    pairs = ((0.5**k, (-1.0) ** k * 2.0**k) for k in range(6))
    with pytest.raises(NonConvergenceError) as info:
        _extrapolate(pairs, 1e-10)
    prev, last = info.value.estimates
    assert prev is not None and last is not None and prev != last


def _cubic(s):
    return 0.5 + s * (1.5 - s * (0.25 + 0.125 * s))


def _outcome(fn):
    try:
        return repr(fn())
    except StieltjesError as e:
        return f"{type(e).__name__}: {e}"



@settings(max_examples=30, deadline=None)
@given(segment_chains(atoms=True), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_sampling_views_replay_the_plain_ladders(d, fracs):
    # a sampling view keeps each point's probe and ladder levels; at points
    # revisited with other functions, which settle at other levels, gderiv
    # and gderiv2 on the view give by repr what they give on d, at regular,
    # one-sided (the ends, 1e-13 off an atom) and nested-route (1e-3 off an
    # atom, the atoms) points, on either lower end; d itself keeps nothing
    view = gd._sampling_view(d)
    pts = [d.lo + q * (d.hi - d.lo) for q in fracs] + [0.0]
    for a in [d.lo, d.hi] + [t for t, _ in d.atoms]:
        pts += [a, a - 1e-13, a + 1e-13, a - 1e-3, a + 1e-3]
    pts = [t for t in pts if d.lo <= t <= d.hi]
    fs = [_cubic, lambda s: math.exp(2.0 * s), lambda s: 1e3 * math.sin(7.0 * s), _cubic]
    for f in fs:
        for t in pts:
            for lo in (None, 0.0):
                for deriv in (gd.gderiv, gd.gderiv2):
                    want = _outcome(lambda: deriv(f, t, d, lo=lo))
                    assert _outcome(lambda: deriv(f, t, view, lo=lo)) == want, (t, lo)
    assert d._samples is None and view._samples


def test_gderiv_calls_f_on_floats_only(jump_g):
    # regular points, the atom and the domain end, given as an int, a numpy
    # float and floats: every sample is a float
    seen = set()

    def f(s):
        seen.add(type(s))
        return _cubic(s)

    for t in (0.2, np.float64(0.5), 0.9, 1.5, 1):
        assert repr(gderiv(f, t, jump_g)) == repr(gderiv(_cubic, float(t), jump_g))
    assert seen == {float}


def test_a_ladder_capped_below_min_levels_stalls(jump_g):
    from stieltjes_heat.errors import NonConvergenceError

    capped = DiffConfig(max_levels=2)
    with pytest.raises(NonConvergenceError, match="extrapolation to step 0 stalled"):
        gderiv(math.sin, 0.2, jump_g, capped)


def test_repeated_steps_are_a_stall_not_a_crash():
    # steps that repeat make the Neville ratio 1; that is a NonConvergenceError
    # (it was a bare ZeroDivisionError)
    from stieltjes_heat.errors import NonConvergenceError
    from stieltjes_heat.gderiv import _extrapolate

    with pytest.raises(NonConvergenceError, match="repeats"):
        _extrapolate(iter([(0.05, 1.0), (0.05, 1.0 + 1e-3)]), 1e-8)
    # 1e-13 past the end of a rest the rounded steps of the backward room,
    # 1e-14, repeated; that side now counts as having no room, and the
    # forward ladder settles
    d = Derivator.from_pieces([("flat", 0.0, 1.5, 0.0), ("affine", 1.5, 2.0, 0.1, -0.15)])
    t = 1.5 + 1e-13
    want = (1.5 - t * (0.5 + 0.375 * t)) / 0.1
    assert gderiv(_cubic, t, d) == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("offset", [1e-13, 1e-11, 1e-9])
def test_points_near_a_domain_end_are_right_or_refused(offset):
    # a central quotient over so little room is rounding noise: it settled up
    # to 3.5e-5 off (at 1e-13 and 1e-11 above 0) or stalled, where a
    # one-sided ladder converges
    d = identity(0.0, 2.0)
    for t in (offset, 2.0 - offset):
        try:
            got = gderiv(_cubic, t, d)
        except StieltjesError:
            continue  # a named refusal
        assert abs(got - (1.5 - t * (0.5 + 0.375 * t))) <= 1e-7

"""Shared fixtures: the derivators every suite exercises.

`jump_g`/`plateau_h` are the canonical worked-example drivers (one interior
atom each, `plateau_h` also has a flat stretch).  `staircase` and `flatstep`
satisfy the translation condition exactly; `mixed` stacks every segment kind.
`segment_chains` is the hypothesis strategy for random derivators and
`from_zero` moves one to start at 0.  `residual_both_routes` runs a numeric
residual row through a solution's slices and through `plain_residual` on
plain evaluations, and `gpoly_bilinear` is the oracle of the heat-polynomial
series: its coefficient grid between two monomial vectors.
"""

import pytest
from hypothesis import strategies as st

from stieltjes_heat import (
    Derivator,
    HeatProblem,
    Segment,
    StieltjesError,
    gderiv,
    gderiv2,
    identity,
    monomial_table,
)


@pytest.fixture(scope="session")
def jump_g():
    # g(t) = t below 1/2, t + 1 above: unit atom at 1/2
    return Derivator.from_pieces(
        [("affine", 0.0, 0.5, 1.0, 0.0), ("affine", 0.5, 1.5, 1.0, 1.0)]
    )


@pytest.fixture(scope="session")
def plateau_h():
    # h(x) = x + 2, then flat at 3 on (1, 3/2], then 2x + 1: atom at 3/2
    return Derivator.from_pieces(
        [
            ("affine", 0.0, 1.0, 1.0, 2.0),
            ("flat", 1.0, 1.5, 3.0),
            ("affine", 1.5, 2.5, 2.0, 1.0),
        ]
    )


@pytest.fixture(scope="session")
def ident():
    return identity(0.0, 3.0)


@pytest.fixture(scope="session")
def staircase():
    # slope-1 everywhere, gap 1/2 at each half-integer: every window
    # [x, x+1) holds exactly one atom, so g(t+1) - g(t) is constant
    return Derivator.from_pieces(
        [
            ("affine", 0.0, 0.5, 1.0, 0.0),
            ("affine", 0.5, 1.5, 1.0, 0.5),
            ("affine", 1.5, 2.5, 1.0, 1.0),
            ("affine", 2.5, 3.5, 1.0, 1.5),
            ("affine", 3.5, 4.0, 1.0, 2.0),
        ]
    )


@pytest.fixture(scope="session")
def flatstep():
    # period-1 pattern rise / jump / rise / rest with the atom at k + 0.3;
    # mu_g([x, x+1)) = 0.8 for every x
    pieces = []
    for k in range(3):
        pieces.append(("affine", float(k), k + 0.3, 1.0, -0.2 * k))
        pieces.append(("affine", k + 0.3, k + 0.6, 1.0, -0.2 * k + 0.2))
        pieces.append(("flat", k + 0.6, k + 1.0, 0.8 * k + 0.8))
    return Derivator.from_pieces(pieces)


@pytest.fixture(scope="session")
def mixed():
    # slopes 2, 1/2, a rest, slope 1; atom of gap 0.3 at 1/2
    return Derivator.from_pieces(
        [
            ("affine", 0.0, 0.5, 2.0, 0.0),
            ("affine", 0.5, 1.0, 0.5, 1.05),
            ("flat", 1.0, 1.5, 1.55),
            ("affine", 1.5, 2.0, 1.0, 0.05),
        ]
    )


@pytest.fixture(scope="session")
def prob_jumpy(jump_g, plateau_h):
    """The worked example: c^2 = 1/4 on [0,1] x [0,2]."""
    return HeatProblem(jump_g, plateau_h, 0.5, 1.0, 2.0)


@pytest.fixture(scope="session")
def prob_classical():
    return HeatProblem(identity(0.0, 2.0), identity(0.0, 2.0), 1.0, 1.0, 1.0)


@st.composite
def segment_chains(draw, atoms=True):
    """Random derivators: 1-4 affine or flat segments, an atom or none at
    each internal breakpoint (none at all when atoms is false), the domain
    starting at or left of the anchor 0."""
    n = draw(st.integers(min_value=1, max_value=4))
    lengths = [draw(st.floats(min_value=0.2, max_value=1.0)) for _ in range(n)]
    lo = -draw(st.floats(min_value=0.0, max_value=0.6)) * sum(lengths)
    pieces, level = [], 0.0
    for i, length in enumerate(lengths):
        if i and atoms:
            level += draw(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]))
        hi = lo + length
        if draw(st.booleans()):
            pieces.append(("flat", lo, hi, level))
        else:
            slope = draw(st.floats(min_value=0.1, max_value=1.0))
            pieces.append(("affine", lo, hi, slope, level - slope * lo))
            level += slope * length
        lo = hi
    return Derivator.from_pieces(pieces)


def from_zero(d, lift=0.0):
    """d moved to start at 0 and raised by lift: the solutions walk from 0."""
    lo = d.lo
    segs = [Segment(s.lo - lo, s.hi - lo, s.kind, s.slope, s.intercept + s.slope * lo + lift)
            for s in d.segments]
    return Derivator(segs, [(t - lo, gap) for t, gap in d.atoms])


def gpoly_bilinear(sol, t, x, grid, right_t=False, right_x=False):
    """g(t)^T grid h(x) for a heat-polynomial series sol: the monomial
    lists g(t) = (g_0(t), ..., g_{N/2}(t)) and h(x) = (h_0(x), ..., h_N(x))
    from the shared monomial tables, or their right limits, against the
    grid's rows (a list of lists, rows may be shorter than N + 1).  With
    grid = sol.A it is the series value, with the shifted grids its
    ladders."""
    gv = monomial_table(sol.g, 0.0).values(sol.N // 2, t, right=right_t)
    hv = monomial_table(sol.h, 0.0).values(sol.N, x, right=right_x)
    return sum(gm * sum(a * hn for a, hn in zip(row, hv)) for gm, row in zip(gv, grid))


def _outcome(fn):
    try:
        return repr(fn())
    except StieltjesError as e:
        return f"{type(e).__name__}: {e}"


def plain_residual(u, t, x, g, h, c):
    """d_g u - c^2 d_h^2 u at (t, x) from difference quotients of the plain
    two-variable function u, no sample below 0: the numeric residual without
    a solution's slices."""
    du = gderiv(lambda s: u(s, x), t, g, lo=0.0)
    d2 = gderiv2(lambda y: u(t, y), x, h, lo=0.0)
    return du - c * c * d2


def residual_both_routes(sol, t, x):
    """((outcome, u-evaluations) of sol.residual_numeric(t, x), the same of
    plain_residual on the plain evaluation sol(s, y)).  An outcome is the repr
    of the value, or the type and text of the error raised."""
    n = [0, 0]

    def counting(make):
        def make_counted(v):
            f = make(v)

            def counted(z):
                n[0] += 1
                return f(z)

            return counted

        return make_counted

    def plain_u(s, y):
        n[1] += 1
        return sol(s, y)

    sol.along_t, sol.along_x = counting(sol.along_t), counting(sol.along_x)
    try:
        sliced = _outcome(lambda: sol.residual_numeric(t, x))
    finally:
        del sol.along_t, sol.along_x
    plain = _outcome(lambda: plain_residual(plain_u, t, x, sol.g, sol.h, sol.c))
    return (sliced, n[0]), (plain, n[1])

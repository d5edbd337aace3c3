"""Numeric Stieltjes derivatives.

Difference quotients are taken in measure units: sample points are chosen so
that g(s) - g(t) hits a prescribed step, which makes flat stretches invisible
and keeps the quotient well conditioned.  Steps are clipped so samples never
cross an atom; at atoms the derivative is the exact jump quotient.  A Neville
table extrapolates the quotients to step zero with a convergence check.

Second derivatives at a regular point with measure room on both sides come
from one ladder of three-point second divided differences in g-units: between
samples with no atom inside, f is a smooth function of y = g(s), and d_g^2 f
is its second y-derivative.  The ladder runs from two starting steps, and the
limit stands only when both settle and agree.  At atoms, in constancy runs,
with room on one side only or with less than THREE_POINT_ROOM on a side, the
second derivative is the quotient of the first-derivative function (the jump
quotient at an atom).

gderiv on a list of points runs the scalar route once per point, so f sees
floats only.  HeatResidual.residual_grid lists the ladder levels of every t
and every x of a grid once, through the route decision gderiv2 takes
(_ladders), and extrapolates each entry's own ladders from them, each time
row and space column taken once; the points that take another route run the
scalar gderiv or gderiv2 on the same shared rows and columns.
"""

from __future__ import annotations

import bisect
import functools
import math

from .derivators import _Slotted
from .errors import DomainError, NonConvergenceError, StieltjesError

# a side with at most _MIN_ROOM (1 + |g(t)|) of measure room counts as having
# none, so the ladder goes one-sided: a quotient over a step a carries about
# eps |f| / a of rounding, which on steps a few levels below such a room passes
# the ladder targets (up to 1e-6 from a domain end, central ladders settled up
# to 3.5e-5 off or stalled, where one-sided ones came within 5e-12)
_MIN_ROOM = 1e-6


class DiffConfig(_Slotted):
    """Ladder settings: the initial step step0, in g-units, the factor
    shrink per level, at most max_levels and at least min_levels levels,
    and the extrapolation target tol."""

    __slots__ = ("step0", "shrink", "max_levels", "min_levels", "tol")

    def __init__(self, step0=0.05, shrink=0.5, max_levels=10, min_levels=3, tol=1e-8):
        self.step0, self.shrink, self.tol = step0, shrink, tol
        self.max_levels, self.min_levels = max_levels, min_levels

    def _replace(self, **changes):
        """A copy with the named fields changed."""
        return DiffConfig(**dict(zip(self.__slots__, self._key()), **changes))


DEFAULT = DiffConfig()
# second derivatives by quotients of the first derivative (atoms, constancy
# runs, too little room on a side for the three-point ladders): wider outer
# steps (noise from the inner derivative divides by them) and a looser target.
# DEFAULT_OUTER.tol is also how closely the two three-point ladders of a
# regular point must agree.
DEFAULT_OUTER = DiffConfig(step0=0.25, tol=5e-7)
DEFAULT_INNER = DiffConfig(step0=0.05, tol=1e-10)
# the two three-point ladders of a regular point: DEFAULT_OUTER's steps, and
# 0.7 times them; each settles to 1e-9 (a much tighter target runs into the
# rounding of the second difference)
THREE_POINT = (
    ("first", DEFAULT_OUTER._replace(tol=1e-9)),
    ("second", DEFAULT_OUTER._replace(step0=0.7 * DEFAULT_OUTER.step0, tol=1e-9)),
)
# the three-point ladders need this much measure room on each side: their
# rounding error, about 4 eps |f| / step^2, must stay under their target for
# the levels they take.  On random drivers they stalled on a fifth of the
# points with 1e-3 to 3e-3 of room and on none with more, so step0/8 leaves a
# tenfold margin; closer to an atom or an edge the nested route's looser
# target still settles
THREE_POINT_ROOM = DEFAULT_OUTER.step0 / 8
_THREE_POINT_CFGS = tuple(cfg for _, cfg in THREE_POINT)

# rows and columns each HeatResidual instance keeps (least recently used out)
CACHE_SIZE = 1024


def _extrapolate(pairs, tol, min_levels, scale=1.0):
    """Neville extrapolation to step 0 over (step, value) pairs of scalars.

    The table stops once at least min_levels levels are in and the diagonal
    moves by at most tol * (scale + |diagonal|).
    """
    xs = []
    prev_row = []
    last_two = (None, None)
    err = math.inf
    for x, y in pairs:
        xs.append(x)
        row = [y]
        try:
            for j in range(1, len(xs)):
                ratio = xs[-1 - j] / xs[-1]
                row.append(row[j - 1] + (row[j - 1] - prev_row[j - 1]) / (ratio - 1.0))
        except ZeroDivisionError:
            # rounded steps within an ulp-sized room repeat: no table to extrapolate
            raise NonConvergenceError(
                f"extrapolation to step 0 stalled: the step {x!r} repeats", estimates=last_two
            ) from None
        diag = row[-1]
        if prev_row:
            last_two = (prev_row[-1], diag)
            err = abs(diag - prev_row[-1])
            if len(xs) >= min_levels and err <= tol * (scale + abs(diag)):
                return diag
        prev_row = row
    raise NonConvergenceError(
        f"extrapolation to step 0 stalled at change {err:.3e} (tol {tol:.1e})",
        estimates=last_two,
    )


def _next_breakpoint(d, t):
    i = bisect.bisect_right(d._bk_list, t)
    return d._bk_list[i] if i < len(d._bk_list) else d.hi


def _limit_cfg(cfg):
    """Tighter settings for one-point limits: jump quotients divide by an
    exact gap, so the limit itself should carry near machine accuracy."""
    return cfg._replace(tol=min(cfg.tol * 1e-3, 1e-11), max_levels=max(cfg.max_levels, 12))


def right_limit_of(f, t, d, cfg=None):
    """f(t+) by extrapolating samples inside the segment right of t."""
    cfg = cfg or DEFAULT
    t = float(t)
    nb = _next_breakpoint(d, t)
    if not nb > t:
        raise DomainError(f"no room right of t={t} inside the domain")
    eps0 = 0.45 * (nb - t)

    def pairs():
        eps = eps0
        for _ in range(cfg.max_levels):
            yield eps, f(t + eps)
            eps *= cfg.shrink

    return _extrapolate(pairs(), cfg.tol, cfg.min_levels)


def _rooms(d, base, gb, lo=None):
    """(forward, backward, backward cap) measure room around base, taken once
    per quotient: up to the next atom or the top, down to the lower end lo
    (d.lo by default, never below it) or to the open floor g(a+) of an atom a
    in [lo, base), which the cap keeps clear of."""
    lo = d.lo if lo is None else max(lo, d.lo)
    na, pa = d.next_atom(base), d.prev_atom(base)
    fwd = d.eval(d.hi if na is None else na) - gb
    if pa is None or pa < lo:
        bwd = gb - d.eval(lo)
        return fwd, bwd, bwd
    bwd = gb - (d.eval(pa) + d.jump(pa))
    return fwd, bwd, 0.95 * bwd


def _forward_sample(d, base, gb, eta, rooms):
    room = rooms[0]
    if room <= _MIN_ROOM * (1.0 + abs(gb)):
        return None
    s = d.advance_to_value(gb + min(eta, room))
    if s is None or s <= base:
        return None
    actual = d.eval(s) - gb
    return (s, actual) if actual > 0.0 else None


def _backward_sample(d, base, gb, eta, rooms):
    _, room, cap = rooms
    e = min(eta, cap)
    if room <= _MIN_ROOM * (1.0 + abs(gb)) or e <= 0.0:
        return None
    s = d.advance_to_value(gb - e)
    if s is None or s >= base:
        return None
    actual = gb - d.eval(s)
    return (s, actual) if actual > 0.0 else None


def _one_sided(f, base, d, cfg, side, gb, rooms, probe):
    """One-sided ladder from base; probe is the sample at step0 on that side,
    None when there is none."""
    fb = f(base)
    sampler = _forward_sample if side > 0 else _backward_sample
    if probe is None:
        raise DomainError(
            f"no measure room on side {side:+d} of t={base} for a one-sided quotient"
        )
    # start below the room: clipped levels all land on the same sample and
    # poison the extrapolation table
    eta0 = min(cfg.step0, 0.9 * rooms[0 if side > 0 else 1])

    def pairs():
        eta = eta0
        for _ in range(cfg.max_levels):
            # the probe is the first level's sample when the room allows step0
            got = probe if eta == cfg.step0 else sampler(d, base, gb, eta, rooms)
            if got is not None:
                s, actual = got
                yield actual, (f(s) - fb) / (actual * side)
            eta *= cfg.shrink

    return _extrapolate(pairs(), cfg.tol, cfg.min_levels)


def _levels(d, t, gb, rooms, cfg, probes=None):
    """The (forward, backward) sample pairs of a two-sided ladder, one per
    level that finds both sides.  probes, the pair at step0 when the caller
    already took it, is the first level when the room allows step0."""
    eta = min(cfg.step0, 0.9 * rooms[0], 0.9 * rooms[1])
    for _ in range(cfg.max_levels):
        if probes is not None and eta == cfg.step0:
            fwd, bwd = probes
        else:
            fwd = _forward_sample(d, t, gb, eta, rooms)
            bwd = _backward_sample(d, t, gb, eta, rooms)
        if fwd is not None and bwd is not None:
            yield fwd, bwd
        eta *= cfg.shrink


def _central(f, levels, cfg):
    """First derivative from the central quotients over the level pairs."""

    def pairs():
        for (sp, ap), (sm, am) in levels:
            yield 0.5 * (ap + am), (f(sp) - f(sm)) / (ap + am)

    return _extrapolate(pairs(), cfg.tol, cfg.min_levels)


def _three_point(f, levels, cfg, ft):
    """d_g^2 f at a regular point from the three-point second divided
    differences 2((f(s+) - f(t))/a+ - (f(t) - f(s-))/a-)/(a+ + a-) over the
    level pairs; ft is f(t).  Both sides step by the same eta, so the error
    is even in the mean step h = (a+ + a-)/2 and the table extrapolates in
    h^2: a table in h spends a level on each odd power and amplifies the
    rounding with it.  The target is relative to 1 + |f(t)| + |d_g^2 f|: the
    rounding in a difference of f values grows with |f|, not with the second
    derivative."""

    def pairs():
        for (sp, ap), (sm, am) in levels:
            h = 0.5 * (ap + am)
            yield h * h, ((f(sp) - ft) / ap - (ft - f(sm)) / am) / h

    return _extrapolate(pairs(), cfg.tol, cfg.min_levels, 1.0 + abs(ft))


def _second(f, t, ft, levels):
    """The limit of the THREE_POINT ladders at t, one level-pair sequence
    each: the first one's when both settle and agree within
    DEFAULT_OUTER.tol, else NonConvergenceError naming the ladder, with both
    estimates."""
    (name0, cfg0), (name1, cfg1) = THREE_POINT
    est, stalled = [], []
    for (name, cfg), lv in zip(THREE_POINT, levels):
        try:
            est.append(_three_point(f, lv, cfg, ft))
        except NonConvergenceError as e:
            est.append(e.estimates[1])
            stalled.append(f"the {name} three-point ladder (step0 {cfg.step0:g}): {e}")
    if stalled:
        raise NonConvergenceError(
            f"second derivative at t={t}: " + "; ".join(stalled), estimates=tuple(est)
        )
    if abs(est[1] - est[0]) > DEFAULT_OUTER.tol * (1.0 + abs(est[0])):
        raise NonConvergenceError(
            f"second derivative at t={t}: the {name1} three-point ladder "
            f"(step0 {cfg1.step0:g}) gives {est[1]!r}, the {name0} "
            f"(step0 {cfg0.step0:g}) {est[0]!r}",
            estimates=tuple(est),
        )
    return est[0]


def _probe(d, t, cfg, lo=None):
    """(g(t), rooms, forward sample, backward sample) at a regular point, the
    samples taken at step0 (None on a side without room)."""
    gb = d.eval(t)
    rooms = _rooms(d, t, gb, lo)
    fwd = _forward_sample(d, t, gb, cfg.step0, rooms)
    bwd = _backward_sample(d, t, gb, cfg.step0, rooms)
    return gb, rooms, fwd, bwd


def _regular(f, t, d, cfg, gb, rooms, fwd, bwd):
    """First derivative at a regular point: two-sided when both probes found
    a sample, else one-sided on the side that did."""
    if fwd is not None and bwd is not None:
        return _central(f, _levels(d, t, gb, rooms, cfg, (fwd, bwd)), cfg)
    if fwd is not None:
        return _one_sided(f, t, d, cfg, +1, gb, rooms, fwd)
    if bwd is not None:
        return _one_sided(f, t, d, cfg, -1, gb, rooms, bwd)
    raise DomainError(f"no measure room around t={t} for a difference quotient")


def _ladders(d, t, cfgs, lo, room=0.0):
    """The route decision of the two-sided ladders at the regular point t:
    (probe, ladders), probe _probe's tuple at the first config's step0 and
    ladders one _levels generator per config of cfgs, the first reusing the
    probe pair.  probe is None at an atom or in a constancy run; ladders is
    None there, without a probe on both sides, or with less than room of
    measure room on a side."""
    if d.is_atom(t) or d.constancy_run(t) is not None:
        return None, None
    probe = gb, rooms, fwd, bwd = _probe(d, t, cfgs[0], lo)
    if fwd is None or bwd is None or min(rooms[:2]) < room:
        return probe, None
    probes = (fwd, bwd)
    return probe, [_levels(d, t, gb, rooms, cfg, probes if k == 0 else None)
                   for k, cfg in enumerate(cfgs)]


def gderiv(f, t, d, cfg=None, *, lo=None):
    """Stieltjes derivative of f at t with respect to the derivator d.

    Atoms use the exact jump quotient (f(t+) extrapolated, gap exact);
    constancy points defer to the right end of their run; regular points use
    two-sided quotients, falling back to one side when the other has no
    measure room.  No sample lies below lo (d.lo by default): the residual
    ladders pass the anchor 0 their slices walk from.

    t may be a list or tuple of points: the result is then the list of the
    derivatives at each point, taken one after another by the same scalar
    route, and the first point that raises ends the call.
    """
    cfg = cfg or DEFAULT
    if isinstance(t, (list, tuple)):
        return [_gderiv(f, float(s), d, cfg, lo) for s in t]
    return _gderiv(f, float(t), d, cfg, lo)


def _gderiv(f, t, d, cfg, lo):
    d._check_domain(t)
    if d.is_atom(t):
        fplus = right_limit_of(f, t, d, _limit_cfg(cfg))
        return (fplus - f(t)) / d.jump(t)
    run = d.constancy_run(t)
    if run is not None:
        b = run[1]
        if d.is_atom(b):
            fplus = right_limit_of(f, b, d, _limit_cfg(cfg))
            return (fplus - f(b)) / d.jump(b)
        if b >= d.hi:
            raise DomainError(
                f"constancy run ending at the domain edge t={b} has no derivative data"
            )
        gb = d.eval(b)
        rooms = _rooms(d, b, gb, lo)
        probe = _forward_sample(d, b, gb, cfg.step0, rooms)
        return _one_sided(f, b, d, cfg, +1, gb, rooms, probe)
    return _regular(f, t, d, cfg, *_probe(d, t, cfg, lo))


def gderiv2(f, t, d, *, lo=None):
    """Second Stieltjes derivative of f at t with respect to d.

    At a regular point with at least THREE_POINT_ROOM of measure room on
    each side: the three-point ladder, run from each starting step of
    THREE_POINT; the first one's limit stands when both settle and agree
    within DEFAULT_OUTER.tol, and otherwise NonConvergenceError names the
    ladder and carries both estimates.  Elsewhere: the derivative machinery
    applied to s -> gderiv(f, s), the exact jump quotient of it at an atom.
    No sample lies below lo, as in gderiv.
    """
    t = float(t)
    d._check_domain(t)

    def D(s):
        return gderiv(f, s, d, DEFAULT_INNER, lo=lo)

    # the first ladder starts at DEFAULT_OUTER's step0: one probe pair for
    # both ladders and for the nested route
    probe, ladders = _ladders(d, t, _THREE_POINT_CFGS, lo, THREE_POINT_ROOM)
    if ladders is not None:
        return _second(f, t, f(t), ladders)
    if probe is None:
        return gderiv(D, t, d, DEFAULT_OUTER, lo=lo)
    return _regular(D, t, d, DEFAULT_OUTER, *probe)


def _atom_gap(d, s, name):
    gap = d.jump(s)
    if gap == 0.0:
        raise DomainError(f"{name}={s} is not an atom of its derivator")
    return gap


def _tidy(z):
    # collapse exact-real complex results (conjugate coefficient pairs)
    if isinstance(z, complex) and z.imag == 0.0:
        return z.real
    return z


class HeatResidual:
    """One solution interface: u(t, x) = <time row, space column>, checked
    against d_g u - c^2 d_h^2 u by rule, numerically and at the atoms.

    A solution class supplies
      _row(t, right=False)    the time part at t, or its right limit at an atom
      _col(x)                 the space part at x
      _dot(row, col)          their contraction, the value u(t, x)
      _dhx(t, x, right=False) d_h u, or its right limit at an atom x
      dgt_rule, dhx2_rule     the closed-form partials
      _slice_scales(t, x)     (sx, st): the time slice's derivator is sx g and
                              the space slice's st h; (1, 1) except in the
                              product case, where they are (h(x), g(t))
    and its derivators g, h and diffusion constant c.  The slices, the
    numeric residual and the atom rows are written here once: a time atom
    row takes the jump quotient of u, a space atom row that of d_h u, over
    the gap of the scaled slice.  residual_grid is the numeric residual
    over a grid in one pass, from the same scalar hooks, each row and
    column taken once: each entry equals residual_numeric(t, x), or raises
    its error.

    Rows and columns are pure functions of their coordinate, so each
    instance keeps its last CACHE_SIZE left rows and columns (_cached_row,
    _cached_col): values, slices, rules and the left row of a time atom
    read them there, and on a tensor grid each row and column is built
    once per coordinate.  Right limits are not kept.
    """

    # made on first use, per instance (a class-level cache would keep every
    # instance alive); typed, so a numpy scalar coordinate gets the row it
    # would get fresh, not the one cached for the equal float
    @functools.cached_property
    def _cached_row(self):
        return functools.lru_cache(CACHE_SIZE, typed=True)(self._row)

    @functools.cached_property
    def _cached_col(self):
        return functools.lru_cache(CACHE_SIZE, typed=True)(self._col)

    def _slice_scales(self, t, x):
        return 1.0, 1.0

    def __call__(self, t, x):
        return self._dot(self._cached_row(t), self._cached_col(x))

    def along_t(self, x):
        """s -> u(s, x), the slice the time quotients differentiate, with the
        space part taken once."""
        row, dot, col = self._cached_row, self._dot, self._cached_col(x)
        return lambda s: dot(row(s), col)

    def along_x(self, t):
        """y -> u(t, y), the slice the space quotients differentiate, with the
        time part taken once."""
        row, dot, col = self._cached_row(t), self._dot, self._cached_col
        return lambda y: dot(row, col(y))

    def dhx_rule(self, t, x):
        return self._dhx(t, x)

    def residual_rule(self, t, x):
        return self.dgt_rule(t, x) - self.c**2 * self.dhx2_rule(t, x)

    def residual_numeric(self, t, x):
        """The residual from difference quotients along the slices, each
        divided by its slice scale.  The slices walk from 0, so no ladder
        samples below it."""
        du = gderiv(self.along_t(x), t, self.g, lo=0.0)
        d2 = gderiv2(self.along_x(t), x, self.h, lo=0.0)
        sx, st = self._slice_scales(t, x)
        return du / sx - self.c * self.c * (d2 / st**2)

    def residual_grid(self, ts, xs):
        """residual_numeric at every (t, x) of the grid ts x xs, in one pass.

        The d_g ladder's samples depend on t only and the three-point
        ladders' on x only, so each point's ladder levels are listed once
        for the whole grid, through the route decision gderiv2 takes
        (_ladders), and the time row once per t-sample and the space column
        once per x-sample; each entry contracts them with _dot and
        extrapolates its own ladders.  Points outside the domain, at atoms,
        in constancy runs, one-sided or with less than THREE_POINT_ROOM of
        room take the scalar gderiv and gderiv2 on the same shared rows and
        columns.  So every entry gets exactly the floats
        residual_numeric(t, x) gets, or raises its error.  Returns the
        len(ts) rows of len(xs) entries, as lists, and the row-major list of
        (i, j, error) for the entries that raised; those entries read nan.
        """

        def listed(d, p, cfgs, room=0.0):
            # past the domain the scalar route names the error
            ladders = _ladders(d, p, cfgs, 0.0, room)[1] if d.lo <= p <= d.hi else None
            return None if ladders is None else [list(levels) for levels in ladders]

        ts, xs = [float(t) for t in ts], [float(x) for x in xs]
        t_lv = [listed(self.g, t, (DEFAULT,)) for t in ts]
        x_lv = [listed(self.h, x, _THREE_POINT_CFGS, THREE_POINT_ROOM) for x in xs]
        row, col = functools.cache(self._row), functools.cache(self._col)
        dot, c2 = self._dot, self.c * self.c
        out, errors = [], []
        for i, t in enumerate(ts):
            out.append([])
            for j, x in enumerate(xs):
                # residual_numeric's steps in its order, so a raise is its raise
                try:
                    cx = col(x)
                    along_t = lambda s: dot(row(s), cx)
                    if t_lv[i] is None:
                        du = gderiv(along_t, t, self.g, lo=0.0)
                    else:
                        du = _central(along_t, t_lv[i][0], DEFAULT)
                    rt = row(t)
                    along_x = lambda y: dot(rt, col(y))
                    if x_lv[j] is None:
                        d2 = gderiv2(along_x, x, self.h, lo=0.0)
                    else:
                        d2 = _second(along_x, x, along_x(x), x_lv[j])
                    sx, st = self._slice_scales(t, x)
                    out[i].append(du / sx - c2 * (d2 / st**2))
                except StieltjesError as e:
                    errors.append((i, j, e))
                    out[i].append(math.nan)
        return out, errors

    def residual(self, t, x, mode="rule"):
        if mode == "rule":
            return self.residual_rule(t, x)
        if mode == "numeric":
            return self.residual_numeric(t, x)
        raise DomainError(f"mode must be 'rule' or 'numeric', got {mode!r}")

    def jump_residual_t(self, t, x):
        """Exact atom-row residual in time: the jump quotient of u minus
        c^2 d_h^2 u."""
        gap = _atom_gap(self.g, t, "t") * self._slice_scales(t, x)[0]
        col = self._cached_col(x)
        quot = (self._dot(self._row(t, right=True), col) - self._dot(self._cached_row(t), col)) / gap
        return _tidy(quot - self.c**2 * self.dhx2_rule(t, x))

    def jump_residual_x(self, t, x):
        """Exact atom-row residual in space: d_g u minus c^2 times the jump
        quotient of d_h u."""
        gap = _atom_gap(self.h, x, "x") * self._slice_scales(t, x)[1]
        quot = (self._dhx(t, x, right=True) - self.dhx_rule(t, x)) / gap
        return _tidy(self.dgt_rule(t, x) - self.c**2 * quot)

"""Numeric Stieltjes derivatives.

Difference quotients are taken in measure units: sample points are chosen so
that g(s) - g(t) hits a prescribed step, which makes flat stretches invisible
and keeps the quotient well conditioned.  Steps are clipped so samples never
cross an atom; at atoms the derivative is the exact jump quotient.  A Neville
table extrapolates the quotients to step zero with a convergence check.  The
two-sided ladders (central first differences, three-point second ones) step
both sides by the same eta, so between samples with no atom inside their
error is even in the mean step h and their tables run in h^2; one-sided
ladders and right limits carry every power of their step and run in it.

Second derivatives at a regular point with measure room on both sides come
from one ladder of three-point second divided differences in g-units: between
samples with no atom inside, f is a smooth function of y = g(s), and d_g^2 f
is its second y-derivative.  The ladder runs from two starting steps, and the
limit stands only when both settle and agree.  At atoms, in constancy runs,
with room on one side only or with less than THREE_POINT_ROOM on a side, the
second derivative is the quotient of the first-derivative function (the jump
quotient at an atom).

gderiv and gderiv2 take one point and call f on floats only.  The numeric
residual of a solution whose time row and space column are numbers or lists
of numbers (every separated mode, the product case) differentiates the
factors, not the product: d_g of each row component through the public
gderiv, once per t, and d_h^2 of each column component through the public
gderiv2, once per x, each kept per coordinate (a raise too), so a grid of
nt x nx points runs nt + nx ladder sets.  The heat-polynomial series keeps
the ladders on the contracted slices (its row components reach 1e22 at
N = 100 and cancel in the contraction): every entry runs gderiv on u(., x)
and gderiv2 on u(t, .), but on the solution's sampling views of g and h,
which keep each point's probe and ladder levels.  The d_g samples depend on
t only and the three-point ones on x only, so a solution samples each
coordinate once, and only f's values are new per entry.  Plain derivators
keep nothing; gderiv and gderiv2 are the one route decision for views and
plain derivators alike.
"""

from __future__ import annotations

import bisect
import collections
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


# every ladder halves its step per level and takes at least MIN_LEVELS levels
SHRINK = 0.5
MIN_LEVELS = 3


class DiffConfig(_Slotted):
    """Ladder settings: the initial step step0, in g-units, at most
    max_levels levels, and the extrapolation target tol."""

    __slots__ = ("step0", "max_levels", "tol")

    def __init__(self, step0=0.05, max_levels=10, tol=1e-8):
        self.step0, self.max_levels, self.tol = step0, max_levels, tol

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


def _extrapolate(pairs, tol, scale=1.0):
    """Neville extrapolation to step 0 over (step, value) pairs of scalars.

    The table fits a polynomial in the step it is given: the one-sided
    ladders pass their step h, the two-sided ones h^2, since their error
    has no odd powers (a table in h would spend every second level on an
    odd power that is already zero, and amplify the rounding with it).
    The table stops once at least MIN_LEVELS levels are in and the diagonal
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
            if len(xs) >= MIN_LEVELS and err <= tol * (scale + abs(diag)):
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
            eps *= SHRINK

    return _extrapolate(pairs(), cfg.tol)


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
            eta *= SHRINK

    return _extrapolate(pairs(), cfg.tol)


def _levels(d, t, gb, rooms, cfg, lo, probes=None):
    """The (forward, backward) sample pairs of a two-sided ladder, one per
    level that finds both sides, from the first step min(step0, 0.9 room)
    down by SHRINK.  probes, the pair at step0 when the caller already took
    it, is the first level when the room allows step0.  A sampling view
    takes each (t, lo, first step, max_levels) sequence once, level by level
    as its ladders ask for them, and replays it: two ladders of a point
    whose rooms clip them to one first step share their samples.  The view
    draws them from the plain derivator it was copied from, so its memo
    holds no reference to the view itself."""
    eta0 = min(cfg.step0, 0.9 * rooms[0], 0.9 * rooms[1])
    memo = d._samples
    if memo is None:
        return _sample_levels(d, t, gb, rooms, eta0, cfg, probes)
    key = (t, lo, eta0, cfg.max_levels)
    kept = memo.get(key)
    if kept is None:
        kept = _keep(memo, key, ([], _sample_levels(d._plain, t, gb, rooms, eta0, cfg, probes)))
    else:
        memo.move_to_end(key)
    return _replay(*kept)


def _sample_levels(d, t, gb, rooms, eta, cfg, probes):
    for _ in range(cfg.max_levels):
        if probes is not None and eta == cfg.step0:
            fwd, bwd = probes
        else:
            fwd = _forward_sample(d, t, gb, eta, rooms)
            bwd = _backward_sample(d, t, gb, eta, rooms)
        if fwd is not None and bwd is not None:
            yield fwd, bwd
        eta *= SHRINK


def _replay(got, more):
    """The pairs kept in got, then those of the sampling generator more,
    each kept in got as it is drawn.  No two ladders of one point and
    sequence are open at once, so nothing is drawn past another reader."""
    yield from got
    for pair in more:
        got.append(pair)
        yield pair


def _keep(memo, key, value):
    memo[key] = value
    if len(memo) > CACHE_SIZE:
        memo.popitem(last=False)
    return value


def _sampling_view(d):
    """A copy of the derivator d that keeps the ladder samples it takes: the
    probe of each (t, lo, step0) and the level pairs of each two-sided
    sequence, for its last CACHE_SIZE keys (least recently used out).  A
    ladder at a point the view sampled before replays them, so gderiv and
    gderiv2 give on a view the floats they give on d.  d itself, like every
    plain derivator, keeps nothing (its _samples is None)."""
    view = object.__new__(type(d))
    view.__dict__.update(vars(d))
    view._samples, view._plain = collections.OrderedDict(), d
    return view


def _central(f, levels, cfg):
    """First derivative from the central quotients (f(s+) - f(s-))/(a+ + a-)
    over the level pairs.  _levels steps both sides by the same eta, below
    either room, so a+ and a- differ by rounding only: the error is even in
    the mean step h = (a+ + a-)/2 and the table extrapolates in h^2, as
    _three_point's does."""

    def pairs():
        for (sp, ap), (sm, am) in levels:
            h = 0.5 * (ap + am)
            yield h * h, (f(sp) - f(sm)) / (ap + am)

    return _extrapolate(pairs(), cfg.tol)


def _three_point(f, levels, cfg, ft):
    """d_g^2 f at a regular point from the three-point second divided
    differences 2((f(s+) - f(t))/a+ - (f(t) - f(s-))/a-)/(a+ + a-) over the
    level pairs; ft is f(t).  Both sides step by the same eta, so the error
    is even in the mean step h = (a+ + a-)/2 and the table extrapolates in
    h^2.  The target is relative to 1 + |f(t)| + |d_g^2 f|: the
    rounding in a difference of f values grows with |f|, not with the second
    derivative."""

    def pairs():
        for (sp, ap), (sm, am) in levels:
            h = 0.5 * (ap + am)
            yield h * h, ((f(sp) - ft) / ap - (ft - f(sm)) / am) / h

    return _extrapolate(pairs(), cfg.tol, 1.0 + abs(ft))


def _second(f, t, ft, levels):
    """The limit of the THREE_POINT ladders at t, one level-pair sequence
    each: the first one's when both settle and agree within
    DEFAULT_OUTER.tol (1 + |f(t)| + |limit|), the scale of the ladders' own
    targets, else NonConvergenceError naming the ladder, with both
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
    if abs(est[1] - est[0]) > DEFAULT_OUTER.tol * (1.0 + abs(ft) + abs(est[0])):
        raise NonConvergenceError(
            f"second derivative at t={t}: the {name1} three-point ladder "
            f"(step0 {cfg1.step0:g}) gives {est[1]!r}, the {name0} "
            f"(step0 {cfg0.step0:g}) {est[0]!r}",
            estimates=tuple(est),
        )
    return est[0]


def _probe(d, t, cfg, lo=None):
    """(g(t), rooms, forward sample, backward sample) at a regular point, the
    samples taken at step0 (None on a side without room); a sampling view
    takes them once per (t, lo, step0)."""
    memo = d._samples
    if memo is not None:
        key = (t, lo, cfg.step0)
        kept = memo.get(key)
        if kept is not None:
            memo.move_to_end(key)
            return kept
    gb = d.eval(t)
    rooms = _rooms(d, t, gb, lo)
    probe = (gb, rooms, _forward_sample(d, t, gb, cfg.step0, rooms),
             _backward_sample(d, t, gb, cfg.step0, rooms))
    return probe if memo is None else _keep(memo, key, probe)


def _regular(f, t, d, cfg, lo, gb, rooms, fwd, bwd):
    """First derivative at a regular point: two-sided when both probes found
    a sample, else one-sided on the side that did."""
    if fwd is not None and bwd is not None:
        return _central(f, _levels(d, t, gb, rooms, cfg, lo, (fwd, bwd)), cfg)
    if fwd is not None:
        return _one_sided(f, t, d, cfg, +1, gb, rooms, fwd)
    if bwd is not None:
        return _one_sided(f, t, d, cfg, -1, gb, rooms, bwd)
    raise DomainError(f"no measure room around t={t} for a difference quotient")


def gderiv(f, t, d, cfg=None, *, lo=None):
    """Stieltjes derivative of f at t with respect to the derivator d.

    Atoms use the exact jump quotient (f(t+) extrapolated, gap exact);
    constancy points defer to the right end of their run; regular points use
    two-sided quotients, falling back to one side when the other has no
    measure room.  No sample lies below lo (d.lo by default): the residual
    ladders pass the anchor 0 their slices walk from.
    """
    cfg = cfg or DEFAULT
    t = float(t)
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
    return _regular(f, t, d, cfg, lo, *_probe(d, t, cfg, lo))


def gderiv2(f, t, d, *, lo=None):
    """Second Stieltjes derivative of f at t with respect to d.

    At a regular point with at least THREE_POINT_ROOM of measure room on
    each side: the three-point ladder, run from each starting step of
    THREE_POINT; the first one's limit stands when both settle and agree
    within DEFAULT_OUTER.tol (1 + |f(t)| + |limit|), and otherwise
    NonConvergenceError names the ladder and carries both estimates.
    Elsewhere: the derivative machinery applied to s -> gderiv(f, s), the
    exact jump quotient of it at an atom.
    No sample lies below lo, as in gderiv.
    """
    t = float(t)
    d._check_domain(t)

    def D(s):
        return gderiv(f, s, d, DEFAULT_INNER, lo=lo)

    if d.is_atom(t) or d.constancy_run(t) is not None:
        return gderiv(D, t, d, DEFAULT_OUTER, lo=lo)
    # the first ladder starts at DEFAULT_OUTER's step0: one probe pair for
    # both ladders and for the nested route
    probe = gb, rooms, fwd, bwd = _probe(d, t, DEFAULT_OUTER, lo)
    if fwd is None or bwd is None or min(rooms[:2]) < THREE_POINT_ROOM:
        return _regular(D, t, d, DEFAULT_OUTER, lo, *probe)
    levels = [_levels(d, t, gb, rooms, cfg, lo, (fwd, bwd) if k == 0 else None)
              for k, cfg in enumerate(_THREE_POINT_CFGS)]
    return _second(f, t, f(t), levels)


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


def _factor(deriv, vec, p, d):
    """deriv (gderiv or gderiv2) at p of the cached row or column vec, no
    sample below 0: the list of each component's derivative when vec(p) is
    a list, else the derivative of vec itself.  Every component reads vec
    at the same samples, so the cache builds each sample once."""
    v = vec(p)
    if not isinstance(v, list):
        return deriv(vec, p, d, lo=0.0)
    return [deriv(lambda s, k=k: vec(s)[k], p, d, lo=0.0) for k in range(len(v))]


def _kept_per_point(fn):
    """fn with its last CACHE_SIZE values kept per argument (least recently
    used out; a kept value is a plain lru_cache hit) and the last CACHE_SIZE
    StieltjesErrors it raised, which every later call at that argument
    raises again."""
    errors = collections.OrderedDict()

    @functools.lru_cache(CACHE_SIZE, typed=True)
    def kept(p):
        error = errors.get(p)
        if error is not None:
            raise error.with_traceback(None)
        try:
            return fn(p)
        except StieltjesError as e:
            _keep(errors, p, e)
            raise

    return kept


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
    the gap of the scaled slice.

    The numeric residual differentiates the factors, not the product.  A
    row and a column that are numbers or lists of numbers make u a sum of
    products w_k(t) v_k(x), and each partial derivative acts on one factor:
    the residual is _dot(d_g row(t), col(x))/sx - c^2 _dot(row(t), d_h^2
    col(x))/st^2, with d_g of each row component from gderiv and d_h^2 of
    each column component from gderiv2.  A class whose contraction cancels
    between components sets _factor_ladders False and keeps the ladders on
    the slices u(., x) and u(t, .): the heat-polynomial series, whose row
    components reach 1e22 at N = 100.  It runs gderiv and gderiv2 on
    sampling views of g and h (_views), which keep the probe and ladder
    levels of each point, so it samples each t and each x once and only
    evaluates the slice anew per entry.  residual_grid is the numeric
    residual over a grid: each entry equals residual_numeric(t, x), or
    raises its error.

    Rows and columns are pure functions of their coordinate, so each
    instance keeps its last CACHE_SIZE left rows and columns (_cached_row,
    _cached_col) and as many row and column derivatives (_dg_row,
    _dh2_col, each a value or the error it raised): values, slices, rules,
    residuals and the left row of a time atom read them there, and on a
    tensor grid each row, column and factor derivative is built once per
    coordinate.  Right limits are not kept.
    """

    _factor_ladders = True

    # made on first use, per instance (a class-level cache would keep every
    # instance alive); typed, so a numpy scalar coordinate gets the row it
    # would get fresh, not the one cached for the equal float
    @functools.cached_property
    def _cached_row(self):
        return functools.lru_cache(CACHE_SIZE, typed=True)(self._row)

    @functools.cached_property
    def _cached_col(self):
        return functools.lru_cache(CACHE_SIZE, typed=True)(self._col)

    @functools.cached_property
    def _dg_row(self):
        return _kept_per_point(lambda t: _factor(gderiv, self._cached_row, t, self.g))

    @functools.cached_property
    def _dh2_col(self):
        return _kept_per_point(lambda x: _factor(gderiv2, self._cached_col, x, self.h))

    @functools.cached_property
    def _views(self):
        return _sampling_view(self.g), _sampling_view(self.h)

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
        """The residual from difference quotients, each divided by its
        slice scale: of the factors, contracted with the other factor's
        values, or (without _factor_ladders) along the slices along_t(x)
        and along_x(t), through the sampling views of g and h.  The slices
        walk from 0, so no ladder samples below it."""
        return self._numeric(t, x, self.along_t, self.along_x)

    def _numeric(self, t, x, along_t, along_x):
        if self._factor_ladders:
            col = self._cached_col(x)
            du = self._dot(self._dg_row(t), col)
            d2 = self._dot(self._cached_row(t), self._dh2_col(x))
        else:
            g, h = self._views
            du = gderiv(along_t(x), t, g, lo=0.0)
            d2 = gderiv2(along_x(t), x, h, lo=0.0)
        sx, st = self._slice_scales(t, x)
        return du / sx - self.c * self.c * (d2 / st**2)

    def residual_grid(self, ts, xs):
        """residual_numeric at every (t, x) of the grid ts x xs.

        Returns the len(ts) rows of len(xs) entries, as lists, and the
        row-major list of (i, j, error) for the entries that raised; those
        entries read nan.  On the factor ladders the entries are
        residual_numeric's own, whose caches take each t's row derivatives
        and each x's column derivatives once (while xs has at most
        CACHE_SIZE points).  On the slices each entry runs residual_numeric's
        body on slices over rows and columns that this call keeps in its own
        unbounded cache: a sweep over more distinct samples than CACHE_SIZE
        (a 100x100 grid takes more) would miss on every read of the
        instance's least-recently-used caches.  The sampling views take the
        ladder samples of each t and each x once while they hold the grid's
        probes and level sequences, about 2 len(ts) + 3 len(xs) keys.
        """
        ts, xs = [float(t) for t in ts], [float(x) for x in xs]
        if self._factor_ladders:
            entry = self.residual_numeric
        else:
            row, col, dot = functools.cache(self._row), functools.cache(self._col), self._dot

            def along_t(x):
                cx = col(x)
                return lambda s: dot(row(s), cx)

            def along_x(t):
                rt = row(t)
                return lambda y: dot(rt, col(y))

            entry = lambda t, x: self._numeric(t, x, along_t, along_x)
        out, errors = [], []
        for i, t in enumerate(ts):
            out.append([])
            for j, x in enumerate(xs):
                try:
                    out[i].append(entry(t, x))
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

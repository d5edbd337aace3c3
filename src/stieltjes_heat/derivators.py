"""Piecewise derivators: the nondecreasing, left-continuous drivers of the calculus.

A derivator is stored exactly as a chain of affine/flat segments plus an explicit
list of atoms (jump points with their gaps).  Measures of intervals, jumps and
constancy intervals are then exact queries on the structure, no quadrature
involved.  Convention at a breakpoint shared by two segments: the value comes
from the left segment, which is what left-continuity demands.
"""

from __future__ import annotations

import bisect
import json
import math
from itertools import accumulate

from .errors import DomainError, InvariantError, SchemaError

# Relative tolerance used when validating that declared atoms match the
# segment-boundary mismatches.  The representation is meant to be exact, the
# tolerance only absorbs float noise in hand-written inputs.
_GAP_RTOL = 1e-12


def _is_number(v):
    """A JSON number other than NaN and +-Infinity, which json also reads;
    every number of a spec must be one."""
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool)


def _read_number(obj, key):
    v = obj[key]
    if not _is_number(v):
        raise ValueError(f"{key!r} must be a finite number, got {v!r}")
    return float(v)


class _Slotted:
    """Base of the records the ladders read once per sample or level: a
    slot read costs under half a namedtuple field's.  Records are equal,
    and hash alike, when their fields in __slots__ order are."""

    __slots__ = ()

    def _key(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"


class Segment(_Slotted):
    """One piece of a derivator: kind "affine" (slope >= 0) or "flat", with
    value(t) = slope * t + intercept on [lo, hi], the intercept absolute."""

    __slots__ = ("lo", "hi", "kind", "slope", "intercept")

    def __init__(self, lo, hi, kind, slope=0.0, intercept=0.0):
        self.lo, self.hi, self.kind, self.slope, self.intercept = lo, hi, kind, slope, intercept

    def value(self, t):
        return self.slope * t + self.intercept

    @staticmethod
    def affine(lo, hi, slope, intercept):
        if slope == 0.0:
            return Segment(lo, hi, "flat", 0.0, intercept)
        return Segment(lo, hi, "affine", slope, intercept)

    @staticmethod
    def flat(lo, hi, level):
        return Segment(lo, hi, "flat", 0.0, level)


class Derivator:
    """Nondecreasing, left-continuous driver on a closed interval.

    segments: contiguous Segment chain covering [lo, hi].
    atoms: list of (t, gap) with gap > 0, each sitting on an internal
        segment boundary.  g(t+) - g(t) = gap there.
    """

    # the ladder-sample memo of a sampling view (gderiv._sampling_view);
    # a plain derivator keeps no samples
    _samples = None

    def __init__(self, segments, atoms=()):
        segments = tuple(
            Segment.affine(s.lo, s.hi, s.slope, s.intercept) if s.kind == "affine" else s
            for s in segments
        )
        atoms = tuple((float(t), float(gap)) for t, gap in atoms)
        self._validate(segments, atoms)
        self.segments = segments
        self.atoms = tuple(sorted(atoms))
        self.lo = segments[0].lo
        self.hi = segments[-1].hi

        # lookup tables of the queries: internal breakpoints, each segment's
        # slope and intercept
        self._bk_list = [s.lo for s in segments[1:]]
        self._slope_list = [s.slope for s in segments]
        self._icept_list = [s.intercept for s in segments]
        # for advance_to_value: upper end values, and suffix minima of the lower
        # ones, sorted even where a breakpoint value dips within _GAP_RTOL
        self._hi_end = [s.value(s.hi) for s in segments]
        lo_end = [s.value(s.lo) for s in reversed(segments)]
        self._lo_min = list(accumulate(lo_end, min))[::-1]
        self._atom_t = [t for t, _ in self.atoms]
        self._atom_gap = {t: gap for t, gap in self.atoms}
        self._runs = self._constancy_runs(segments, set(self._atom_t))
        self._anchor = (None, None)  # (a, g(a)) of the last measure call

    # -- construction ------------------------------------------------------

    @staticmethod
    def _validate(segments, atoms):
        if not segments:
            raise InvariantError("derivator needs at least one segment")
        # NaN passes every comparison below, and an infinity gives nan or inf values
        for i, s in enumerate(segments):
            level = "intercept" if s.kind == "affine" else "level"
            fields = {"from": s.lo, "to": s.hi, "slope": s.slope, level: s.intercept}
            for name, v in fields.items():
                if not math.isfinite(v):
                    raise InvariantError(f"segment {i} has non-finite {name} {v}")
        for i, (t, gap) in enumerate(atoms):
            for name, v in {"t": t, "gap": gap}.items():
                if not math.isfinite(v):
                    raise InvariantError(f"atom {i} has non-finite {name} {v}")
        for s in segments:
            if not (s.hi > s.lo):
                raise InvariantError(f"segment [{s.lo}, {s.hi}] has nonpositive length")
            if s.kind == "affine" and s.slope < 0:
                raise InvariantError(f"segment at [{s.lo}, {s.hi}] has negative slope")
            if s.kind not in ("affine", "flat"):
                raise InvariantError(f"unknown segment kind {s.kind!r}")
        for a, b in zip(segments, segments[1:]):
            if a.hi != b.lo:
                raise InvariantError(
                    f"segments not contiguous: [{a.lo}, {a.hi}] then [{b.lo}, {b.hi}]"
                )
        atom_map = {}
        for t, gap in atoms:
            if gap <= 0:
                raise InvariantError(f"atom at t={t} has nonpositive gap {gap}")
            if t in atom_map:
                raise InvariantError(f"duplicate atom at t={t}")
            atom_map[t] = gap
        internal = {b.lo for a, b in zip(segments, segments[1:])}
        for t in atom_map:
            if t not in internal:
                raise InvariantError(f"atom at t={t} is not on a segment boundary")
        for a, b in zip(segments, segments[1:]):
            left = a.value(a.hi)
            right = b.value(b.lo)
            declared = atom_map.get(b.lo, 0.0)
            scale = 1.0 + abs(left) + abs(right)
            if right - left < -_GAP_RTOL * scale:
                raise InvariantError(
                    f"monotonicity violated at breakpoint t={b.lo}: "
                    f"left value {left}, right value {right}"
                )
            if abs((right - left) - declared) > _GAP_RTOL * scale:
                raise InvariantError(
                    f"atom mismatch at t={b.lo}: boundary jump {right - left}, "
                    f"declared gap {declared}"
                )

    @classmethod
    def from_pieces(cls, pieces):
        """Build from ('affine', lo, hi, slope, intercept) / ('flat', lo, hi, level)
        tuples; atoms are inferred from the boundary mismatches."""
        segs = []
        for p in pieces:
            if p[0] == "affine":
                segs.append(Segment.affine(*p[1:]))
            elif p[0] == "flat":
                segs.append(Segment.flat(*p[1:]))
            else:
                raise InvariantError(f"unknown piece kind {p[0]!r}")
        atoms = []
        for a, b in zip(segs, segs[1:]):
            gap = b.value(b.lo) - a.value(a.hi)
            scale = 1.0 + abs(a.value(a.hi)) + abs(b.value(b.lo))
            if gap > _GAP_RTOL * scale:
                atoms.append((b.lo, gap))
        return cls(segs, atoms)

    @staticmethod
    def _constancy_runs(segments, atom_set):
        """Maximal open intervals (a, b) on which g is locally constant.

        A run is a chain of flat segments not interrupted by an atom.
        """
        runs = []
        i = 0
        while i < len(segments):
            if segments[i].kind != "flat":
                i += 1
                continue
            a = segments[i].lo
            j = i
            while (
                j + 1 < len(segments)
                and segments[j + 1].kind == "flat"
                and segments[j + 1].lo not in atom_set
            ):
                j += 1
            runs.append((a, segments[j].hi))
            i = j + 1
        return tuple(runs)

    # -- basic queries -----------------------------------------------------

    def _check_domain(self, t):
        if self.lo <= t <= self.hi:
            return t
        fuzz = 1e-9 * (1.0 + abs(self.lo) + abs(self.hi))
        if not self.lo - fuzz <= t <= self.hi + fuzz:  # nan too
            raise DomainError(f"t={t} outside derivator domain [{self.lo}, {self.hi}]")
        return min(max(t, self.lo), self.hi)

    def _seg_index(self, t):
        # value at an internal breakpoint comes from the left segment
        return bisect.bisect_left(self._bk_list, t)

    def __call__(self, t):
        return self.eval(t)

    def eval(self, t):
        t = self._check_domain(float(t))
        i = self._seg_index(t)
        return self._slope_list[i] * t + self._icept_list[i]

    def jump(self, t):
        """g(t+) - g(t); zero off the atom set."""
        t = float(t)
        return self._atom_gap.get(t, 0.0)

    def right_limit(self, t):
        t = float(t)
        if t >= self.hi:
            raise DomainError(f"right limit at t={t} needs points beyond {self.hi}")
        return self.eval(t) + self.jump(t)

    def is_atom(self, t):
        return float(t) in self._atom_gap

    def atoms_in(self, a, b):
        """Atoms (t, gap) with a <= t < b; DomainError when a or b is nan."""
        if a != a or b != b:
            raise DomainError(f"atoms_in needs numbers, got [{a}, {b})")
        i = bisect.bisect_left(self._atom_t, a)
        j = bisect.bisect_left(self._atom_t, b)
        return self.atoms[i:j]

    def measure(self, a, b):
        """mu_g([a, b)) = g(b) - g(a), exact.  Requires a <= b.  g(a) is kept
        for the next call: walks start from one fixed anchor."""
        if b < a and (b := self._check_domain(b)) < a:  # b within fuzz reads lo
            raise DomainError(f"measure needs a <= b, got [{a}, {b})")
        gb = self.eval(b)
        anchor, ga = self._anchor
        if a != anchor:
            ga = self.eval(a)
            self._anchor = (a, ga)
        return gb - ga

    def exp_data(self, a, b):
        """(atoms in [a, b), continuous measure of [a, b)): all that an
        exponential at a constant rate reads of the derivator."""
        atoms = self.atoms_in(a, b)
        m = self.measure(a, b)
        for _, gap in atoms:
            m -= gap
        return atoms, max(m, 0.0)

    def continuous_measure(self, a, b):
        """Measure of [a, b) with the atom masses removed."""
        return self.exp_data(a, b)[1]

    def constancy_run(self, t):
        """The open interval (a, b) of the constancy set containing t, or None;
        DomainError when t is nan."""
        t = float(t)
        if t != t:
            raise DomainError(f"t={t} is not a number")
        for a, b in self._runs:
            if a < t < b:
                return (a, b)
        return None

    @property
    def constancy_runs(self):
        return self._runs

    def t_star(self, t):
        """t itself off the constancy set, else the right endpoint of its run;
        DomainError outside the domain (nan too), as for eval."""
        t = self._check_domain(t)
        run = self.constancy_run(t)
        return t if run is None else run[1]

    # -- stepping helpers (used by the numeric differentiator) --------------

    def next_atom(self, t):
        i = bisect.bisect_right(self._atom_t, t)
        return self._atom_t[i] if i < len(self._atom_t) else None

    def prev_atom(self, t):
        i = bisect.bisect_left(self._atom_t, t)
        return self._atom_t[i - 1] if i > 0 else None

    def advance_to_value(self, y):
        """Largest s with g(s) == y, or None when y is not attained.

        Flat stretches at level y resolve to their right end, matching the
        t* convention for where the calculus continues.  Values inside a jump
        gap are not attained.
        """
        tol = 1e-12 * (1.0 + abs(y))
        # scanning down, the first segment with y >= value(lo) - tol holds y,
        # unless y > value(hi) + tol there (a jump gap, or above the range);
        # bisect past every segment the scan could stop at, then step down
        i = bisect.bisect_right(self._lo_min, y + 2.0 * tol) - 1
        while i >= 0 and self._lo_min[i] - tol > y:
            i -= 1
        if i < 0 or self._hi_end[i] + tol < y:
            return None
        s = self.segments[i]
        if s.kind == "flat":
            return s.hi
        hit = min(max((y - s.intercept) / s.slope, s.lo), s.hi)
        if hit <= s.lo and s.lo in self._atom_gap:
            # the segment's lower value is only a right limit there
            return None
        return hit

    # -- structure-level checks ---------------------------------------------

    def check_translation_condition(self, L, sample_pairs=None, tol=1e-12):
        """Sampled check of g(x + L) - g(y + L) == g(x) - g(y).

        Returns (ok, max_deviation).  Samples default to all breakpoints and
        atoms plus a uniform grid, restricted to points shiftable by L.
        """
        if L <= 0 or self.hi - self.lo <= L:
            raise DomainError("shift L must fit inside the domain")
        if sample_pairs is None:
            pts = {self.lo, self.hi - L}
            for s in self.segments:
                for t in (s.lo, s.hi):
                    if self.lo <= t <= self.hi - L:
                        pts.add(t)
                    if self.lo <= t - L / 2 <= self.hi - L:
                        pts.add(t - L / 2)
            # a uniform grid of 101 points; its last, hi - L, is in already
            step = (self.hi - L - self.lo) / 100
            pts.update(self.lo + k * step for k in range(100))
            pts = sorted(pts)
            x0 = pts[0]
            sample_pairs = [(x, x0) for x in pts]
        dev = 0.0
        for x, y in sample_pairs:
            d = (self.eval(x + L) - self.eval(y + L)) - (self.eval(x) - self.eval(y))
            dev = max(dev, abs(d))
        return dev <= tol, dev

    # -- serialization -------------------------------------------------------

    def to_json(self):
        segs = []
        for s in self.segments:
            if s.kind == "affine":
                segs.append(
                    {"from": s.lo, "to": s.hi, "kind": "affine",
                     "slope": s.slope, "intercept": s.intercept}
                )
            else:
                segs.append(
                    {"from": s.lo, "to": s.hi, "kind": "flat", "level": s.intercept}
                )
        return {
            "domain": [self.lo, self.hi],
            "segments": segs,
            "atoms": [{"t": t, "gap": gap} for t, gap in self.atoms],
        }

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except json.JSONDecodeError as e:
                raise SchemaError(f"invalid JSON: {e}") from e
        if not isinstance(obj, dict):
            raise SchemaError("derivator description must be an object")
        try:
            raw_segs = obj["segments"]
        except KeyError:
            raise SchemaError("derivator description missing 'segments'")
        if not isinstance(raw_segs, list) or not raw_segs:
            raise SchemaError("'segments' must be a nonempty list")
        segs = []
        for i, rs in enumerate(raw_segs):
            try:
                lo, hi, kind = _read_number(rs, "from"), _read_number(rs, "to"), rs["kind"]
                if kind == "affine":
                    segs.append(Segment.affine(lo, hi, _read_number(rs, "slope"),
                                               _read_number(rs, "intercept")))
                elif kind == "flat":
                    segs.append(Segment.flat(lo, hi, _read_number(rs, "level")))
                else:
                    raise SchemaError(f"segment {i}: unknown kind {kind!r}")
            except (KeyError, TypeError, ValueError) as e:
                if isinstance(e, SchemaError):
                    raise
                raise SchemaError(f"segment {i} malformed: {e}") from e
        raw_atoms = obj.get("atoms", [])
        if not isinstance(raw_atoms, list):
            raise SchemaError("'atoms' must be a list")
        atoms = []
        for i, ra in enumerate(raw_atoms):
            try:
                atoms.append((_read_number(ra, "t"), _read_number(ra, "gap")))
            except (KeyError, TypeError, ValueError) as e:
                raise SchemaError(f"atom {i} malformed: {e}") from e
        d = cls(segs, atoms)
        dom = obj.get("domain")
        if dom is not None:
            if (
                not isinstance(dom, (list, tuple)) or len(dom) != 2
                or not all(_is_number(v) for v in dom)
            ):
                raise SchemaError("'domain' must be [lo, hi] of finite numbers")
            if not (math.isclose(dom[0], d.lo) and math.isclose(dom[1], d.hi)):
                raise SchemaError(
                    f"'domain' {dom} does not match segment cover [{d.lo}, {d.hi}]"
                )
        return d

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Derivator)
            and self.segments == other.segments
            and self.atoms == other.atoms
        )

    def __hash__(self):
        return hash((self.segments, self.atoms))

    def __repr__(self):
        return (
            f"Derivator([{self.lo}, {self.hi}], {len(self.segments)} segments, "
            f"{len(self.atoms)} atoms)"
        )


def identity(lo=0.0, hi=1.0):
    """The classical driver g(t) = t."""
    return Derivator([Segment.affine(lo, hi, 1.0, 0.0)])


def regular_points(d, a, b, n):
    """n sample points of (a, b) at which d is locally affine and increasing.

    Points stay clear of segment boundaries, atoms and constancy runs (5%
    margin per segment), so two-sided derivative quotients are well posed
    there.  Raises DomainError when (a, b) meets no affine interior.
    """
    if n < 1:
        raise DomainError(f"need n >= 1 sample points, got {n}")
    spans = []
    for seg in d.segments:
        if seg.kind != "affine":
            continue
        lo, hi = max(seg.lo, float(a)), min(seg.hi, float(b))
        if hi <= lo:
            continue
        margin = 0.05 * (hi - lo)
        spans.append((lo + margin, hi - margin))
    total = sum(hi - lo for lo, hi in spans)
    if total <= 0.0:
        raise DomainError(
            f"({a}, {b}) contains no affine interior of the derivator"
        )
    offsets = [(k + 0.5) * total / n for k in range(n)]
    pts = []
    i = 0
    acc = 0.0
    for lo, hi in spans:
        length = hi - lo
        while i < n and offsets[i] <= acc + length:
            pts.append(lo + (offsets[i] - acc))
            i += 1
        acc += length
    return pts

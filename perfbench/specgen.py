"""Seeded generator of random derivators and problem specs.

Every spec is plain JSON in the format `load_problem` reads.  Random draws
come from a `random.Random` the caller seeds, so one seed always yields the
same specs.  The structure counts (segments, flat pieces, atoms, terms) are
fixed per spec kind and only the numbers are random: the cost of a value
depends on how many pieces it crosses, so fixed counts keep the per-run cost
from swinging with the seed while the drivers still differ every time.
"""

from __future__ import annotations

import math

from reference import Driver, periodic_eigenvalues, phase_root


def _r(x, digits=4):
    return round(x, digits)


def driver(rng, length, n_seg, flats=(), atoms=(), slope=(0.6, 1.6),
           gap=(0.1, 0.4), start=0.0):
    """A driver on [0, length]: n_seg segments, the ones indexed in `flats`
    flat, a jump at the left end of each segment indexed in `atoms`.

    The last segment is kept affine so that derivative quotients near the
    evaluation window always have measure room.
    """
    weights = [rng.uniform(0.6, 1.4) for _ in range(n_seg)]
    total = sum(weights)
    cuts = [0.0]
    for w in weights[:-1]:
        cuts.append(_r(cuts[-1] + length * w / total))
    cuts.append(float(length))
    segs, atom_list = [], []
    value = start
    for i in range(n_seg):
        lo, hi = cuts[i], cuts[i + 1]
        if i in atoms:
            g = _r(rng.uniform(*gap))
            atom_list.append({"t": lo, "gap": g})
            value += g
        if i in flats and i != n_seg - 1:
            segs.append({"from": lo, "to": hi, "kind": "flat", "level": value})
        else:
            s = _r(rng.uniform(*slope))
            segs.append({"from": lo, "to": hi, "kind": "affine", "slope": s,
                         "intercept": value - s * lo})
            value += s * (hi - lo)
    return {"domain": [0.0, float(length)], "segments": segs, "atoms": atom_list}


def _inside_affine(d, lo, hi, rng):
    """A point of (lo, hi) well inside an affine segment of driver JSON d,
    so that the horizon is neither an atom nor inside a constancy run."""
    spans = []
    for s in d["segments"]:
        a, b = max(s["from"], lo), min(s["to"], hi)
        if s["kind"] == "affine" and b - a > 0:
            spans.append((a + 0.2 * (b - a), b - 0.2 * (b - a)))
    a, b = spans[rng.randrange(len(spans))]
    return _r(rng.uniform(a, b))


def _conj_pair(rng, lo=0.3, hi=1.2):
    re, im = _r(rng.uniform(lo, hi)), _r(rng.uniform(-hi, hi))
    return [re, im], [re, -im]


def _sign(rng):
    return 1.0 if rng.random() < 0.5 else -1.0


# -- separated workload ------------------------------------------------------------


def _separated_base(rng, mode, h_atoms=(2,)):
    c = _r(rng.uniform(0.4, 0.8))
    g = driver(rng, 1.6, 4, flats=(1,), atoms=(2,), gap=(0.05, 0.25))
    h = driver(rng, 2.6, 5, flats=(1,), atoms=h_atoms)
    T = _inside_affine(g, 0.6, 1.4, rng)
    L = _inside_affine(h, 1.2, 2.3, rng)
    return {"mode": mode, "c": c, "T": T, "L": L, "g": g, "h": h}


def separated_spec(rng, mode):
    """One ivp/general/dirichlet/neumann spec with mixed exponential and
    oscillatory terms.  Oscillatory rates keep 1 + lam c^2 gap > 0 at the
    time atoms, so the time factor stays strongly regressive."""
    if mode == "neumann":
        # flux zero at L with cos_h(L) = 1 needs an atom-free h on [0, L)
        spec = _separated_base(rng, mode, h_atoms=())
    else:
        spec = _separated_base(rng, mode)
    if mode == "ivp":
        # real coefficients only: `check` reads ivp mode coefficients with
        # complex(), which rejects the [re, im] form
        a, b = _r(rng.uniform(-1, 1)), _r(rng.uniform(-1, 1))
        spec["ivp"] = {
            "a0": _r(rng.uniform(-1, 1)), "b0": _r(rng.uniform(-1, 1)),
            "modes": [
                {"lam": _r(rng.uniform(0.2, 1.5)), "a": _r(rng.uniform(-1, 1)),
                 "b": _r(rng.uniform(-1, 1))},
                {"lam": -_r(rng.uniform(0.5, 3.0)), "a": a, "b": b},
            ],
        }
    elif mode == "general":
        a, b = _conj_pair(rng)
        spec["general"] = {"terms": [
            {"lam": _r(rng.uniform(0.2, 1.5)), "a": _r(rng.uniform(-1, 1)),
             "b": _r(rng.uniform(-1, 1))},
            {"lam": -_r(rng.uniform(0.5, 3.0)), "a": a, "b": b},
            {"lam": 0.0, "a": _r(rng.uniform(-1, 1)), "b": _r(rng.uniform(-1, 1))},
        ]}
    else:
        h = Driver(spec["h"])
        # Dirichlet: sin_h vanishes at L when the phase of exp_h(i s; 0, L) is
        # k pi; Neumann (atom-free h) needs the phase at 2 k pi so cos_h(L) = 1
        k = rng.choice((1, 2))
        target = k * math.pi if mode == "dirichlet" else 2 * math.pi
        s = phase_root(h, spec["L"], target)
        # keep 1 + lam c^2 gap >= 0.2 at the time atoms
        gmax = max(a["gap"] for a in spec["g"]["atoms"])
        spec["c"] = min(spec["c"], _r(math.sqrt(0.8 / (s * s * gmax)), 3))
        spec[mode] = {"lam": -s * s, "N": 60}
        spec[mode]["a" if mode == "dirichlet" else "b"] = _r(rng.uniform(0.5, 1.5) * _sign(rng))
    return spec


SEPARATED_MODES = ("ivp", "general", "dirichlet", "neumann")


# -- gpoly workload -----------------------------------------------------------------


def _level_point(d, target):
    """An x well inside an affine segment with d(x) - d(0) = target, or None
    when the target falls on a flat level, a jump gap or near a breakpoint."""
    base = d["segments"][0]["intercept"] if d["segments"][0]["kind"] == "affine" \
        else d["segments"][0]["level"]
    y = base + target
    for s in d["segments"]:
        if s["kind"] != "affine":
            continue
        lo_v = s["slope"] * s["from"] + s["intercept"]
        hi_v = s["slope"] * s["to"] + s["intercept"]
        if lo_v < y < hi_v:
            x = s["from"] + (y - lo_v) / s["slope"]
            margin = 0.1 * (s["to"] - s["from"])
            if s["from"] + margin < x < s["to"] - margin:
                return x
    return None


# (c^2 g(T), h(L) - h(0)) per coefficient kind: both fix how fast the terms
# decay, so they fix the truncation N that reaches the check tolerance
GPOLY_SCALES = {"inv-factorial": (0.25, 1.6), "inv-sqrt-factorial": (0.07, 0.7)}


def gpoly_spec(rng, alpha_kind):
    """Sum-case heat-polynomial series with g, h carrying atoms and flat runs.

    c^2 g(T) and h(L) - h(0) are drawn within 5% of the kind's scale, which
    keeps g(T) well inside the radius gate sigma/c^2 (sigma = 1/2 for
    inv-sqrt-factorial, infinite for inv-factorial) and keeps N in a narrow
    band.  N itself is chosen by the caller from the program's tail bound.
    """
    gscale, hscale = GPOLY_SCALES[alpha_kind]
    g = driver(rng, 1.6, 4, flats=(1,), atoms=(2,), gap=(0.05, 0.25))
    T = _inside_affine(g, 0.6, 1.4, rng)
    gT = Driver(g)(T) - Driver(g)(0.0)
    c = _r(math.sqrt(gscale * rng.uniform(0.95, 1.05) / gT))
    L = None
    while L is None:
        h = driver(rng, 3.0, 5, flats=(1,), atoms=(2,), slope=(0.6, 1.0), gap=(0.05, 0.2))
        L = _level_point(h, hscale * rng.uniform(0.95, 1.05))
    return {
        "mode": "gpoly-series", "c": c, "T": T, "L": _r(L),
        "G": {"kind": "sum", "g": g, "h": h},
        "gpoly-series": {"alpha": {"kind": alpha_kind}, "N": 1},
    }


GPOLY_KINDS = ("inv-factorial", "inv-sqrt-factorial")


# -- ode workload --------------------------------------------------------------------


def periodic_spec(rng):
    """Periodic mode with an atom-free h (flat runs only), so the periodic
    eigenvalues are -(2 pi k / mu_h([0, L)))^2.  lam_range brackets k = 0, 1,
    2 and lam is the k = 1 eigenvalue: the k = 2 mode needs about twice the
    solve time, and mixing the two at random made the build time of a run
    swing with the seed."""
    c = _r(rng.uniform(0.3, 0.6))
    g = driver(rng, 1.5, 3, flats=(1,), atoms=(2,), gap=(0.02, 0.08))
    h = driver(rng, 2.0, 4, flats=(1,), atoms=())
    T = _inside_affine(g, 0.5, 1.2, rng)
    L = _inside_affine(h, 1.0, 1.7, rng)
    eigs = periodic_eigenvalues(Driver(h), L, 3)
    return {
        "mode": "periodic", "c": c, "T": T, "L": L, "g": g, "h": h,
        "periodic": {"lam": eigs[1],
                     "lam_range": [_r(1.5 * eigs[2], 2), 0.0], "count": 3},
    }


def product_spec(rng):
    """Product case with g, h >= 1 carrying atoms and flat runs."""
    c = _r(rng.uniform(0.5, 1.0))
    g = driver(rng, 2.0, 4, flats=(1,), atoms=(2,), start=_r(rng.uniform(1.0, 1.5)))
    h = driver(rng, 2.0, 4, flats=(1,), atoms=(2,), start=_r(rng.uniform(1.0, 1.5)))
    T = _inside_affine(g, 0.8, 1.6, rng)
    L = _inside_affine(h, 0.8, 1.6, rng)
    return {
        "mode": "product-eigen", "c": c, "T": T, "L": L,
        "G": {"kind": "product", "g": g, "h": h},
        "product-eigen": {"lam": _r(rng.uniform(0.5, 2.0) * _sign(rng)),
                          "v0": _r(rng.uniform(0.5, 1.5)),
                          "dv0": _r(rng.uniform(-1, 1))},
    }


# The one fixed input: the classical periodic problem (g = h = identity, L = 1,
# lam = -4 pi^2).  Its numeric residual rows at the 7x7 regular-point grid are
# where the known periodic fault shows; the input does not depend on the seed.
CLASSICAL_PERIODIC = {
    "mode": "periodic", "c": 1.0, "T": 1.0, "L": 1.0,
    "g": {"domain": [0.0, 2.0], "segments": [
        {"from": 0.0, "to": 2.0, "kind": "affine", "slope": 1.0, "intercept": 0.0}],
        "atoms": []},
    "h": {"domain": [0.0, 2.0], "segments": [
        {"from": 0.0, "to": 2.0, "kind": "affine", "slope": 1.0, "intercept": 0.0}],
        "atoms": []},
    "periodic": {"lam": -39.47841760435743, "lam_range": [-400.0, 0.0], "count": 4},
}

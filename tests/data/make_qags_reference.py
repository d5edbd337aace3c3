"""Write qags_reference.json: Lebesgue-Stieltjes integrals frozen from QAGS.

Each case is a random derivator (a chain of affine and flat pieces with an
atom or none at each internal breakpoint), an interval [a, b), an integrand
drawn from FAMILIES and an exclude_atoms flag.  `qags_stieltjes` splits the
integral as `lsintegral.integrate` does (atom values times gaps, plus one
ordinary integral per affine piece weighted by its slope) and integrates
each piece with QUADPACK's QAGS through scipy, with the settings the library
used while it depended on scipy: epsabs = 1e-10 / pieces, epsrel = 1e-12,
at most 200 subintervals, real and imaginary parts separately.

Only this script and the live comparison in tests/test_quadrature.py need
scipy.  Regenerate from the repository root with

    PYTHONPATH=src python tests/data/make_qags_reference.py
"""

from __future__ import annotations

import cmath
import json
import math
import pathlib
import random

from stieltjes_heat import Derivator

OUT = pathlib.Path(__file__).resolve().parent / "qags_reference.json"
SEED = 20261018
CASES = 200
EPSREL = 1e-12
LIMIT = 200


def _poly(c):
    def f(s):
        acc = 0.0
        for ck in reversed(c):
            acc = acc * s + ck
        return acc
    return f


# family -> builder(params) -> integrand; parameters are JSON lists
FAMILIES = {
    "poly": _poly,
    "sin": lambda p: (lambda s: p[0] * math.sin(p[1] * s + p[2])),
    "cos": lambda p: (lambda s: p[0] * math.cos(p[1] * s + p[2])),
    "exp": lambda p: (lambda s: p[0] * math.exp(p[1] * s)),
    # 1/(1 + s)^2 moved to the left end s0 of the chain, where it is largest
    "inv_square": lambda p: (lambda s: 1.0 / (1.0 + s - p[0]) ** 2),
    "cexp": lambda p: (lambda s: p[0] * cmath.exp(1j * p[1] * s)),
}


def random_pieces(rng):
    """The distribution of `segment_chains()` in tests/conftest.py: 1-4
    pieces of length 0.2-1, each flat or affine with slope 0.1-1, a jump of
    0, 0.1, 0.5 or 1 at each internal breakpoint, the left end at or left
    of 0."""
    lengths = [rng.uniform(0.2, 1.0) for _ in range(rng.randint(1, 4))]
    lo = -rng.uniform(0.0, 0.6) * sum(lengths)
    pieces, level = [], 0.0
    for i, length in enumerate(lengths):
        if i:
            level += rng.choice([0.0, 0.0, 0.1, 0.5, 1.0])
        hi = lo + length
        if rng.random() < 0.5:
            pieces.append(["flat", lo, hi, level])
        else:
            slope = rng.uniform(0.1, 1.0)
            pieces.append(["affine", lo, hi, slope, level - slope * lo])
            level += slope * length
        lo = hi
    return pieces


def random_interval(rng, d):
    """The whole domain, or two random points, sometimes moved onto a
    breakpoint (where an atom may sit)."""
    if rng.random() < 0.3:
        return d.lo, d.hi
    a, b = sorted(rng.uniform(d.lo, d.hi) for _ in range(2))
    breaks = [seg.lo for seg in d.segments]
    if rng.random() < 0.3:
        a = rng.choice(breaks)
        b = max(a, b)
    return a, b


def random_integrand(rng, d):
    family = rng.choice(sorted(FAMILIES))
    if family == "poly":
        params = [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(1, 6))]
    elif family in ("sin", "cos"):
        params = [rng.uniform(-2.0, 2.0), rng.choice([1.0, 4.0, 12.0, 40.0]) * rng.uniform(0.5, 1.0),
                  rng.uniform(0.0, math.pi)]
    elif family == "exp":
        params = [rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0)]
    elif family == "inv_square":
        params = [d.lo]
    else:
        params = [rng.uniform(0.5, 2.0), rng.uniform(-40.0, 40.0)]
    return family, params


def qags_stieltjes(f, a, b, d, exclude_atoms):
    """The integral of f over [a, b) against mu_d, one QAGS call per affine
    piece (per real and imaginary part); raises if QAGS reports a problem."""
    from scipy.integrate import quad

    total = 0.0
    if not exclude_atoms:
        for t, gap in d.atoms_in(a, b):
            total += f(t) * gap
    spans = [(max(a, seg.lo), min(b, seg.hi), seg.slope) for seg in d.segments
             if seg.kind == "affine" and min(b, seg.hi) > max(a, seg.lo)]
    for lo, hi, slope in spans:
        cplx = isinstance(f(0.5 * (lo + hi)), complex)
        parts = []
        for part in ((lambda s: f(s).real, lambda s: f(s).imag) if cplx else (f,)):
            out = quad(part, lo, hi, epsabs=1e-10 / len(spans), epsrel=EPSREL,
                       limit=LIMIT, full_output=1)
            if len(out) > 3:
                raise RuntimeError(f"QAGS on [{lo}, {hi}]: {out[3]}")
            parts.append(out[0])
        total += slope * (complex(*parts) if cplx else parts[0])
    return total


def main():
    rng = random.Random(SEED)
    cases = []
    for _ in range(CASES):
        pieces = random_pieces(rng)
        d = Derivator.from_pieces(pieces)
        a, b = random_interval(rng, d)
        family, params = random_integrand(rng, d)
        exclude = rng.random() < 0.5
        ref = qags_stieltjes(FAMILIES[family](params), a, b, d, exclude)
        cases.append({
            "pieces": pieces, "a": a, "b": b, "family": family, "params": params,
            "exclude_atoms": exclude,
            "ref": [ref.real, ref.imag] if isinstance(ref, complex) else ref,
        })
    head = json.dumps({"seed": SEED, "epsrel": EPSREL, "limit": LIMIT})[:-1]
    OUT.write_text(head + ', "cases": [\n' + ",\n".join(map(json.dumps, cases)) + "\n]}\n")
    print(f"wrote {len(cases)} cases to {OUT}")


if __name__ == "__main__":
    main()

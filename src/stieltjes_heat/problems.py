"""Problem descriptions as JSON: parsing, validation, and solver dispatch.

A problem object names the drivers, the constants and the solution mode:

    {"g": <derivator>, "h": <derivator>, "c": 0.5, "T": 1.5, "L": 2.5,
     "mode": "ivp", "ivp": {...}}

with the mode payload nested under the mode's own name.  Two-variable modes
replace the "g"/"h" pair with {"G": {"kind": "sum"|"product", "g": ..,
"h": ..}} and use mode "gpoly-series" or "product-eigen".  Complex scalars
are written as [re, im] pairs.
"""

import json
import math
from collections import namedtuple

from .derivators import Derivator, _is_number
from .errors import SchemaError
from .heat1d import (
    HeatProblem,
    dirichlet_solution,
    general_solution,
    neumann_solution,
    periodic_solution,
    solve_ivp,
)
from .heat2d import (
    ProductDerivator,
    SumDerivator,
    default_n_probe,
    gpoly_series_solution,
    solve_product_case,
)

SEPARATED_MODES = ("ivp", "periodic", "dirichlet", "neumann", "general")
TWO_VAR_MODES = ("gpoly-series", "product-eigen")
# a heat-polynomial truncation N builds monomial tables of (N + 1)^2 floats
# per segment (a gigabyte near N = 10^4), and the radius probe keeps n_probe
# ratios; larger counts are refused rather than left to exhaust memory
MAX_TRUNCATION = 1000
MAX_PROBE = 100_000


def _number(obj, path):
    if not _is_number(obj):
        raise SchemaError(f"{path} must be a finite number, got {obj!r}")
    return float(obj)


def _count(obj, path, most=None):
    """A non-negative integer, at most `most`; an integral JSON number such
    as 40.0 counts."""
    integral = isinstance(obj, int) or (isinstance(obj, float) and obj.is_integer())
    if not (_is_number(obj) and integral and obj >= 0):
        raise SchemaError(f"{path} must be a non-negative integer, got {obj!r}")
    if most is not None and obj > most:
        raise SchemaError(f"{path} must be at most {most}, got {obj!r}")
    return int(obj)


def _scalar(obj, path):
    """A real number, or a [re, im] pair for a complex value."""
    if _is_number(obj):
        return float(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(_is_number(v) for v in obj):
        z = complex(obj[0], obj[1])
        return z.real if z.imag == 0.0 else z
    raise SchemaError(f"{path} must be a finite number or an [re, im] pair of them, got {obj!r}")


def _field(obj, key, path):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path} must be an object")
    if key not in obj:
        raise SchemaError(f"{path} is missing the field {key!r}")
    return obj[key]


def _derivator(obj, path):
    try:
        return Derivator.from_json(obj)
    except SchemaError as e:
        raise SchemaError(f"{path}: {e}") from e


def alpha_stream(spec, path="alpha"):
    """Coefficient stream from its JSON description.

    Kinds: "list" (finite support; zero beyond the end), "geometric"
    (scale * ratio^n), "inv-sqrt-factorial", "inv-factorial".
    """
    if not isinstance(spec, dict):
        raise SchemaError(f"{path} must be an object with a 'kind' field")
    kind = spec.get("kind")
    if kind == "list":
        vals = _field(spec, "values", path)
        if not isinstance(vals, list) or not vals:
            raise SchemaError(f"{path}.values must be a nonempty list")
        return [_scalar(v, f"{path}.values[{i}]") for i, v in enumerate(vals)]
    if kind == "geometric":
        ratio = _number(_field(spec, "ratio", path), f"{path}.ratio")
        scale = _number(spec.get("scale", 1.0), f"{path}.scale")
        return lambda n: scale * ratio**n
    if kind == "inv-sqrt-factorial":
        return lambda n: math.exp(-0.5 * math.lgamma(n + 1))
    if kind == "inv-factorial":
        return lambda n: math.exp(-math.lgamma(n + 1))
    raise SchemaError(
        f"{path}.kind must be one of 'list', 'geometric', 'inv-sqrt-factorial',"
        f" 'inv-factorial', got {kind!r}"
    )


def _term_triple(obj, path):
    lam = _scalar(_field(obj, "lam", path), f"{path}.lam")
    a = _scalar(_field(obj, "a", path), f"{path}.a")
    b = _scalar(_field(obj, "b", path), f"{path}.b")
    return lam, a, b


class ParsedProblem(namedtuple("ParsedProblem", "mode c T L payload problem G raw")):
    """Validated problem: mode, constants, the mode's payload, the
    HeatProblem of the drivers g, h on [0, T] x [0, L], the two-variable
    derivator G (None in a separated mode) and the full description raw."""

    __slots__ = ()

    @property
    def g(self):
        return self.problem.g

    @property
    def h(self):
        return self.problem.h


def load_problem(obj):
    """Parse and validate a problem description (dict or JSON text)."""
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as e:
            raise SchemaError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise SchemaError("problem description must be an object")
    mode = obj.get("mode")
    if mode not in SEPARATED_MODES + TWO_VAR_MODES:
        raise SchemaError(
            f"mode must be one of {SEPARATED_MODES + TWO_VAR_MODES}, got {mode!r}"
        )
    c = _number(_field(obj, "c", "problem"), "c")
    if not c > 0:
        raise SchemaError(f"diffusion constant must be positive, got {c}")
    T = _number(_field(obj, "T", "problem"), "T")
    L = _number(_field(obj, "L", "problem"), "L")
    payload = obj.get(mode, {})
    if not isinstance(payload, dict):
        raise SchemaError(f"payload {mode!r} must be an object")

    if mode in TWO_VAR_MODES:
        Gspec = _field(obj, "G", "problem")
        kind = _field(Gspec, "kind", "G")
        g = _derivator(_field(Gspec, "g", "G"), "G.g")
        h = _derivator(_field(Gspec, "h", "G"), "G.h")
        if kind == "sum":
            G = SumDerivator(g, h)
        elif kind == "product":
            G = ProductDerivator(g, h)
        else:
            raise SchemaError(f"G.kind must be 'sum' or 'product', got {kind!r}")
        if mode == "gpoly-series" and kind != "sum":
            raise SchemaError("mode 'gpoly-series' requires G.kind 'sum'")
        if mode == "product-eigen" and kind != "product":
            raise SchemaError("mode 'product-eigen' requires G.kind 'product'")
    else:
        G = None
        g = _derivator(_field(obj, "g", "problem"), "g")
        h = _derivator(_field(obj, "h", "problem"), "h")
    return ParsedProblem(mode, c, T, L, payload, HeatProblem(g, h, c, T, L), G, obj)


def _claim(obj, path):
    m = _count(_field(obj, "m", path), f"{path}.m")
    n = _count(_field(obj, "n", path), f"{path}.n")
    return m, n, _scalar(_field(obj, "value", path), f"{path}.value")


def mode_params(parsed):
    """The mode payload as validated, typed values (a dict per mode).

    The payload is read afresh on every call; solve and the CLI checks both
    take their values from here.
    """
    mode, payload = parsed.mode, parsed.payload
    if mode == "ivp":
        modes = payload.get("modes", [])
        if not isinstance(modes, list):
            raise SchemaError("ivp.modes must be a list")
        return {
            "a0": _scalar(payload.get("a0", 0.0), "ivp.a0"),
            "b0": _scalar(payload.get("b0", 0.0), "ivp.b0"),
            "modes": [_term_triple(m, f"ivp.modes[{i}]") for i, m in enumerate(modes)],
        }
    if mode == "general":
        terms = _field(payload, "terms", "general")
        if not isinstance(terms, list) or not terms:
            raise SchemaError("general.terms must be a nonempty list")
        return {"terms": [_term_triple(t, f"general.terms[{i}]")
                          for i, t in enumerate(terms)]}
    if mode == "periodic":
        return {"lam": _scalar(_field(payload, "lam", "periodic"), "periodic.lam")}
    if mode in ("dirichlet", "neumann"):
        coef = "a" if mode == "dirichlet" else "b"
        return {
            "lam": _number(_field(payload, "lam", mode), f"{mode}.lam"),
            coef: _scalar(_field(payload, coef, mode), f"{mode}.{coef}"),
        }
    if mode == "gpoly-series":
        alpha = alpha_stream(_field(payload, "alpha", mode), f"{mode}.alpha")
        N = _count(payload.get("N", 40), f"{mode}.N", MAX_TRUNCATION)
        n_probe = payload.get("n_probe")
        claims = payload.get("a_claims", [])
        if not isinstance(claims, list):
            raise SchemaError(f"{mode}.a_claims must be a list")
        return {
            "alpha": alpha,
            "N": N,
            "n_probe": (default_n_probe(N) if n_probe is None
                        else _count(n_probe, f"{mode}.n_probe", MAX_PROBE)),
            "a_claims": [_claim(c, f"{mode}.a_claims[{i}]") for i, c in enumerate(claims)],
        }
    if mode == "product-eigen":
        return {
            "lam": _number(_field(payload, "lam", mode), f"{mode}.lam"),
            "v0": _scalar(payload.get("v0", 1.0), f"{mode}.v0"),
            "dv0": _scalar(payload.get("dv0", 0.0), f"{mode}.dv0"),
        }
    raise SchemaError(f"unhandled mode {mode!r}")


def scan_params(parsed):
    """(lam_range, count) of the eigenvalue scan, from the mode's object of
    a Dirichlet or Neumann spec and from the "periodic" object of any other
    separated spec.  The default range reaches -(8.5 pi / L)^2, the default
    count is 8."""
    key = parsed.mode if parsed.mode in ("dirichlet", "neumann") else "periodic"
    payload = parsed.raw.get(key, {})
    if not isinstance(payload, dict):
        raise SchemaError(f"{key} must be an object")
    rng = payload.get("lam_range", [-((8.5 * math.pi / parsed.L) ** 2), 0.0])
    if not (isinstance(rng, list) and len(rng) == 2 and all(_is_number(v) for v in rng)):
        raise SchemaError(f"{key}.lam_range must be [lo, hi] of finite numbers")
    return tuple(rng), _count(payload.get("count", 8), f"{key}.count")


def solve(parsed):
    """Solve per mode.

    Returns (solution, info) where info carries mode-specific reports
    (currently the gate report of "gpoly-series").
    """
    mode, p, problem = parsed.mode, mode_params(parsed), parsed.problem
    if mode == "ivp":
        return solve_ivp(problem, p), {}
    if mode == "general":
        return general_solution(problem, p["terms"]), {}
    if mode == "periodic":
        return periodic_solution(problem, p["lam"]), {}
    if mode == "dirichlet":
        return dirichlet_solution(problem, p["lam"], p["a"]), {}
    if mode == "neumann":
        return neumann_solution(problem, p["lam"], p["b"]), {}
    if mode == "gpoly-series":
        sol, gate = gpoly_series_solution(
            parsed.G, p["alpha"], parsed.c, parsed.T, parsed.L, p["N"],
            n_probe=p["n_probe"],
        )
        return sol, {"gate": gate}
    sol = solve_product_case(
        parsed.G, p["lam"], parsed.c, p["v0"], p["dv0"], parsed.T, parsed.L
    )
    return sol, {}

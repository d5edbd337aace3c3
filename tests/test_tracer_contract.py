"""The benchmark's per-module tracer (perfbench/tracer.py) holds on the package.

A traced benchmark run imports every module named in `tracer.LAYERS`, wraps
their public functions and `lsintegral.quad`, and reads the line count of
`src/stieltjes_heat/<layer>.py`; a layer moved or renamed ends that run.
This test reads perfbench/ and changes nothing there.
"""

import importlib
import pathlib

from stieltjes_heat import identity

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_tracer_installs_counts_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    for layer in tracer.LAYERS:
        assert (ROOT / "src" / "stieltjes_heat" / f"{layer}.py").is_file(), layer
    gmod = importlib.import_module("stieltjes_heat.gderiv")
    lsi = importlib.import_module("stieltjes_heat.lsintegral")
    pkg = importlib.import_module("stieltjes_heat")
    originals = (gmod.gderiv, pkg.gderiv, lsi.quad)
    assert pkg.gderiv is gmod.gderiv

    tr = tracer.Tracer()
    tr.install()
    try:
        assert gmod.gderiv is not originals[0] and pkg.gderiv is not originals[1]
        assert lsi.quad is not originals[2]
        d = identity(0.0, 1.0)
        assert abs(pkg.gderiv(lambda s: s * s, 0.3, d) - 0.6) < 1e-8
    finally:
        tr.uninstall()
    assert tr.calls("gderiv.gderiv") == 1 and tr.f_evals > 0
    assert (gmod.gderiv, pkg.gderiv, lsi.quad) == originals
    assert not hasattr(gmod.gderiv, "__wrapped__")

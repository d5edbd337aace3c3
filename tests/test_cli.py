"""Command-line front end: subcommands, CSV contract, exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stieltjes_heat import HeatSolution, ProductCaseSolution, cli
from stieltjes_heat.problems import load_problem, solve

SPECS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "specs"


def jump_g_json():
    return {
        "segments": [
            {"from": 0.0, "to": 0.5, "kind": "affine", "slope": 1.0, "intercept": 0.0},
            {"from": 0.5, "to": 1.5, "kind": "affine", "slope": 1.0, "intercept": 1.0},
        ],
        "atoms": [{"t": 0.5, "gap": 1.0}],
    }


def plateau_h_json():
    return {
        "segments": [
            {"from": 0.0, "to": 1.0, "kind": "affine", "slope": 1.0, "intercept": 2.0},
            {"from": 1.0, "to": 1.5, "kind": "flat", "level": 3.0},
            {"from": 1.5, "to": 2.5, "kind": "affine", "slope": 2.0, "intercept": 1.0},
        ],
        "atoms": [{"t": 1.5, "gap": 1.0}],
    }


def ident_json(hi=2.0):
    return {
        "segments": [
            {"from": 0.0, "to": hi, "kind": "affine", "slope": 1.0, "intercept": 0.0}
        ],
        "atoms": [],
    }


def jumpy_ivp_spec():
    return {
        "g": jump_g_json(),
        "h": plateau_h_json(),
        "c": 0.5,
        "T": 1.0,
        "L": 2.0,
        "mode": "ivp",
        "ivp": {"a0": 1.0, "b0": -1.0, "modes": [{"lam": 0.6, "a": 2.0, "b": 0.0}]},
    }


def gpoly_spec(T=0.2, claims=None):
    spec = {
        "G": {"kind": "sum", "g": jump_g_json(), "h": plateau_h_json()},
        "c": 1.0,
        "T": T,
        "L": 2.3,
        "mode": "gpoly-series",
        "gpoly-series": {"alpha": {"kind": "inv-sqrt-factorial"}, "N": 24},
    }
    if claims is not None:
        spec["gpoly-series"]["a_claims"] = claims
    return spec


def scaled_ivp_spec():
    # u of order 1e9: rounding alone leaves atom residuals near 1e-7
    spec = jumpy_ivp_spec()
    ivp = spec["ivp"]
    ivp["a0"], ivp["b0"] = 1e9 * ivp["a0"], 1e9 * ivp["b0"]
    for mode in ivp["modes"]:
        mode["a"], mode["b"] = 1e9 * mode["a"], 1e9 * mode["b"]
    return spec


def complex_ivp_spec():
    # a complex mode coefficient, written as an [re, im] pair
    spec = jumpy_ivp_spec()
    spec["ivp"]["modes"][0]["a"] = [2.0, 0.5]
    return spec


def periodic_spec():
    return {
        "g": ident_json(1.0),
        "h": ident_json(1.0),
        "c": 1.0,
        "T": 1.0,
        "L": 1.0,
        "mode": "periodic",
        "periodic": {
            "lam": -((2 * math.pi) ** 2),
            "lam_range": [-400.0, 0.0],
            "count": 4,
        },
    }


def dirichlet_spec(lam=-(math.pi**2), N=60):
    return {
        "g": ident_json(1.0),
        "h": ident_json(1.0),
        "c": 1.0,
        "T": 1.0,
        "L": 1.0,
        "mode": "dirichlet",
        "dirichlet": {"lam": lam, "a": 1.0, "N": N},
    }


def product_spec():
    one_plus = {
        "segments": [
            {"from": 0.0, "to": 2.0, "kind": "affine", "slope": 1.0, "intercept": 1.0}
        ],
        "atoms": [],
    }
    return {
        "G": {"kind": "product", "g": one_plus, "h": one_plus},
        "c": 1.0,
        "T": 1.0,
        "L": 1.0,
        "mode": "product-eigen",
        "product-eigen": {"lam": 1.0, "v0": 1.0, "dv0": 0.0},
    }


def one_plus_json(atom=None):
    """1 + x on [0, 2], with a gap-0.5 atom at `atom` when given."""
    if atom is None:
        return product_spec()["G"]["g"]
    return {
        "segments": [
            {"from": 0.0, "to": atom, "kind": "affine", "slope": 1.0, "intercept": 1.0},
            {"from": atom, "to": 2.0, "kind": "affine", "slope": 1.0, "intercept": 1.5},
        ],
        "atoms": [{"t": atom, "gap": 0.5}],
    }


def product_atom_spec(g_atom=None, h_atom=0.5, lam=1.0):
    spec = product_spec()
    spec["G"] = {"kind": "product", "g": one_plus_json(g_atom), "h": one_plus_json(h_atom)}
    spec["product-eigen"]["lam"] = lam
    return spec


@pytest.fixture()
def spec_file(tmp_path):
    def write(spec, name="spec.json"):
        p = tmp_path / name
        p.write_text(json.dumps(spec))
        return str(p)

    return write


def run(capsys, argv):
    rc = cli.main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def check_rows(out):
    """{row name: "PASS" | "FAIL"} of a check report."""
    return {ln.split()[1]: ln.split()[0] for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))}


# ---------------------------------------------------------------------------
# eval


def test_eval_header_and_first_row(capsys, spec_file):
    rc, out, err = run(capsys, ["eval", spec_file(jumpy_ivp_spec()), "--grid", "5x5"])
    assert rc == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "x", "u_re", "u_im", "residual"]
    assert len(rows) == 1 + 25
    t, x, u_re, u_im, res = rows[1]
    assert (float(t), float(x)) == (0.0, 0.0)
    assert float(u_re) == pytest.approx(1.0, abs=1e-14)
    assert float(u_im) == 0.0
    assert res == ""  # residual column is opt-in


def test_eval_emit_diagnostics_fills_residual(capsys, spec_file):
    for spec in (jumpy_ivp_spec(), complex_ivp_spec()):
        rc, out, _ = run(
            capsys,
            ["eval", spec_file(spec), "--grid", "4x4", "--emit-diagnostics"],
        )
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        for r in rows:
            u = complex(float(r[2]), float(r[3]))
            assert abs(float(r[4])) < 1e-4 * (1.0 + abs(u))
            assert float(r[4]) >= 0.0  # the column holds |residual|


def test_eval_reports_rule_residual_fallbacks(capsys, spec_file):
    # at lam = 1000 the time quotients of the product case stall on 17 of the
    # 25 rows; they keep the rule residual (0 by construction) in the CSV,
    # and one stderr line says how many, where the first was and why
    spec = json.loads((SPECS / "product_eigen.json").read_text())
    spec["product-eigen"]["lam"] = 1000.0
    argv = ["eval", spec_file(spec), "--grid", "5x5", "--emit-diagnostics"]
    rc, out, err = run(capsys, argv)
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 25 and sum(r[4] == "0.0" for r in rows) == 17
    assert len(err.splitlines()) == 1
    assert err.startswith("eval: 17 of 25 grid rows carry the rule residual (0 by construction)")
    assert "first at (t, x) = (0.0, 0.0)" in err and "stalled" in err
    # no fallback, no line
    rc, _, err = run(capsys, ["eval", str(SPECS / "worked_ivp.json"), "--grid", "5x5",
                              "--emit-diagnostics"])
    assert rc == 0 and err == ""


def test_eval_is_deterministic(capsys, spec_file):
    path = spec_file(jumpy_ivp_spec())
    _, out1, _ = run(capsys, ["eval", path, "--grid", "7x7"])
    _, out2, _ = run(capsys, ["eval", path, "--grid", "7x7"])
    assert out1 == out2


def test_eval_atom_rows(capsys, spec_file):
    path = spec_file(jumpy_ivp_spec())
    rc, out, _ = run(
        capsys,
        ["eval", path, "--grid", "4x4", "--include-atoms", "--emit-diagnostics"],
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) > 16  # grid rows plus injected atom rows
    t_atoms = [r for r in rows if float(r[0]) == 0.5]
    x_atoms = [r for r in rows if float(r[1]) == 1.5]
    assert len(t_atoms) >= 4 and len(x_atoms) >= 4
    # atom rows use the exact jump-quotient residual
    for r in t_atoms + x_atoms:
        assert abs(float(r[4])) < 1e-9


def test_periodic_emit_diagnostics_has_no_fallback_zeros(capsys):
    # every grid row gets its numeric residual, none a substituted 0.0
    path = str(SPECS / "periodic_classical.json")
    rc, out, _ = run(capsys, ["eval", path, "--grid", "21x21", "--emit-diagnostics"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 441
    for r in rows:
        u = complex(float(r[2]), float(r[3]))
        assert 0.0 < float(r[4]) <= 1e-6 * (1.0 + abs(u))


def test_eval_writes_out_file(capsys, spec_file, tmp_path):
    path = spec_file(jumpy_ivp_spec())
    dest = tmp_path / "u.csv"
    rc, out, _ = run(capsys, ["eval", path, "--grid", "3x3", "--out", str(dest)])
    assert rc == 0
    assert out == ""
    assert dest.read_text().startswith("t,x,u_re,u_im,residual")


def test_eval_reads_stdin(capsys, spec_file, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(jumpy_ivp_spec())))
    rc, out, _ = run(capsys, ["eval", "-", "--grid", "3x3"])
    assert rc == 0
    assert out.startswith("t,x,u_re,u_im,residual")


def test_eval_rejects_bad_grid(capsys, spec_file):
    path = spec_file(jumpy_ivp_spec())
    for grid in ("1x5", "5", "0x0", "axb", "2x2x9"):
        rc, _, err = run(capsys, ["eval", path, "--grid", grid])
        assert rc == 3
        assert err.startswith("spec error:")


def test_usage_errors_exit_3(capsys, spec_file):
    # exit 2 is the gate refusal, so argparse's own exit 2 must not leak out
    path = spec_file(product_spec())
    for argv in (["eval", path, "--bogus", "1"], ["eval"], [], ["eval", path, "--tol", "1e-8"],
                 # --grid, --include-atoms and --emit-diagnostics are eval's alone
                 ["check", path, "--grid", "3x3"], ["radius", path, "--include-atoms"],
                 ["eigs", path, "--emit-diagnostics"]):
        rc, out, err = run(capsys, argv)
        assert rc == 3 and out == ""
        assert err.startswith("usage error:")


# ---------------------------------------------------------------------------
# check


def test_check_jumpy_spec_all_pass(capsys, spec_file):
    for spec in (jumpy_ivp_spec(), complex_ivp_spec(), scaled_ivp_spec()):
        rc, out, _ = run(capsys, ["check", spec_file(spec)])
        assert rc == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert lines[-1].startswith("all ") and lines[-1].endswith("checks passed")
        for ln in lines[:-1]:
            assert ln.startswith("PASS")
        names = out.split()
        for expected in (
            "ftc-derivative-of-integral(g)",
            "ftc-integral-of-derivative(h)",
            "gexp-ode(g)",
            "pde-residual",
            "initial-values",
        ):
            assert expected in names


def test_check_flags_broken_claim(capsys, spec_file):
    claims = [
        {"m": 1, "n": 2, "value": 2.449489742783178},  # 12 / sqrt(24)
        {"m": 2, "n": 1, "value": 99.0},  # deliberately wrong
    ]
    rc, out, _ = run(capsys, ["check", spec_file(gpoly_spec(claims=claims))])
    assert rc == 1
    rows = {ln.split()[1]: ln.split()[0] for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))}
    assert rows["coefficient-claim(m=1,n=2)"] == "PASS"
    assert rows["coefficient-claim(m=2,n=1)"] == "FAIL"
    assert "FAILED" in out.splitlines()[-1]


def test_coefficient_law_row_reads_the_float_grid(capsys, monkeypatch):
    # the row holds the law on the float grid A the series sums, not on the
    # exact a_mn, which satisfy it by construction: a 1.01 skew of row 1 of
    # A FAILs it, with the worst relative deviation 1 - 1/1.01
    path = str(SPECS / "gpoly_gate.json")
    rc, out, _ = run(capsys, ["check", path])
    assert rc == 0 and check_rows(out)["coefficient-law"] == "PASS"

    def skewed_solve(parsed):
        sol, info = solve(parsed)
        sol.A[1][:] = [1.01 * a for a in sol.A[1]]
        return sol, info

    monkeypatch.setattr(cli, "solve", skewed_solve)
    rc, out, _ = run(capsys, ["check", path])
    assert rc == 1 and check_rows(out)["coefficient-law"] == "FAIL"
    assert re.search(r"FAIL  coefficient-law\s+max rel dev 0\.0099 of", out)


def test_check_gpoly_enforces_tail_bound(capsys, spec_file):
    # N = 24 leaves a tail of about 3.8e3 against u(T, L) of about 5.5e3
    rc, out, _ = run(capsys, ["check", spec_file(gpoly_spec())])
    assert rc == 1
    rows = {ln.split()[1]: ln.split()[0] for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))}
    assert rows["tail-bound"] == "FAIL"
    assert rows["pde-residual"] == "PASS"
    assert rows["atom-jump(x)"] == "PASS"


def test_check_gpoly_demo_spec_passes_every_row(capsys):
    rc, out, _ = run(capsys, ["check", str(SPECS / "gpoly_gate.json")])
    rows = [ln.split() for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert rc == 0
    assert all(r[0] == "PASS" for r in rows)
    assert {"tail-bound", "atom-jump(x)", "pde-residual"} <= {r[1] for r in rows}


def test_check_periodic_runs_atom_jump_rows(capsys, spec_file, monkeypatch):
    spec = periodic_spec()
    spec["g"], spec["c"] = jump_g_json(), 0.1
    path = spec_file(spec)
    rc, out, _ = run(capsys, ["check", path])
    rows = {ln.split()[1]: ln.split()[0] for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))}
    assert rc == 0
    assert rows["atom-jump(t)"] == "PASS"

    class OffCurvature(HeatSolution):
        def dhx2_rule(self, t, x):
            return super().dhx2_rule(t, x) + 1e-3

    solve = cli.solve

    def off_solve(parsed):
        sol, info = solve(parsed)
        return OffCurvature(sol.problem, sol.terms), info

    monkeypatch.setattr(cli, "solve", off_solve)
    rc, out, _ = run(capsys, ["check", path])
    rows = {ln.split()[1]: ln.split()[0] for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))}
    assert rc == 1
    assert rows["atom-jump(t)"] == "FAIL"
    assert rows["pde-residual"] == "PASS"


def test_product_atom_rows_are_jump_quotients(capsys, spec_file):
    # an atom of h only: the atom rows of eval and check
    path = spec_file(product_atom_spec())
    rc, out, _ = run(capsys, ["eval", path, "--grid", "3x3", "--include-atoms",
                              "--emit-diagnostics"])
    atom_rows = list(csv.DictReader(io.StringIO(out)))[9:]  # after the 3x3 grid
    assert rc == 0 and [float(r["x"]) for r in atom_rows] == [0.5] * 3
    assert all(float(r["residual"]) <= 1e-15 for r in atom_rows)
    rc, out, _ = run(capsys, ["check", path])
    assert rc == 0 and check_rows(out)["atom-jump(x)"] == "PASS"

    # atoms in both drivers, both signs of lam
    for lam in (1.0, -1.5):
        sol, _ = solve(load_problem(json.dumps(product_atom_spec(0.5, 0.7, lam))))
        for t, x in ((0.5, 0.2), (0.5, 0.9), (0.0, 0.7), (0.8, 0.7)):
            res = sol.jump_residual_t(t, x) if t == 0.5 else sol.jump_residual_x(t, x)
            assert abs(res) <= 1e-15 * (1.0 + abs(sol(t, x)))


def test_product_atom_rows_read_the_solution(capsys, spec_file, monkeypatch):
    # the space row is d_g u minus the jump quotient of d_h u, so an offset
    # in d_h^2 u leaves it alone; the time row subtracts d_h^2 u itself
    class Off(ProductCaseSolution):
        def dgt_rule(self, t, x):
            return super().dgt_rule(t, x) + self.off_t

        def dhx2_rule(self, t, x):
            return super().dhx2_rule(t, x) + self.off_xx

    def check_off(spec, off_t, off_xx):
        def off_solve(parsed):
            sol, info = solve(parsed)
            off = Off(sol.G, sol.lam, sol.c, sol.v, sol.regressivity, sol.independence)
            off.off_t, off.off_xx = off_t, off_xx
            return off, info

        monkeypatch.setattr(cli, "solve", off_solve)
        rows = check_rows(run(capsys, ["check", spec_file(spec)])[1])
        assert rows["pde-residual"] == "PASS"
        return rows

    assert check_off(product_atom_spec(), 0.0, 1e-3)["atom-jump(x)"] == "PASS"
    assert check_off(product_atom_spec(), 1e-3, 0.0)["atom-jump(x)"] == "FAIL"
    assert check_off(product_atom_spec(0.5, 0.7), 0.0, 1e-3)["atom-jump(t)"] == "FAIL"


def test_independence_determinant_row_can_fail(capsys, spec_file, monkeypatch):
    # W(L) of the canonical pair against the product of the atom factors:
    # a perturbed atom transfer breaks Abel's identity and FAILs the row.  At
    # lam = 200 on the demo spec the two products in W(L) reach ~1e16 and
    # cancel to 1, so the rounding bound, which scales with them, is ~2e7 |P|:
    # such a row certifies nothing and FAILs, whatever W(L) reads
    from stieltjes_heat.heat2d import SpaceFactor

    demo = str(SPECS / "product_eigen.json")
    for path in (spec_file(product_atom_spec()), demo):
        rc, out, _ = run(capsys, ["check", path])
        assert rc == 0 and check_rows(out)["independence-determinant"] == "PASS"
    hot = json.loads((SPECS / "product_eigen.json").read_text())
    hot["product-eigen"]["lam"] = 200.0
    rc, out, _ = run(capsys, ["check", spec_file(hot)])
    assert rc == 1 and check_rows(out)["independence-determinant"] == "FAIL"
    assert re.search(r"FAIL  independence-determinant\s+cannot certify: the rounding "
                     r"bound \S+ of W\(L\) = \S+ exceeds 1e-6 \|P\|", out)
    atom = SpaceFactor._atom

    def skewed(lam, gap, h_xi, v, dv):
        v, dv = atom(lam, gap, h_xi, v, dv)
        return v, 1.001 * dv

    monkeypatch.setattr(SpaceFactor, "_atom", staticmethod(skewed))
    rc, out, _ = run(capsys, ["check", spec_file(product_atom_spec())])
    assert rc == 1 and check_rows(out)["independence-determinant"] == "FAIL"



# ---------------------------------------------------------------------------
# exit codes


DEMOS = ("worked_ivp", "periodic_classical", "product_eigen", "gpoly_gate")
EXIT_CODES = {  # each subcommand's exit code on each of DEMOS
    "eval": (0, 0, 0, 0),
    "check": (0, 0, 0, 0),
    "radius": (3, 3, 3, 0),
    "eigs": (0, 0, 3, 3),
}


@pytest.mark.parametrize("cmd, name, want", [
    (cmd, name, want) for cmd, codes in EXIT_CODES.items() for name, want in zip(DEMOS, codes)])
def test_exit_code_matrix_on_the_demo_specs(cmd, name, want):
    # a fresh interpreter per command, as a user runs it: stderr is empty or
    # one "... error: ..." line, never a traceback
    env = dict(os.environ, PYTHONPATH=str(SPECS.parent.parent / "src"))
    argv = [sys.executable, "-m", "stieltjes_heat.cli", cmd, str(SPECS / f"{name}.json")]
    out = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == want, out.stderr
    lines = out.stderr.splitlines()
    if want == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and re.match(r"[a-z]+ error: \S", lines[0]), out.stderr


def test_check_dirichlet_spec_past_order_170(capsys, spec_file):
    # an "N" key is ignored like any payload key the code does not read; it
    # once set the order of a sine series gate (N = 100 summed orders to 201)
    rc, out, _ = run(capsys, ["check", spec_file(dirichlet_spec(N=100))])
    assert rc == 0
    assert out.splitlines()[-1].startswith("all ")


@pytest.mark.parametrize("k", [8, 12, 16])
def test_check_passes_high_classical_dirichlet_modes(capsys, spec_file, k):
    # the closed-form gate reads |sin_h(L)| below 2e-15 here; a small c keeps
    # the mode visible at t = T
    spec = dirichlet_spec(lam=-((k * math.pi) ** 2))
    spec["c"] = 0.05
    rc, out, _ = run(capsys, ["check", spec_file(spec)])
    assert rc == 0
    assert all(v == "PASS" for v in check_rows(out).values())


def test_gate_violation_exits_2(capsys, spec_file):
    # N = 2 once let a series tail of 2.0 excuse lam = -12, and the solve then
    # failed its boundary check with exit 3
    for spec, word in (
        (gpoly_spec(T=1.4), "sigma"),
        (dirichlet_spec(lam=-1.1 * math.pi**2), "sin_h"),
        (dirichlet_spec(lam=-12.0, N=2), "sin_h"),
    ):
        rc, _, err = run(capsys, ["eval", spec_file(spec)])
        assert rc == 2
        assert err.startswith("gate error:")
        assert word in err
        assert "np.float64" not in err


def test_malformed_json_exits_3(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ not json")
    rc, _, err = run(capsys, ["eval", str(p)])
    assert rc == 3 and err.startswith("spec error:")


def test_missing_file_exits_3(capsys, tmp_path):
    rc, _, err = run(capsys, ["eval", str(tmp_path / "absent.json")])
    assert rc == 3 and err.startswith("cannot read spec:")


def test_missing_field_exits_3(capsys, spec_file):
    spec = jumpy_ivp_spec()
    del spec["c"]
    rc, _, err = run(capsys, ["eval", spec_file(spec)])
    assert rc == 3 and err.startswith("spec error:") and "'c'" in err


def test_undeclared_atom_exits_3(capsys, spec_file):
    spec = jumpy_ivp_spec()
    spec["g"]["atoms"] = []  # boundary jump at 0.5 left undeclared
    rc, _, err = run(capsys, ["eval", spec_file(spec)])
    assert rc == 3 and err.startswith("spec error:")
    assert "atom" in err


def test_numeric_failure_exits_4(capsys, spec_file):
    # float overflow: the product-case time factor exp(lam c^2 (1/g(0) - 1/g(t)))
    # at lam = 1e4, exp_g at a huge rate, and ratio**n in the radius probe
    hot = json.loads((SPECS / "product_eigen.json").read_text())
    hot["product-eigen"]["lam"] = 1e4
    rc, _, err = run(capsys, ["eval", spec_file(hot), "--grid", "3x3"])
    assert rc == 4
    assert err.startswith("numeric failure:")
    # at lam = 1e6 the space factor overflows while it is built, before any w(t)
    hot["product-eigen"]["lam"] = 1e6
    rc, out, err = run(capsys, ["eval", spec_file(hot), "--grid", "3x3"])
    assert rc == 4 and out == ""
    assert err.startswith("numeric failure:") and "did not settle" in err
    steep = jumpy_ivp_spec()
    steep["ivp"]["modes"][0]["lam"] = 1e6
    wide = gpoly_spec()
    wide["gpoly-series"].update(alpha={"kind": "geometric", "ratio": 10}, n_probe=400)
    for argv in (["eval", spec_file(steep), "--grid", "3x3"], ["radius", spec_file(wide)],
                 ["eval", spec_file(wide), "--grid", "3x3"]):
        rc, _, err = run(capsys, argv)
        assert rc == 4
        assert err.startswith("numeric failure:")


def test_boundary_recheck_after_a_passed_gate_exits_4(spec_file):
    # at lam = -(1e5 pi)^2 the Neumann gate holds, but the flux at the ends
    # rounds to 1e-5 and fails the re-check: the spec is valid, so this is a
    # numeric failure (it was reported as a spec error, exit 3).  A fresh
    # interpreter, as a user runs it: one error line, no traceback
    spec = {"g": ident_json(1.0), "h": ident_json(1.0), "c": 1.0, "T": 1.0, "L": 1.0,
            "mode": "neumann", "neumann": {"lam": -((1e5 * math.pi) ** 2), "b": 1.0}}
    env = dict(os.environ, PYTHONPATH=str(SPECS.parent.parent / "src"))
    argv = [sys.executable, "-m", "stieltjes_heat.cli", "eval", spec_file(spec), "--grid", "3x3"]
    out = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 4, out.stderr
    assert out.stdout == "" and "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure: Neumann flux boundary")


@pytest.mark.parametrize("driver", ["g", "h"])
def test_check_passes_when_a_domain_starts_left_of_0(capsys, spec_file, driver):
    # the slices walk from the anchor 0, so the residual ladders must not
    # sample below it (they did for h: "measure needs a <= b")
    spec = json.loads((SPECS / "worked_ivp.json").read_text())
    spec[driver]["domain"][0] = -0.5
    spec[driver]["segments"][0]["from"] = -0.5
    rc, out, _ = run(capsys, ["check", spec_file(spec)])
    assert rc == 0
    assert all(v == "PASS" for v in check_rows(out).values())


def test_check_ftc_stall_is_a_fail_row(capsys, spec_file, monkeypatch):
    # gderiv stalls on the two FTC rows only (a ladder capped below its
    # minimum length); check reports them as FAIL rows and exits 1, not 4
    from stieltjes_heat.gderiv import DiffConfig, gderiv

    def stalling(f, t, d, cfg=None):
        if f.__qualname__.startswith(("indefinite.", "_check_ftc.")):
            cfg = DiffConfig(max_levels=2, min_levels=3)
        return gderiv(f, t, d, cfg)

    monkeypatch.setattr(cli, "gderiv", stalling)
    rc, out, _ = run(capsys, ["check", spec_file(jumpy_ivp_spec())])
    assert rc == 1
    rows = check_rows(out)
    ftc = [name for name in rows if name.startswith("ftc-")]
    assert len(ftc) == 4 and all(rows[name] == "FAIL" for name in ftc)
    assert all(v == "PASS" for k, v in rows.items() if k not in ftc)
    assert out.count("extrapolation to step 0 stalled") == 4


def test_check_residual_raise_is_a_fail_row(capsys, monkeypatch):
    # the rule residual is 0 by construction: a numeric residual that raises
    # must FAIL pde-residual, naming the point, not pass on a stand-in zero.
    # The second-derivative ladders stall on both routes of the residual
    # grid, the shared samples' and the scalar residual_numeric's
    import importlib

    from stieltjes_heat.errors import NonConvergenceError

    def stalled(*args):
        raise NonConvergenceError("stalled on purpose")

    monkeypatch.setattr(importlib.import_module("stieltjes_heat.gderiv"), "_second", stalled)
    rc, out, _ = run(capsys, ["check", str(SPECS / "worked_ivp.json")])
    assert rc == 1
    rows = check_rows(out)
    assert rows["pde-residual"] == "FAIL"
    assert all(v == "PASS" for k, v in rows.items() if k != "pde-residual")
    row = next(ln for ln in out.splitlines() if "pde-residual" in ln)
    assert "numeric residual at (t, x) = (" in row and "stalled on purpose" in row


def test_non_integer_count_exits_3(capsys, spec_file):
    spec = gpoly_spec()
    spec["gpoly-series"]["N"] = "forty"
    for cmd in ("check", "radius", "eval"):
        rc, _, err = run(capsys, [cmd, spec_file(spec)])
        assert rc == 3
        assert err.startswith("spec error:") and "N" in err


# ---------------------------------------------------------------------------
# radius


def test_radius_report_pass(capsys, spec_file):
    rc, out, _ = run(capsys, ["radius", spec_file(gpoly_spec())])
    assert rc == 0
    kv = dict(
        ln.split(" = ", 1) for ln in out.splitlines() if " = " in ln
    )
    assert 0.475 <= float(kv["sigma"]) <= 0.525
    assert float(kv["sigma_gate"]) <= float(kv["sigma"])
    assert kv["gate"] == "pass"
    assert float(kv["g(T)"]) == pytest.approx(0.2)


def test_radius_report_fail_without_error(capsys, spec_file):
    # the radius report is informational: a violated gate is reported with
    # exit 0, only eval/check refuse to build the solution
    rc, out, _ = run(capsys, ["radius", spec_file(gpoly_spec(T=1.4))])
    assert rc == 0
    assert "gate = fail" in out


def test_radius_refuses_an_oscillating_trend(capsys, spec_file):
    # odd coefficients carry an extra 1.5^n, so the ratio sequence alternates
    spec = json.loads((SPECS / "gpoly_gate.json").read_text())
    values = [math.exp(n * math.log(1.5 if n % 2 else 1.0) - 0.5 * math.lgamma(n + 1))
              for n in range(200)]
    spec["gpoly-series"] = {"alpha": {"kind": "list", "values": values}, "N": 40}
    path = spec_file(spec)
    rc, out, _ = run(capsys, ["radius", path])
    assert rc == 2
    assert "trend = oscillating" in out
    assert out.splitlines()[-1].startswith("gate = refused")
    rc, _, err = run(capsys, ["eval", path])
    assert rc == 2 and "oscillates" in err


def test_radius_requires_gpoly_mode(capsys, spec_file):
    rc, _, err = run(capsys, ["radius", spec_file(jumpy_ivp_spec())])
    assert rc == 3 and "gpoly-series" in err


# ---------------------------------------------------------------------------
# eigs


def test_eigs_classical_values(capsys, spec_file):
    rc, out, _ = run(capsys, ["eigs", spec_file(periodic_spec())])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "lam"
    lams = [float(v) for v in lines[1:]]
    want = [0.0] + [-((2 * math.pi * k) ** 2) for k in (1, 2, 3)]
    assert len(lams) == 4
    for got, ref in zip(lams, want):
        assert got == pytest.approx(ref, abs=1e-9, rel=1e-9)


def test_eigs_lists_the_boundary_modes_eigenvalues(capsys, spec_file):
    # on Dirichlet and Neumann specs the zeros of sin_h(L), -(m pi)^2 for
    # m >= 1 (no 0, no periodic -(2 pi k)^2 only), the range and count read
    # from the mode's own object
    for mode, coef in (("dirichlet", "a"), ("neumann", "b")):
        spec = dirichlet_spec()
        spec["mode"] = mode
        spec[mode] = {"lam": -(math.pi**2), coef: 1.0}
        rc, out, _ = run(capsys, ["eigs", spec_file(spec)])
        assert rc == 0
        want = [-((m * math.pi) ** 2) for m in range(1, 9)]
        assert [float(v) for v in out.splitlines()[1:]] == pytest.approx(want, rel=1e-9)
        spec[mode].update(lam_range=[-100.0, -20.0], count=1)
        rc, out, _ = run(capsys, ["eigs", spec_file(spec)])
        assert rc == 0
        assert [float(v) for v in out.splitlines()[1:]] == pytest.approx(want[1:2], rel=1e-9)


def test_eigs_requires_separated_problem(capsys, spec_file):
    rc, _, err = run(capsys, ["eigs", spec_file(gpoly_spec())])
    assert rc == 3 and "separated" in err


def _set(path, value):
    """A spec edit: the demo spec's field at path (keys and indices) set to value."""
    def edit(spec):
        obj = spec
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return edit


NON_FINITE = {
    "c-inf": _set(["c"], math.inf),
    "c-nan": _set(["c"], math.nan),
    "c-minus-inf": _set(["c"], -math.inf),
    "T-inf": _set(["T"], math.inf),
    "L-inf": _set(["L"], math.inf),
    "g-gap-nan": _set(["g", "atoms", 0, "gap"], math.nan),
    "g-gap-inf": _set(["g", "atoms", 0, "gap"], math.inf),
    "g-slope-nan": _set(["g", "segments", 0, "slope"], math.nan),
    "g-slope-inf": _set(["g", "segments", 0, "slope"], math.inf),
    "h-intercept-nan": _set(["h", "segments", 0, "intercept"], math.nan),
    "h-level-inf": _set(["h", "segments", 1, "level"], math.inf),
    "g-end-inf": lambda s: (_set(["g", "segments", 1, "to"], math.inf)(s),
                            _set(["g", "domain", 1], math.inf)(s)),
}


@pytest.mark.parametrize("cmd", ["eval", "check", "radius", "eigs"])
@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_spec_numbers_exit_3(capsys, spec_file, case, cmd):
    """json reads NaN and Infinity: every subcommand refuses them as a spec
    error before it solves anything."""
    spec = json.loads((SPECS / "worked_ivp.json").read_text())
    NON_FINITE[case](spec)
    rc, out, err = run(capsys, [cmd, spec_file(spec)])
    assert (rc, out) == (3, "")
    assert err.startswith("spec error:") and "finite" in err


@pytest.mark.parametrize("cmd, name, path, value", [
    ("eigs", "periodic_classical", ["periodic", "lam_range", 0], -math.inf),
    ("eigs", "periodic_classical", ["periodic", "lam_range", 0], math.nan),
    ("eigs", "periodic_classical", ["periodic", "lam_range", 1], math.inf),
    ("eval", "worked_ivp", ["ivp", "modes", 0, "lam"], math.nan),
    ("check", "worked_ivp", ["ivp", "modes", 0, "a"], [math.inf, 0.0]),
    ("eval", "periodic_classical", ["periodic", "lam"], -math.inf),
    ("eigs", "worked_ivp", ["ivp", "modes", 0, "lam"], math.nan),
])
def test_non_finite_payload_numbers_exit_3(capsys, spec_file, cmd, name, path, value):
    """The payload fields that only some subcommands read."""
    spec = json.loads((SPECS / f"{name}.json").read_text())
    _set(path, value)(spec)
    rc, out, err = run(capsys, [cmd, spec_file(spec)])
    assert (rc, out) == (3, "")
    assert err.startswith("spec error:") and "finite" in err


# a string or a boolean equal to the demo's number: each read as that float before
NOT_NUMBERS = {
    "g-from-string": _set(["g", "segments", 0, "from"], "0"),
    "g-slope-true": _set(["g", "segments", 0, "slope"], True),
    "g-gap-string": _set(["g", "atoms", 0, "gap"], "1.0"),
    "h-level-string": _set(["h", "segments", 1, "level"], "3"),
    "g-domain-false": _set(["g", "domain", 0], False),
}


@pytest.mark.parametrize("cmd", ["eval", "check", "radius", "eigs"])
@pytest.mark.parametrize("case", sorted(NOT_NUMBERS))
def test_derivator_numbers_must_be_json_numbers(capsys, spec_file, case, cmd):
    """A derivator reads its numbers by the rule of every other spec number:
    a string or a boolean is a spec error, not the float it spells."""
    spec = json.loads((SPECS / "worked_ivp.json").read_text())
    NOT_NUMBERS[case](spec)
    rc, out, err = run(capsys, [cmd, spec_file(spec)])
    assert (rc, out) == (3, "")
    assert err.startswith(f"spec error: {case[0]}: ") and "finite number" in err


@pytest.mark.parametrize("cmd", ["eval", "check", "radius"])
@pytest.mark.parametrize("name, key, value, want", [
    ("product_eigen", "T", 50, "derivator domain [0.0, 2.0] does not cover [0, 50.0] required by T"),
    ("product_eigen", "T", 0, "need T, L > 0, got T=0.0, L=1.8"),
    ("product_eigen", "L", 0, "need T, L > 0, got T=1.8, L=0.0"),
    ("gpoly_gate", "T", 0, "need T, L > 0, got T=0.0, L=2.3"),
    ("gpoly_gate", "L", 0, "need T, L > 0, got T=0.2, L=0.0"),
    ("gpoly_gate", "L", 50, "does not cover [0, 50.0] required by L"),
])
def test_two_variable_specs_keep_the_rectangle_rule(capsys, spec_file, cmd, name, key, value, want):
    """Every mode checks its drivers on [0, T] x [0, L] as a separated spec
    does: T, L > 0 and domains that cover the rectangle, else exit 3 with the
    separated spec's message."""
    spec = json.loads((SPECS / f"{name}.json").read_text())
    spec[key] = value
    rc, out, err = run(capsys, [cmd, spec_file(spec)])
    assert (rc, out) == (3, "")
    assert err.startswith("spec error: ") and want in err and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# fuzz: one field of a demo spec deleted or replaced


DEMO_NAMES = ("worked_ivp", "periodic_classical", "product_eigen", "gpoly_gate")
_DELETE = "<delete>"


def _paths(obj, prefix=()):
    """Every key and index path of a JSON value, containers included."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, val in items:
        yield prefix + (key,)
        yield from _paths(val, prefix + (key,))


DEMO_FIELDS = [(name, path) for name in DEMO_NAMES
               for path in _paths(json.loads((SPECS / f"{name}.json").read_text()))]


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from(DEMO_FIELDS),
       value=st.sampled_from([_DELETE, None, True, "x", [], 0, -1, 1e308]))
@example(field=("worked_ivp", ("g", "atoms")), value=3)
@example(field=("gpoly_gate", ("c",)), value=0)
@example(field=("periodic_classical", ("h", "segments", 0, "slope")), value=1e308)
def test_cli_fuzz_one_field(field, value):
    """No subcommand lets an exception escape on a spec with one field
    deleted or replaced, and each exits with a documented code: 1 (a FAILed
    row) from check only."""
    name, path = field
    spec = json.loads((SPECS / f"{name}.json").read_text())
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "spec.json")
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        for cmd in ("eval", "check", "radius", "eigs"):
            argv = [cmd, p] + (["--grid", "3x3"] if cmd == "eval" else [])
            rc, _out, err = _run_quiet(argv)
            assert rc in ({0, 1, 2, 3, 4} if cmd == "check" else {0, 2, 3, 4}), (cmd, err)
            assert rc == 0 or (rc == 1 and err == "") or len(err.splitlines()) == 1, (cmd, err)


@pytest.mark.parametrize("cmd, name, path, value, want", [
    ("eval", "worked_ivp", ["g", "atoms"], 3, 3),
    ("check", "worked_ivp", ["h", "atoms"], None, 3),
    ("radius", "gpoly_gate", ["c"], 0, 3),
    ("radius", "gpoly_gate", ["c"], -1, 3),
    ("eigs", "periodic_classical", ["c"], 0, 3),
    ("check", "periodic_classical", ["h", "segments", 0, "slope"], 1e308, 4),
    ("eval", "gpoly_gate", ["gpoly-series", "N"], 1e308, 3),
    ("radius", "gpoly_gate", ["gpoly-series", "n_probe"], 1e308, 3),
])
def test_malformed_fields_exit_with_one_line(capsys, spec_file, cmd, name, path, value, want):
    """Non-list atoms, a non-positive c and counts past their cap are spec
    errors; an overflowing phase is a numeric failure."""
    spec = json.loads((SPECS / f"{name}.json").read_text())
    _set(path, value)(spec)
    rc, out, err = run(capsys, [cmd, spec_file(spec)])
    assert (rc, out) == (want, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("spec error:" if want == 3 else "numeric failure:")


@pytest.mark.parametrize("cmd", ["eval", "check"])
def test_monomial_rows_past_the_float_range_exit_4_with_one_line(spec_file, cmd):
    # at N = 700 the rows of h's monomial table on its third segment leave
    # the float range from order 639: no nan value and no warning, but one
    # stderr line naming the derivator, the segment and the order
    spec = json.loads((SPECS / "gpoly_gate.json").read_text())
    spec["gpoly-series"]["N"] = 700
    env = dict(os.environ, PYTHONPATH=str(SPECS.parent.parent / "src"))
    argv = [sys.executable, "-m", "stieltjes_heat.cli", cmd, spec_file(spec)]
    out = subprocess.run(argv + (["--grid", "3x3"] if cmd == "eval" else []),
                         capture_output=True, text=True, env=env, timeout=300)
    assert (out.returncode, out.stdout) == (4, "")
    assert out.stderr.startswith("numeric failure: monomial h_639 ")
    assert len(out.stderr.splitlines()) == 1 and "segment 2 [1.5, 2.5] of h" in out.stderr

"""Command-line front end: subcommands, CSV contract, exit codes."""

import csv
import io
import json
import math
import pathlib

import pytest

from stieltjes_heat import cli


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
    for grid in ("1x5", "5", "0x0", "axb"):
        rc, _, err = run(capsys, ["eval", path, "--grid", grid])
        assert rc == 3
        assert err.startswith("spec error:")


def test_eval_rejects_bad_tol(capsys, spec_file):
    for tol in ("--tol=-1e-6", "--tol=0"):
        rc, _, err = run(capsys, ["eval", spec_file(jumpy_ivp_spec()), tol])
        assert rc == 3 and err.startswith("spec error:")


# ---------------------------------------------------------------------------
# check


def test_check_jumpy_spec_all_pass(capsys, spec_file):
    for spec in (jumpy_ivp_spec(), complex_ivp_spec()):
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


def test_check_gpoly_enforces_tail_bound(capsys, spec_file):
    # N = 24 leaves a tail of about 3.8e3 against u(T, L) of about 5.5e3
    rc, out, _ = run(capsys, ["check", spec_file(gpoly_spec())])
    assert rc == 1
    rows = {ln.split()[1]: ln.split()[0] for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))}
    assert rows["tail-bound"] == "FAIL"
    assert rows["pde-residual"] == "PASS"
    assert rows["atom-jump(x)"] == "PASS"


def test_check_gpoly_demo_spec_passes_every_row(capsys):
    spec = pathlib.Path(__file__).resolve().parent.parent / "demos" / "specs" / "gpoly_gate.json"
    rc, out, _ = run(capsys, ["check", str(spec)])
    rows = [ln.split() for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert rc == 0
    assert all(r[0] == "PASS" for r in rows)
    assert {"tail-bound", "atom-jump(x)", "pde-residual"} <= {r[1] for r in rows}


# ---------------------------------------------------------------------------
# exit codes


def test_gate_violation_exits_2(capsys, spec_file):
    rc, _, err = run(capsys, ["eval", spec_file(gpoly_spec(T=1.4))])
    assert rc == 2
    assert err.startswith("gate error:")
    assert "sigma" in err


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
    rc, _, err = run(
        capsys,
        ["eval", spec_file(product_spec()), "--grid", "3x3", "--tol", "1e-15"],
    )
    assert rc == 4
    assert err.startswith("numeric failure:")
    # float overflow: exp_g at a huge rate, and ratio**n in the radius probe
    steep = jumpy_ivp_spec()
    steep["ivp"]["modes"][0]["lam"] = 1e6
    wide = gpoly_spec()
    wide["gpoly-series"].update(alpha={"kind": "geometric", "ratio": 10}, n_probe=400)
    for cmd, spec in (("eval", steep), ("radius", wide), ("eval", wide)):
        rc, _, err = run(capsys, [cmd, spec_file(spec), "--grid", "3x3"])
        assert rc == 4
        assert err.startswith("numeric failure:")


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


def test_eigs_requires_separated_problem(capsys, spec_file):
    rc, _, err = run(capsys, ["eigs", spec_file(gpoly_spec())])
    assert rc == 3 and "separated" in err

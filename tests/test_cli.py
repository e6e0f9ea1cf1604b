import csv
import importlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import specseq
from specseq import resolvent
from specseq.cli import main
from specseq.errors import SpecseqError
from specseq.operators import SUP_REL_TOL
from specseq.resolvent import CERT_CAP


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["A_diag"] = write_json(
        tmp_path / "a.json",
        {"dim": 2, "re": [[0.5, 0.0], [0.0, 2.0]], "im": [[0, 0], [0, 0]]},
    )
    paths["A_half"] = write_json(tmp_path / "a1.json", {"dim": 1, "re": [[0.5]]})
    paths["A_two"] = write_json(tmp_path / "a2.json", {"dim": 1, "re": [[2.0]]})
    paths["f_imp"] = write_json(
        tmp_path / "f.json", {"dim": 1, "lo": -1, "values": [[[1.0], [0.0]]]}
    )
    paths["u_seq"] = write_json(
        tmp_path / "u.json",
        {
            "dim": 1,
            "lo": -2,
            "values": [[[1.0], [0.5]], [[0.25], [0.0]], [[-1.0], [0.0]], [[0.0], [2.0]]],
        },
    )
    paths["x_vec"] = write_json(tmp_path / "x.json", {"dim": 2, "re": [0.3, 0.1]})
    paths["x_one"] = write_json(tmp_path / "x1.json", {"dim": 1, "re": [1.0]})
    paths["F_sat"] = write_json(
        tmp_path / "fsat.json", {"kernel": "scaled_bounded_saturation", "params": {"eps": 0.01}}
    )
    paths["F_lin"] = write_json(
        tmp_path / "flin.json",
        {
            "kernel": "linear",
            "params": {"matrix": {"dim": 1, "re": [[0.5]], "im": [[0.0]]}},
            "forcing": {"dim": 1, "lo": -1, "values": [[[1.0], [0.0]]]},
        },
    )
    paths["grid"] = write_json(tmp_path / "grid.json", {"vectors": [{"dim": 2, "re": [0.1, 0.0]}]})
    paths["out_csv"] = str(tmp_path / "out.csv")
    paths["tmp"] = tmp_path
    return paths


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_output(files, capsys):
    code, out, err = run_cli(["spectrum", "--A", files["A_diag"]], capsys)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data == {"r": 2.0, "hyperbolic": True}


def test_spectrum_optional_operator_reports(files, capsys):
    code, out, _ = run_cli(
        [
            "spectrum",
            "--A",
            files["A_half"],
            "--circle-sup-rho",
            "1.0",
            "--resolvent-z",
            "1.0",
            "0.0",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert 2.0 <= data["circle_sup"] <= 2.0 * (1 + SUP_REL_TOL)
    assert data["resolvent_at"]["re"][0][0] == pytest.approx(2.0)


def test_resolve_csv_export(files, tmp_path, capsys):
    csv_path = tmp_path / "sol.csv"
    code, _, _ = run_cli(
        [
            "resolve",
            "--A",
            files["A_half"],
            "--f",
            files["f_imp"],
            "--rho",
            "1.0",
            "--mode",
            "causal",
            "--csv-out",
            str(csv_path),
        ],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(csv_path.read_text().splitlines()))
    assert rows[0] == ["n", "component", "re", "im"]
    assert rows[1][0] == "0" and float(rows[1][2]) == pytest.approx(1.0)


def test_spectrum_indeterminate_hyperbolic(files, capsys, tmp_path):
    path = write_json(tmp_path / "unit.json", {"dim": 1, "re": [[1.0]]})
    code, out, _ = run_cli(["spectrum", "--A", path], capsys)
    assert code == 0
    assert json.loads(out)["hyperbolic"] is None


def test_spectrum_deterministic_bytes(files, tmp_path, capsys):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    assert main(["spectrum", "--A", files["A_diag"], "--out", str(out1)]) == 0
    assert main(["spectrum", "--A", files["A_diag"], "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_riesz_output(files, capsys):
    code, out, _ = run_cli(["riesz", "--A", files["A_diag"], "--gamma", "1.0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert np.allclose(data["proj_stable"]["re"], [[1.0, 0.0], [0.0, 0.0]], atol=1e-10)
    assert data["r_inside"] == pytest.approx(0.5)
    assert data["idempotency_defect"] <= 1e-10
    assert data["sign_steps"] >= 1 and "quad_points" not in data


def test_resolve_causal(files, capsys):
    code, out, _ = run_cli(
        ["resolve", "--A", files["A_half"], "--f", files["f_imp"], "--rho", "1.0", "--mode", "causal"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["residual"] <= 1e-10
    sol = data["solution"]
    assert sol["lo"] == 0
    assert sol["values"][0][0][0] == pytest.approx(1.0)
    assert sol["values"][3][0][0] == pytest.approx(0.125)


def test_resolve_modes_agree(files, capsys):
    outputs = {}
    for mode in ("causal", "split", "frequency"):
        code, out, _ = run_cli(
            ["resolve", "--A", files["A_half"], "--f", files["f_imp"], "--rho", "1.0", "--mode", mode],
            capsys,
        )
        assert code == 0
        outputs[mode] = json.loads(out)["solution"]
    for mode in ("split", "frequency"):
        a, b = outputs["causal"], outputs[mode]
        for k in range(0, 10):
            va = a["values"][k - a["lo"]][0][0]
            vb = b["values"][k - b["lo"]][0][0]
            assert va == pytest.approx(vb, abs=1e-8)


def test_resolve_error_diagnostics(files, capsys):
    code, out, err = run_cli(
        ["resolve", "--A", files["A_two"], "--f", files["f_imp"], "--rho", "1.0", "--mode", "causal"],
        capsys,
    )
    assert code == 11
    diag = json.loads(err)
    assert diag["error"] == "not-causal-regime"
    assert out == ""


def test_ztransform_check(files, tmp_path, capsys):
    circle = tmp_path / "circle.csv"
    code, out, _ = run_cli(
        [
            "ztransform-check",
            "--u",
            files["u_seq"],
            "--rho",
            "1.0",
            "--N",
            "64",
            "--circle-csv",
            str(circle),
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["parseval_lhs"] == pytest.approx(data["parseval_rhs"], rel=1e-10)
    assert data["multiplication_defect"] <= 1e-10
    rows = list(csv.reader(circle.read_text().splitlines()))
    assert rows[0] == ["theta", "abs"]
    assert len(rows) == 65
    assert data["n_samples"] == 64


def test_ztransform_check_reports_the_default_sample_count(files, tmp_path, capsys):
    # without --N the transform picks its own count, and n_samples names it
    circle = tmp_path / "circle.csv"
    argv = ["ztransform-check", "--u", files["u_seq"], "--rho", "1.0", "--circle-csv", str(circle)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    rows = circle.read_text().splitlines()
    assert json.loads(out)["n_samples"] == len(rows) - 1 > 0


def test_ztransform_check_of_an_overflowing_transform_exits_5(tmp_path, capsys):
    # finite coefficients whose sum in the sample at z = 1 overflows
    u = write_json(tmp_path / "u.json", {"dim": 1, "lo": 0, "values": [[[1e308], [0.0]]] * 2})
    code, out, err = run_cli(["ztransform-check", "--u", u, "--rho", "1.0"], capsys)
    assert (code, out) == (5, "")
    assert json.loads(err)["error"] == "norm-overflow"


def test_ztransform_check_transforms_once(files, tmp_path, capsys, monkeypatch):
    # the Parseval sides and the circle CSV read one transform at N = 64
    # (the intertwining check transforms at its own sample count); the
    # package exports the function under the module's name, hence
    # import_module, and the command reads the module's attribute when it runs
    ztransform = importlib.import_module("specseq.ztransform")
    counts = []
    plain = ztransform.ztransform

    def counted(u, rho, n_samples=None):
        counts.append(n_samples)
        return plain(u, rho, n_samples)

    monkeypatch.setattr(ztransform, "ztransform", counted)
    argv = ["ztransform-check", "--u", files["u_seq"], "--rho", "1.0", "--N", "64"]
    code, _, _ = run_cli(argv + ["--circle-csv", str(tmp_path / "circle.csv")], capsys)
    assert code == 0
    assert counts.count(64) == 1


def test_solve_ivp_all(files, capsys):
    code, out, _ = run_cli(
        [
            "solve-ivp",
            "--A",
            files["A_diag"],
            "--F",
            files["F_sat"],
            "--x",
            files["x_vec"],
            "--method",
            "all",
            "--horizon",
            "64",
            "--rho",
            "2.5",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert set(data["methods"]) == {"recursion", "variation_of_constants", "impulse"}
    for dev in data["pairwise_max_deviation"].values():
        assert dev <= 1e-8


def test_solve_ivp_single_method(files, capsys):
    code, out, _ = run_cli(
        [
            "solve-ivp",
            "--A",
            files["A_diag"],
            "--F",
            files["F_sat"],
            "--x",
            files["x_vec"],
            "--method",
            "voc",
            "--horizon",
            "16",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["method"] == "variation_of_constants"


def test_solve_ivp_impulse_writes_every_row_of_the_horizon(tmp_path, capsys):
    # x = 1 is the impulse map's only data, so every row past row 0 comes
    # from the causal branch running on to the horizon: u_n = 1.5^n
    a = write_json(tmp_path / "a.json", {"dim": 1, "re": [[1.5]]})
    f = write_json(tmp_path / "f.json", {"kernel": "zero", "params": {}})
    x = write_json(tmp_path / "x.json", {"dim": 1, "re": [1.0]})
    rows = {}
    for method in ("impulse", "recursion"):
        argv = ["solve-ivp", "--A", a, "--F", f, "--x", x, "--method", method]
        code, out, _ = run_cli(argv + ["--horizon", "120", "--rho", "2.5"], capsys)
        assert code == 0
        solution = json.loads(out)["solution"]
        assert solution["lo"] == 0
        rows[method] = np.array([complex(re[0], im[0]) for re, im in solution["values"]])
    assert len(rows["impulse"]) == len(rows["recursion"]) == 121
    err = np.abs(rows["impulse"] - rows["recursion"])
    assert np.all(err <= 1e-12 * np.abs(rows["recursion"]))


def test_solve_contraction_cli(files, tmp_path, capsys):
    stencil = write_json(
        tmp_path / "flin.json",
        {
            "kernel": "linear",
            "params": {"matrix": {"dim": 1, "re": [[0.5]], "im": [[0.0]]}},
            "forcing": {"dim": 1, "lo": -1, "values": [[[1.0], [0.0]]]},
        },
    )
    code, out, _ = run_cli(
        ["solve-contraction", "--F", stencil, "--rho", "1.0", "--window", "-4", "50"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["converged"] is True
    assert data["contraction_estimate"] <= 0.55
    sol = data["solution"]
    # fixed point of tau u = 0.5 u + delta_{-1}: u_n = 0.5^n on n >= 0
    assert sol["lo"] == 0
    assert sol["values"][2][0][0] == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-ivp", "--method", "recursion", "--x", "x_vec", "--A", "A_diag"],
        ["solve-contraction", "--dim", "2", "--rho", "1.0", "--window", "-2", "8"],
    ],
    ids=["solve-ivp", "solve-contraction"],
)
def test_stencil_of_another_dimension_exits_4(files, capsys, argv):
    # a saturation stencil whose forcing lives in C^3, on a state in C^2
    F = write_json(
        files["tmp"] / "f3.json",
        {
            "kernel": "scaled_bounded_saturation",
            "params": {"eps": 0.01},
            "forcing": {"dim": 3, "lo": 0, "values": [[[0.1, 0.0, 0.0], [0.0, 0.0, 0.0]]]},
        },
    )
    argv = [files.get(a, a) for a in argv] + ["--F", F]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "dimension-mismatch"


@pytest.mark.parametrize("mode, rho", [("causal", "3"), ("split", "1"), ("frequency", "1")])
def test_resolve_forcing_of_another_dimension_exits_4(files, capsys, mode, rho):
    # a forcing in C^3 on diag(0.5, 2): refused where the plan meets it
    f = write_json(
        files["tmp"] / "f3.json", {"dim": 3, "lo": 0, "values": [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]}
    )
    argv = ["resolve", "--A", files["A_diag"], "--f", f, "--rho", rho, "--mode", mode]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "dimension-mismatch"


@pytest.mark.parametrize(
    "mode, diagonal, rho",
    [("causal", [0.9, 0.5], "0.9001"), ("split", [0.5, 1.0001], "1"), ("frequency", [0.9999, 0.5], "1")],
)
def test_resolve_tail_cut_past_the_cap_exits_20_before_any_window(
    files, capsys, monkeypatch, mode, diagonal, rho
):
    # a plan computes its cuts on first use; a full route reads them before
    # it allocates a window or transforms its data
    def unreachable(*args, **kwargs):
        raise AssertionError("a window was allocated")

    monkeypatch.setattr(resolvent, "apply_resolvent_window", unreachable)
    monkeypatch.setattr(resolvent, "ztransform", unreachable)
    a = write_json(files["tmp"] / "a.json", {"dim": 2, "re": np.diag(diagonal).tolist()})
    f = write_json(files["tmp"] / "f.json", {"dim": 2, "lo": -1, "values": [[[1.0, 1.0], [0.0, 0.0]]]})
    code, out, err = run_cli(["resolve", "--A", a, "--f", f, "--rho", rho, "--mode", mode], capsys)
    assert (code, out) == (20, "")
    diag = json.loads(err)
    assert diag["error"] == "precondition-violated"
    assert "series tail cut needs at least" in diag["message"]
    assert f"cap of {resolvent.TAIL_CAP}" in diag["message"]
    if mode == "split":
        with pytest.raises(specseq.PreconditionViolation) as info:
            specseq.causality_probe(specseq.BoundedOperator.diagonal(diagonal), 1.0, [1.0, 1.0])
        assert str(info.value) == diag["message"]


def test_stability_cli(files, capsys):
    code, out, _ = run_cli(["stability", "--A", files["A_half"]], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "exponentially_stable"
    assert data["rho_star"] == pytest.approx(0.75)
    assert data["probes_consistent"] is True


def test_stable_manifold_cli(files, tmp_path, capsys):
    problem = write_json(
        tmp_path / "prob.json",
        {
            "A": {"dim": 2, "re": [[0.5, 0.0], [0.0, 2.0]], "im": [[0, 0], [0, 0]]},
            "F": {"kernel": "scaled_bounded_saturation", "params": {"eps": 0.01}},
            "fp_tol": 1e-12,
        },
    )
    grid = write_json(
        tmp_path / "grid.json",
        {
            "vectors": [
                {"dim": 2, "re": [-0.2, 0.0]},
                {"dim": 2, "re": [0.2, 0.0]},
                {"dim": 2, "re": [0.0, 1.0]},
            ]
        },
    )
    out_csv = tmp_path / "table.csv"
    code = main(["stable-manifold", "--problem", problem, "--grid", grid, "--out", str(out_csv)])
    assert code == 0
    rows = list(csv.DictReader(out_csv.read_text().splitlines()))
    assert len(rows) == 3
    assert rows[0]["error"] == "" and rows[1]["error"] == ""
    # odd kernel: eta flips sign with xi
    assert float(rows[0]["eta_1_re"]) == pytest.approx(-float(rows[1]["eta_1_re"]), rel=1e-6)
    assert abs(float(rows[1]["eta_1_re"])) > 1e-5
    assert "range-violation" in rows[2]["error"]


def test_stable_manifold_horizon_below_certificate_exits_20(tmp_path, capsys):
    # the certified horizon here is 22 rows: 21 is refused before any row runs
    problem = {
        "A": {"dim": 2, "re": [[0.5, 0.0], [0.0, 2.0]]},
        "F": {"kernel": "scaled_bounded_saturation", "params": {"eps": 0.01}},
    }
    grid = write_json(tmp_path / "grid.json", {"vectors": [{"dim": 2, "re": [0.2, 0.0]}]})
    out_csv = tmp_path / "table.csv"
    for horizon, want in ((22, 0), (21, 20)):
        path = write_json(tmp_path / "prob.json", dict(problem, horizon=horizon))
        argv = ["stable-manifold", "--problem", path, "--grid", grid, "--out", str(out_csv)]
        code, _, err = run_cli(argv, capsys)
        assert code == want
    assert json.loads(err)["error"] == "precondition-violated"
    assert "horizon 21 is below the certified 22 rows" in json.loads(err)["message"]


def test_stable_manifold_stencil_of_another_dimension_exits_4(tmp_path, capsys):
    problem = write_json(
        tmp_path / "prob.json",
        {
            "A": {"dim": 2, "re": [[0.5, 0.0], [0.0, 2.0]]},
            "F": {
                "kernel": "linear",
                "params": {"matrix": {"dim": 3, "re": (0.01 * np.eye(3)).tolist()}},
            },
        },
    )
    grid = write_json(tmp_path / "grid.json", {"vectors": [{"dim": 2, "re": [0.1, 0.0]}]})
    out_csv = tmp_path / "table.csv"
    argv = ["stable-manifold", "--problem", problem, "--grid", grid, "--out", str(out_csv)]
    code, _, err = run_cli(argv, capsys)
    assert code == 4 and not out_csv.exists()
    assert json.loads(err)["error"] == "dimension-mismatch"


def test_escape_check_cli(files, tmp_path, capsys):
    x = write_json(tmp_path / "x1.json", {"dim": 1, "re": [1.0]})
    code, out, _ = run_cli(
        ["escape-check", "--A", files["A_two"], "--x", x], capsys
    )
    assert code == 0
    assert json.loads(out)["escapes"] is True


def test_escape_check_certificate_past_cap_fails_fast(tmp_path, capsys, monkeypatch):
    # moduli 1 + 2e-6 pass GAP_TOL, but ||A^-n|| <= 1/2 needs about 3.5e5
    # steps by the radius alone, past the cap: exit 20 before any power
    a = write_json(tmp_path / "a.json", {"dim": 2, "re": [[1.0 + 2e-6, 0.0], [0.0, 1.0 + 2e-6]]})
    x = write_json(tmp_path / "x.json", {"dim": 2, "re": [1.0, 0.0]})
    calls = []
    norm = resolvent.operator_norm
    monkeypatch.setattr(resolvent, "operator_norm", lambda m: calls.append(1) or norm(m))
    start = time.perf_counter()
    code, out, err = run_cli(["escape-check", "--A", a, "--x", x], capsys)
    assert time.perf_counter() - start < 0.1
    assert code == 20 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "precondition-violated"
    assert f"cap of {CERT_CAP}" in diag["message"]
    assert calls == []


def test_escape_check_vector_of_another_dimension_exits_4(tmp_path, capsys):
    # the dimension is checked before the eigenvalue precondition, which
    # the eigenvalue 0.5 fails
    a = write_json(tmp_path / "a.json", {"dim": 2, "re": [[0.5, 1.0], [0.0, 2.0]]})
    x = write_json(tmp_path / "x.json", {"dim": 3, "re": [1.0, 0.0, 0.0]})
    code, out, err = run_cli(["escape-check", "--A", a, "--x", x], capsys)
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "dimension-mismatch"


def test_stable_manifold_grid_vector_of_another_dimension(files, tmp_path, capsys):
    # a row of its own, with the header's columns; the other rows run
    problem = write_json(
        tmp_path / "prob.json",
        {"A": {"dim": 2, "re": [[0.5, 0.0], [0.0, 2.0]]}, "F": SAT, "fp_tol": 1e-12},
    )
    vectors = [{"dim": 2, "re": [0.2, 0.0]}, {"dim": 3, "re": [0.2, 0.0, 0.0]}, {"dim": 1, "re": [0.2]}]
    grid = write_json(tmp_path / "grid.json", {"vectors": vectors})
    out_csv = tmp_path / "table.csv"
    code, _, _ = run_cli(["stable-manifold", "--problem", problem, "--grid", grid, "--out", str(out_csv)], capsys)
    assert code == 0
    header, *rows = list(csv.reader(out_csv.read_text().splitlines()))
    assert [len(row) for row in rows] == [len(header)] * 3
    assert [row[-1] for row in rows] == [
        "",
        "dimension-mismatch: xi has dimension 3, expected 2",
        "dimension-mismatch: xi has dimension 1, expected 2",
    ]
    assert all(row[0] == row[2] == "nan" for row in rows[1:])


def test_problem_rho_is_ignored(files, tmp_path, capsys):
    # older problem files carry an outer weight; the one gate is at 1, so
    # the key is ignored like any other the reader does not know
    problem = {"A": {"dim": 2, "re": [[0.5, 0.0], [0.0, 2.0]]}, "F": SAT}
    grid = write_json(tmp_path / "grid.json", {"vectors": [{"dim": 2, "re": [0.2, 0.0]}]})
    tables = []
    for extra in ({}, {"rho": 2.001}, {"rho": "text"}):
        path = write_json(tmp_path / "prob.json", {**problem, **extra})
        out_csv = tmp_path / "table.csv"
        argv = ["stable-manifold", "--problem", path, "--grid", grid, "--out", str(out_csv)]
        assert run_cli(argv, capsys)[0] == 0
        tables.append(out_csv.read_bytes())
    assert tables[1:] == tables[:1] * 2


@pytest.mark.parametrize("z", [["nan", "0"], ["inf", "0"], ["0", "inf"]])
def test_spectrum_non_finite_resolvent_z_exits_3(files, capsys, z):
    code, out, err = run_cli(["spectrum", "--A", files["A_diag"], "--resolvent-z", *z], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "invalid-input"


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_solve_contraction_dim_below_one_exits_3(files, capsys, dim):
    argv = ["solve-contraction", "--F", files["F_sat"], "--rho", "1.0", "--window", "-2", "8"]
    code, out, err = run_cli(argv + ["--dim", dim], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "invalid-input"


HOSTILE_FLOATS = ["nan", "inf", "0", "-1", "1e-300", "1e155", "1e300"]
# each option, its value written as {}, on small inputs from the files fixture
HOSTILE_FLOAT_ARGV = {
    "circle-sup-rho": ["spectrum", "--A", "A_diag", "--circle-sup-rho", "{}"],
    "resolvent-z": ["spectrum", "--A", "A_diag", "--resolvent-z", "{}", "0"],
    "gamma": ["riesz", "--A", "A_diag", "--gamma", "{}"],
    **{
        f"resolve-{mode}-rho": ["resolve", "--A", "A_half", "--f", "u_seq", "--rho", "{}", "--mode", mode]
        for mode in ("causal", "split", "frequency")
    },
    "ztransform-rho": ["ztransform-check", "--u", "u_seq", "--rho", "{}"],
    "solve-ivp-rho": ["solve-ivp", "--A", "A_diag", "--F", "F_sat", "--x", "x_vec", "--horizon", "16", "--rho", "{}"],
    "contraction-rho": ["solve-contraction", "--F", "F_lin", "--rho", "{}", "--window", "-4", "20"],
    "fp-tol": ["solve-contraction", "--F", "F_lin", "--rho", "1.0", "--window", "-4", "20", "--fp-tol", "{}"],
}
# each stencil parameter, its value written into the stencil's JSON as a
# number or as the token NaN or Infinity; a dict argument is such a file
HOSTILE_STENCILS = {
    "eps": {"kernel": "scaled_bounded_saturation", "params": {"eps": "{}"}},
    "h": {"kernel": "implicit_euler", "params": {"h": "{}", "field": "linear_decay"}},
    "clip_radius": {"kernel": "polynomial_clipped", "params": {"coeffs": [0.1, 5.0, 0.0], "clip_radius": "{}"}},
    "coeffs": {"kernel": "polynomial_clipped", "params": {"coeffs": [0.1, "{}", 0.0], "clip_radius": 1.0}},
}
for name, stencil in HOSTILE_STENCILS.items():
    HOSTILE_FLOAT_ARGV[f"contraction-{name}"] = [
        "solve-contraction", "--F", stencil, "--rho", "2", "--window", "0", "5", "--dim", "1",
    ]
    HOSTILE_FLOAT_ARGV[f"manifold-{name}"] = [
        "stable-manifold", "--grid", "grid", "--out", "out_csv",
        "--problem", {"A": {"dim": 2, "re": [[0.5, 0.0], [0.0, 2.0]]}, "F": stencil},
    ]
CONTRACT_SAT = ["solve-contraction", "--F", "F_sat", "--rho", "1.0"]
# integers only at 0 and -1, so that no value sizes a large array
HOSTILE_INT_ARGV = {
    "dim": CONTRACT_SAT + ["--window", "-4", "20", "--dim", "{}"],
    "max-iter": CONTRACT_SAT + ["--window", "-4", "20", "--dim", "1", "--max-iter", "{}"],
    "window-lo": CONTRACT_SAT + ["--window", "{}", "20", "--dim", "1"],
    "window-hi": CONTRACT_SAT + ["--window", "-4", "{}", "--dim", "1"],
    "N": ["ztransform-check", "--u", "u_seq", "--rho", "1.0", "--N", "{}"],
    "horizon": ["solve-ivp", "--A", "A_diag", "--F", "F_sat", "--x", "x_vec", "--horizon", "{}"],
}
HOSTILE = [(argv, v) for argv in HOSTILE_FLOAT_ARGV.values() for v in HOSTILE_FLOATS] + [
    (argv, v) for argv in HOSTILE_INT_ARGV.values() for v in ("0", "-1")
]
HOSTILE_IDS = [f"{name}={v}" for name in HOSTILE_FLOAT_ARGV for v in HOSTILE_FLOATS] + [
    f"{name}={v}" for name in HOSTILE_INT_ARGV for v in ("0", "-1")
]


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


def _hostile_arg(files, arg, value):
    # a dict is a JSON file holding the value where it holds "{}"
    if isinstance(arg, dict):
        token = {"nan": "NaN", "inf": "Infinity"}.get(value, value)
        path = files["tmp"] / "hostile.json"
        path.write_text(json.dumps(arg).replace('"{}"', token))
        return str(path)
    return files.get(arg, arg).replace("{}", value)


@pytest.mark.parametrize("argv, value", HOSTILE, ids=HOSTILE_IDS)
def test_hostile_numbers_give_json_or_a_typed_error(files, capsys, argv, value):
    # never a traceback (exit 1): a result that strict JSON accepts, or a
    # typed diagnostic on stderr
    argv = [_hostile_arg(files, arg, value) for arg in argv]
    code, out, err = run_cli(argv, capsys)
    assert code != 1
    if code:
        assert out == ""
        assert set(json.loads(err)) == {"error", "message"}
    elif argv[0] == "stable-manifold":  # the result is the sweep CSV
        assert (out, err) == ("", "")
        with open(files["out_csv"], newline="") as fh:
            assert len(list(csv.reader(fh))) == 2
    else:
        assert err == ""
        json.loads(out, parse_constant=_no_constant)


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["solve-contraction", "--rho", "2", "--window", "0", "5", "--dim", "1", "--F"], 12, "not-contractive"),
        (["stable-manifold", "--grid", "grid", "--out", "out_csv", "--problem"], 19, "not-admissible"),
    ],
    ids=["solve-contraction", "stable-manifold"],
)
def test_overflowing_polynomial_bound_is_refused(files, capsys, argv, code, error):
    # R^2 overflows a float at R = 1e200, but its coefficient is 0: the
    # bound is 2 * 5 * 1e200, which no gate admits
    F = {"kernel": "polynomial_clipped", "params": {"coeffs": [0.1, 5.0, 0.0], "clip_radius": 1e200}}
    A = {"dim": 2, "re": [[0.5, 0.0], [0.0, 2.0]]}
    path = write_json(files["tmp"] / "in.json", F if argv[0] == "solve-contraction" else {"A": A, "F": F})
    got, out, err = run_cli([files.get(arg, arg) for arg in argv] + [path], capsys)
    assert (got, out, json.loads(err)["error"]) == (code, "", error)
    assert "bound 1e+201 " in json.loads(err)["message"]


SAT = {"kernel": "scaled_bounded_saturation", "params": {"eps": 0.01}}
CONTRACTION = ["solve-contraction", "--rho", "2.0", "--window", "0", "4", "--dim", "1", "--F"]
ZCHECK = ["ztransform-check", "--rho", "1.0", "--u"]
MANIFOLD = ["stable-manifold", "--grid", "grid.json", "--out", "out.csv", "--problem"]
STABLE = {"dim": 1, "re": [[0.5]]}
PROBLEM = json.dumps({"A": STABLE, "F": SAT})
RESOLVE = ["resolve", "--A", "a.json", "--rho", "1.0", "--mode", "causal"]
IMPULSE = {"dim": 1, "lo": 0, "values": [[[1.0], [0.0]]]}


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["spectrum", "--A"], "{not json"),
        (ZCHECK, {"dim": -1, "lo": 0, "values": [[[1.0], [0.0]]]}),
        (ZCHECK, {"dim": "two", "lo": 0, "values": [[[1.0], [0.0]]]}),
        (ZCHECK, {"dim": 1, "lo": 0, "values": [[["one"], [0.0]]]}),
        (CONTRACTION, {"kernel": "scaled_bounded_saturation", "params": {"eps": "big"}}),
        (CONTRACTION, {"kernel": "scaled_bounded_saturation", "params": [0.01]}),
        (MANIFOLD, {"A": {"dim": 1, "re": [[0.5]]}, "F": SAT, "horizon": "abc"}),
        (MANIFOLD, {"A": {"dim": 1, "re": [[0.5]]}, "F": SAT, "horizon": -1}),
        (MANIFOLD, {"A": {"dim": 1, "re": [[0.5]]}, "F": SAT, "max_iter": 0}),
        (MANIFOLD, {"A": {"dim": 1, "re": [[0.5]]}, "F": SAT, "fp_tol": -1}),
        (["solve-contraction", "--max-iter", "0"] + CONTRACTION[1:], SAT),
        # JSON reads 1e999 as inf, which no integer field can hold
        (ZCHECK, '{"dim": 1e999, "lo": 0, "values": [[[1.0], [0.0]]]}'),
        (ZCHECK, '{"dim": 1, "lo": 1e999, "values": [[[1.0], [0.0]]]}'),
        (MANIFOLD, PROBLEM[:-1] + ', "horizon": 1e999}'),
        (MANIFOLD, PROBLEM[:-1] + ', "max_iter": 1e999}'),
        # finite but far too large to allocate
        (ZCHECK, '{"dim": 1e300, "lo": 0, "values": [[[1.0], [0.0]]]}'),
        (ZCHECK, '{"dim": 1e300, "lo": 0, "values": []}'),
        (MANIFOLD, PROBLEM[:-1] + ', "horizon": 1e300}'),
        (MANIFOLD, PROBLEM[:-1] + ', "horizon": 20001}'),
        (ZCHECK, {"dim": 1, "lo": 0, "values": 5}),
        (ZCHECK, {"dim": 1, "lo": 0, "values": None}),
        (MANIFOLD, 5),
        (MANIFOLD, None),
        (["spectrum", "--A"], b"\xff\xfe{"),
        (["spectrum", "--out", "missing/out.json", "--A"], STABLE),
        (RESOLVE + ["--csv-out", "missing/u.csv", "--f"], IMPULSE),
        (["ztransform-check", "--rho", "1.0", "--circle-csv", "missing/c.csv", "--u"], IMPULSE),
        (["stable-manifold", "--grid", "grid.json", "--out", "missing/out.csv", "--problem"], PROBLEM),
        # numeric fields hold JSON numbers, not text or booleans
        (["spectrum", "--A"], {"dim": 1, "re": [["2.0"]]}),
        (ZCHECK, {"dim": 1, "lo": 0, "values": [[[True], [0.0]]]}),
        # integer text past the interpreter's 4300-digit limit
        (CONTRACTION, '{"kernel": "scaled_bounded_saturation", "params": {"eps": ' + "9" * 5000 + "}}"),
        (ZCHECK, '{"dim": ' + "1" * 5000 + ', "lo": 0, "values": []}'),
        # a forcing other than null must be a sequence
        *((CONTRACTION, {**SAT, "forcing": forcing}) for forcing in ({}, [], 0, False, "")),
        # a parameter the kernel does not take
        (CONTRACTION, {"kernel": "scaled_bounded_saturation", "params": {"eps": 0.1, "epsilon": 9}}),
    ],
    ids=[
        "not-json",
        "negative-dim",
        "word-dim",
        "word-entry",
        "word-eps",
        "list-params",
        "word-horizon",
        "negative-horizon",
        "zero-max-iter",
        "negative-fp-tol",
        "contraction-zero-max-iter",
        "infinite-dim",
        "infinite-lo",
        "infinite-horizon",
        "infinite-max-iter",
        "huge-dim",
        "huge-dim-no-entries",
        "huge-horizon",
        "horizon-above-cap",
        "number-values",
        "null-values",
        "number-problem",
        "null-problem",
        "undecodable-input",
        "unwritable-out",
        "unwritable-csv-out",
        "unwritable-circle-csv",
        "unwritable-manifold-out",
        "text-matrix-entry",
        "bool-sequence-entry",
        "huge-integer-eps",
        "huge-integer-dim",
        "empty-object-forcing",
        "empty-list-forcing",
        "zero-forcing",
        "false-forcing",
        "empty-text-forcing",
        "unknown-parameter",
    ],
)
def test_invalid_input_error(tmp_path, capsys, argv, bad, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # a valid grid and vector, so a case can fail only on its last file or flags
    write_json(tmp_path / "grid.json", {"vectors": [{"dim": 1, "re": [0.1]}]})
    write_json(tmp_path / "x.json", {"dim": 2, "re": [1.0, 0.0]})
    write_json(tmp_path / "a.json", STABLE)
    path = tmp_path / "bad.json"
    if isinstance(bad, bytes):
        path.write_bytes(bad)
    else:
        path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
    code, _, err = run_cli(argv + [str(path)], capsys)
    assert code == 3
    diag = json.loads(err)
    assert diag["error"] == "invalid-input"
    # a case writing under a missing directory fails there, not on its input
    if any(arg.startswith("missing/") for arg in argv):
        assert diag["message"].startswith("cannot write missing/")
    if isinstance(bad, bytes):
        assert diag["message"].startswith(f"{path} is not UTF-8 text")


@pytest.mark.parametrize(
    "argv, bad, good",
    [
        (ZCHECK, {"dim": True, "lo": 0, "values": [[[1.0], [0.0]]]}, {"dim": 1.0}),
        (ZCHECK, {"dim": 2.7, "lo": 0, "values": [[[1.0, 0.0], [0.0, 0.0]]]}, {"dim": 2.0}),
        (ZCHECK, {"dim": 1, "lo": 2.9, "values": [[[1.0], [0.0]]]}, {"lo": 2.0}),
        (ZCHECK, {"dim": 1, "lo": False, "values": [[[1.0], [0.0]]]}, {"lo": -3}),
        (MANIFOLD, {"A": STABLE, "F": SAT, "max_iter": 50.5}, {"max_iter": 50.0}),
        (MANIFOLD, {"A": STABLE, "F": SAT, "horizon": True}, {"horizon": 64.0}),
    ],
    ids=["bool-dim", "fractional-dim", "fractional-lo", "bool-lo", "fractional-max-iter", "bool-horizon"],
)
def test_integer_fields_reject_booleans_and_fractions(tmp_path, capsys, argv, bad, good, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "grid.json", {"vectors": [{"dim": 1, "re": [0.1]}]})
    path = tmp_path / "in.json"
    (field,) = good
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(argv + [str(path)], capsys)
    assert code == 3
    diag = json.loads(err)
    assert diag["error"] == "invalid-input"
    assert f"{field} must be an integer" in diag["message"]
    # the same field holding an integer, or an integral float, is accepted
    path.write_text(json.dumps({**bad, **good}))
    assert run_cli(argv + [str(path)], capsys)[0] == 0


LAYOUT = {
    "spectrum": ["spectrum", "--A", "A_half", "--circle-sup-rho", "1.0", "--resolvent-z", "1.0", "0.5"],
    "riesz": ["riesz", "--A", "A_diag", "--gamma", "1.0"],
    "ztransform-check": ["ztransform-check", "--u", "u_seq", "--rho", "1.0", "--N", "16"],
    **{
        f"resolve-{mode}": ["resolve", "--A", "A_half", "--f", "u_seq", "--rho", "1.0", "--mode", mode]
        for mode in ("causal", "split", "frequency")
    },
    "solve-ivp": [
        "solve-ivp", "--A", "A_diag", "--F", "F_sat", "--x", "x_vec",
        "--method", "all", "--horizon", "16", "--rho", "2.5",
    ],
    "solve-contraction": ["solve-contraction", "--F", "F_lin", "--rho", "1.0", "--window", "-4", "20"],
    "stability": ["stability", "--A", "A_half"],
    "escape-check": ["escape-check", "--A", "A_two", "--x", "x_one"],
    "error": ["resolve", "--A", "A_two", "--f", "f_imp", "--rho", "1.0", "--mode", "causal"],
}


@pytest.mark.parametrize("argv", LAYOUT.values(), ids=LAYOUT.keys())
def test_json_output_layout_is_one_stdlib_sorted_line(files, capsys, argv):
    # every JSON result, and the error diagnostic on stderr, is laid out as
    # json.dumps(sort_keys=True) + newline, byte for byte: one line
    code, out, err = run_cli([files.get(arg, arg) for arg in argv], capsys)
    text, other = (err, out) if code else (out, err)
    assert other == "" and text
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def test_error_codes_are_distinct():
    codes = [cls.code for cls in SpecseqError.__subclasses__()]
    statuses = [cls.exit_status for cls in SpecseqError.__subclasses__()]
    assert len(set(codes)) == len(codes)
    assert len(set(statuses)) == len(statuses)
    assert all(status != 0 for status in statuses)


def fresh_run(argv, cwd=None, code=None):
    """``python -m specseq *argv`` in a new process, or ``python -c code
    *argv`` when ``code`` is given; the child imports the same specseq as
    this test, installed or not."""
    src = os.path.dirname(os.path.dirname(specseq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *(("-m", "specseq") if code is None else ("-c", code)), *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_deeply_nested_input_is_invalid_input(tmp_path):
    # deeper than the JSON decoder's recursion limit: a diagnostic naming the
    # file, not a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = fresh_run(["spectrum", "--A", str(path)])
    assert (code, out) == (3, "")
    diag = json.loads(err)
    assert diag["error"] == "invalid-input"
    assert diag["message"].startswith(f"{path} is nested too deeply to decode")


def test_module_entry_point(files):
    code, out, _ = fresh_run(["spectrum", "--A", files["A_diag"]])
    assert code == 0
    assert json.loads(out)["r"] == 2.0


# runs ``python -m specseq`` and then prints its exit status and the specseq
# modules the process loaded, as one JSON line
MODULES_LOADED = """
import json, runpy, sys
try:
    runpy.run_module("specseq", run_name="__main__")
except SystemExit as exc:
    status = exc.code
print(json.dumps([status, sorted(m for m in sys.modules if m.startswith("specseq."))]))
"""


def test_each_subcommand_loads_only_its_modules(files, tmp_path):
    # every run is a fresh process that compiles each module it imports
    out = tmp_path / "out.json"
    argv = ["spectrum", "--A", files["A_diag"], "--out", str(out)]
    code, stdout, err = fresh_run(argv, code=MODULES_LOADED)
    assert (code, err) == (0, "")
    status, loaded = json.loads(stdout)
    assert status == 0 and json.loads(out.read_text())["r"] == 2.0
    assert not {"specseq.resolvent", "specseq.solver", "specseq.manifold"} & set(loaded)
    A = {"dim": 2, "re": [[0.5, 0.0], [0.0, 2.0]]}
    problem = write_json(tmp_path / "problem.json", {"A": A, "F": SAT})
    argv = ["stable-manifold", "--problem", problem, "--grid", files["grid"], "--out", files["out_csv"]]
    code, stdout, err = fresh_run(argv, code=MODULES_LOADED)
    assert (code, err) == (0, "")
    status, loaded = json.loads(stdout)
    assert status == 0
    assert {"specseq.manifold", "specseq.solver", "specseq.resolvent", "specseq.operators"} <= set(loaded)
    # the escape and stability certificates are power searches of the resolvent module
    a_two = write_json(tmp_path / "a_two.json", {"dim": 1, "re": [[2.0]]})
    for argv, result in [
        (["escape-check", "--A", a_two, "--x", files["x_one"]], {"escapes": True}),
        (["stability", "--A", a_two], {"verdict": "not_stable"}),
    ]:
        code, stdout, err = fresh_run(argv + ["--out", str(out)], code=MODULES_LOADED)
        assert (code, err) == (0, "")
        status, loaded = json.loads(stdout)
        assert status == 0 and result.items() <= json.loads(out.read_text()).items()
        assert "specseq.resolvent" in loaded
        assert not {"specseq.solver", "specseq.manifold"} & set(loaded)


# every name the package exported when it imported all its modules at once
EXPORTED = {
    "AdmissibilityError", "AliasingError", "BoundedOperator", "CausalityRequired",
    "CircleFunction", "DimensionMismatch", "EigenSolverFailure", "GAP_TOL",
    "IndeterminateHyperbolic", "IndeterminateStability", "InputError",
    "InternalInconsistency", "ManifoldProblem", "NoConvergence", "NormOverflow",
    "NotCausalRegime", "NotContractive", "PreconditionViolation", "QuadratureError",
    "RangeViolation", "ResolventPlan", "SERIES_TOL", "SpecseqError", "SpectralSplit",
    "SpectrumHit", "SpectrumOnCircle", "StencilMap", "Weight", "WindowTooWide",
    "WindowedSequence", "apply_resolvent_causal", "apply_resolvent_frequency",
    "apply_resolvent_split", "causality_probe", "circle_sup_resolvent", "equation_residual",
    "implicit_euler_map", "impulse", "inner_product", "inverse_ztransform", "is_hyperbolic",
    "linear_map", "lp_fixed_point", "manifold_sweep",
    "multiplication_equiv_check", "operator_norm", "parseval_check", "polynomial_map",
    "positive_support_hardy_check", "resolvent_at", "riesz_split", "saturation_map",
    "shift", "solve_contraction", "solve_ivp", "solve_ivp_all", "spectral_radius",
    "spectrum_escape_check", "stability_classify", "stable_manifold_point", "support",
    "support_subset_geq", "truncate", "weighted_norm", "zero_map", "zero_sequence",
    "ztransform",
}

# imports the package in a fresh process, then reports what loaded with it,
# what specseq.solver is before anything imported it, its __all__, what a
# star import binds and what specseq.ztransform is once the ztransform
# submodule and the modules that import it have loaded
PACKAGE_LOADED = """
import json, sys
import specseq
loaded = sorted(m for m in sys.modules if m.startswith("specseq."))
submodule = type(specseq.solver).__name__
star = {}
exec("from specseq import *", star)
import specseq.resolvent, specseq.ztransform
print(json.dumps({
    "loaded": loaded,
    "all": specseq.__all__,
    "star": sorted(name for name in star if not name.startswith("__")),
    "ztransform": type(specseq.ztransform).__name__,
    "submodule": submodule,
}))
"""


def test_package_exports_every_name_on_first_access():
    code, stdout, err = fresh_run([], code=PACKAGE_LOADED)
    assert (code, err) == (0, "")
    report = json.loads(stdout)
    lazy = {"specseq.operators", "specseq.resolvent", "specseq.solver", "specseq.manifold"}
    assert not lazy & set(report["loaded"])
    assert sorted(report["all"]) == report["star"] == sorted(EXPORTED)
    assert report["ztransform"] == "function"
    assert report["submodule"] == "module"
    assert all(hasattr(specseq, name) for name in EXPORTED)
    assert EXPORTED <= set(dir(specseq))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        specseq.no_such_name


def files_in(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_reused_parser_carries_nothing_between_calls(files, tmp_path, capsys, monkeypatch):
    # main parses with one parser per process; each call must still print and
    # write what a fresh process does, with no flag left over from the last
    resolve = ["resolve", "--A", files["A_half"], "--f", files["f_imp"], "--rho", "1.0"]
    resolve += ["--mode", "causal"]
    spectrum = ["spectrum", "--A", files["A_half"]]
    calls = [
        resolve + ["--csv-out", "u.csv"],
        resolve,
        spectrum + ["--circle-sup-rho", "1.5"],
        spectrum,
        ["resolve", "--A", files["A_half"], "--mode", "bogus"],
        spectrum,
    ]
    codes = []
    for i, argv in enumerate(calls):
        here, there = tmp_path / f"main{i}", tmp_path / f"fresh{i}"
        here.mkdir()
        there.mkdir()
        monkeypatch.chdir(here)
        code, out, err = run_cli(argv, capsys)
        fresh_code, fresh_out, fresh_err = fresh_run(argv, there)
        assert (code, out) == (fresh_code, fresh_out)
        assert files_in(here) == files_in(there)
        assert err.startswith("usage: specseq") == fresh_err.startswith("usage: specseq")
        codes.append(code)
    assert codes == [0, 0, 0, 0, 2, 0]
    assert files_in(tmp_path / "main0").keys() == {"u.csv"}

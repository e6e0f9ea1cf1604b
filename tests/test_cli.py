import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import specseq
from specseq.cli import main
from specseq.errors import all_error_types


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
    paths["F_sat"] = write_json(
        tmp_path / "fsat.json", {"kernel": "scaled_bounded_saturation", "params": {"eps": 0.01}}
    )
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
    assert data["circle_sup"] == pytest.approx(2.0)
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


def test_stability_cli(files, capsys):
    code, out, _ = run_cli(["stability", "--A", files["A_half"], "--seed", "1"], capsys)
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


def test_escape_check_cli(files, tmp_path, capsys):
    x = write_json(tmp_path / "x1.json", {"dim": 1, "re": [1.0]})
    code, out, _ = run_cli(
        ["escape-check", "--A", files["A_two"], "--x", x], capsys
    )
    assert code == 0
    assert json.loads(out)["escapes"] is True


SAT = {"kernel": "scaled_bounded_saturation", "params": {"eps": 0.01}}
CONTRACTION = ["solve-contraction", "--rho", "2.0", "--window", "0", "4", "--dim", "1", "--F"]
ZCHECK = ["ztransform-check", "--rho", "1.0", "--u"]
MANIFOLD = ["stable-manifold", "--grid", "grid.json", "--out", "out.csv", "--problem"]
STABLE = {"dim": 1, "re": [[0.5]]}
PROBLEM = json.dumps({"A": STABLE, "F": SAT})


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
        (["stability", "--probes", "0", "--A"], STABLE),
        (["stability", "--horizon", "0", "--A"], STABLE),
        (
            ["escape-check", "--horizon", "0", "--x", "x.json", "--A"],
            {"dim": 2, "re": [[1.5, 0.3], [0.0, 2.0]]},
        ),
        # JSON reads 1e999 as inf, which no integer field can hold
        (ZCHECK, '{"dim": 1e999, "lo": 0, "values": [[[1.0], [0.0]]]}'),
        (ZCHECK, '{"dim": 1, "lo": 1e999, "values": [[[1.0], [0.0]]]}'),
        (MANIFOLD, PROBLEM[:-1] + ', "horizon": 1e999}'),
        (MANIFOLD, PROBLEM[:-1] + ', "max_iter": 1e999}'),
        (ZCHECK, {"dim": 1, "lo": 0, "values": 5}),
        (ZCHECK, {"dim": 1, "lo": 0, "values": None}),
        (MANIFOLD, 5),
        (MANIFOLD, None),
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
        "zero-probes",
        "zero-stability-horizon",
        "zero-escape-horizon",
        "infinite-dim",
        "infinite-lo",
        "infinite-horizon",
        "infinite-max-iter",
        "number-values",
        "null-values",
        "number-problem",
        "null-problem",
    ],
)
def test_invalid_input_error(tmp_path, capsys, argv, bad, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # a valid grid and vector, so a case can fail only on its last file or flags
    write_json(tmp_path / "grid.json", {"vectors": [{"dim": 1, "re": [0.1]}]})
    write_json(tmp_path / "x.json", {"dim": 2, "re": [1.0, 0.0]})
    path = tmp_path / "bad.json"
    path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
    code, _, err = run_cli(argv + [str(path)], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "invalid-input"


def test_error_codes_are_distinct():
    codes = [cls.code for cls in all_error_types()]
    statuses = [cls.exit_status for cls in all_error_types()]
    assert len(set(codes)) == len(codes)
    assert len(set(statuses)) == len(statuses)
    assert all(status != 0 for status in statuses)


def test_module_entry_point(files):
    # the child process imports the same specseq as this test, installed or not
    src = os.path.dirname(os.path.dirname(specseq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "specseq", "spectrum", "--A", files["A_diag"]],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["r"] == 2.0

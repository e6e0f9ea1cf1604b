import csv
import json
import pathlib
import runpy

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_run(name):
    return runpy.run_path(str(SCRIPTS / name), run_name="not_main")["run"]


def test_causality_demo_verdicts_agree(tmp_path, capsys):
    out = tmp_path / "causality.csv"
    # exit status 0 means every probe verdict matches rho > r(A)
    assert load_run("causality_demo.py")(["--trials", "10", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 10
    assert "10/10 verdicts agree" in capsys.readouterr().out


def test_manifold_demo_sweeps_every_point(tmp_path, capsys):
    workdir = tmp_path / "demo"
    assert load_run("manifold_demo.py")(["--points", "5", "--workdir", str(workdir)]) == 0
    rows = list(csv.DictReader((workdir / "manifold.csv").read_text().splitlines()))
    assert len(rows) == 5
    assert all(row["error"] == "" for row in rows)
    assert "table written to" in capsys.readouterr().out


def test_compare_outputs_aligns_windows_and_columns():
    # the full run (90 CLI jobs on two trees) takes about a minute, so only
    # the comparison of one pair of outputs runs here
    script = runpy.run_path(str(SCRIPTS / "compare_outputs.py"), run_name="not_main")
    report = script["KindReport"]()
    old = {"dim": 1, "lo": 0, "values": [[[1.0], [0.0]], [[2.0], [0.0]]]}
    new = {"dim": 1, "lo": -1, "values": [[[3e-13], [0.0]], [[1.0], [0.0]], [[2.0], [0.5]]]}
    report.compare(
        "job",
        json.dumps({"residual": 1e-13, "solution": old}).encode(),
        json.dumps({"residual": 1e-13, "solution": new}).encode(),
    )
    assert dict(report.deviation) == {"solution": 0.5}
    assert report.relative["solution"] == 0.25
    assert report.windows == [
        "job solution: window [0, 1] -> [-1, 1], largest entry outside the shared window 3e-13"
    ]
    header = "xi_0_re,eta_0_re,eta_1_re,error\n"
    report.compare("job", (header + "1.0,nan,0.25,\n").encode(), (header + "1.0,nan,0.5,\n").encode())
    assert report.deviation["eta_*_re"] == 0.25
    assert not report.unmatched
    report.compare("job", (header + "1.0,nan,0.25,\n").encode(), (header + "1.0,0.0,0.25,x\n").encode())
    assert report.unmatched == {"eta_*_re", "error"}


def test_compare_outputs_tells_layout_from_values():
    same_as_parsed = runpy.run_path(str(SCRIPTS / "compare_outputs.py"), run_name="not_main")[
        "same_as_parsed"
    ]
    obj = {"residual": float("nan"), "solution": {"dim": 1, "lo": 0, "values": [[[1.0], [-0.5]]]}}
    one_line = (json.dumps(obj, sort_keys=True) + "\n").encode()
    indented = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    assert one_line != indented and same_as_parsed(indented, one_line)
    assert same_as_parsed(None, None) and not same_as_parsed(indented, None)
    moved = json.loads(one_line)
    moved["solution"]["values"][0][1] = [-0.25]
    assert not same_as_parsed(indented, json.dumps(moved).encode())
    shifted = dict(obj, solution=dict(obj["solution"], lo=1))
    assert not same_as_parsed(indented, json.dumps(shifted).encode())
    header = "xi_0_re,eta_0_re,error\n"
    assert same_as_parsed((header + "1.0,nan,\r\n").encode(), (header + "1.0,nan,\n").encode())
    assert not same_as_parsed((header + "1.0,nan,\n").encode(), (header + "1.0,0.5,\n").encode())


def test_lp_memory_reports_every_dimension(capsys):
    # the benchmark's manifold inputs at d = 2, 8, 32, one row each
    run = load_run("lp_memory.py")
    assert run(["--seed", "3"]) == 2
    assert run([]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == [
        "d", "horizon", "mu", "nu", "G", "nodes",
        "construct_ms", "sweep_ms", "pass_ms", "minflt", "lp_peak", "MB",
    ]
    assert [row.split()[:6] for row in rows] == [
        ["2", "32", "0.5453", "1.8340", "16", "58"],
        ["8", "33", "0.6860", "1.5293", "16", "82"],
        ["32", "39", "0.7205", "1.4518", "16", "97"],
    ]
    for row in rows:
        construct_ms, sweep_ms, pass_ms, faults, peak, mb = map(float, row.split()[6:])
        assert 0 < construct_ms and 0 < sweep_ms
        assert pass_ms > 0 and faults >= 0 and 0 < peak and 0 < mb

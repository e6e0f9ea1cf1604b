import csv
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

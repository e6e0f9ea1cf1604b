"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Checks that a minimal run of each workload emits every metric named in
``BENCHMARK.json`` with its unit and no failed job; that the per-layer
counts predicted to be zero are zero; that the count metrics repeat
exactly across two traced runs with one seed; that corrupted outputs and a
byte mismatch on repeat are caught; and that the benchmark refuses to run
without the library sources.  Exits nonzero on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS pin before numpy is imported

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
REPEATED_COUNTS = (
    "operators.norm_calls",
    "operators.quad_nodes",
    "resolvent.tail_cut",
    "manifold.lp_iterations",
    "manifold.points",
    "solver.stencil_calls",
    "operators.resolvent_at_calls",
)


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def bench(workload, trace, cwd=ROOT):
    argv = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload, trace):
    proc = bench(workload, trace)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(record) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    expect(record["correct"] and record["failed"] == 0 and record["attempted"] >= 1,
           f"{workload} trace={trace}: {record['failed']} of {record['attempted']} jobs failed")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expect(set(record["metrics"]) == {m["name"] for m in spec}, f"{workload}: metric names differ")
    for metric in spec:
        entry = record["metrics"][metric["name"]]
        expect(entry["unit"] == metric["unit"], f"{metric['name']}: unit {entry['unit']}")
        expect(math.isfinite(entry["value"]), f"{metric['name']} is not finite")
        expect(trace or entry["value"] > 0, f"{metric['name']} is not positive")
    return {name: entry["value"] for name, entry in record["metrics"].items()}


def check_runs():
    layers = {}
    for workload in workloads.WORKLOADS:
        result(workload, 0)
        layers[workload] = result(workload, 1)
        again = result(workload, 1)
        for name in REPEATED_COUNTS:
            expect(layers[workload][name] == again[name],
                   f"{workload}: {name} {layers[workload][name]} then {again[name]}")
        print(f"PASS {workload}: every metric emitted, counts repeat")
    zero = {
        "manifold.": [w for w in workloads.WORKLOADS if w != "manifold-sweep"],
        "ztransform.": [w for w in workloads.WORKLOADS if w != "resolve-mix"],
        "operators.resolvent_at_calls": [w for w in workloads.WORKLOADS if w != "resolve-mix"],
        "operators.circle_sup_": ["resolve-mix"],
    }
    for prefix, where in zero.items():
        for workload in where:
            for name, value in layers[workload].items():
                if name.startswith(prefix):
                    expect(value == 0, f"{workload}: {name} = {value}, predicted 0")
    print("PASS predicted-zero layer counts are zero")


def _bump_json(path):
    """Corrupt the number at ``path`` inside a JSON document."""

    def corrupt(data):
        obj = json.loads(data)
        node = obj
        for key in path[:-1]:
            node = node[key]
        value = node[path[-1]]
        if isinstance(value, str):
            node[path[-1]] = {"exponentially_stable": "not_stable"}.get(value, "exponentially_stable")
        else:
            node[path[-1]] = value * (1 + 1e-6) + 1e-6
        return json.dumps(obj).encode()

    return corrupt


def _bump_csv(data):
    lines = data.decode().splitlines()
    cells = lines[1].split(",")
    d = (len(cells) - 4) // 4
    cells[2 * d] = repr(float(cells[2 * d]) + 1e-6)
    return "\n".join([lines[0], ",".join(cells), *lines[2:]]).encode() + b"\n"


def _bump_circle(data):
    """Corrupt one magnitude of the ztransform circle CSV."""
    text, circle = data
    lines = circle.decode().splitlines()
    theta, mag = lines[7].split(",")
    lines[7] = f"{theta},{float(mag) * (1 + 1e-6) + 1e-6!r}"
    return text, ("\n".join(lines) + "\n").encode()


def _first(corrupt):
    return lambda data: (corrupt(data[0]), data[1])


CORRUPTIONS = {
    "stable-manifold": [_bump_csv],
    "spectrum": [_bump_json(["r"])],
    "riesz": [_bump_json(["proj_stable", "re", 0, 0])],
    "ztransform-check": [_first(_bump_json(["parseval_lhs"])), _first(_bump_json(["parseval_rhs"])), _bump_circle],
    "resolve-causal": [_bump_json(["solution", "values", 5, 0, 0])],
    "resolve-split": [_bump_json(["solution", "values", 5, 0, 0])],
    "resolve-frequency": [_bump_json(["solution", "values", 5, 0, 0])],
    "solve-ivp": [_bump_json(["methods", name, "values", 5, 0, 0])
                  for name in ("recursion", "variation_of_constants", "impulse")],
    "solve-contraction": [_bump_json(["solution", "values", 10, 0, 0])],
    "stability": [_bump_json(["verdict"])],
}


def check_corruption():
    cli = run.import_cli()
    run.WORK.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            for d in (workloads.DIMS[0], workloads.DIMS[-1]):
                engine = run.Bench(cli, workload, SEED)
                jobs = engine.make_pass(0, d, f"smoke-{workload}-d{d}")
                _, outputs, passed = run.checked_pass(cli, jobs, engine.outcome, workload)
                expect(passed == len(jobs), f"{workload} d={d}: genuine outputs fail {engine.outcome.messages}")
                for job, data in zip(jobs, outputs):
                    for corrupt in CORRUPTIONS[job.kind]:
                        bad = corrupt(data)
                        expect(run.verify(job, 0, bad, "") is not None, f"corrupted {job.kind} output passed, d={d}")
                outputs[-1] = outputs[-1] + b" "
                engine.repeat_check({d: (jobs, outputs)})
                expect(engine.outcome.failed == 1, f"{workload} d={d}: byte mismatch on repeat not caught")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    kinds = sum(len(c) for c in CORRUPTIONS.values())
    print(f"PASS {kinds} corruptions of {len(CORRUPTIONS)} job kinds at d=2 and d=32, and a byte mismatch, are caught")


def check_without_sources():
    bare = run.WORK.parent / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("ivp-solve", 0, cwd=bare)
        expect(proc.returncode != 0, "ran without library sources")
        expect('"metrics"' not in proc.stdout, "printed a result without library sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK.parent.rmdir()
        except OSError:
            pass
    print("PASS refuses to run without the library sources")


def main():
    check_corruption()
    check_without_sources()
    check_runs()
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run the benchmark's CLI jobs against two source trees and compare outputs.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC

``OLD_SRC`` and ``NEW_SRC`` are the ``src`` directories of two checkouts.
The inputs of every job of ``bench/workloads.make_pass`` (3 workloads x
d = 2/8/32 x streams 0-2 at seed 7: 90 jobs) are written once to a
temporary directory.  Each job then runs as ``python -m specseq`` (BLAS on
one thread) with ``PYTHONPATH`` set to each tree in turn.

Per job kind the report gives the jobs whose stdout, stderr, exit status and
written files are byte-identical; the jobs equal as parsed (the same exit
status, and each of those outputs byte-equal or parsed to the same values
and windows, NaN equal to NaN), so a change of layout alone keeps a job
equal; the exit statuses that differ; the bench checks that fail; and every
output field that moved: its largest absolute deviation and that deviation
relative to the field's largest magnitude in the old output.  Sequences
are compared on their shared window; each window that changed is listed
with the largest entry outside the shared part.  The exit status is 1 when
an exit status differs or a bench check fails on the new tree, else 0.  A
full run takes about a minute on one core.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
STREAMS = 3
_BLAS_ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_job(job, src, cwd):
    """Exit status, stdout, stderr and written files of one job on one tree."""
    bench_run.remove_results(job)
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), **_BLAS_ONE_THREAD)
    proc = subprocess.run(
        [sys.executable, "-m", "specseq", *job.argv], capture_output=True, cwd=cwd, env=env
    )
    files = []
    for path in job.written():
        files.append(Path(path).read_bytes() if os.path.exists(path) else None)
    return proc.returncode, proc.stdout, proc.stderr, files


def _flatten(obj, field, idx, values, windows):
    # A JSON object with "lo" and "values" is a sequence: its entries are
    # keyed by (n, component), so windows of different length still align.
    if isinstance(obj, dict) and "lo" in obj and "values" in obj:
        windows[field, idx] = (obj["lo"], obj["lo"] + len(obj["values"]) - 1)
        for offset, (re_part, im_part) in enumerate(obj["values"]):
            for comp, pair in enumerate(zip(re_part, im_part)):
                values[field, idx + (obj["lo"] + offset, comp)] = complex(*pair)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(value, f"{field}.{key}" if field else key, idx, values, windows)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _flatten(value, field, idx + (i,), values, windows)
    else:
        values[field, idx] = obj


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def parse(data):
    """Output bytes as ({(field, index): value}, {(field, index): window})."""
    values, windows = {}, {}
    text = data.decode("utf-8")
    try:
        _flatten(json.loads(text), "", (), values, windows)
    except json.JSONDecodeError:
        rows = list(csv.reader(io.StringIO(text)))
        # per-component columns such as eta_3_re share one field eta_*_re
        header = [re.sub(r"_\d+_", "_*_", name) for name in rows[0]]
        for i, row in enumerate(rows[1:]):
            for j, cell in enumerate(row):
                values[header[j], (i, j)] = _cell(cell)
    return values, windows


def _is_number(value):
    return isinstance(value, (int, float, complex)) and not isinstance(value, bool)


def _is_nan(value):
    return value != value


def same_as_parsed(old, new):
    """Whether two outputs are byte-equal or parse to the same values and
    windows, a NaN equal to a NaN in the same place."""
    if old == new:
        return True
    if old is None or new is None:
        return False
    try:
        (old_values, old_windows), (new_values, new_windows) = parse(old), parse(new)
    except (UnicodeDecodeError, ValueError, IndexError):
        return False
    if old_windows != new_windows or old_values.keys() != new_values.keys():
        return False
    return all(
        a == new_values[key] or _is_nan(a) and _is_nan(new_values[key])
        for key, a in old_values.items()
    )


class KindReport:
    def __init__(self):
        self.jobs = self.identical = self.parsed_equal = 0
        self.exit_diffs = []
        self.check_failures = []
        self.unmatched = set()
        self.deviation = defaultdict(float)  # field -> largest |old - new|
        self.scale = defaultdict(float)  # field -> largest |old| over moved jobs
        self.relative = defaultdict(float)  # field -> largest deviation / |old|_max
        self.windows = []

    def compare(self, label, old, new):
        """Fold one pair of result bytes into the report."""
        try:
            old_values, old_windows = parse(old)
            new_values, new_windows = parse(new)
        except (UnicodeDecodeError, ValueError, IndexError):
            self.unmatched.add("(unparsed output)")
            return
        sequences = {field for field, _ in old_windows.keys() | new_windows.keys()}
        deviation, scale, outside = defaultdict(float), defaultdict(float), defaultdict(float)
        for key in old_values.keys() | new_values.keys():
            field = key[0]
            if key not in old_values or key not in new_values:
                if field in sequences:
                    # a row only one window holds
                    value = old_values.get(key, new_values.get(key))
                    outside[field] = max(outside[field], abs(value))
                else:
                    self.unmatched.add(field)
                continue
            a, b = old_values[key], new_values[key]
            if not (_is_number(a) and _is_number(b)):
                if a != b:
                    self.unmatched.add(field)
                continue
            if _is_nan(a) or _is_nan(b):
                if not (_is_nan(a) and _is_nan(b)):
                    self.unmatched.add(field)
                continue
            deviation[field] = max(deviation[field], abs(a - b))
            scale[field] = max(scale[field], abs(a))
        for key, window in old_windows.items():
            if new_windows.get(key, window) != window:
                self.windows.append(
                    f"{label} {key[0]}: window {list(window)} -> {list(new_windows[key])}, "
                    f"largest entry outside the shared window {outside[key[0]]:.3g}"
                )
        for field, dev in deviation.items():
            if dev > 0.0:
                self.deviation[field] = max(self.deviation[field], dev)
                self.scale[field] = max(self.scale[field], scale[field])
                rel = dev / scale[field] if scale[field] > 0.0 else math.inf
                self.relative[field] = max(self.relative[field], rel)


def compare_trees(old_src, new_src, workdir):
    reports = defaultdict(KindReport)
    for workload in workloads.WORKLOADS:
        for stream in range(STREAMS):
            for d in workloads.DIMS:
                directory = os.path.join(workdir, f"{workload}-{stream}-d{d}")
                for job in workloads.make_pass(workload, SEED, stream, d, directory):
                    label = f"{workload} stream {stream} d={d}"
                    old = run_job(job, old_src, directory)
                    new = run_job(job, new_src, directory)
                    report = reports[job.kind]
                    report.jobs += 1
                    if old == new:
                        report.identical += 1
                    if old[0] != new[0]:
                        report.exit_diffs.append(f"{label}: exit {old[0]} -> {new[0]}")
                    elif all(map(same_as_parsed, [*old[1:3], *old[3]], [*new[1:3], *new[3]])):
                        report.parsed_equal += 1
                    # the new tree's files are still on disk
                    code, stdout, stderr, _ = new
                    data = bench_run.result_bytes(job, stdout.decode())
                    failure = bench_run.verify(job, code, data, stderr.decode())
                    if failure is not None:
                        report.check_failures.append(f"{label}: {failure}")
                    if old != new and old[0] == new[0] == 0:
                        outputs = [old[1]] + old[3], [new[1]] + new[3]
                        for a, b in zip(*outputs):
                            if a != b and a is not None and b is not None:
                                report.compare(label, a, b)
    return reports


def print_report(reports):
    total = sum(r.jobs for r in reports.values())
    identical = sum(r.identical for r in reports.values())
    parsed_equal = sum(r.parsed_equal for r in reports.values())
    print(f"{identical}/{total} jobs byte-identical")
    print(f"{parsed_equal}/{total} jobs equal as parsed")
    for kind in sorted(reports):
        r = reports[kind]
        print(
            f"{kind}: {r.identical}/{r.jobs} identical, {r.parsed_equal}/{r.jobs} equal as parsed, "
            f"{len(r.exit_diffs)} exit status changes, "
            f"{len(r.check_failures)} failed checks on the new tree"
        )
        for field in sorted(r.deviation):
            print(
                f"  {field}: max abs deviation {r.deviation[field]:.3g} "
                f"(largest |old| {r.scale[field]:.3g}, relative {r.relative[field]:.3g})"
            )
        for field in sorted(r.unmatched):
            print(f"  {field}: entries or text differ")
        for line in r.windows + r.exit_diffs + r.check_failures:
            print(f"  {line}")


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src", help="src directory of the reference tree")
    parser.add_argument("new_src", help="src directory of the tree under test")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="specseq-compare-") as workdir:
        reports = compare_trees(args.old_src, args.new_src, workdir)
    print_report(reports)
    bad = any(r.exit_diffs or r.check_failures for r in reports.values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(run())

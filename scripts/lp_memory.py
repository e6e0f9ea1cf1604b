#!/usr/bin/env python3
"""Time, page faults and memory peak of the benchmark's stable-manifold sweep.

    PYTHONPATH=src python scripts/lp_memory.py

For the manifold-sweep inputs of ``bench/workloads.py`` at seed 7 and
d = 2, 8 and 32 it prints, per d, the certified horizon, the weight ``mu``
of its certificate and the sweep's block width ``G``, then:

* ``pass_ms``: the fastest of five ``stable-manifold`` passes through
  ``specseq.cli.main``, after one warm-up pass;
* ``minflt``: the median number of minor page faults per pass
  (``resource.getrusage``), which counts the fresh pages the process maps;
* ``lp_peak``: the ``tracemalloc`` peak of the sweep's first block (the
  stacked Lyapunov-Perron iteration and its certificates), in units of one
  stacked ``(horizon + 1, G, d)`` complex array, and in MB.

Run as a script, it pins BLAS to one thread, as the benchmark does.
"""

import os

if __name__ == "__main__":  # before numpy loads
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

from specseq import io  # noqa: E402
from specseq.cli import main as cli_main  # noqa: E402
from specseq.manifold import _block_width, _manifold_points  # noqa: E402

SEED = 7
PASSES = 5


def _pass(job):
    # one pass: wall time in ms and minor page faults
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    code = cli_main(job.argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{job.kind} exited {code}")
    return 1e3 * elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def _block_peak(job):
    # tracemalloc peak of the sweep's first block, in stacked arrays and bytes
    argv = dict(zip(job.argv[1::2], job.argv[2::2]))
    prob = io.manifold_problem_from_json(io.load_json(argv["--problem"]))
    grid = io.grid_from_json(io.load_json(argv["--grid"]))
    d, h = prob.A.dim, prob.horizon
    xis = np.array(grid[: _block_width(prob)])
    _manifold_points(prob, xis, check_orbit=True)  # warm-up
    tracemalloc.start()
    try:
        _manifold_points(prob, xis, check_orbit=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / ((h + 1) * len(xis) * d * 16), peak, prob, len(xis)


def run(argv=None):
    if argv:
        print(f"usage: {sys.argv[0]} (takes no options)", file=sys.stderr)
        return 2
    print(f"{'d':>3} {'horizon':>7} {'mu':>6} {'G':>3} ", end="")
    print(f"{'pass_ms':>8} {'minflt':>7} {'lp_peak':>8} {'MB':>6}")
    with tempfile.TemporaryDirectory() as tmp:
        for d in workloads.DIMS:
            (job,) = workloads.make_pass("manifold-sweep", SEED, 0, d, os.path.join(tmp, f"d{d}"))
            _pass(job)
            runs = [_pass(job) for _ in range(PASSES)]
            arrays, peak, prob, g = _block_peak(job)
            print(
                f"{d:>3} {prob.horizon:>7} {prob.mu:>6.4f} {g:>3} "
                f"{min(ms for ms, _ in runs):>8.1f} "
                f"{statistics.median(f for _, f in runs):>7.0f} {arrays:>8.2f} {peak / 1e6:>6.2f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))

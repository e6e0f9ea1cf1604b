"""specseq benchmark: seeded CLI workloads at d = 2, 8, 32.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload manifold-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Load model: one process, one client, closed loop (the next job starts when
the previous one returns), BLAS pinned to one thread, ``SPECSEQ_THREADS``
unset so sweeps use one worker.  Every job goes through the real entry
point in-process, ``specseq.cli.main(argv)``, on input files this script
writes, with stdout captured.  A *pass* runs the workload's job list once
at one d; a *round* runs one pass at each d in turn.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics plus the tracing overhead.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; a
detailed record with provenance goes to ``.bench_out/``.
"""

from __future__ import annotations

import os
import time

START = time.perf_counter()

# Pin BLAS before numpy is imported anywhere in this process.
_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(_PIN)
os.environ.pop("SPECSEQ_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work" / f"run-{os.getpid()}"
OUT = ROOT / ".bench_out"

#: Set-ups and cold starts per run.  The first set-up comes before the
#: timed phase; the other samples are spread evenly over it.
SETUP_REPS = 10
COLD_REPS = 12
#: Traced rounds whose counts are reported; their inputs depend only on
#: the seed, so the counts repeat exactly across runs.
COUNT_ROUNDS = 2
WARMUP_STREAM = 1_000_000

END_TO_END = {
    "setup_s": "s",
    "cold_start_ms": "ms",
    "jobs_per_s": "1/s",
    **{f"pass_ms_min.d{d}": "ms" for d in workloads.DIMS},
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def import_cli():
    """Import ``specseq.cli`` from this checkout's ``src/``, never elsewhere."""
    if not (SRC / "specseq" / "cli.py").is_file():
        raise BenchError(f"no specseq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("specseq.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "specseq").resolve():
        raise BenchError(f"specseq imported from {cli.__file__}, not from {SRC}")
    return cli


class Outcome:
    """Attempted and failed job counts, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label, error):
        self.attempted += 1
        if error is not None:
            self.fail(label, error)

    def fail(self, label, error):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{label}: {error}")


def run_pass(cli, jobs):
    """Run the jobs back to back; return wall ms and (code, stdout, stderr) per job."""
    raw = []
    t0 = time.perf_counter()
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(job.argv)
            except Exception:  # a crash is a failed job, not a failed benchmark
                code = -1
                err.write(traceback.format_exc())
        raw.append((code, out.getvalue(), err.getvalue()))
    return (time.perf_counter() - t0) * 1e3, raw


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def result_bytes(job, stdout):
    """The job's result: stdout or its output file, paired with its side file if any."""
    data = stdout.encode("utf-8") if job.out_path is None else _read(job.out_path)
    return data if job.side_path is None else (data, _read(job.side_path))


def remove_results(job):
    for path in job.written():
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def verify(job, code, data, stderr):
    """None when the job succeeded and its output passes the check, else why not."""
    if code != 0:
        return f"exit {code}: {stderr.strip()[-300:]}"
    try:
        job.check(data)
    except checks.CheckFailure as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {exc!r}"
    return None


def checked_pass(cli, jobs, outcome, label):
    """Run and check one pass; return (ms, output bytes per job, passed jobs)."""
    ms, raw = run_pass(cli, jobs)
    outputs, passed = [], 0
    for job, (code, stdout, stderr) in zip(jobs, raw):
        data = result_bytes(job, stdout) if code == 0 else b""
        error = verify(job, code, data, stderr)
        outcome.record(f"{label} {job.kind}", error)
        passed += error is None
        outputs.append(data)
    return ms, outputs, passed


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Spread:
    """A side measurement sampled between rounds, spread evenly over the timed phase.

    The samples thus see the same machine conditions as the passes.
    """

    reps = 0

    def __init__(self):
        self.times: list[float] = []

    def due(self, elapsed, seconds):
        return len(self.times) < self.reps and elapsed >= seconds * len(self.times) / self.reps

    def run_one(self):
        raise NotImplementedError


class SetUp(Spread):
    """Generate and write one round of inputs and warm up on its d=2 pass (s)."""

    reps = SETUP_REPS

    def __init__(self, bench):
        super().__init__()
        self.bench = bench
        self.jobs, self.outputs = self.run_one()

    def run_one(self):
        rep = len(self.times)
        t0 = time.perf_counter()
        rnd = [self.bench.make_pass(WARMUP_STREAM + rep, d, f"warm{rep}-d{d}") for d in workloads.DIMS]
        _, outputs, _ = checked_pass(self.bench.cli, rnd[0], self.bench.outcome, f"set-up {rep}")
        self.times.append(time.perf_counter() - t0)
        return rnd[0], outputs


class ColdStart(Spread):
    """Fresh ``python -m specseq`` processes running one job, one at a time (ms).

    Each output must equal the in-process output of the same job.
    """

    reps = COLD_REPS

    def __init__(self, job, reference, outcome):
        super().__init__()
        self.job = job
        self.reference = reference
        self.outcome = outcome
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run_one(self):
        job = self.job
        remove_results(job)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "specseq", *job.argv],
                env=self.env,
                cwd=str(WORK),
                capture_output=True,
                timeout=60,
            )
        except subprocess.TimeoutExpired:
            proc = None
        self.times.append((time.perf_counter() - t0) * 1e3)
        error = None
        if proc is None:
            error = "timed out"
        elif proc.returncode != 0:
            error = f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"
        elif result_bytes(job, proc.stdout.decode("utf-8")) != self.reference:
            error = "output differs from the in-process run"
        self.outcome.record(f"cold start {len(self.times)} {job.kind}", error)


def reference_loop_ms():
    """Median time of a fixed pure-Python loop, to recognise a slow machine."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def provenance(args, ref_ms):
    digest = hashlib.sha256()
    for path in sorted((SRC / "specseq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_pin": dict(_PIN),
        "reference_loop_ms": ref_ms,
    }


class Bench:
    def __init__(self, cli, workload, seed):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.outcome = Outcome()
        self.tracer = None

    def make_pass(self, stream, d, tag):
        return workloads.make_pass(self.workload, self.seed, stream, d, str(WORK / tag))

    def rounds(self, seconds, trace, spread=()):
        """The timed phase: rounds until ``seconds`` have passed.

        The ``spread`` samplers run between rounds when due, and are topped
        up to their count at the end.

        Returns per-round pass ms by d, the round indices traced, the number
        of passed jobs, and round 0's jobs and outputs for the repeat check.
        """
        passes = {d: [] for d in workloads.DIMS}
        round_ms = {False: [], True: []}
        traced_rounds, first, passed = [], {}, 0
        min_rounds = 2 * COUNT_ROUNDS if trace else 1
        start = time.perf_counter()
        rnd = 0
        while rnd < min_rounds or time.perf_counter() - start < seconds:
            traced = trace and rnd % 2 == 1
            total = 0.0
            for d in workloads.DIMS:
                jobs = self.make_pass(rnd, d, f"r0-d{d}" if rnd == 0 else f"d{d}")
                gc.collect()
                if traced:
                    self.tracer.pass_id = (rnd, d)
                    self.tracer.install()
                try:
                    ms, outputs, ok = checked_pass(self.cli, jobs, self.outcome, f"round {rnd} d={d}")
                finally:
                    if traced:
                        self.tracer.uninstall()
                passes[d].append(ms)
                total += ms
                passed += ok
                if rnd == 0:
                    first[d] = (jobs, outputs)
            round_ms[traced].append(total)
            if traced:
                traced_rounds.append(rnd)
            rnd += 1
            for sampler in spread:
                if sampler.due(time.perf_counter() - start, seconds):
                    sampler.run_one()
        for sampler in spread:
            while len(sampler.times) < sampler.reps:
                sampler.run_one()
        return passes, round_ms, traced_rounds, passed, first

    def repeat_check(self, first):
        """Re-run round 0; every output must be byte-identical to the first run."""
        for d, (jobs, outputs) in first.items():
            for job in jobs:
                remove_results(job)
            _, raw = run_pass(self.cli, jobs)
            for job, ref, (code, stdout, stderr) in zip(jobs, outputs, raw):
                data = result_bytes(job, stdout) if code == 0 else b""
                if code != 0 or data != ref:
                    self.outcome.fail(f"repeat d={d} {job.kind}", "output not byte-identical")


def run_workload(args):
    cli = import_cli()
    bench = Bench(cli, args.workload, args.seed)
    if args.trace:
        bench.tracer = tracing.Tracer()
    setup = SetUp(bench)
    setup_total_s = time.perf_counter() - START
    cold = ColdStart(setup.jobs[0], setup.outputs[0], bench.outcome)
    spread = () if args.trace else (setup, cold)
    passes, round_ms, traced_rounds, passed, first = bench.rounds(args.seconds, args.trace, spread)
    bench.repeat_check(first)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {}
    if args.trace:
        per_pass = bench.tracer.per_pass()
        overhead = statistics.median(round_ms[True]) / statistics.median(round_ms[False])
        metrics = tracing.layer_metrics(per_pass, traced_rounds, COUNT_ROUNDS, overhead)
        units = tracing.LAYER_METRICS
        detail["peak_rss_mb"] = {"value": peak_rss_mb}
        detail["traced_rounds"] = len(traced_rounds)
        detail["untraced_rounds"] = len(round_ms[False])
        detail["spans"] = len(bench.tracer.spans)
        detail["traced_round_ms_p50"] = statistics.median(round_ms[True])
        detail["untraced_round_ms_p50"] = statistics.median(round_ms[False])
        bench.tracer.write_spans(OUT / f"spans-{args.workload}.csv")
    else:
        # The fastest sample of each time.  On a host whose speed switches
        # between levels (README.md), the mean and the median follow the
        # share of slow phases in the run; the minimum needs one sample at
        # the fast level.
        rounds = len(passes[workloads.DIMS[0]])
        metrics = {"setup_s": min(setup.times), "cold_start_ms": min(cold.times)}
        for d, values in passes.items():
            metrics[f"pass_ms_min.d{d}"] = min(values)
            detail[f"pass_ms_min.d{d}"] = {"samples": len(values)}
            value, pct = tail(values)
            detail[f"pass_ms_mean.d{d}"] = {"value": statistics.fmean(values), "samples": len(values)}
            detail[f"pass_ms_p50.d{d}"] = {"value": statistics.median(values), "samples": len(values)}
            detail[f"pass_ms_tail.d{d}"] = {"value": value, "percentile": pct, "samples": len(values)}
        # Passed jobs per round over the time of a round at the fast level.
        round_s = sum(metrics[f"pass_ms_min.d{d}"] for d in workloads.DIMS) / 1e3
        metrics["jobs_per_s"] = passed / rounds / round_s
        metrics["peak_rss_mb"] = peak_rss_mb
        detail["pass_ms"] = {f"d{d}": values for d, values in passes.items()}
        detail["setup_s"] = {"samples": len(setup.times), "values": setup.times}
        detail["setup_total_s"] = {"value": setup_total_s}
        detail["cold_start_ms"] = {"samples": len(cold.times), "values": cold.times}
        detail["jobs_per_s"] = {"samples": rounds, "passed": passed,
                                "timed_s": sum(sum(v) for v in passes.values()) / 1e3}
        units = END_TO_END
    outcome = bench.outcome
    record = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    detail["failed_share"] = outcome.failed / outcome.attempted
    detail["failures"] = outcome.messages
    detail["provenance"] = provenance(args, reference_loop_ms())
    with open(OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**record, "detail": detail}, fh, indent=2)
    def line(name, value, unit, note=""):
        print(f"{args.workload:15s} {name:32s} {value:14.4f} {unit:6s} {note}")

    for name, entry in record["metrics"].items():
        samples = detail.get(name, {}).get("samples")
        line(name, entry["value"], entry["unit"], "" if samples is None else f"samples={samples}")
    for d in workloads.DIMS if not args.trace else ():
        for kind in ("mean", "p50", "tail"):
            info = detail[f"pass_ms_{kind}.d{d}"]
            note = f"percentile={info['percentile']:.1f}, " if kind == "tail" else ""
            line(f"pass_ms_{kind}.d{d}", info["value"], "ms", f"{note}samples={info['samples']} (not gated)")
    if not args.trace:
        line("setup_total_s", setup_total_s, "s", "all time before the first timed pass (not gated)")
    line("failed_share", detail["failed_share"], "ratio",
         f"failed={outcome.failed} attempted={outcome.attempted}")
    for message in outcome.messages:
        print(f"{args.workload:15s} FAILED {message}")
    print(json.dumps(record))


def run_all(args):
    """Each workload in its own process (peak RSS is per process); one summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = entry
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    WORK.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(exist_ok=True)
    try:
        if args.workload == "all":
            run_all(args)
        else:
            run_workload(args)
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch command line front-end.

One entry point with subcommands; every run is deterministic given its
configuration.  Each subcommand's handler returns its JSON result, which
``main`` writes to stdout or to ``--out`` (``stable-manifold`` writes its
CSV itself and returns None).  Module errors surface as a structured JSON
diagnostic on stderr plus a distinct nonzero exit status.

Every run is a fresh process, and without cached bytecode Python compiles
each module it imports, so each subcommand imports the library modules it
calls inside its own function: ``spectrum`` never compiles the solver, the
resolvent or the Lyapunov-Perron code.  The module itself imports only
``io`` and ``errors``.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import io
from .errors import IndeterminateHyperbolic, SpecseqError


def _cmd_spectrum(args):
    from .operators import circle_sup_resolvent, is_hyperbolic, resolvent_at, spectral_radius

    A = io.matrix_from_json(io.load_json(args.A), "A")
    try:
        hyperbolic = is_hyperbolic(A)
    except IndeterminateHyperbolic:
        hyperbolic = None
    out = {"r": spectral_radius(A), "hyperbolic": hyperbolic}
    if args.circle_sup_rho is not None:
        out["circle_sup"] = circle_sup_resolvent(A, args.circle_sup_rho)
    if args.resolvent_z is not None:
        z = complex(args.resolvent_z[0], args.resolvent_z[1])
        out["resolvent_at"] = io.matrix_to_json(resolvent_at(A, z))
    return out


def _cmd_riesz(args):
    from .operators import riesz_split

    A = io.matrix_from_json(io.load_json(args.A), "A")
    split = riesz_split(A, args.gamma)
    return {
        "gamma": split.gamma,
        "proj_stable": io.matrix_to_json(split.proj_stable),
        "proj_unstable": io.matrix_to_json(split.proj_unstable),
        "r_inside": split.r_inside,
        "r_outside_inv": split.r_outside_inv,
        "idempotency_defect": split.idempotency_defect,
        "commutation_defect": split.commutation_defect,
        "sign_steps": split.quad_points,
    }


def _cmd_resolve(args):
    from .resolvent import (
        ResolventPlan,
        apply_resolvent_causal,
        apply_resolvent_frequency,
        apply_resolvent_split,
        equation_residual,
    )

    A = io.matrix_from_json(io.load_json(args.A), "A")
    f = io.sequence_from_json(io.load_json(args.f), "f")
    plan = ResolventPlan(A, args.rho, args.mode)
    if args.mode == "causal":
        u = apply_resolvent_causal(plan, f)
    elif args.mode == "split":
        u = apply_resolvent_split(plan, f)
    else:
        u = apply_resolvent_frequency(plan, f)
    if args.csv_out:
        io.write_sequence_csv(u, args.csv_out)
    return {
        "mode": args.mode,
        "rho": args.rho,
        "solution": io.sequence_to_json(u),
        "residual": equation_residual(u, A, f, args.rho),
    }


def _cmd_ztransform_check(args):
    from .ztransform import multiplication_equiv_check, parseval_check, ztransform

    u = io.sequence_from_json(io.load_json(args.u), "u")
    f = ztransform(u, args.rho, args.N)
    lhs, rhs = parseval_check(u, args.rho, transform=f)
    defect = multiplication_equiv_check(u, args.rho)
    if args.circle_csv:
        io.write_circle_csv(f, args.circle_csv)
    return {
        "rho": args.rho,
        "n_samples": f.n_samples,
        "parseval_lhs": lhs,
        "parseval_rhs": rhs,
        "multiplication_defect": defect,
    }


def _cmd_solve_ivp(args):
    from .solver import solve_ivp, solve_ivp_all

    A = io.matrix_from_json(io.load_json(args.A), "A")
    F = io.stencil_from_json(io.load_json(args.F), "F")
    x = io.vector_from_json(io.load_json(args.x), "x")
    if args.method == "all":
        sols, devs = solve_ivp_all(A, F, x, args.horizon, rho=args.rho)
        return {
            "horizon": args.horizon,
            "methods": {name: io.sequence_to_json(sol) for name, sol in sols.items()},
            "pairwise_max_deviation": devs,
        }
    method = {"voc": "variation_of_constants"}.get(args.method, args.method)
    sol = solve_ivp(A, F, x, args.horizon, method, rho=args.rho)
    return {"horizon": args.horizon, "method": method, "solution": io.sequence_to_json(sol)}


def _cmd_solve_contraction(args):
    from .sequences import Weight
    from .solver import FP_TOL, MAX_ITER, solve_contraction

    F = io.stencil_from_json(io.load_json(args.F), "F")
    report = solve_contraction(
        F,
        Weight(args.rho, 2.0),
        (args.window[0], args.window[1]),
        fp_tol=FP_TOL if args.fp_tol is None else args.fp_tol,
        max_iter=MAX_ITER if args.max_iter is None else args.max_iter,
        dim=args.dim,
    )
    return {
        "rho": args.rho,
        "iterations": report.iterations,
        "final_residual": report.final_residual,
        "contraction_estimate": report.contraction_estimate,
        "converged": True,  # a report is returned only on convergence
        "solution": io.sequence_to_json(report.solution),
    }


def _cmd_stability(args):
    from .resolvent import stability_classify

    report = stability_classify(io.matrix_from_json(io.load_json(args.A), "A"))
    return {
        "verdict": report.verdict,
        "r": report.r,
        "rho_star": report.rho_star,
        "probes_consistent": report.probes_consistent,
        "probe_bound": report.probe_bound,
    }


def _cmd_stable_manifold(args):
    from .manifold import manifold_sweep

    prob = io.manifold_problem_from_json(io.load_json(args.problem), "problem")
    grid = io.grid_from_json(io.load_json(args.grid), "grid")
    io.write_sweep_csv(manifold_sweep(prob, grid), prob.A.dim, args.out)


def _cmd_escape_check(args):
    from .resolvent import spectrum_escape_check

    A = io.matrix_from_json(io.load_json(args.A), "A")
    x = io.vector_from_json(io.load_json(args.x), "x")
    return {"escapes": spectrum_escape_check(A, x)}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.  ``parse_args`` leaves a parser unchanged
    and fills a fresh ``Namespace`` per call, so every ``main`` call shares
    it."""
    parser = argparse.ArgumentParser(
        prog="specseq",
        description="difference equations on exponentially weighted sequence spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="spectral radius and hyperbolicity")
    p.add_argument("--A", required=True, help="operator JSON file")
    p.add_argument(
        "--circle-sup-rho",
        type=float,
        default=None,
        dest="circle_sup_rho",
        help="also report a certified upper bound on sup ||(z-A)^(-1)|| over S_rho",
    )
    p.add_argument(
        "--resolvent-z",
        type=float,
        nargs=2,
        default=None,
        dest="resolvent_z",
        metavar=("RE", "IM"),
        help="also report (z I - A)^(-1) at this point",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("riesz", help="Riesz projections at a circle")
    p.add_argument("--A", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_riesz)

    p = sub.add_parser("resolve", help="apply (tau - A)^(-1) to a sequence")
    p.add_argument("--A", required=True)
    p.add_argument("--f", required=True, help="forcing sequence JSON file")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--mode", choices=("causal", "split", "frequency"), required=True)
    p.add_argument("--csv-out", default=None, dest="csv_out", help="also export (n, component, re, im) CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_resolve)

    p = sub.add_parser("ztransform-check", help="unitarity and intertwining checks")
    p.add_argument("--u", required=True, help="sequence JSON file")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--circle-csv", default=None, dest="circle_csv")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_ztransform_check)

    p = sub.add_parser("solve-ivp", help="initial value problem, three formulations")
    p.add_argument("--A", required=True)
    p.add_argument("--F", required=True, help="stencil JSON file")
    p.add_argument("--x", required=True, help="initial vector JSON file")
    p.add_argument("--method", choices=("all", "recursion", "voc", "impulse"), default="all")
    p.add_argument("--horizon", type=int, default=64)
    p.add_argument("--rho", type=float, default=None, help="impulse-method weight")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_solve_ivp)

    p = sub.add_parser("solve-contraction", help="fixed point of tau u = F(u)")
    p.add_argument("--F", required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--window", type=int, nargs=2, required=True, metavar=("LO", "HI"))
    # None stands for solver.FP_TOL and solver.MAX_ITER, read when the command runs
    p.add_argument("--fp-tol", type=float, default=None, dest="fp_tol")
    p.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_solve_contraction)

    p = sub.add_parser("stability", help="certified exponential stability verdict")
    p.add_argument("--A", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_stability)

    p = sub.add_parser("stable-manifold", help="sweep the stable-manifold graph")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--grid", required=True, help="grid JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=_cmd_stable_manifold)

    p = sub.add_parser("escape-check", help="unstable-spectrum escape certificate")
    p.add_argument("--A", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_escape_check)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.fn(args)
        if result is not None:  # a JSON result, on stdout unless --out names a file
            text = io.dump_json(result, args.out)
            if args.out is None:
                sys.stdout.write(text)
    except SpecseqError as exc:
        sys.stderr.write(io.dump_json({"error": exc.code, "message": str(exc)}))
        return exc.exit_status
    return 0


if __name__ == "__main__":
    sys.exit(main())

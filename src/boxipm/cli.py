"""Command-line front end.

Subcommands: ``solve``, ``solve-standard``, ``params``, ``oracle``,
``factor``.  Solutions are printed as one JSON object on stdout; parameter
dumps are one ``name = value`` line each.  Exit codes: 0 success, 1 solver
or acceptance failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys

from .errors import (
    BoxIpmError, DimensionError, InvalidProblem, ParseError, TooLarge,
)
from .oracle import oracle_min_residual, oracle_solve_boxqp
from .params import compute_params, compute_params_practical, format_params
from .probfile import ProblemFile, parse_problem
from .problem import BoxQP, problem_factor, transform_standard
from .solver import (
    MODE_FAST, MODE_STABLE, PARAMS_PRACTICAL, PARAMS_STRICT, TRACE_FIELDS, SolveReport, solve,
    solve_standard,
)

_INPUT_ERRORS = (ParseError, DimensionError, InvalidProblem, TooLarge)

EXIT_OK = 0
EXIT_SOLVE = 1
EXIT_INPUT = 2


def _load(path: str, tol_override: float | None) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        pf = parse_problem(fh.read())
    if tol_override is not None:
        if tol_override <= 0.0:
            raise InvalidProblem(f"--tol must be > 0, got {tol_override!r}")
        pf = dataclasses.replace(pf, tol=tol_override)
    return pf


def _as_boxqp(pf: ProblemFile) -> BoxQP:
    """Box problems load directly; standard ones need a concrete pi."""
    if pf.kind == "box":
        return pf.to_boxqp()
    if pf.pi is None:
        raise InvalidProblem(
            "kind: standard requires 'pi' in the file for this subcommand "
            "(or use solve-standard)"
        )
    box, _ = transform_standard(pf.to_standardqp(), pf.pi, pf.tol)
    return box


def _params_digest(mp) -> str:
    return hashlib.sha256(format_params(mp).encode()).hexdigest()[:12]


def _write_trace(path: str, report: SolveReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        for entry in report.trace:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in entry])


def _solution_json(report: SolveReport, extra: dict | None = None) -> str:
    out = {
        "x": [float(v) for v in report.x],
        "objective": report.objective,
        "feas_residual": report.feas_residual,
        "tau_final": report.tau_final,
        "iterations": {"primal": report.params.K, "path_following": report.iterations_pd},
        "linear_algebra": {"solves": report.linear_solves, "factorizations": report.factorizations},
        "repairs": {"x_clipped": report.x_clipped},
        "mode": report.mode,
        "params_digest": _params_digest(report.params),
    }
    if extra:
        out.update(extra)
    return json.dumps(out, indent=2)


def _cmd_solve(args) -> int:
    pf = _load(args.problem, args.tol)
    p = _as_boxqp(pf)
    report = solve(
        p, mode=args.mode, params_mode=args.params, collect_trace=args.trace is not None
    )
    if args.trace is not None:
        _write_trace(args.trace, report)
    extra = None
    status = EXIT_OK
    if args.check_oracle:
        ref = oracle_solve_boxqp(p)
        chi = oracle_min_residual(p)
        obj_gap = report.objective - ref.objective
        feas_gap = report.feas_residual - chi
        ok = (
            max(abs(v) for v in report.x) < 1.0
            and obj_gap <= p.tol
            and feas_gap <= p.tol
        )
        extra = {
            "oracle": {
                "objective": ref.objective,
                "feas_residual": chi,
                "objective_gap": obj_gap,
                "feas_gap": feas_gap,
                "within_tol": ok,
            }
        }
        if not ok:
            status = EXIT_SOLVE
    print(_solution_json(report, extra))
    return status


def _cmd_solve_standard(args) -> int:
    pf = _load(args.problem, args.tol)
    if pf.kind != "standard":
        raise InvalidProblem("solve-standard requires kind: standard")
    sp = pf.to_standardqp()
    if args.pi is None:
        pi = pf.pi if pf.pi is not None else "auto"
    elif args.pi == "auto":
        pi = "auto"
    else:
        try:
            pi = float(args.pi)
        except ValueError:
            raise InvalidProblem(f"--pi must be a number or 'auto', got {args.pi!r}") from None
    report = solve_standard(
        sp, tol=pf.tol, pi=pi, mode=args.mode, params_mode=args.params,
        collect_trace=args.trace is not None,
    )
    if args.trace is not None:
        _write_trace(args.trace, report.box_report)
    # The box solve's record, with the solution in standard coordinates.
    print(_solution_json(report.box_report, {
        "x": [float(v) for v in report.x],
        "objective": report.objective,
        "feas_residual": report.feas_residual,
        "pi": report.pi,
        "trials": report.trials,
    }))
    return EXIT_OK


def _cmd_params(args) -> int:
    pf = _load(args.problem, args.tol)
    p = _as_boxqp(pf)
    mp = compute_params(p) if args.params == PARAMS_STRICT else compute_params_practical(p)
    sys.stdout.write(format_params(mp))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    pf = _load(args.problem, args.tol)
    p = _as_boxqp(pf)
    ref = oracle_solve_boxqp(p)
    out = {
        "x": [float(v) for v in ref.x],
        "objective": ref.objective,
        "feas_residual": float(oracle_min_residual(p)),
        "active_pattern": list(ref.active_pattern),
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _cmd_factor(args) -> int:
    pf = _load(args.problem, args.tol)
    p = _as_boxqp(pf)
    print(repr(problem_factor(p)))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="boxipm",
        description="Short-step interior-point solver for box-constrained convex QPs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp_parser, with_solver_flags=True):
        sp_parser.add_argument("problem", help="problem file path")
        sp_parser.add_argument("--tol", type=float, default=None, help="override the file's tol")
        sp_parser.add_argument(
            "--params", choices=(PARAMS_STRICT, PARAMS_PRACTICAL), default=PARAMS_PRACTICAL,
            help="parameter cascade variant",
        )
        if with_solver_flags:
            sp_parser.add_argument(
                "--mode", choices=(MODE_STABLE, MODE_FAST), default=MODE_STABLE,
                help="3 linear solves per cycle (stable) or 1 (fast)",
            )
            sp_parser.add_argument("--trace", default=None, help="write per-step CSV trace here "
                                   "(cond_DF: 1-norm condition number of each Newton matrix, "
                                   "from the factor its step made)")

    ps = sub.add_parser("solve", help="solve a box problem")
    common(ps)
    ps.add_argument("--check-oracle", action="store_true",
                    help="cross-check against the enumeration oracle (n <= 10)")
    ps.set_defaults(func=_cmd_solve)

    pss = sub.add_parser("solve-standard", help="solve a standard-form problem")
    common(pss)
    pss.add_argument("--pi", default=None,
                     help="box scaling bound, or 'auto' for the geometric schedule "
                          "(default: the file's pi, else auto)")
    pss.set_defaults(func=_cmd_solve_standard)

    pp = sub.add_parser("params", help="print the method-parameter cascade")
    common(pp, with_solver_flags=False)
    pp.set_defaults(func=_cmd_params)

    po = sub.add_parser("oracle", help="solve a tiny instance by enumeration")
    common(po, with_solver_flags=False)
    po.set_defaults(func=_cmd_oracle)

    pf_ = sub.add_parser("factor", help="print the problem factor L")
    common(pf_, with_solver_flags=False)
    pf_.set_defaults(func=_cmd_factor)
    return top


def run(argv=None) -> int:
    """Entry point returning the exit code (0 ok, 1 solve failure, 2 input error)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BoxIpmError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        context = exc.context()
        if context:  # where the solve failed
            print("  " + " ".join(f"{k}={v}" for k, v in context.items()), file=sys.stderr)
        return EXIT_SOLVE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

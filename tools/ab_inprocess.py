"""In-process A/B timing of two boxipm checkouts on the benchmark's instances.

    python3 tools/ab_inprocess.py CHECKOUT_A CHECKOUT_B [--workload small_box]
        [--seed 1] [--repeats 7]

Loads ``src/boxipm`` of each checkout into one process, under the package
names ``boxipm_a`` and ``boxipm_b``, and solves every instance of the
workload (``perfbench/workloads.py`` of the checkout that holds this
script, imported read-only) with A and B in turn, ``--repeats`` times
each, alternating which side runs first: A then B on the first repeat,
B then A on the second, and so on.  Prints, per instance, the best wall
time of each side, their ratio B/A and whether the two solves are
bit-identical, then a line with each side's counts (cycles, linear solves and factorizations, and pi
trials on a standard-form instance) and each side's best time per
linear solve, in microseconds a step (on a standard-form instance, per
solve of the accepted trial, though the time covers every trial), flagged
``COUNTS DIFFER`` when the cycles, linear solves or pi trials differ: a
speedup counts only with the same counts.  Then the totals of the best
times and of each side's factorizations, so that a cut in factorizations
shows next to the time; exits 1 unless every solve is identical with the
same counts.  For a solve that is not identical, a further line sizes the
change:
max |x_A - x_B| and |objective_A - objective_B|.  A solve is identical
when its x is, and, on a traced instance, when every value of every
trace row is too: each value is packed on its own (numbers as binary64
bytes, so that NaN compares by its bits), outside the timed region.  On a
traced instance each side also solves untraced, after the traced solves
of the repeat and in their order, and a second line gives the trace's
own cost per row, (best traced - best untraced) / rows, for A and B.

Alternating within one process cancels most of the machine's speed
drift, and alternating which side runs first cancels the advantage of
either place in the order: on a 2-vCPU VM the speed of Python-bound code moves by up to 2x between
process runs, which makes a comparison of separate runs unreliable.  The
instances are built from the generators' arrays directly, not parsed from
problem-file text as the benchmark does; the serialization is bit-exact,
so both see the same data.
"""

from __future__ import annotations

import argparse
import importlib.util
import struct
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_package(checkout: Path, name: str):
    """``checkout/src/boxipm`` imported as the package ``name``."""
    init = checkout / "src" / "boxipm" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_ab_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def counts(rep, trials=1) -> dict:
    """The counts of a solve that must match between A and B, and its
    factorizations, which a change may cut."""
    return {"cycles": rep.iterations_pd, "solves": rep.linear_solves,
            "factorizations": rep.factorizations, "trials": trials}


def solver(bx, inst, collect_trace=None):
    """A function that solves ``inst`` with the package ``bx`` and returns
    (x, objective, trace rows, counts); ``collect_trace`` overrides the
    instance's own.  On a standard-form instance the counts are the
    accepted trial's, with the number of trials."""
    if collect_trace is None:
        collect_trace = inst.collect_trace
    if inst.kind == "box":
        p = bx.BoxQP(Q=inst.Q, c=inst.c, A=inst.A, b=inst.b, tol=inst.tol)

        def run():
            rep = bx.solve(p, mode=inst.mode, collect_trace=collect_trace)
            return rep.x, rep.objective, rep.trace, counts(rep)
        return run
    p = bx.StandardQP(Qt=inst.Q, ct=inst.c, At=inst.A, bt=inst.b)

    def run():
        rep = bx.solve_standard(p, tol=inst.tol, pi="auto", mode=inst.mode)
        return rep.x, rep.objective, rep.box_report.trace, counts(rep.box_report, rep.trials)
    return run


def packed_trace(bx, rows) -> list[tuple]:
    """The field names of the package ``bx``'s trace, then every row as the
    tuple of its values packed one by one: strings as they are, numbers as
    little-endian binary64 bytes, so that equal rows mean equal bits, NaN
    included."""
    fields = sys.modules[bx.__name__ + ".solver"].TRACE_FIELDS
    packed = [tuple(fields)]
    for row in rows:
        values = (getattr(row, name) for name in fields)
        packed.append(tuple(v if isinstance(v, str) else struct.pack("<d", v) for v in values))
    return packed


def timed(run) -> tuple[float, tuple]:
    """(wall time, (x, objective, trace rows, counts)) of one solve."""
    t0 = time.perf_counter()
    out = run()
    return time.perf_counter() - t0, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="checkout A (the baseline)")
    ap.add_argument("b", type=Path, help="checkout B (the change)")
    ap.add_argument("--workload", default="small_box")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)

    wl = load_workloads()
    a, b = load_package(args.a.resolve(), "boxipm_a"), load_package(args.b.resolve(), "boxipm_b")
    insts = wl.instances(wl.WORKLOADS[args.workload], args.seed)
    total_a = total_b = 0.0
    factorizations_a = factorizations_b = 0
    identical = 0
    print(f"{'instance':<32} {'A best s':>10} {'B best s':>10} {'B/A':>6}  x          trace")
    for inst in insts:
        runs = {"a": solver(a, inst), "b": solver(b, inst)}
        if inst.collect_trace:
            plain_runs = {"a": solver(a, inst, False), "b": solver(b, inst, False)}
            plain = {"a": float("inf"), "b": float("inf")}
        best = {"a": float("inf"), "b": float("inf")}
        out = {}
        order = ("a", "b")
        for _ in range(args.repeats):
            for side in order:
                wall, out[side] = timed(runs[side])
                best[side] = min(best[side], wall)
            if inst.collect_trace:
                for side in order:
                    plain[side] = min(plain[side], timed(plain_runs[side])[0])
            order = order[::-1]
        (xa, obj_a, trace_a, counts_a), (xb, obj_b, trace_b, counts_b) = out["a"], out["b"]
        best_a, best_b = best["a"], best["b"]
        same_x = xa.tobytes() == xb.tobytes()
        same_trace = packed_trace(a, trace_a) == packed_trace(b, trace_b)
        same_counts = all(counts_a[k] == counts_b[k] for k in ("cycles", "solves", "trials"))
        identical += same_x and same_trace and same_counts
        total_a += best_a
        total_b += best_b
        factorizations_a += counts_a["factorizations"]
        factorizations_b += counts_b["factorizations"]
        trace_note = ("identical" if same_trace else "DIFFERS") if inst.collect_trace else "-"
        print(f"{inst.label:<32} {best_a:10.4f} {best_b:10.4f} {best_b / best_a:6.3f}  "
              f"{'identical' if same_x else 'DIFFERS':<10} {trace_note}")
        shown = [k for k in counts_a if k != "trials" or inst.kind != "box"]
        print(f"{'  counts A/B':<32} "
              + ", ".join(f"{k} {counts_a[k]}/{counts_b[k]}" for k in shown)
              + f", us a step {best_a / counts_a['solves'] * 1e6:.2f}"
              + f"/{best_b / counts_b['solves'] * 1e6:.2f}"
              + ("" if same_counts else "  COUNTS DIFFER"))
        if not (same_x and same_trace):
            print(f"{'  change':<32} max |x_A - x_B| {abs(xa - xb).max(initial=0.0):.3g}, "
                  f"|objective_A - objective_B| {abs(obj_a - obj_b):.3g}")
        if inst.collect_trace:
            per_row_a = (best_a - plain["a"]) / len(trace_a) * 1e6
            per_row_b = (best_b - plain["b"]) / len(trace_b) * 1e6
            print(f"{'  trace cost, us per row':<32} {per_row_a:10.2f} {per_row_b:10.2f}  "
                  f"{'':6}  untraced best {plain['a']:.4f} s and {plain['b']:.4f} s, "
                  f"{len(trace_b)} rows")
    print(f"{'total':<32} {total_a:10.4f} {total_b:10.4f} {total_b / total_a:6.3f}  "
          f"{identical}/{len(insts)} identical with the same counts, "
          f"factorizations {factorizations_a}/{factorizations_b}")
    return 0 if identical == len(insts) else 1


if __name__ == "__main__":
    sys.exit(main())

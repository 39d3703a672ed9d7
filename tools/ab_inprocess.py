"""In-process A/B timing of two boxipm checkouts on the benchmark's instances.

    python3 tools/ab_inprocess.py CHECKOUT_A CHECKOUT_B [--workload small_box]
        [--seed 1] [--repeats 7]

Loads ``src/boxipm`` of each checkout into one process, under the package
names ``boxipm_a`` and ``boxipm_b``, and solves every instance of the
workload (``perfbench/workloads.py`` of the checkout that holds this
script, imported read-only) with A and B in turn, ``--repeats`` times
each.  Prints, per instance, the best wall time of each side, their
ratio B/A and whether the two solutions are bit-identical, then the
totals of the best times; exits 1 unless every x is bit-identical.

Alternating within one process cancels most of the machine's speed drift:
on a 2-vCPU VM the speed of Python-bound code moves by up to 2x between
process runs, which makes a comparison of separate runs unreliable.  The
instances are built from the generators' arrays directly, not parsed from
problem-file text as the benchmark does; the serialization is bit-exact,
so both see the same data.
"""

from __future__ import annotations

import argparse
import importlib.util
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


def solver(bx, inst):
    """A function that solves ``inst`` with the package ``bx`` and returns x."""
    if inst.kind == "box":
        p = bx.BoxQP(Q=inst.Q, c=inst.c, A=inst.A, b=inst.b, tol=inst.tol)
        return lambda: bx.solve(p, mode=inst.mode, collect_trace=inst.collect_trace).x
    p = bx.StandardQP(Qt=inst.Q, ct=inst.c, At=inst.A, bt=inst.b)
    return lambda: bx.solve_standard(p, tol=inst.tol, pi="auto", mode=inst.mode).x


def timed(run) -> tuple[float, object]:
    """(wall time, x) of one solve."""
    t0 = time.perf_counter()
    x = run()
    return time.perf_counter() - t0, x


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
    identical = 0
    print(f"{'instance':<32} {'A best s':>10} {'B best s':>10} {'B/A':>6}  x")
    for inst in insts:
        run_a, run_b = solver(a, inst), solver(b, inst)
        best_a = best_b = float("inf")
        for _ in range(args.repeats):
            wall, xa = timed(run_a)
            best_a = min(best_a, wall)
            wall, xb = timed(run_b)
            best_b = min(best_b, wall)
        same = xa.tobytes() == xb.tobytes()
        identical += same
        total_a += best_a
        total_b += best_b
        print(f"{inst.label:<32} {best_a:10.4f} {best_b:10.4f} {best_b / best_a:6.3f}  "
              f"{'identical' if same else 'DIFFERS'}")
    print(f"{'total':<32} {total_a:10.4f} {total_b:10.4f} {total_b / total_a:6.3f}  "
          f"{identical}/{len(insts)} identical")
    return 0 if identical == len(insts) else 1


if __name__ == "__main__":
    sys.exit(main())

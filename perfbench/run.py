"""boxipm benchmark: time to a checked solution on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file.  One caller solves the workload's instances one after
another in a closed loop, in one process, with BLAS left at its default
thread count.  Every solve is checked against a reference computed outside
the timed region.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer metrics of a traced run (see README.md).  The
last line of standard output is one JSON object; the full record, the
problem files and the spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from child import ROOT, import_boxipm

OUT_ROOT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_REPEATS = 5
# Every instance is solved at least twice, so each has a median of its own.
MIN_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "solve_s_total": "s",
    "cpu_s_total": "s",
    "solved_frac": "frac",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_share")):
        return "frac"
    if name.endswith("_gflop_computed"):
        return "gflop"
    return "count"


@dataclass
class Sample:
    """One timed solve and the outcome of its check."""

    instance: int
    wall: float
    cpu: float
    problems: list[str]  # empty when the solve passed its check
    counts: list[int] | None  # K, M, cycles, linear solves (, pi trials)


def machine_facts(boxipm) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "blas": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "boxipm": boxipm.__version__,
    }


def blas_threads() -> list[dict]:
    """Thread count of every loaded OpenBLAS, read from the library itself,
    or else the thread variables of the environment."""
    found = []
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype, fn.argtypes = ctypes.c_int, []
                found.append({"library": Path(path).name, "threads": fn(), "source": sym})
                break
    if not found:
        env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
        found.append({"library": "unknown", "threads": env or "unset", "source": "environment"})
    return found


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def write_instances(boxipm, insts, out: Path) -> list[Path]:
    files = []
    for i, inst in enumerate(insts):
        pf = boxipm.ProblemFile(
            format_version=1, kind=inst.kind, n=len(inst.c), m=len(inst.b),
            Q=inst.Q, c=inst.c, A=inst.A, b=inst.b, tol=inst.tol,
        )
        path = out / f"{i:02d}-{inst.label}.qp"
        path.write_text(boxipm.serialize_problem(pf))
        files.append(path)
    return files


def time_setup(files: list[Path]) -> float:
    """Wall seconds for a fresh interpreter to import boxipm and parse and
    validate the workload's problem files."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(CHILD), "setup", *map(str, files)], check=True)
    return time.perf_counter() - t0


def single_thread_solve(path: Path, mode: str) -> dict:
    """One solve in a subprocess with OPENBLAS_NUM_THREADS=1 (informative)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(CHILD), "solve", str(path), mode],
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


class Bench:
    """One run of one workload: its instances, references, solves and checks."""

    def __init__(self, boxipm, checks, insts, texts):
        self.bx = boxipm
        self.checks = checks
        self.insts = insts
        self.texts = texts
        self.problems = [self.load(t) for t in texts]
        # Built before any timing, so that only one report is alive at a time
        # and the peak memory does not depend on the number of passes.
        self.refs = [
            checks.reference(inst.reference, (p, inst.u_star) if inst.kind == "standard" else p)
            for inst, p in zip(insts, self.problems)
        ]

    def load(self, text, tracer=None):
        if tracer is None:
            pf = self.bx.parse_problem(text)
        else:
            pf = tracer.call("probfile.parse", self.bx.parse_problem, text)
        return pf.to_boxqp() if pf.kind == "box" else pf.to_standardqp()

    def solve(self, i, p, tracer=None):
        """Solve through the public API; a traced solve is the root span."""
        inst = self.insts[i]
        kwargs = {"mode": inst.mode, "collect_trace": inst.collect_trace}
        if isinstance(p, self.bx.BoxQP):
            name, fn = "solver.solve", self.bx.solve
        else:
            name, fn = "solver.solve_standard", self.bx.solve_standard
            kwargs.update(tol=inst.tol, pi="auto")
        if tracer is None:
            return fn(p, **kwargs)
        return tracer.call(name, fn, p, **kwargs)

    def one_pass(self, tracer=None) -> list[Sample]:
        rows = []
        for i, text in enumerate(self.texts):
            if tracer is not None:
                tracer.solve_id += 1
                p = self.load(text, tracer)
            else:
                p = self.problems[i]
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                report = self.solve(i, p, tracer)
            except self.bx.BoxIpmError as exc:
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                rows.append(Sample(i, wall, cpu, [f"{type(exc).__name__}: {exc}"], None))
                continue
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            rows.append(Sample(i, wall, cpu, self.check(i, p, report), counts(report)))
        return rows

    def check(self, i, p, report) -> list[str]:
        inst, ref = self.insts[i], self.refs[i]
        if isinstance(p, self.bx.BoxQP):
            return self.checks.check_box(report, p, ref, inst.mode, inst.collect_trace)
        return self.checks.check_standard(report, p, inst.tol, ref, inst.mode)


def counts(r) -> list[int]:
    """Exact counts of one solve: K, M, cycles, linear solves (and pi trials)."""
    if hasattr(r, "trials"):
        b = r.box_report
        return [b.params.K, b.params.M, b.iterations_pd, b.linear_solves, r.trials]
    return [r.params.K, r.params.M, r.iterations_pd, r.linear_solves]


def count_drift(bench: Bench, samples: list[Sample]) -> tuple[dict, list[str]]:
    seen, drift = {}, []
    for s in samples:
        label = bench.insts[s.instance].label
        c = s.counts
        if c is None:
            continue
        if label in seen and seen[label] != c:
            drift.append(f"{label}: counts {c} differ from {seen[label]} in the same run")
        seen.setdefault(label, c)
    return seen, drift


def compare_with_last_run(record: Path, key: str, counts, digest: str) -> list[str]:
    """Counts must repeat exactly across runs of the same source and seed."""
    old = json.loads(record.read_text()) if record.exists() else {}
    drift = []
    if old.get("src_digest") == digest and key in old and old[key] != counts:
        drift.append(f"{key} differ from the last run of this seed: {old[key]} then, {counts} now")
    old = old if old.get("src_digest") == digest else {"src_digest": digest}
    old[key] = counts
    record.write_text(json.dumps(old, indent=1, sort_keys=True))
    return drift


def more_passes(done: int, elapsed: float, seconds: float) -> bool:
    """At least MIN_PASSES, then stop at the pass end nearest to ``seconds``."""
    return done < MIN_PASSES or elapsed + 0.5 * elapsed / done < seconds


def best_times(samples: list[Sample], attr: str) -> list[float]:
    """Each instance's best ``wall`` or ``cpu`` over its repetitions.

    The solves are deterministic, and the machine's speed drifts in phases
    of about a minute; the best repetition is the one least slowed by that
    drift, and it varies less from run to run than a mean or a median.
    """
    by_instance = {}
    for s in samples:
        by_instance.setdefault(s.instance, []).append(getattr(s, attr))
    return [min(v) for v in by_instance.values()]


def run(wl, seed: int, seconds: float, trace: bool, out_root: Path = OUT_ROOT) -> dict:
    """Run workload ``wl`` and return the result object of the last output line."""
    boxipm = import_boxipm()
    # These import boxipm themselves, so they come after the check of where
    # it is imported from.
    import checks
    from tracer import COUNT_METRICS, Tracer, combine_passes

    out = out_root / f"{wl.name}-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    insts = workloads.instances(wl, seed)
    files = write_instances(boxipm, insts, out)
    texts = [f.read_text() for f in files]
    record = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine_facts(boxipm),
              "instances": [f.name for f in files]}
    print("machine " + json.dumps(record["machine"]), flush=True)

    setup = [] if trace else [time_setup(files) for _ in range(SETUP_REPEATS)]
    bench = Bench(boxipm, checks, insts, texts)
    passes: list[list[Sample]] = []
    traced: list[list[Sample]] = []
    layer_passes = []
    tracer = Tracer()

    def traced_pass():
        lo = len(tracer.spans)
        tracer.install()
        try:
            traced.append(bench.one_pass(tracer))
        finally:
            tracer.uninstall()
        layer_passes.append(tracer.layer_metrics(lo, len(tracer.spans)))

    t0 = time.perf_counter()
    while True:
        passes.append(bench.one_pass())
        if trace:
            traced_pass()
        if not more_passes(len(passes), time.perf_counter() - t0, seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples = [s for p in passes + traced for s in p]
    seen, drift = count_drift(bench, samples)
    digest = src_digest()
    counts_file = out / "counts.json"
    drift += compare_with_last_run(counts_file, "solve_counts", seen, digest)

    failed = [s for s in samples if s.problems]
    attempted = len(samples)
    pass_wall = [sum(s.wall for s in p) for p in passes]
    if trace:
        layer, layer_drift = combine_passes(layer_passes)
        drift += layer_drift
        layer_counts = {k: layer[k] for k in COUNT_METRICS}
        drift += compare_with_last_run(counts_file, "layer_counts", layer_counts, digest)
        untraced_total = sum(best_times([s for p in passes for s in p], "wall"))
        traced_total = sum(best_times([s for p in traced for s in p], "wall"))
        layer["trace.overhead_frac"] = traced_total / untraced_total - 1.0
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layer.items()}
        tracer.write(out / "spans.csv.gz")
    else:
        untraced = [s for p in passes for s in p]
        best_wall = best_times(untraced, "wall")
        values = {
            "setup_s": statistics.median(setup),
            "solve_s_p50": statistics.median(best_wall),
            "solve_s_total": sum(best_wall),
            "cpu_s_total": sum(best_times(untraced, "cpu")),
            "solved_frac": 1.0 - len(failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        record["setup_samples_s"] = setup
        if wl.single_thread_reference:
            st = single_thread_solve(files[0], insts[0].mode)
            default = statistics.median(s.wall for s in samples if s.instance == 0)
            record["single_thread_reference"] = {
                "instance": files[0].name, "OPENBLAS_NUM_THREADS=1 wall_s": st["wall_s"],
                "default_threads_wall_s": default, "linear_solves": st["linear_solves"]}
            print("info single-thread reference (OPENBLAS_NUM_THREADS=1, not gated): "
                  f"{files[0].name} {st['wall_s']:.3f} s vs {default:.3f} s with default BLAS threads")

    record.update({
        "passes": len(passes), "traced_passes": len(traced), "solves": attempted,
        "failed_frac": len(failed) / attempted,
        "pass_wall_s": pass_wall,
        "solve_wall_s": [[bench.insts[s.instance].label, s.wall, s.cpu] for p in passes for s in p],
        "counts": seen, "drift": drift,
        "failures": [{"instance": files[s.instance].name, "problems": s.problems} for s in failed],
        "metrics": metrics,
    })
    (out / f"result-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    for s in failed:
        print(f"FAILED {files[s.instance].name}: {'; '.join(s.problems)}")
    for d in drift:
        print(f"DRIFT {d}")
    print(f"info {wl.name} seed {seed}: {attempted} solves in {len(passes)} untraced and "
          f"{len(traced)} traced passes over {len(insts)} instances; "
          f"failed_frac = {len(failed) / attempted:.4g}")
    for k, m in metrics.items():
        print(f"metric {k} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": not failed and not drift,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

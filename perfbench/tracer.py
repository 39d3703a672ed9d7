"""Spans around the calls into each ``boxipm`` module, recorded from outside.

The traced run replaces the names the solver looks up (``boxipm.solver.eval_F``,
the ``boxipm.linalg.QRFactor`` methods, ...) with timing wrappers, and puts
back the originals afterwards; nothing under ``src/`` knows it is traced.
Spans are kept in memory as ``[name, start, end, parent, solve_id, note]``
and written out once the run is over.  A layer's self time is its span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import gzip
import statistics
import time

import boxipm.linalg
import boxipm.problem
import boxipm.solver

NAME, START, END, PARENT, SOLVE_ID, NOTE = range(6)


def _qr_dim(args, kwargs, out):
    G = args[1] if len(args) > 1 else kwargs["G"]
    return len(G)


def _solve_counts(args, kwargs, report):
    return (report.linear_solves, report.iterations_pd)


def _cascade_counts(args, kwargs, mp):
    return (mp.K, mp.M)


def _pi_trials(args, kwargs, report):
    return report.trials


# What a span keeps from its call and result, by span name.
NOTES = {
    "linalg.factor": _qr_dim,
    "params.cascade": _cascade_counts,
    "solver.solve": _solve_counts,
    "solver.solve_standard": _pi_trials,
}

# (owner, attribute, span name) of every name the solver looks up.
PATCHES = (
    (boxipm.linalg.QRFactor, "__init__", "linalg.factor"),
    (boxipm.linalg.QRFactor, "solve", "linalg.solve"),
    (boxipm.linalg.QRFactor, "cond_estimate", "linalg.cond_estimate"),
    (boxipm.solver, "eval_F", "kkt.eval_F"),
    (boxipm.solver, "eval_DF", "kkt.eval_DF"),
    (boxipm.solver, "eval_grad_f", "kkt.eval_grad_f"),
    (boxipm.solver, "eval_hess_f", "kkt.eval_hess_f"),
    (boxipm.solver, "compute_params", "params.cascade"),
    (boxipm.solver, "compute_params_practical", "params.cascade"),
    (boxipm.solver, "complementarity_gap", "neighborhoods.complementarity_gap"),
    (boxipm.solver, "transform_standard", "problem.transform_standard"),
    (boxipm.solver, "solve", "solver.solve"),
    (boxipm.problem.BoxQP, "__post_init__", "problem.validate"),
    (boxipm.problem.StandardQP, "__post_init__", "problem.validate"),
)

# Layers that only some workloads call report their time as a share of the
# solve wall time rather than in seconds, so that no reported time reads 0.0
# on every run of the workloads that do not call them.
SHARED_TIME = {
    "linalg.cond_estimate": "linalg.cond_estimate_share",
    "problem.transform_standard": "problem.transform_standard_share",
    "neighborhoods.complementarity_gap": "neighborhoods.complementarity_gap_share",
}
# Times and shares of time: medians over the traced passes.
MEDIAN_METRICS = (
    "linalg.factor_s", "linalg.solve_s", "kkt.eval_F_s", "kkt.eval_DF_s",
    "kkt.primal_eval_s", "solver.self_s", "params.cascade_s",
    "problem.validate_s", "probfile.parse_s", *SHARED_TIME.values(),
)
# Exact: the same in every traced pass.
COUNT_METRICS = (
    "linalg.factor_calls", "linalg.factor_gflop_computed", "linalg.solve_calls",
    "linalg.cond_estimate_calls", "kkt.eval_F_calls", "kkt.eval_DF_calls",
    "solver.linear_solves", "solver.cycles", "solver.pi_trials",
    "params.K", "params.M", "problem.transform_standard_calls",
    "neighborhoods.complementarity_gap_calls",
)


class Tracer:
    """In-memory span recorder; ``install()`` swaps the wrappers in and
    ``uninstall()`` puts the originals back."""

    def __init__(self):
        self.spans: list[list] = []
        self.solve_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.solve_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, out)
            return out

        return traced

    def install(self):
        for owner, attr, name in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one CSV line: name,start,end,parent,solve_id,note."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name,start,end,parent,solve_id,note\n")
            for s in self.spans:
                note = "" if s[NOTE] is None else " ".join(map(str, _as_tuple(s[NOTE])))
                f.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[SOLVE_ID]},{note}\n")

    def layer_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer totals over the spans ``lo:hi`` (one traced pass)."""
        spans = self.spans
        child = {}
        for s in spans[lo:hi]:
            if s[PARENT] >= 0:
                child[s[PARENT]] = child.get(s[PARENT], 0.0) + s[END] - s[START]
        total = dict.fromkeys(MEDIAN_METRICS, 0.0)
        total.update(dict.fromkeys(COUNT_METRICS, 0))
        solve_wall = 0.0
        for i in range(lo, hi):
            name, t0, t1, parent, _, note = spans[i]
            dur = t1 - t0
            if name in SHARED_TIME:
                total[SHARED_TIME[name]] += dur
                total[name + "_calls"] += 1
            elif name == "linalg.factor":
                total["linalg.factor_s"] += dur
                total["linalg.factor_calls"] += 1
                # dgeqp3 plus forming the explicit Q: 4/3 d^3 flops each.
                total["linalg.factor_gflop_computed"] += 8.0 / 3.0 * note**3 / 1e9
            elif name == "linalg.solve":
                total["linalg.solve_s"] += dur
                total["linalg.solve_calls"] += 1
            elif name == "kkt.eval_F":
                total["kkt.eval_F_s"] += dur
                total["kkt.eval_F_calls"] += 1
            elif name == "kkt.eval_DF":
                total["kkt.eval_DF_s"] += dur
                total["kkt.eval_DF_calls"] += 1
            elif name in ("kkt.eval_grad_f", "kkt.eval_hess_f"):
                total["kkt.primal_eval_s"] += dur
            elif name == "params.cascade":
                total["params.cascade_s"] += dur
                total["params.K"] += note[0]
                total["params.M"] += note[1]
            elif name == "problem.validate":
                if parent < 0:  # the workload's own inputs, not a rescaled trial
                    total["problem.validate_s"] += dur
            elif name == "probfile.parse":
                total["probfile.parse_s"] += dur
            elif name.startswith("solver."):
                if parent < 0:
                    solve_wall += dur
                total["solver.self_s"] += dur - child.get(i, 0.0)
                if name == "solver.solve":
                    total["solver.linear_solves"] += note[0]
                    total["solver.cycles"] += note[1]
                else:
                    total["solver.pi_trials"] += note
        for key in SHARED_TIME.values():
            total[key] /= solve_wall
        return total


def _as_tuple(v):
    return v if isinstance(v, tuple) else (v,)


def combine_passes(per_pass: list[dict]) -> tuple[dict, list[str]]:
    """Median of each time or share over the traced passes; counts must agree exactly.

    Returns the combined metrics and a list of counts that drifted.
    """
    out, drift = {}, []
    for key in MEDIAN_METRICS:
        out[key] = statistics.median(p[key] for p in per_pass)
    for key in COUNT_METRICS:
        values = {p[key] for p in per_pass}
        if len(values) > 1:
            drift.append(f"{key} differs between traced passes: {sorted(values)}")
        out[key] = per_pass[0][key]
    return out, drift

"""Seeded instance sets for the benchmark workloads.

Each workload is a fixed list of instances drawn from ``numpy.random``
with the run's seed, in the families the test suite uses.  The generators
are kept here rather than imported from ``tests/`` so that a change to the
test helpers cannot change what the benchmark measures.

Every instance is written out as problem-file text with
``boxipm.serialize_problem`` (bit-exact), and the benchmark solves only
what it parses back from that text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-2


@dataclass(frozen=True)
class Instance:
    """One problem of a workload, as data the program has not seen yet, and
    how the benchmark solves and checks it."""

    label: str
    kind: str  # "box" (boxipm.solve) or "standard" (boxipm.solve_standard, pi="auto")
    Q: np.ndarray
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    mode: str  # solver mode: "stable" or "fast"
    reference: str  # "oracle", "slsqp" or "u_star"
    collect_trace: bool = False
    u_star: np.ndarray | None = None  # known optimum of a standard-form instance
    tol: float = TOL


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # (rng) -> list[Instance]
    single_thread_reference: bool = False  # also time its first solve with OPENBLAS_NUM_THREADS=1


def boxqp_data(rng, n, m, feasible=True, rank=None):
    """PSD instance; b is reachable from the box iff ``feasible``."""
    r = n if rank is None else rank
    B = rng.normal(size=(r, n))
    Q = (B.T @ B) / n
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = A @ rng.uniform(-0.8, 0.8, size=n)
    if not feasible:
        u = rng.normal(size=m)
        u /= np.linalg.norm(u)
        # ||A(x - x0)|| <= 2 sqrt(n) ||A||, so this offset keeps b unreachable.
        b = b + 3.0 * np.sqrt(n) * np.linalg.norm(A) * u
    return Q, c, A, b


def boxqp_interior_infeasible_data(rng, n, m):
    """Infeasible instance with rank-deficient A (rank m-1) whose
    least-squares point lies strictly inside the box."""
    A = rng.normal(size=(m, m - 1)) @ rng.normal(size=(m - 1, n))
    B = rng.normal(size=(n, n))
    Q = (B.T @ B) / n
    c = rng.normal(size=n)
    x0 = rng.uniform(-0.5, 0.5, size=n)
    u = rng.normal(size=m)
    u -= A @ np.linalg.lstsq(A, u, rcond=None)[0]  # offset in null(A')
    u /= np.linalg.norm(u)
    return Q, c, A, A @ x0 + 0.5 * u


def standard_data(rng, n, m, u_max):
    """Standard-form instance whose interior optimum u* has ||u*||_inf = u_max.

    ct puts the objective gradient at u* into the row space of At, so u* is
    stationary on the affine set and, being interior to u >= 0, optimal.
    """
    B = rng.normal(size=(n, n))
    Qt = B.T @ B / n + 0.5 * np.eye(n)
    At = rng.normal(size=(m, n))
    u = rng.uniform(0.1, 0.9, size=n)
    u_star = u * (u_max / u.max())
    ct = At.T @ rng.normal(size=m) - Qt @ u_star
    return Qt, ct, At, At @ u_star, u_star


def _box(label, data, reference, collect_trace=False):
    Q, c, A, b = data
    return Instance(label, "box", Q, c, A, b, "stable", reference, collect_trace)


def small_box_families(rng, sizes=(4, 5, 6)):
    """Stable solves across the degenerate families, checked by the oracle."""
    out = []
    for n in sizes:
        m = max(2, round(0.4 * n))
        out += [
            _box(f"feasible_n{n}", boxqp_data(rng, n, m), "oracle"),
            _box(f"infeasible_n{n}", boxqp_data(rng, n, m, feasible=False), "oracle"),
            _box(f"interior_infeasible_n{n}", boxqp_interior_infeasible_data(rng, n, m), "oracle"),
            _box(f"rank_deficient_q_n{n}", boxqp_data(rng, n, m, rank=n - 1), "oracle"),
        ]
    return out


def standard_auto(rng, n=5, m=2):
    """solve_standard(pi="auto", mode="fast") with a known optimum u*.

    pi = 1, 2, 4, ... is accepted once max_j u_j < 0.95 pi: a norm in
    [2.5, 3.5] needs 3 trials and one in [4.5, 6] needs 4, on every seed.
    """
    out = []
    for lo, hi in ((2.5, 3.5), (4.5, 6.0)):
        u_max = float(rng.uniform(lo, hi))
        Qt, ct, At, bt, u_star = standard_data(rng, n, m, u_max)
        out.append(Instance(f"standard_n{n}_u{u_max:.2f}", "standard", Qt, ct, At, bt,
                            "fast", "u_star", u_star=u_star))
    return out


def mid_box(rng, n=32, m=13):
    """Stable solves at N = 3n + m = 109, checked by bvls + SLSQP."""
    return [
        _box(f"feasible_n{n}", boxqp_data(rng, n, m), "slsqp"),
        _box(f"infeasible_n{n}", boxqp_data(rng, n, m, feasible=False), "slsqp"),
    ]


def traced_box(rng, n=20, m=8):
    """collect_trace=True: the only caller of QRFactor.cond_estimate."""
    return [
        _box(f"traced_feasible_n{n}", boxqp_data(rng, n, m), "slsqp", collect_trace=True),
        _box(f"traced_interior_infeasible_n{n}", boxqp_interior_infeasible_data(rng, n, m),
             "slsqp", collect_trace=True),
    ]


# Two workloads, so that each run can measure long enough for steady
# numbers: "small_box" is bound by per-step Python costs, "mid_box" by dense
# linear algebra.  Why each part is there: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("small_box", lambda rng: small_box_families(rng) + standard_auto(rng)),
        Workload("mid_box", lambda rng: mid_box(rng) + traced_box(rng), single_thread_reference=True),
    )
}


def instances(workload: Workload, seed: int) -> list[Instance]:
    """The workload's instance list for ``seed``; same seed, same data."""
    return workload.make(np.random.default_rng([seed, _name_key(workload.name)]))


def _name_key(name: str) -> int:
    # Distinct streams per workload without relying on Python's salted hash().
    return int.from_bytes(name.encode(), "little") % (2**63)

"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "small_box": lambda rng: workloads.small_box_families(rng, sizes=(2,)) + workloads.standard_auto(rng, n=2, m=1),
    "mid_box": lambda rng: workloads.mid_box(rng, n=3, m=2) + workloads.traced_box(rng, n=3, m=2),
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], make=TINY[name])


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_emitted_with_its_unit(tmp_path, name, trace):
    result = run.run(tiny(name), seed=0, seconds=0.01, trace=bool(trace), out_root=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    record = json.loads((tmp_path / f"{name}-seed0" / f"result-trace{trace}.json").read_text())
    assert {"nproc", "cpu_model", "blas", "python", "numpy", "scipy"} <= set(record["machine"])


def test_counts_repeat_across_runs_and_drift_is_flagged(tmp_path):
    wl = tiny("small_box")
    out = tmp_path / "small_box-seed3"
    for _ in range(2):
        result = run.run(wl, seed=3, seconds=0.01, trace=True, out_root=tmp_path)
        assert result["correct"]
    assert json.loads((out / "result-trace1.json").read_text())["drift"] == []

    counts = json.loads((out / "counts.json").read_text())
    label = sorted(counts["solve_counts"])[0]
    counts["solve_counts"][label][-1] += 1  # as if linear_solves had changed
    (out / "counts.json").write_text(json.dumps(counts))
    result = run.run(wl, seed=3, seconds=0.01, trace=False, out_root=tmp_path)
    assert not result["correct"] and result["failed"] == 0
    assert json.loads((out / "result-trace0.json").read_text())["drift"]


@pytest.mark.parametrize("perturb", ["onto_the_box_face", "to_the_origin"])
def test_perturbed_x_counts_as_failed(tmp_path, monkeypatch, perturb):
    import boxipm

    solve = boxipm.solve

    def perturbed_solve(p, **kwargs):
        report = solve(p, **kwargs)
        x = report.x.copy()
        if perturb == "onto_the_box_face":
            x[0] = 1.0
        else:
            x[:] = 0.0
        return dataclasses.replace(report, x=x)

    monkeypatch.setattr(boxipm, "solve", perturbed_solve)
    result = run.run(tiny("mid_box"), seed=0, seconds=0.01, trace=False, out_root=tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["solved_frac"]["value"] == 0.0
    record = json.loads((tmp_path / "mid_box-seed0" / "result-trace0.json").read_text())
    assert record["failed_frac"] == 1.0


def test_same_seed_same_instances():
    for name, wl in workloads.WORKLOADS.items():
        a, b = workloads.instances(wl, 5), workloads.instances(wl, 5)
        assert all(np.array_equal(x.Q, y.Q) and np.array_equal(x.b, y.b) for x, y in zip(a, b)), name

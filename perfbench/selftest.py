"""Self-tests of the benchmark, run at a small size (a 150 s scenario instead of 600 s).

    python3 -m pytest perfbench/selftest.py -q

They check that every metric in BENCHMARK.json is printed with its unit,
that traced spans nest, that self times add up to the traced job's measured
wall time, and
that the SVM non-convergence and fold-failure counts of the traced run match
direct calls to ``grid_search`` and ``fit`` on the same input.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, acceptance_scenario  # noqa: E402

SMALL_DURATION_S = 150.0
SPEC = run.benchmark_spec()


def _small_run(name: str, trace: bool) -> tuple[dict, list[str], dict]:
    return run.run(WORKLOADS[name], seed=1, seconds=0.0, trace=trace, duration_s=SMALL_DURATION_S)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def untraced(request):
    return _small_run(request.param, trace=False)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    result, lines, record = _small_run(request.param, trace=True)
    exported = [
        (job, json.loads((run.WORK / request.param / f"spans-{job['index']}.json").read_text()))
        for job in record["jobs"]
        if job["traced"]
    ]
    return result, lines, exported


def test_end_to_end_metrics_printed_with_units(untraced):
    result, lines, record = untraced
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    printed = {line.split(" = ")[0].strip(): line.rsplit(" ", 1)[1] for line in lines if " = " in line}
    quality = {"detect-svm-45hz": ["test_accuracy"], "count-raw-45hz": ["test_rmse", "test_mae"]}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    expected["fail_ratio"] = "1"
    for name in quality.get(record["workload"], []):
        expected[name] = run.QUALITY_UNITS[name]
    assert {name: printed.get(name) for name in expected} == expected
    assert json.loads(json.dumps(result)) == result


def test_per_layer_metrics_come_from_the_traced_run(traced):
    result, lines, exported = traced
    assert result["correct"], lines
    assert exported, "no traced job ran"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }


def test_spans_nest(traced):
    for _, trace in traced[2]:
        by_id = {s["id"]: s for s in trace["spans"]}
        roots = [s for s in trace["spans"] if s["parent"] is None]
        assert [r["name"] for r in roots] == ["job"]
        for span in trace["spans"]:
            assert span["job"] == trace["job"]
            assert span["start"] <= span["end"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"], span
        siblings: dict = {}
        for span in trace["spans"]:
            siblings.setdefault(span["parent"], []).append(span)
        for group in siblings.values():
            group.sort(key=lambda s: s["start"])
            assert all(a["end"] <= b["start"] for a, b in zip(group, group[1:]))


def test_self_times_sum_to_traced_job_time(traced):
    result, _, exported = traced
    overhead = abs(result["metrics"]["trace.overhead_s"]["value"])
    for job, trace in exported:
        total_self = sum(s["self_s"] for s in trace["spans"])
        assert all(s["self_s"] >= -1e-9 for s in trace["spans"])
        assert abs(total_self - job["wall_s"]) <= max(overhead, 1e-3)  # the job's own clock
        assert sum(trace["self_s"].values()) == pytest.approx(total_self)


def test_svm_counts_match_direct_calls(monkeypatch):
    from rssi_occupancy import evaluation
    from rssi_occupancy.models import ModelSpec, fit
    from rssi_occupancy.simulator import simulate

    data = simulate(acceptance_scenario(45.0, seed=1, duration_s=SMALL_DURATION_S))
    original = evaluation.grid_search
    searches = []

    def recording(*args):
        searches.append(args)
        return original(*args)

    monkeypatch.setattr(evaluation, "grid_search", recording)
    tracer = spans.Tracer("direct")
    restore = tracer.install(spans.program_layers())
    try:
        config = evaluation.PipelineConfig(families=("svm",), k=3, seed=7)
        evaluation.run_pipeline(data, "detection", "features", config)
    finally:
        restore()
    traced = spans.layer_metrics(tracer.spans)

    [(family, grid, train, k, seed)] = searches
    search = original(family, grid, train, k, seed)
    y = train.labels_for("classification")
    models = []
    for params in grid:
        for fit_idx, _ in evaluation.kfold_split(train.n_rows, k, seed):
            try:
                models.append(fit(ModelSpec(family, dict(params), seed), train.rows[fit_idx], y[fit_idx]))
            except Exception:  # grid_search counts any exception as a failed fold
                pass
    models.append(fit(ModelSpec(family, search.best_params, seed), train.rows, y))
    unconverged = sum(any(not m.converged for m in model.inner.machines) for model in models)

    assert traced["evaluation.fold_fits"] == len(grid) * k
    assert traced["evaluation.folds_failed"] == sum(s.n_failed for s in search.scores)
    assert traced["models.svm.fits"] == len(models)
    assert traced["models.svm.fits_unconverged"] == unconverged


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "featurize-200hz", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

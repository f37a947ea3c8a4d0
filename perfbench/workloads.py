"""The benchmark's workloads: what set-up renders, which job runs, and how its output is checked.

Every workload renders the scenario of the acceptance criteria (4
transmitters, 600 s, counts 0-3 cycling every 75 s) at the workload's
sampling rate, with the benchmark's --seed as the scenario seed. The job then
starts from the rendered CSV and sidecar on disk; the pipeline itself always
runs with seed 7 and k = 3, as in the acceptance criteria.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

MIN_DETECTION_ACCURACY = 0.95  # acceptance criterion 5
FEATURES_PER_TRANSMITTER = 56


class CheckFailed(Exception):
    """A job's output is wrong."""


def acceptance_scenario(sampling_hz: float, seed: int, duration_s: float = 600.0):
    """``tests/test_acceptance.py::acceptance_scenario`` with the seed as an argument.

    ``duration_s`` is shortened only by the benchmark's self-tests.
    """
    from rssi_occupancy.simulator import BodyEffectParams, PathLossParams, ScenarioConfig

    events = tuple((float(t), (t // 75) % 4) for t in range(0, int(duration_s), 75))
    return ScenarioConfig(
        transmitters=(
            ("C4:64:E3:0A:12:01", 100),
            ("C4:64:E3:0A:12:02", 180),
            ("C4:64:E3:0A:12:03", 320),
            ("C4:64:E3:0A:12:04", 500),
        ),
        sampling_hz=sampling_hz,
        duration_s=duration_s,
        schedule=events,
        path_loss=PathLossParams(
            pl0_dbm_at_d0=-45.0, d0_cm=100.0, exponent=2.0, shadow_sigma_db=1.0
        ),
        body_effect=BodyEffectParams(
            atten_db_per_person=6.0, extra_sigma_db_per_person=2.0, motion_amp_db=1.5
        ),
        seed=seed,
    )


def _report(out_dir: Path, family: str) -> tuple[dict, dict]:
    """The report's test metrics of its only family, and the window count."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    families = [f["family"] for f in report["families"]]
    if families != [family]:
        raise CheckFailed(f"report holds families {families}, expected [{family!r}]")
    return report["families"][0]["test"], {"windows": report["fingerprint"]["n_windows"]}


def check_detection(out_dir: Path, scenario) -> dict:
    test, quality = _report(out_dir, "svm")
    if not test["accuracy"] >= MIN_DETECTION_ACCURACY:
        raise CheckFailed(f"test accuracy {test['accuracy']} < {MIN_DETECTION_ACCURACY}")
    return {**quality, "test_accuracy": test["accuracy"]}


def check_counting(out_dir: Path, scenario) -> dict:
    test, quality = _report(out_dir, "random_forest")
    if not (math.isfinite(test["rmse"]) and math.isfinite(test["mae"])):
        raise CheckFailed(f"non-finite counting error {test}")
    return {**quality, "test_rmse": test["rmse"], "test_mae": test["mae"]}


def check_features(out_dir: Path, scenario) -> dict:
    lines = (out_dir / "features.csv").read_text(encoding="utf-8").splitlines()
    n_features = FEATURES_PER_TRANSMITTER * len(scenario.transmitters)
    header = lines[0].split(",")
    if len(header) != n_features + 2 or header[-2:] != ["label_occupancy", "label_count"]:
        raise CheckFailed(
            f"header has {len(header)} columns, expected {n_features} features + 2 labels"
        )
    window = round(scenario.sampling_hz)
    expected_rows = round(scenario.duration_s * scenario.sampling_hz) // window
    if len(lines) - 1 != expected_rows:
        raise CheckFailed(f"{len(lines) - 1} rows, expected {expected_rows}")
    for number, line in enumerate(lines[1:], start=2):
        values = line.split(",")
        if len(values) != len(header):
            raise CheckFailed(f"line {number} has {len(values)} fields")
        if not all(math.isfinite(float(v)) for v in values[:n_features]):
            raise CheckFailed(f"line {number} holds a non-finite feature")
    return {"windows": expected_rows}


@dataclass(frozen=True)
class Workload:
    name: str
    sampling_hz: float
    artifacts: tuple[str, ...]
    check: object  # check(out_dir, scenario) -> quality metrics; raises CheckFailed
    command: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="detect-svm-45hz",
            sampling_hz=45.0,
            artifacts=("report.json", "report.scores.csv"),
            check=check_detection,
            command="rssi-occupancy evaluate dataset.csv --task detection --models svm --k 3 "
            "--seed 7 --out out/report.json",
        ),
        Workload(
            name="count-raw-45hz",
            sampling_hz=45.0,
            artifacts=("report.json", "report.scores.csv"),
            check=check_counting,
            command="run_pipeline(counting, raw, random_forest fixed to n_trees=50 depth=8, "
            "k=3, seed=7), then the report and scores CSV that evaluate writes",
        ),
        Workload(
            name="featurize-200hz",
            sampling_hz=200.0,
            artifacts=("features.csv",),
            check=check_features,
            command="rssi-occupancy featurize dataset.csv --out out/features.csv",
        ),
    )
}

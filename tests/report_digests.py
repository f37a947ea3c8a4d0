"""Print the sha256 of every rendered dataset and every pipeline report, then a digest of each set.

Run from the repository root::

    PYTHONPATH=src python tests/report_digests.py

Two commits that print the same lines render the same CSV and sidecar bytes
and write the same report bytes for these runs, so a change meant to keep
every byte can be checked with one command on each side. pytest does not
collect this file.

- Renders: ``serialize_dataset`` + ``serialize_sidecar`` of the acceptance
  scenario at 20, 45, 100 and 200 Hz with scenario seeds 1 and 7, of the
  harder scenario (attenuation 0.5, shadow 4, extra noise 0.5, motion 0.3 dB)
  at 45 Hz, and of the acceptance room left empty at 20 Hz.
- Reports: ``to_json()`` + ``scores_csv()`` of ``run_pipeline`` (k=3,
  seed=7) on the acceptance scenario at 20, 45 and 200 Hz with scenario seeds
  1 and 7: detection with every classifier, counting with every regressor,
  and counting on raw samples with the forest fixed at 50 trees of depth 8.
"""

import hashlib
from dataclasses import replace

from test_acceptance import acceptance_scenario

from rssi_occupancy.dataset import serialize_dataset, serialize_sidecar
from rssi_occupancy.evaluation import PipelineConfig, run_pipeline
from rssi_occupancy.simulator import BodyEffectParams, simulate

SCENARIO_SEEDS = (1, 7)
PIPELINES = (
    ("detection", "features", {}),
    ("counting", "features", {}),
    (
        "counting",
        "raw",
        dict(families=("random_forest",), grids={"random_forest": [{"n_trees": 50, "depth": 8}]}),
    ),
)


def scenario(sampling_hz, seed):
    return replace(acceptance_scenario(sampling_hz), seed=seed)


def renders():
    for sampling_hz in (20.0, 45.0, 100.0, 200.0):
        for seed in SCENARIO_SEEDS:
            yield f"acceptance {sampling_hz:g} Hz seed {seed}", scenario(sampling_hz, seed)
    base = acceptance_scenario(45.0)
    yield "harder 45 Hz seed 7", replace(
        base,
        path_loss=replace(base.path_loss, shadow_sigma_db=4.0),
        body_effect=BodyEffectParams(0.5, 0.5, 0.3),
    )
    yield "empty room 20 Hz seed 7", replace(acceptance_scenario(20.0), schedule=())


def render_texts():
    for name, config in renders():
        dataset = simulate(config)
        yield name, serialize_dataset(dataset) + serialize_sidecar(dataset)


def report_texts():
    for sampling_hz in (20.0, 45.0, 200.0):
        for seed in SCENARIO_SEEDS:
            dataset = simulate(scenario(sampling_hz, seed))
            for task, representation, settings in PIPELINES:
                config = PipelineConfig(k=3, seed=7, **settings)
                report = run_pipeline(dataset, task, representation, config)
                name = f"{task}/{representation} {sampling_hz:g} Hz seed {seed}"
                yield name, report.to_json() + report.scores_csv()


def print_digests(kind, texts):
    digests = []
    for name, text in texts:
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        print(f"{kind} {digests[-1]}  {name}", flush=True)
    print(f"{kind} all {hashlib.sha256(' '.join(digests).encode()).hexdigest()}", flush=True)


if __name__ == "__main__":
    print_digests("render", render_texts())
    print_digests("report", report_texts())

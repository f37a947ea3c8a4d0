"""One benchmark job in a fresh process, as a user would start it.

    python3 job.py WORKLOAD DATASET_CSV OUT_DIR [--spans FILE --job-id ID]

``run.py`` starts it from the workload's work directory, after set-up has
written DATASET_CSV and its sidecar there. The last line of stdout is a JSON
object with the job's exit code, its wall time, its CPU time, the
``time.monotonic()`` stamps of its start and end (for the CPU speed probe
that ``run.py`` keeps running beside it, see cpuprobe.py) and the process's
peak resident memory. With --spans the job runs under the tracer and writes
its spans to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import spans  # noqa: E402  (this file's directory is sys.path[0])
from rssi_occupancy import cli, dataset, evaluation  # noqa: E402


def detect_svm(dataset_csv: str, out_dir: str) -> int:
    return cli.main(
        ["evaluate", dataset_csv, "--task", "detection", "--models", "svm", "--k", "3",
         "--seed", "7", "--out", f"{out_dir}/report.json"]
    )


def count_raw_forest(dataset_csv: str, out_dir: str) -> int:
    """``run_pipeline`` with criterion 8's fixed forest; writes what ``evaluate`` writes.

    The CLI cannot fix a grid, so this job calls the library as a script would.
    """
    sidecar = str(Path(dataset_csv).with_suffix(".sidecar"))
    meta = dataset.parse_sidecar(Path(sidecar).read_text(encoding="utf-8"))
    data = dataset.parse_dataset(Path(dataset_csv).read_text(encoding="utf-8"), meta)
    config = evaluation.PipelineConfig(
        families=("random_forest",),
        k=3,
        seed=7,
        grids={"random_forest": [{"n_trees": 50, "depth": 8}]},
    )
    report = evaluation.run_pipeline(data, "counting", "raw", config)
    report.run_config = {
        "dataset": dataset_csv,
        "sidecar": sidecar,
        "task": "counting",
        "representation": "raw",
        "models": ["random_forest"],
        "window_s": config.window_s,
        "k": config.k,
        "seed": config.seed,
        "split": config.split_mode,
    }
    write_artifact(Path(out_dir) / "report.json", report.to_json())
    write_artifact(Path(out_dir) / "report.scores.csv", report.scores_csv())
    print(report.summary())
    return 0


def featurize(dataset_csv: str, out_dir: str) -> int:
    return cli.main(["featurize", dataset_csv, "--out", f"{out_dir}/features.csv"])


def write_artifact(path: Path, text: str) -> None:
    """Atomic write, as the CLI writes its artifacts."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


JOBS = {
    "detect-svm-45hz": detect_svm,
    "count-raw-45hz": count_raw_forest,
    "featurize-200hz": featurize,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(JOBS))
    parser.add_argument("dataset")
    parser.add_argument("out_dir")
    parser.add_argument("--spans", default=None, help="trace the job and write its spans here")
    parser.add_argument("--job-id", default="job")
    args = parser.parse_args(argv)
    job = JOBS[args.workload]

    tracer = spans.Tracer(args.job_id)
    own_writer = (sys.modules[__name__], "write_artifact", "cli.write", spans.bytes_written)
    restore = tracer.install([*spans.program_layers(), own_writer] if args.spans else [])
    try:
        started, cpu_started = time.monotonic(), time.process_time()
        with tracer.span("job"):
            exit_code = job(args.dataset, args.out_dir)
        cpu_s, ended = time.process_time() - cpu_started, time.monotonic()
    finally:
        restore()
    if args.spans:
        Path(args.spans).write_text(json.dumps(tracer.export()), encoding="utf-8")

    print(json.dumps({
        "exit_code": exit_code,
        "started": started,
        "ended": ended,
        "wall_s": ended - started,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(),
    }))
    return exit_code


def peak_rss_mb() -> float:
    """This process's peak resident memory in MiB.

    The kernel's high-water mark of this process's own address space; unlike
    ``ru_maxrss`` it leaves out the memory of the parent that started it.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    raise SystemExit(main())

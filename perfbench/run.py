"""Benchmark of the rssi-occupancy offline pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
Set-up renders the workload's dataset from --seed and writes it to disk,
several times, and reports the median as ``setup_s``. Then one client runs
jobs in a closed loop for about --seconds: each job is a fresh process that
starts from the files on disk, and the next starts when it has ended. Every
job's output is checked. Times are CPU times scaled by a CPU speed probe that
runs beside the work on the same CPU (cpuprobe.py). With --trace 1 the loop
alternates untraced and traced jobs and reports the traced jobs' per-layer
metrics instead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics named in BENCHMARK.json, each with its unit. The
lines before it describe the run. A full record, with each job's samples and
artifact digests, goes to ``perfbench/.work/results/``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import spans
from cpuprobe import Probe
from workloads import WORKLOADS, CheckFailed, Workload, acceptance_scenario

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

BLAS_THREADS = 1  # fixed; one job at a time, and never above nproc
BLAS_ENV = {
    var: str(BLAS_THREADS) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
SETUP_MIN_RENDERS = 8  # and at least SETUP_MIN_CPU_S of CPU time, so short renders repeat more
SETUP_MIN_CPU_S = 6.0
RUN_LIMIT_S = 170.0  # a run must end within 180 s
QUALITY_UNITS = {"windows": "count", "test_accuracy": "1", "test_rmse": "people", "test_mae": "people"}


@dataclass
class Job:
    index: int
    traced: bool
    process_s: float  # wall time of the job's process, as the loop saw it
    job_s: float | None = None  # cpu_s scaled by the CPU speed probe
    wall_s: float | None = None  # wall time of the same interval
    cpu_s: float | None = None  # CPU time of the same interval
    cpu_speed: float | None = None  # the probe's mean speed over the interval
    peak_rss_mb: float | None = None
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    error: str | None = None


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment() -> dict:
    """What a result set depends on besides the code: machine, libraries, source."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or commit
    digest, lines = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def render(scenario, work: Path, probe: Probe) -> tuple[dict, dict]:
    """Set-up: simulate, serialize and write the dataset, SETUP_MIN_RENDERS times or more.

    Times are CPU times scaled by the CPU speed probe, like the jobs' times.
    """
    from rssi_occupancy.dataset import serialize_dataset, serialize_sidecar
    from rssi_occupancy.simulator import simulate

    times: dict[str, list[float]] = {"setup_s": [], "simulator.simulate_s": [], "dataset.serialize_s": []}
    digests, spent = set(), 0.0
    while len(times["setup_s"]) < SETUP_MIN_RENDERS or spent < SETUP_MIN_CPU_S:
        started, c0 = time.monotonic(), time.process_time()
        dataset = simulate(scenario)
        c1 = time.process_time()
        csv_text, sidecar_text = serialize_dataset(dataset), serialize_sidecar(dataset)
        c2 = time.process_time()
        (work / "dataset.csv").write_text(csv_text, encoding="utf-8")
        (work / "dataset.sidecar").write_text(sidecar_text, encoding="utf-8")
        c3, speed = time.process_time(), probe.speed(started, time.monotonic())
        spent += c3 - c0
        times["setup_s"].append((c3 - c0) * speed)
        times["simulator.simulate_s"].append((c1 - c0) * speed)
        times["dataset.serialize_s"].append((c2 - c1) * speed)
        digests.add(hashlib.sha256((csv_text + sidecar_text).encode()).hexdigest())
    size = {
        "rows": len(dataset.records),
        "transmitters": dataset.n_transmitters,
        "renders": len(times["setup_s"]),
        "renders_identical": len(digests) == 1,
    }
    return times, size


def run_job(
    workload: Workload, scenario, work: Path, probe: Probe, index: int, traced: bool, timeout: float
) -> Job:
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    command = [sys.executable, str(BENCH_DIR / "job.py"), workload.name, "dataset.csv", "out"]
    spans_file = work / f"spans-{index}.json"
    if traced:
        command += ["--spans", spans_file.name, "--job-id", f"{workload.name}-{index}"]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=work, env={**os.environ, **BLAS_ENV}, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        elapsed = time.perf_counter() - started
        return Job(index, traced, elapsed, error=f"timed out after {timeout:.0f} s")
    job = Job(index, traced, time.perf_counter() - started)
    if proc.returncode != 0:
        job.error = f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return job
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
        job.wall_s, job.cpu_s, job.peak_rss_mb = report["wall_s"], report["cpu_s"], report["peak_rss_mb"]
        job.cpu_speed = probe.speed(report["started"], report["ended"])
        job.job_s = job.cpu_s * job.cpu_speed
        for name in workload.artifacts:
            job.digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        job.quality = workload.check(out_dir, scenario)
    except (OSError, ValueError, KeyError, IndexError, CheckFailed) as exc:
        job.error = f"output check: {type(exc).__name__}: {exc}"
        return job
    if traced:
        exported = json.loads(spans_file.read_text(encoding="utf-8"))
        layers = spans.layer_metrics(spans.load_spans(exported))
        scale = job.job_s / job.wall_s  # span times are wall times
        job.layers = {k: v * scale if k.endswith("_s") else v for k, v in layers.items()}
    return job


def closed_loop(
    workload: Workload, scenario, work: Path, probe: Probe, seconds: float, trace: bool, started: float
):
    """One client, one job at a time. A job starts only if a typical job would end in time."""
    jobs: list[Job] = []
    loop_start = time.perf_counter()
    while True:
        traced = trace and len(jobs) % 2 == 1
        if jobs and not (trace and len(jobs) < 2):
            typical = statistics.median(j.process_s for j in jobs)
            if time.perf_counter() - loop_start + typical > seconds:
                break
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        if remaining <= 0:
            break
        jobs.append(run_job(workload, scenario, work, probe, len(jobs), traced, remaining))
    reference = next((j.digests for j in jobs if j.error is None), None)
    for job in jobs:
        if job.error is None and job.digests != reference:
            job.error = "artifacts differ from the run's first job"
    return jobs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run(workload: Workload, seed: int, seconds: float, trace: bool, duration_s: float = 600.0):
    """One benchmark run; returns (result JSON object, description lines, full record)."""
    started = time.perf_counter()
    env = environment()
    env["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})  # the jobs and the probe inherit it
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = acceptance_scenario(workload.sampling_hz, seed, duration_s)
    with Probe(work / "probe.log") as probe:
        setup, size = render(scenario, work, probe)
        jobs = closed_loop(workload, scenario, work, probe, seconds, trace, started)

    failed = [j for j in jobs if j.error is not None]
    untraced = [j for j in jobs if not j.traced and j.job_s is not None]
    rss = [j.peak_rss_mb for j in untraced]
    spec = benchmark_spec()
    q1, job_s, q3 = quartiles([j.job_s for j in untraced] or [0.0])
    end_to_end = {
        "job_s": job_s,
        "setup_s": statistics.median(setup["setup_s"]),
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
    }
    if trace:
        traced_jobs = [j for j in jobs if j.traced and j.layers]
        measured = {
            name: statistics.median(j.layers[name] for j in traced_jobs)
            for name in (traced_jobs[0].layers if traced_jobs else {})
        }
        measured["simulator.simulate_s"] = statistics.median(setup["simulator.simulate_s"])
        measured["dataset.serialize_s"] = statistics.median(setup["dataset.serialize_s"])
        traced_s = [j.job_s for j in traced_jobs]
        measured["trace.overhead_s"] = statistics.median(traced_s) - job_s if traced_s else 0.0
        reported = spec["per_layer"]
    else:
        measured = end_to_end
        reported = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in reported}
    result = {
        "correct": not failed and size["renders_identical"],
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }

    quality = next((j.quality for j in jobs if j.error is None), {})
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    lines = [
        f"workload {workload.name}: {workload.command}",
        f"  why: {why}",
        f"  input: scenario seed {seed}, {size['rows']} rows x {size['transmitters']} transmitters"
        f" at {workload.sampling_hz:g} Hz over {duration_s:g} s",
        f"  load: closed loop, 1 client, 1 job at a time, each job a fresh process; {len(jobs)} jobs"
        f" in about {seconds:g} s" + (", alternating untraced and traced" if trace else ""),
        "  environment: " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"  set-up: {size['renders']} renders, identical={size['renders_identical']}",
        f"  job_s: median {job_s:.4f} s, q1 {q1:.4f} s, q3 {q3:.4f} s, n={len(untraced)}"
        + (f"; wall median {statistics.median(j.wall_s for j in untraced):.4f} s,"
           f" CPU time median {statistics.median(j.cpu_s for j in untraced):.4f} s,"
           f" CPU speed median {statistics.median(j.cpu_speed for j in untraced):.3f}"
           if untraced else ""),
    ]
    for name, value in end_to_end.items():
        unit = next(m["unit"] for m in spec["end_to_end"] if m["name"] == name)
        lines.append(f"  {name} = {value!r} {unit}")
    lines.append(f"  fail_ratio = {len(failed) / len(jobs)!r} 1")
    lines += [f"  {name} = {value!r} {QUALITY_UNITS[name]}" for name, value in quality.items()]
    if trace:
        lines += [f"  {name} = {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines += [f"  job {j.index} failed: {j.error}" for j in failed]

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "setup": setup,
        "jobs": [asdict(j) for j in jobs],
        "result": result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result, lines, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rssi_occupancy" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_ENV)

    result, lines, _ = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

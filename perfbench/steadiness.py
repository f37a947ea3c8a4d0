"""Steadiness check: run each workload with several seeds and compare spreads with bounds.

    python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...]

Runs the command in BENCHMARK.json with its ``run_seconds``, once per seed
1..--runs, from the root of the checkout. For every end-to-end metric it prints the
median and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. A spread
should stay below a third of the metric's bound, ``setup_s``'s too. The
run results go to ``perfbench/.work/steadiness-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        log = ROOT / "perfbench" / ".work" / f"steadiness-{workload}.jsonl"
        log.parent.mkdir(parents=True, exist_ok=True)
        results = []
        with log.open("w", encoding="utf-8") as out:
            for seed in range(1, args.runs + 1):
                command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
                    return 1
                result = json.loads(proc.stdout.splitlines()[-1])
                out.write(json.dumps({"seed": seed, **result}) + "\n")
                results.append(result)
                steady &= result["correct"] and result["failed"] == 0
                values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"jobs={result['attempted']} {values}", flush=True)
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = spread < metric["bound"] / 3
            steady &= ok
            print(f"{workload} {metric['name']}: median {median:.4f} {metric['unit']}, "
                  f"spread {spread:.4f}, bound {metric['bound']} {'ok' if ok else 'TOO WIDE'}",
                  flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

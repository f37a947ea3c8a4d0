"""Command-line front door: simulate | validate | featurize | evaluate.

Machine artifacts go to files, the human summary to stdout, diagnostics to
stderr. Exit codes: 0 on success with all artifacts fully written, 1 on
runtime/stage failures (partial outputs are removed), 2 on usage errors and
missing inputs. All randomness flows from --seed; omitting it picks a random
seed that is logged to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import __version__
from .dataset import parse_dataset, parse_sidecar, read_text, serialize_dataset, serialize_sidecar
from .evaluation import (
    KFOLD_CHOICES,
    REPRESENTATIONS,
    SPLIT_MODES,
    TASKS,
    PipelineConfig,
    PipelineStageError,
    run_pipeline,
)
from .features import build_feature_matrix, segment
from .simulator import load_scenario, simulate


# Characters encoded and written at a time, so a write never holds a UTF-8 copy of the text.
_WRITE_CHARS = 1 << 18


class _ArtifactWriter:
    """Writes output files atomically and removes them all if a later step fails."""

    def __init__(self) -> None:
        self.written: list[Path] = []

    def write(self, path: str | Path, text: str) -> None:
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as file:
                for lo in range(0, len(text), _WRITE_CHARS):
                    file.write(text[lo : lo + _WRITE_CHARS])
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.written.append(path)

    def write_all(self, *pairs: tuple[str | Path, str]) -> None:
        """Write each (path, text) in order; if one fails, remove every file written."""
        try:
            for path, text in pairs:
                self.write(path, text)
        except Exception:
            self.rollback()
            raise

    def rollback(self) -> None:
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass
        self.written.clear()


class _UsageError(ValueError):
    """Bad invocation (missing input file); a ValueError, so exit code 2."""


def _default_sidecar(dataset_path: str) -> str:
    return str(Path(dataset_path).with_suffix(".sidecar"))


def _require_file(path: str) -> None:
    if not Path(path).is_file():
        raise _UsageError(f"no such file: {path}")


def _read_text(path: str) -> str:
    """A key-value file's text; a byte that is not UTF-8 is named by its line, as in the CSV."""
    _require_file(path)
    with open(path, encoding="utf-8") as file:
        return read_text(file)


def _load_dataset(path: str, sidecar: str | None):
    _require_file(path)
    meta = parse_sidecar(_read_text(sidecar or _default_sidecar(path)))
    with open(path, encoding="utf-8") as csv_file:  # read a chunk at a time, never whole
        return parse_dataset(csv_file, meta)


def _effective_seed(seed: int | None, fallback: int | None = None) -> int:
    if seed is not None:
        return seed
    if fallback is not None:
        print(f"seed: {fallback} (from scenario)", file=sys.stderr)
        return fallback
    # os.urandom is the source of secrets.randbits; importing secrets would load OpenSSL
    chosen = int.from_bytes(os.urandom(4), "big")
    print(f"seed: {chosen} (randomly selected)", file=sys.stderr)
    return chosen


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(_read_text(args.scenario))
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    else:
        _effective_seed(None, scenario.seed)
    dataset = simulate(scenario)
    _ArtifactWriter().write_all(
        (args.out, serialize_dataset(dataset)),
        (args.sidecar or _default_sidecar(args.out), serialize_sidecar(dataset)),
    )
    print(f"wrote {len(dataset)} records to {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    _load_dataset(args.dataset, args.sidecar)  # raises DatasetError on the first violation
    print("dataset valid")
    return 0


def _cmd_featurize(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset, args.sidecar)
    windows = segment(dataset, args.window_s)
    del dataset  # the windows hold all that featurize reads
    matrix = build_feature_matrix(windows)
    del windows
    _ArtifactWriter().write_all((args.out, matrix.to_csv()))
    print(f"wrote {matrix.n_rows} windows x {matrix.n_features} features to {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset, args.sidecar)
    seed = _effective_seed(args.seed)
    families = tuple(f.strip() for f in args.models.split(",") if f.strip()) if args.models else ()
    config = PipelineConfig(
        families=families,
        window_s=args.window_s,
        k=args.k,
        seed=seed,
        split_mode=args.split,
    )
    report = run_pipeline(dataset, args.task, args.representation, config)
    report.run_config = {
        "dataset": args.dataset,
        "sidecar": args.sidecar or _default_sidecar(args.dataset),
        "task": args.task,
        "representation": args.representation,
        "models": list(families),
        "window_s": args.window_s,
        "k": args.k,
        "seed": seed,
        "split": args.split,
    }
    scores_path = args.scores_csv or str(Path(args.out).with_suffix(".scores.csv"))
    _ArtifactWriter().write_all((args.out, report.to_json()), (scores_path, report.scores_csv()))
    print(report.summary())
    print(f"cadence: {report.prediction_cadence}")
    print(f"report: {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rssi-occupancy",
        description="Occupancy detection and counting from BLE RSSI time series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="render a scenario into a labeled dataset")
    p_sim.add_argument("--scenario", required=True, help="scenario config file")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_sim.add_argument("--out", required=True, help="output dataset CSV")
    p_sim.add_argument("--sidecar", default=None, help="output sidecar path (default: <out>.sidecar)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_val = sub.add_parser("validate", help="check that a dataset and its sidecar parse")
    p_val.add_argument("dataset", help="dataset CSV")
    p_val.add_argument("--sidecar", default=None, help="sidecar path (default: <dataset>.sidecar)")
    p_val.set_defaults(func=_cmd_validate)

    p_feat = sub.add_parser("featurize", help="write the windowed feature matrix CSV")
    p_feat.add_argument("dataset", help="dataset CSV")
    p_feat.add_argument("--sidecar", default=None)
    p_feat.add_argument("--window-s", type=float, default=1.0, dest="window_s")
    p_feat.add_argument("--out", required=True, help="output feature CSV")
    p_feat.set_defaults(func=_cmd_featurize)

    p_eval = sub.add_parser("evaluate", help="train, grid-search and score models")
    p_eval.add_argument("dataset", help="dataset CSV")
    p_eval.add_argument("--sidecar", default=None)
    p_eval.add_argument("--task", choices=TASKS, required=True)
    p_eval.add_argument("--representation", choices=REPRESENTATIONS, default="features")
    p_eval.add_argument("--models", default="", help="comma-separated family list")
    p_eval.add_argument("--k", type=int, choices=KFOLD_CHOICES, default=5)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--window-s", type=float, default=1.0, dest="window_s")
    p_eval.add_argument("--split", choices=SPLIT_MODES, default="random")
    p_eval.add_argument("--out", required=True, help="output report JSON")
    p_eval.add_argument("--scores-csv", default=None, help="per-config scores CSV path")
    p_eval.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # usage, dataset, scenario, feature and evaluation errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""In-memory spans around the program's layers, and the per-layer metrics read from them.

The tracer replaces module-level names that ``rssi_occupancy.cli`` and
``rssi_occupancy.evaluation`` look up at call time (plus a few methods) with
wrappers, so the program's own files stay unchanged. A span opens when a
wrapped function is called and closes when it returns or raises; spans of one
job share its id. Counts are read from the objects the calls return, after
the span has closed.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

TREE_FAMILIES = ("random_forest", "gradient_boosting")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    job: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one job in memory."""

    def __init__(self, job: str) -> None:
        self.job = job
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, self.job, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, function: Callable, name: str, count: Callable | None) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = function(*args, **kwargs)
            if count is not None:
                span.counts.update(count(result, args))
            return result

        return traced

    def install(self, targets) -> Callable[[], None]:
        """Wrap each ``(owner, attribute, span name, count)``; returns the undo."""
        saved = []
        for owner, attribute, name, count in targets:
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, name, count))

        def restore() -> None:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

        return restore

    def export(self) -> dict:
        """Spans with their self times, and self time summed per span name."""
        own = self_times(self.spans)
        by_name: dict[str, float] = {}
        for span in self.spans:
            by_name[span.name] = by_name.get(span.name, 0.0) + own[span.id]
        return {
            "job": self.job,
            "spans": [dict(asdict(span), self_s=own[span.id]) for span in self.spans],
            "self_s": by_name,
        }


def load_spans(exported: dict) -> list[Span]:
    return [Span(**{k: v for k, v in s.items() if k != "self_s"}) for s in exported["spans"]]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    own = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own[span.id] = span.duration - covered
    return own


# -- what is wrapped, and what is counted ------------------------------------


def _rows(result, args) -> dict:
    return {"rows": len(result.records)}


def _dedup(result, args) -> dict:
    return {"rows_in": len(args[0].records), "rows_kept": len(result.records)}


def _windows(result, args) -> dict:
    return {"windows": len(result)}


def _vectors(result, args) -> dict:
    return {
        "vectors": result.n_rows * len(args[0][0].transmitter_ids),
        "nonfinite_replaced": result.diagnostics.nonfinite_replaced,
    }


def _kept(result, args) -> dict:
    return {"features_kept": int(result.kept.size)}


def _folds(result, args) -> dict:
    return {
        "fold_fits": sum(len(s.fold_scores) + s.n_failed for s in result.scores),
        "folds_failed": sum(s.n_failed for s in result.scores),
    }


def _model(result, args) -> dict:
    family = result.spec.family
    counts: dict = {"family": family}
    if family == "svm":
        counts["unconverged"] = int(any(not m.converged for m in result.inner.machines))
    elif family in TREE_FAMILIES:
        counts["nodes"] = sum(len(tree.feature) for tree in result.inner.trees)
    return counts


def bytes_written(result, args) -> dict:
    """Counts for a writer called as ``write(path, text)`` or ``writer.write(path, text)``."""
    path = args[-2]
    return {"bytes": Path(path).stat().st_size}


def program_layers() -> list[tuple]:
    """The names the traced run wraps, with their span names and counts."""
    from rssi_occupancy import cli, dataset, evaluation
    from rssi_occupancy.features import FeatureMatrix
    from rssi_occupancy.models import TrainedModel

    return [
        (cli, "parse_dataset", "dataset.parse", _rows),
        (dataset, "parse_dataset", "dataset.parse", _rows),
        (evaluation, "deduplicate", "dataset.dedup", _dedup),
        (cli, "segment", "features.segment", _windows),
        (evaluation, "segment", "features.segment", _windows),
        (cli, "build_feature_matrix", "features.featurize", _vectors),
        (evaluation, "build_feature_matrix", "features.featurize", _vectors),
        (evaluation, "build_raw_matrix", "features.raw_matrix", None),
        (cli, "run_pipeline", "evaluation.run_pipeline", None),
        (evaluation, "run_pipeline", "evaluation.run_pipeline", None),
        (evaluation, "holdout_split", "evaluation.holdout", None),
        (evaluation, "fit_scaler", "preprocess.fit_scaler", None),
        (evaluation, "apply_scaler", "preprocess.apply_scaler", None),
        (evaluation, "select_features", "preprocess.select", _kept),
        (evaluation, "grid_search", "evaluation.grid_search", _folds),
        (evaluation, "fit", "models.fit", _model),
        (TrainedModel, "predict", "models.predict", None),
        (FeatureMatrix, "to_csv", "cli.serialize", None),
        (evaluation.EvalReport, "to_json", "cli.serialize", None),
        (evaluation.EvalReport, "scores_csv", "cli.serialize", None),
        (cli._ArtifactWriter, "write", "cli.write", bytes_written),
    ]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced job. Times are inclusive of child spans."""
    names = {s.id: s.name for s in spans}

    def picked(*span_names: str) -> list[Span]:
        return [s for s in spans if s.name in span_names]

    def seconds(selected: list[Span]) -> float:
        return sum((s.duration for s in selected), 0.0)

    def total(selected: list[Span], key: str) -> int:
        return sum(s.counts.get(key, 0) for s in selected)

    fits, predicts = picked("models.fit"), picked("models.predict")
    outside_search = [s for s in fits + predicts if names.get(s.parent) != "evaluation.grid_search"]
    svm_fits = [s for s in fits if s.counts.get("family") == "svm"]
    tree_fits = [s for s in fits if s.counts.get("family") in TREE_FAMILIES]
    dedup = picked("dataset.dedup")
    rows_in = total(dedup, "rows_in")
    return {
        "dataset.parse_s": seconds(picked("dataset.parse")),
        "dataset.rows": total(picked("dataset.parse"), "rows"),
        "dataset.dedup_s": seconds(dedup),
        "dataset.dedup_kept_ratio": total(dedup, "rows_kept") / rows_in if rows_in else 0.0,
        "features.segment_s": seconds(picked("features.segment")),
        "features.windows": total(picked("features.segment"), "windows"),
        "features.featurize_s": seconds(picked("features.featurize")),
        "features.vectors": total(picked("features.featurize"), "vectors"),
        "features.raw_matrix_s": seconds(picked("features.raw_matrix")),
        "features.nonfinite_replaced": total(picked("features.featurize"), "nonfinite_replaced"),
        "preprocess.scale_s": seconds(picked("preprocess.fit_scaler", "preprocess.apply_scaler")),
        "preprocess.select_s": seconds(picked("preprocess.select")),
        "preprocess.features_kept": total(picked("preprocess.select"), "features_kept"),
        "evaluation.holdout_s": seconds(picked("evaluation.holdout")),
        "evaluation.grid_search_s": seconds(picked("evaluation.grid_search")),
        "evaluation.fold_fits": total(picked("evaluation.grid_search"), "fold_fits"),
        "evaluation.folds_failed": total(picked("evaluation.grid_search"), "folds_failed"),
        "evaluation.final_fit_s": seconds([s for s in outside_search if s.name == "models.fit"]),
        "evaluation.test_predict_s": seconds(
            [s for s in outside_search if s.name == "models.predict"]
        ),
        "models.fit_s": seconds(fits),
        "models.fit_calls": len(fits),
        "models.predict_s": seconds(predicts),
        "models.predict_calls": len(predicts),
        "models.svm.fits": len(svm_fits),
        "models.svm.fits_unconverged": total(svm_fits, "unconverged"),
        "models.trees.fit_s": seconds(tree_fits),
        "models.trees.nodes": total(tree_fits, "nodes"),
        "cli.write_s": seconds(picked("cli.serialize", "cli.write")),
        "cli.output_bytes": total(picked("cli.write"), "bytes"),
    }

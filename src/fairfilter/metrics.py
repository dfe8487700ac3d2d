"""Per-target confusion statistics, equality-difference fairness metrics,
harmonic fairness, and standard classification metrics.

A post counts toward the global tallies once and toward the tallies of every
target it mentions; targets lacking the positives/negatives needed for a
rate are excluded from that metric's mean (with the normalizer reduced) and
flagged in the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from .data import PostRecord
from .errors import DataError
from .heads import decide


@dataclass
class Counts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def fpr(self) -> float | None:
        neg = self.fp + self.tn
        return self.fp / neg if neg else None

    def fnr(self) -> float | None:
        pos = self.fn + self.tp
        return self.fn / pos if pos else None


@dataclass
class ConfusionByTarget:
    per_target: dict[str, Counts]
    overall: Counts


@dataclass
class EvalReport:
    accuracy: float
    f1: float
    auc: float | None
    nfped: float
    nfned: float
    hf: float
    per_target: dict[str, dict]
    excluded_fpr: list[str]
    excluded_fnr: list[str]
    flags: list[str]
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "f1": self.f1,
            "auc": self.auc,
            "nfped": self.nfped,
            "nfned": self.nfned,
            "hf": self.hf,
            "per_target": self.per_target,
            "excluded_fpr": self.excluded_fpr,
            "excluded_fnr": self.excluded_fnr,
            "flags": self.flags,
            "metadata": self.metadata,
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def confusion_per_target(predictions: dict[str, float],
                         records: list[PostRecord],
                         threshold: float = 0.5) -> ConfusionByTarget:
    """Tally confusion counts globally and per mentioned target."""
    per_target: dict[str, Counts] = {}
    overall = Counts()
    try:
        scores = np.asarray([predictions[r.id] for r in records])
    except KeyError as exc:
        raise DataError(f"missing prediction for record '{exc.args[0]}'") from None
    preds = decide(scores, threshold)
    for record, pred in zip(records, preds.tolist()):
        slot = ("tp" if pred else "fn") if record.label == 1 else ("fp" if pred else "tn")
        buckets = [overall] + [per_target.setdefault(t, Counts()) for t in record.target_set]
        for counts in buckets:
            setattr(counts, slot, getattr(counts, slot) + 1)
    return ConfusionByTarget(per_target=per_target, overall=overall)


def equality_differences(confusion: ConfusionByTarget
                         ) -> tuple[float, float, list[str], list[str]]:
    """Mean absolute deviation of per-target FPR/FNR from the overall rates.

    Returns (nFPED, nFNED, targets excluded from nFPED, excluded from nFNED).
    """
    overall_fpr = confusion.overall.fpr()
    overall_fnr = confusion.overall.fnr()
    fpr_devs, fnr_devs = [], []
    excluded_fpr, excluded_fnr = [], []
    for name in sorted(confusion.per_target):
        counts = confusion.per_target[name]
        fpr = counts.fpr()
        if fpr is None or overall_fpr is None:
            excluded_fpr.append(name)
        else:
            fpr_devs.append(abs(overall_fpr - fpr))
        fnr = counts.fnr()
        if fnr is None or overall_fnr is None:
            excluded_fnr.append(name)
        else:
            fnr_devs.append(abs(overall_fnr - fnr))
    nfped = float(np.mean(fpr_devs)) if fpr_devs else 0.0
    nfned = float(np.mean(fnr_devs)) if fnr_devs else 0.0
    return nfped, nfned, excluded_fpr, excluded_fnr


def harmonic_fairness(nfped: float, nfned: float) -> float:
    """2ab/(a+b); defined as 0 when either input is 0."""
    if nfped < 0 or nfned < 0:
        raise DataError("equality differences must be non-negative")
    if nfped == 0.0 or nfned == 0.0:
        return 0.0
    return 2.0 * nfped * nfned / (nfped + nfned)


def classification_metrics(scores: np.ndarray, labels: np.ndarray,
                           threshold: float = 0.5
                           ) -> tuple[float, float, float | None]:
    """Accuracy and F1 (positive class = hateful) at the threshold, plus AUC.

    AUC uses the rank statistic with averaged ranks for ties; it is None when
    only one class is present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    if scores.size == 0:
        raise DataError("classification_metrics on an empty evaluation set")
    preds = decide(scores, threshold)
    accuracy = float(np.mean(preds == labels))
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    f1 = 2.0 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return accuracy, f1, None
    ranks = rankdata(scores)
    auc = (float(np.sum(ranks[labels == 1])) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return accuracy, f1, auc


def build_report(predictions: dict[str, float], records: list[PostRecord],
                 threshold: float = 0.5, metadata: dict | None = None) -> EvalReport:
    """Assemble the full evaluation report over a record list."""
    confusion = confusion_per_target(predictions, records, threshold)
    nfped, nfned, excluded_fpr, excluded_fnr = equality_differences(confusion)
    hf = harmonic_fairness(nfped, nfned)
    scores = np.asarray([predictions[r.id] for r in records])
    labels = np.asarray([r.label for r in records])
    accuracy, f1, auc = classification_metrics(scores, labels, threshold)
    per_target = {}
    for name in sorted(confusion.per_target):
        counts = confusion.per_target[name]
        per_target[name] = {
            "tp": counts.tp, "fp": counts.fp, "tn": counts.tn, "fn": counts.fn,
            "fpr": counts.fpr(), "fnr": counts.fnr(),
        }
    flags = []
    if auc is None:
        flags.append("auc_undefined_single_class")
    if excluded_fpr:
        flags.append("targets_excluded_from_nfped")
    if excluded_fnr:
        flags.append("targets_excluded_from_nfned")
    if nfped == 0.0 or nfned == 0.0:
        flags.append("hf_zero_input")
    meta = dict(metadata or {})
    meta.setdefault("threshold", threshold)
    meta.setdefault("n_records", len(records))
    return EvalReport(accuracy=accuracy, f1=f1, auc=auc, nfped=nfped, nfned=nfned,
                      hf=hf, per_target=per_target, excluded_fpr=excluded_fpr,
                      excluded_fnr=excluded_fnr, flags=flags, metadata=meta)

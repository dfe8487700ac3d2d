"""Per-target confusion statistics, equality-difference fairness metrics,
harmonic fairness, and standard classification metrics.

Scores are aligned with records: scores[i] is the score of records[i]. The
confusion counts are tallied once, as one matrix product: each post's row
[1 | membership] (the 1 for the global tally, then a 1 for every target the
post mentions) times its one-hot tp/fp/tn/fn indicator. A post thus counts
toward the global tallies once and toward the tallies of every target it
mentions; accuracy and F1 come from the global tally. Targets lacking the
positives/negatives needed for a rate are excluded from that metric's mean
(with the normalizer reduced) and flagged in the report.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.stats import rankdata

from .data import PostRecord, membership, save_json
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

    def save(self, path) -> None:
        save_json(asdict(self), path)


def confusion_per_target(scores: Sequence[float], records: list[PostRecord],
                         threshold: float = 0.5) -> ConfusionByTarget:
    """Tally confusion counts globally and per mentioned target, in one product."""
    if len(scores) != len(records):
        raise DataError(f"{len(scores)} scores for {len(records)} records")
    preds = decide(scores, threshold)
    labels = np.asarray([r.label for r in records], dtype=int)
    # columns in Counts field order: tp, fp, tn, fn
    hit = np.stack([labels * preds, (1 - labels) * preds,
                    (1 - labels) * (1 - preds), labels * (1 - preds)], axis=1)
    names = sorted({t for r in records for t in r.targets})
    rows = np.hstack([np.ones((len(records), 1)),
                      membership([r.targets for r in records], names)])
    overall, *per_target = (Counts(*row) for row in (rows.T @ hit).astype(int).tolist())
    return ConfusionByTarget(per_target=dict(zip(names, per_target)), overall=overall)


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


def rank_auc(scores: Sequence[float], labels: Sequence[int]) -> float | None:
    """AUC as the rank statistic with averaged ranks for ties; None when only
    one class is present."""
    labels = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = rankdata(np.asarray(scores, dtype=np.float64))
    return (float(np.sum(ranks[labels == 1])) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def build_report(scores: Sequence[float], records: list[PostRecord],
                 threshold: float = 0.5, metadata: dict | None = None) -> EvalReport:
    """Assemble the full evaluation report; scores[i] scores records[i].

    Accuracy and F1 (positive class = hateful) are read from the global tally.
    """
    if not records:
        raise DataError("build_report on an empty evaluation set")
    confusion = confusion_per_target(scores, records, threshold)
    nfped, nfned, excluded_fpr, excluded_fnr = equality_differences(confusion)
    hf = harmonic_fairness(nfped, nfned)
    overall = confusion.overall
    accuracy = (overall.tp + overall.tn) / overall.total
    f1_denominator = 2 * overall.tp + overall.fp + overall.fn
    f1 = 2.0 * overall.tp / f1_denominator if f1_denominator else 0.0
    auc = rank_auc(scores, [r.label for r in records])
    per_target = {name: {**asdict(counts), "fpr": counts.fpr(), "fnr": counts.fnr()}
                  for name, counts in confusion.per_target.items()}
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

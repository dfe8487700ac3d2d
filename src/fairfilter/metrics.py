"""Per-target confusion statistics, equality-difference fairness metrics,
harmonic fairness, and standard classification metrics.

Scores are aligned with records: scores[i] is the score of records[i]. The
confusion counts are tallied once, as one matrix product: each post's row
[1 | membership] (the 1 for the global tally, then a 1 for every target the
post mentions) times its one-hot tp/fp/tn/fn indicator. A post thus counts
toward the global tallies once and toward the tallies of every target it
mentions. The product is one (1 + T, 4) int array: the global row, read by
accuracy and F1, then one row per target in sorted-name order. Targets
lacking the positives/negatives needed for a rate are excluded from that
metric's mean (with the normalizer reduced) and flagged in the report.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import PostRecord, membership, save_json
from .errors import DataError
from .heads import decide


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
                         threshold: float = 0.5) -> tuple[list[str], np.ndarray]:
    """Tally confusion counts globally and per mentioned target, in one product.

    Returns the sorted target names and a (1 + T, 4) int array with columns
    tp, fp, tn, fn: row 0 is the global tally, row 1 + t that of names[t].
    """
    if len(scores) != len(records):
        raise DataError(f"{len(scores)} scores for {len(records)} records")
    preds = decide(scores, threshold)
    labels = np.asarray([r.label for r in records], dtype=int)
    hit = np.stack([labels * preds, (1 - labels) * preds,
                    (1 - labels) * (1 - preds), labels * (1 - preds)], axis=1)
    names = sorted({t for r in records for t in r.targets})
    rows = np.hstack([np.ones((len(records), 1)),
                      membership([r.targets for r in records], names)])
    return names, (rows.T @ hit).astype(int)


def rates(tallies: np.ndarray) -> tuple[list[float | None], list[float | None]]:
    """Per tally row, FPR fp / (fp + tn) and FNR fn / (fn + tp); None if undefined."""
    tp, fp, tn, fn = tallies.T.tolist()
    return ([a / (a + b) if a + b else None for a, b in zip(fp, tn)],
            [a / (a + b) if a + b else None for a, b in zip(fn, tp)])


def equality_differences(names: list[str], tallies: np.ndarray
                         ) -> tuple[float, float, list[str], list[str]]:
    """Mean absolute deviation of per-target FPR/FNR from the overall rates.

    Returns (nFPED, nFNED, targets excluded from nFPED, excluded from nFNED).
    """
    means, excluded = [], []
    for overall, *per_target in rates(tallies):
        kept = [r is not None and overall is not None for r in per_target]
        devs = [abs(overall - r) for r, keep in zip(per_target, kept) if keep]
        means.append(float(np.mean(devs)) if devs else 0.0)
        excluded.append([name for name, keep in zip(names, kept) if not keep])
    return means[0], means[1], excluded[0], excluded[1]


def harmonic_fairness(nfped: float, nfned: float) -> float:
    """2ab/(a+b); defined as 0 when either input is 0."""
    if nfped < 0 or nfned < 0:
        raise DataError("equality differences must be non-negative")
    if nfped == 0.0 or nfned == 0.0:
        return 0.0
    return 2.0 * nfped * nfned / (nfped + nfned)


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of the 1-D array x; tied values share the mean of their
    ranks. A tie group at sorted positions start..end-1 takes
    0.5 (start + end + 1), a half-integer, so the ranks are exact."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = (0.5 * (starts + ends + 1))[np.cumsum(first) - 1]
    return ranks


def rank_auc(scores: Sequence[float], labels: Sequence[int]) -> float | None:
    """AUC as the rank statistic with averaged ranks for ties; None when only
    one class is present. A non-finite score is a DataError: it has no rank."""
    scores = np.asarray(scores, dtype=np.float64)
    finite = np.isfinite(scores)
    if not finite.all():
        raise DataError(f"{int(finite.size - finite.sum())} non-finite scores have no rank")
    labels = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = average_ranks(scores)
    return (float(np.sum(ranks[labels == 1])) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def build_report(scores: Sequence[float], records: list[PostRecord],
                 threshold: float = 0.5, metadata: dict | None = None) -> EvalReport:
    """Assemble the full evaluation report; scores[i] scores records[i].

    Accuracy and F1 (positive class = hateful) are read from the global tally.
    """
    if not records:
        raise DataError("build_report on an empty evaluation set")
    names, tallies = confusion_per_target(scores, records, threshold)
    nfped, nfned, excluded_fpr, excluded_fnr = equality_differences(names, tallies)
    hf = harmonic_fairness(nfped, nfned)
    rows = tallies.tolist()
    tp, fp, tn, fn = rows[0]
    accuracy = (tp + tn) / len(records)
    f1_denominator = 2 * tp + fp + fn
    f1 = 2.0 * tp / f1_denominator if f1_denominator else 0.0
    auc = rank_auc(scores, [r.label for r in records])
    fpr, fnr = rates(tallies)
    per_target = {name: {**dict(zip(("tp", "fp", "tn", "fn"), rows[t])), "fpr": fpr[t],
                         "fnr": fnr[t]} for t, name in enumerate(names, start=1)}
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

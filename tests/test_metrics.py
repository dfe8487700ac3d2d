import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from fairfilter import metrics
from fairfilter.data import PostRecord
from fairfilter.errors import DataError


def rec(rid, targets, label):
    return PostRecord(id=rid, targets=tuple(targets), label=label,
                      embedding=np.zeros(1))


def brute_force_report(predictions, records, threshold=0.5):
    """Independent O(n*|T|) recomputation of the fairness quantities."""
    targets = sorted({t for r in records for t in r.targets})
    preds = {r.id: 1 if predictions[r.id] > threshold else 0 for r in records}

    def rates(subset):
        fp = sum(1 for r in subset if r.label == 0 and preds[r.id] == 1)
        tn = sum(1 for r in subset if r.label == 0 and preds[r.id] == 0)
        fn = sum(1 for r in subset if r.label == 1 and preds[r.id] == 0)
        tp = sum(1 for r in subset if r.label == 1 and preds[r.id] == 1)
        fpr = fp / (fp + tn) if fp + tn else None
        fnr = fn / (fn + tp) if fn + tp else None
        return fpr, fnr

    overall_fpr, overall_fnr = rates(records)
    fped, fned = [], []
    for t in targets:
        sub = [r for r in records if t in r.targets]
        fpr, fnr = rates(sub)
        if fpr is not None and overall_fpr is not None:
            fped.append(abs(overall_fpr - fpr))
        if fnr is not None and overall_fnr is not None:
            fned.append(abs(overall_fnr - fnr))
    nfped = sum(fped) / len(fped) if fped else 0.0
    nfned = sum(fned) / len(fned) if fned else 0.0
    return nfped, nfned


def aligned(predictions, records):
    """The id-keyed predictions as scores aligned with `records`."""
    return [predictions[r.id] for r in records]


def random_case(seed, n=200, n_targets=5):
    rng = np.random.default_rng(seed)
    names = [f"t{i}" for i in range(n_targets)]
    records, predictions = [], {}
    for i in range(n):
        k = int(rng.integers(1, min(4, n_targets + 1)))
        chosen = rng.choice(names, size=k, replace=False)
        records.append(rec(f"r{i}", sorted(chosen), int(rng.integers(0, 2))))
        predictions[f"r{i}"] = float(rng.random())
    return predictions, records


class TestConfusionPerTarget:
    def test_multi_target_post_counts_for_each_mention(self):
        records = [rec("a", ["y", "x"], 1), rec("b", ["x"], 0)]
        names, tallies = metrics.confusion_per_target([0.9, 0.9], records)
        assert names == ["x", "y"]
        # rows: global, x, y; columns tp, fp, tn, fn
        np.testing.assert_array_equal(tallies, [[1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 0, 0]])
        assert tallies.dtype.kind == "i"

    def test_tallies_match_brute_force_counts(self):
        predictions, records = random_case(5)
        names, tallies = metrics.confusion_per_target(aligned(predictions, records),
                                                      records, 0.4)
        assert names == sorted({t for r in records for t in r.targets})

        def brute(subset):
            hits = [(r.label, predictions[r.id] > 0.4) for r in subset]
            return [hits.count((1, True)), hits.count((0, True)),
                    hits.count((0, False)), hits.count((1, False))]

        want = [brute(records)] + [brute([r for r in records if t in r.targets])
                                   for t in names]
        np.testing.assert_array_equal(tallies, want)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="1 scores for 2 records"):
            metrics.confusion_per_target([0.5], [rec("a", ["x"], 0),
                                                 rec("b", ["x"], 0)])

    def test_threshold_is_strict(self):
        _, tallies = metrics.confusion_per_target([0.5], [rec("a", ["x"], 1)], 0.5)
        assert tallies[0].tolist() == [0, 0, 0, 1]


class TestEqualityDifferences:
    def test_hand_computed_two_targets(self):
        # overall: fp=1/neg=3, fn=1/pos=3
        records = [rec("a", ["x"], 0), rec("b", ["x"], 0), rec("c", ["y"], 0),
                   rec("d", ["x"], 1), rec("e", ["y"], 1), rec("f", ["y"], 1)]
        conf = metrics.confusion_per_target([0.9, 0.1, 0.1, 0.9, 0.9, 0.1], records)
        nfped, nfned, exc_p, exc_n = metrics.equality_differences(*conf)
        # x: fpr=1/2, fnr=0; y: fpr=0, fnr=1/2; overall fpr=fnr=1/3
        assert nfped == pytest.approx((abs(1/3 - 1/2) + abs(1/3 - 0)) / 2)
        assert nfned == pytest.approx((abs(1/3 - 0) + abs(1/3 - 1/2)) / 2)
        assert exc_p == [] and exc_n == []

    def test_undefined_rates_excluded_with_reduced_normalizer(self):
        # target y has no negatives so its FPR is undefined
        records = [rec("a", ["x"], 0), rec("b", ["x"], 0), rec("c", ["y"], 1)]
        conf = metrics.confusion_per_target([0.9, 0.1, 0.9], records)
        nfped, nfned, exc_p, exc_n = metrics.equality_differences(*conf)
        assert exc_p == ["y"]
        assert exc_n == ["x"]
        # only x contributes to nFPED: |overall 1/2 - 1/2| = 0
        assert nfped == pytest.approx(0.0)
        assert nfned == pytest.approx(0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_brute_force(self, seed):
        predictions, records = random_case(seed)
        conf = metrics.confusion_per_target(aligned(predictions, records), records)
        nfped, nfned, _, _ = metrics.equality_differences(*conf)
        exp_p, exp_n = brute_force_report(predictions, records)
        assert nfped == pytest.approx(exp_p, abs=1e-12)
        assert nfned == pytest.approx(exp_n, abs=1e-12)

    def test_permutation_invariance(self):
        predictions, records = random_case(3)
        conf1 = metrics.confusion_per_target(aligned(predictions, records), records)
        conf2 = metrics.confusion_per_target(aligned(predictions, records[::-1]),
                                             records[::-1])
        assert metrics.equality_differences(*conf1) == metrics.equality_differences(*conf2)


class TestHarmonicFairness:
    @pytest.mark.parametrize("a,b,expected", [
        (0.0028, 0.0087, 0.0042),
        (0.0019, 0.0124, 0.0033),
    ])
    def test_reference_values(self, a, b, expected):
        assert metrics.harmonic_fairness(a, b) == pytest.approx(expected, abs=5e-5)

    def test_zero_input_defines_zero(self):
        assert metrics.harmonic_fairness(0.0, 0.3) == 0.0
        assert metrics.harmonic_fairness(0.2, 0.0) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.random(2)
            hf = metrics.harmonic_fairness(a, b)
            assert hf == pytest.approx(metrics.harmonic_fairness(b, a))
            assert min(a, b) * 1e-9 < hf <= 2 * min(a, b)

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            metrics.harmonic_fairness(-0.1, 0.2)


class TestClassificationMetrics:
    def test_hand_computed_accuracy_f1(self):
        records = [rec("a", ["x"], 1), rec("b", ["x"], 0), rec("c", ["x"], 0),
                   rec("d", ["x"], 1)]
        report = metrics.build_report([0.9, 0.8, 0.2, 0.7], records)
        assert report.accuracy == pytest.approx(0.75)
        # tp=2 fp=1 fn=0
        assert report.f1 == pytest.approx(4 / 5)

    def test_auc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        scores = rng.random(80)
        scores[::7] = 0.5  # force ties
        labels = (rng.random(80) < 0.4).astype(int)
        saturated = scores.copy()  # tied runs at exactly 0 and 1, as scores that saturate
        saturated[1::5] = 0.0
        saturated[2::5] = 1.0
        for x in (scores, saturated):
            pos = x[labels == 1]
            neg = x[labels == 0]
            wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
            assert metrics.rank_auc(x, labels) == pytest.approx(
                wins / (len(pos) * len(neg)), abs=1e-12)

    def test_single_class_auc_is_none(self):
        assert metrics.rank_auc([0.1, 0.9], [1, 1]) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            metrics.rank_auc([0.2, bad, 0.7], [0, 1, 1])

    def test_threshold_changes_accuracy_not_auc(self):
        scores = np.linspace(0.05, 0.95, 20)
        records = [rec(f"r{i}", ["x"], int(s > 0.6)) for i, s in enumerate(scores)]
        r1 = metrics.build_report(scores, records, threshold=0.3)
        r2 = metrics.build_report(scores, records, threshold=0.6)
        assert r1.auc == r2.auc
        assert r1.accuracy != r2.accuracy

    def test_empty_set_rejected(self):
        with pytest.raises(DataError):
            metrics.build_report([], [])


RANK_CASES = {
    "ties": np.round(np.random.default_rng(3).random(500), 2),
    "all-equal": np.full(7, 0.25),
    "one-score": np.array([0.4]),
    "saturated": np.clip(np.random.default_rng(4).normal(0.5, 1.0, 20_000), 0.0, 1.0),
}


class TestAverageRanks:
    @pytest.mark.parametrize("case", sorted(RANK_CASES))
    def test_equals_scipy_rankdata_bytes(self, case):
        x = RANK_CASES[case]
        ranks = metrics.average_ranks(x)
        assert ranks.dtype == np.float64
        assert ranks.tobytes() == rankdata(x, method="average").tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), min_size=1, max_size=40))
    def test_equals_scipy_rankdata_on_tied_draws(self, values):
        x = np.asarray(values)
        assert metrics.average_ranks(x).tobytes() == rankdata(x, method="average").tobytes()


class TestBuildReport:
    def test_report_round_trips_through_json(self, tmp_path):
        predictions, records = random_case(7)
        report = metrics.build_report(aligned(predictions, records), records)
        path = tmp_path / "report.json"
        report.save(path)
        import json
        loaded = metrics.EvalReport(**json.loads(path.read_text()))
        assert loaded == report

    def test_flags_surface_degenerate_inputs(self):
        records = [rec("a", ["x"], 1), rec("b", ["x"], 1)]
        report = metrics.build_report([0.9, 0.8], records)
        assert "auc_undefined_single_class" in report.flags
        assert "hf_zero_input" in report.flags

    def test_consistency_with_components(self):
        predictions, records = random_case(11)
        scores = aligned(predictions, records)
        report = metrics.build_report(scores, records, threshold=0.4)
        conf = metrics.confusion_per_target(scores, records, 0.4)
        nfped, nfned, _, _ = metrics.equality_differences(*conf)
        assert report.nfped == nfped and report.nfned == nfned
        assert report.hf == metrics.harmonic_fairness(nfped, nfned)
        assert report.metadata["threshold"] == 0.4

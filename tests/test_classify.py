import math

import numpy as np
import pytest

from graphon_decode.classify import (
    EvalReport,
    PairedStats,
    bootstrap_mean_ci,
    cross_validated_accuracy,
    paired_difference_stats,
    power_from_n,
    predict,
    read_correctness_csv,
    required_n_for_power,
    ridge_fit,
    stratified_folds,
    training_accuracy,
    write_report,
)
from graphon_decode.embedding import pca_fit, pca_transform
from graphon_decode.errors import ParameterError, ParseError, SingularSystemError
from graphon_decode.protocols import Responses


def make_dataset(matrix, labels):
    return Responses(
        values=[v / np.linalg.norm(v) for v in np.abs(matrix)],
        labels=labels,
        trial_ids=range(len(labels)),
    )


def identity_embedder(ds):
    return lambda train, test: (ds.values[train], ds.values[test])


# ---------------------------------------------------------------------------
# ridge fit and predict


def test_two_point_classes_separate_at_zero():
    coords = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    labels = ["s1", "s1", "s2", "s2"]
    model = ridge_fit(coords, labels, lam=0.0)
    assert training_accuracy(coords, labels, lam=0.0) == 1.0
    # the decision boundary sits at 0: scores cross there
    lo = predict(model, np.array([[-0.01]]))[0]
    hi = predict(model, np.array([[0.01]]))[0]
    assert lo == "s1" and hi == "s2"


def test_model_from_separated_classes_predicts_left_class():
    coords = np.array([[-1.0], [1.0]])
    model = ridge_fit(coords, ["s1", "s2"], lam=0.0)
    assert predict(model, np.array([[-1.0]])) == ["s1"]


def test_huge_lambda_collapses_to_majority_class():
    coords = np.array([[-1.0], [-0.5], [1.0]])
    labels = ["a", "a", "b"]
    model = ridge_fit(coords, labels, lam=1e12)
    assert np.max(np.abs(model.weights)) < 1e-9
    assert predict(model, np.array([[5.0], [-5.0]])) == ["a", "a"]


def test_well_separated_blobs_classified_almost_perfectly():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    coords = np.vstack([rng.normal(c, 0.05, size=(100, 2)) for c in centers])
    labels = ["c0"] * 100 + ["c1"] * 100 + ["c2"] * 100
    model = ridge_fit(coords, labels, lam=1e-3)
    acc = np.mean(np.asarray(predict(model, coords)) == np.asarray(labels))
    assert acc >= 0.99


def test_singular_system_raises_at_zero_lambda():
    coords = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [-1.0, -2.0]])
    labels = ["a", "a", "b", "b"]
    with pytest.raises(SingularSystemError, match="lam"):
        ridge_fit(coords, labels, lam=0.0)
    ridge_fit(coords, labels, lam=1.0)  # regularized version is fine


def test_shrinkage_is_monotone_in_lambda():
    rng = np.random.default_rng(1)
    coords = rng.normal(size=(30, 4))
    labels = ["a" if x else "b" for x in rng.integers(0, 2, 30)]
    norms = []
    for lam in (0.01, 0.1, 1.0, 10.0, 100.0):
        model = ridge_fit(coords, labels, lam=lam)
        norms.append(np.linalg.norm(model.weights))
    assert all(n1 >= n2 - 1e-12 for n1, n2 in zip(norms, norms[1:]))


def test_tie_breaks_to_first_class_in_order():
    model = ridge_fit(np.array([[-1.0], [1.0]]), ["a", "b"], lam=0.0)
    # at exactly 0 both scores are 0.5: first class in order wins
    assert predict(model, np.array([[0.0]])) == ["a"]


def test_predict_validates_dimension():
    model = ridge_fit(np.array([[-1.0], [1.0]]), ["a", "b"], lam=0.0)
    with pytest.raises(ParameterError):
        predict(model, np.array([[1.0, 2.0]]))


def test_ridge_needs_two_classes_and_matching_labels():
    with pytest.raises(ParameterError):
        ridge_fit(np.array([[1.0], [2.0]]), ["a", "a"], lam=1.0)
    with pytest.raises(ParameterError):
        ridge_fit(np.array([[1.0], [2.0]]), ["a"], lam=1.0)


# ---------------------------------------------------------------------------
# cross-validation


def test_separable_data_cross_validates_perfectly():
    rng = np.random.default_rng(2)
    mat = np.vstack(
        [
            np.abs(rng.normal(5.0, 0.1, size=(14, 8))) * [1, 1, 1, 1, 0.1, 0.1, 0.1, 0.1],
            np.abs(rng.normal(5.0, 0.1, size=(14, 8))) * [0.1, 0.1, 0.1, 0.1, 1, 1, 1, 1],
        ]
    )
    labels = ["s1"] * 14 + ["s2"] * 14
    ds = make_dataset(mat, labels)
    report = cross_validated_accuracy(ds.labels, identity_embedder(ds), folds=7, lam=1.0, seed=0)
    assert report.accuracy == 1.0
    assert report.ci95 == (1.0, 1.0)
    assert report.confusion.trace() == report.n


def test_permuted_labels_score_near_chance():
    rng = np.random.default_rng(3)
    mat = np.abs(rng.normal(1.0, 0.3, size=(60, 6)))
    labels = list(np.array(["s1", "s2", "s3"]).repeat(20))
    rng.shuffle(labels)
    ds = make_dataset(mat, labels)
    report = cross_validated_accuracy(ds.labels, identity_embedder(ds), folds=5, lam=1.0, seed=1)
    assert report.ci95[0] <= 1.0 / 3.0 <= report.ci95[1]


def test_cross_validation_is_deterministic():
    rng = np.random.default_rng(4)
    mat = np.abs(rng.normal(1.0, 0.5, size=(28, 5)))
    labels = ["s1"] * 14 + ["s2"] * 14
    ds = make_dataset(mat, labels)
    r1 = cross_validated_accuracy(ds.labels, identity_embedder(ds), folds=7, seed=9)
    r2 = cross_validated_accuracy(ds.labels, identity_embedder(ds), folds=7, seed=9)
    assert r1.accuracy == r2.accuracy
    assert r1.ci95 == r2.ci95
    assert np.array_equal(r1.correct, r2.correct)
    assert np.array_equal(r1.confusion, r2.confusion)


def test_pca_embedder_fits_on_train_only():
    rng = np.random.default_rng(5)
    mat = np.abs(rng.normal(1.0, 0.2, size=(21, 10)))
    labels = ["s1"] * 7 + ["s2"] * 7 + ["s3"] * 7
    ds = make_dataset(mat, labels)
    seen = []

    def pca_embedder(train, test):
        model = pca_fit(ds.values[train], dims=4)
        seen.append(train.size)
        assert not set(train) & set(test)
        return pca_transform(model, ds.values[train]), pca_transform(model, ds.values[test])

    cross_validated_accuracy(ds.labels, pca_embedder, folds=7, seed=0)
    assert all(s == 18 for s in seen)  # 21 trials, 3 held out per fold


def test_insufficient_class_counts_rejected():
    rng = np.random.default_rng(6)
    mat = np.abs(rng.normal(1.0, 0.2, size=(8, 4)))
    labels = ["s1"] * 6 + ["s2"] * 2
    ds = make_dataset(mat, labels)
    with pytest.raises(ParameterError, match="fewer than"):
        cross_validated_accuracy(ds.labels, identity_embedder(ds), folds=4)


def test_inner_cv_lambda_grid():
    rng = np.random.default_rng(11)
    coords = np.vstack([rng.normal(-1, 0.1, (12, 2)), rng.normal(1, 0.1, (12, 2))])
    labels = ["a"] * 12 + ["b"] * 12
    from graphon_decode.classify import select_lambda

    lam = select_lambda(coords, labels, grid=(0.01, 0.1, 1.0, 10.0), seed=0)
    assert lam in (0.01, 0.1, 1.0, 10.0)
    assert lam == select_lambda(coords, labels, grid=(0.01, 0.1, 1.0, 10.0), seed=0)
    # direction-coded classes survive the unit-norm constraint and stay
    # perfectly separable when the grid picks the penalty
    mat = np.vstack(
        [np.abs(rng.normal([3.0, 0.1], 0.05, (12, 2))), np.abs(rng.normal([0.1, 3.0], 0.05, (12, 2)))]
    )
    ds = make_dataset(mat, labels)
    report = cross_validated_accuracy(
        ds.labels, identity_embedder(ds), folds=4, lam_grid=(0.01, 0.1, 1.0, 10.0), seed=0
    )
    assert report.accuracy == 1.0


def test_lambda_grid_falls_back_on_tiny_classes():
    from graphon_decode.classify import select_lambda

    lam = select_lambda(np.array([[0.0], [1.0]]), ["a", "b"], grid=(0.01, 1.0, 10.0))
    assert lam == 1.0  # median candidate


def test_stratified_folds_balance_classes():
    labels = ["a"] * 12 + ["b"] * 12
    folds = stratified_folds(labels, 4, seed=0)
    assert sorted(np.concatenate(folds).tolist()) == list(range(24))
    for f in folds:
        labs = [labels[i] for i in f]
        assert labs.count("a") == 3 and labs.count("b") == 3


# ---------------------------------------------------------------------------
# bootstrap and power statistics


def test_identical_vectors_give_null_stats():
    v = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    ps = paired_difference_stats(v, v.copy())
    assert ps.mean_difference == 0.0
    assert ps.diff_ci95 == (0.0, 0.0)
    assert ps.effect_size == 0.0
    assert math.isinf(ps.required_n)


def test_constant_nonzero_difference_is_an_error():
    a = np.ones(10)
    b = np.zeros(10)
    with pytest.raises(ParameterError, match="zero variance"):
        paired_difference_stats(a, b)


def test_length_mismatch_rejected():
    with pytest.raises(ParameterError):
        paired_difference_stats(np.ones(5), np.ones(6))


def test_required_n_reproduces_published_power_calculation():
    # d = 0.213 at 80 percent power and alpha 0.05 needs about 173 samples
    n = required_n_for_power(0.213)
    assert abs(n - 173) <= 3


def test_power_formula_self_consistent():
    for d in (0.213, 0.1, 0.5, 1.0):
        n = required_n_for_power(d)
        assert power_from_n(n, d) == pytest.approx(0.80, abs=0.02)


def test_bootstrap_ci_brackets_true_accuracy():
    # loose coverage check: the 95 percent CI should cover the true mean in
    # at least 90 of 100 synthetic repetitions
    rng = np.random.default_rng(7)
    p = 0.7
    hits = 0
    for rep in range(100):
        sample = (rng.random(60) < p).astype(float)
        lo, hi = bootstrap_mean_ci(sample, resamples=1000, seed=rep)
        hits += lo <= p <= hi
    assert hits >= 90


def test_bootstrap_ci_deterministic_given_seed():
    v = np.array([1.0, 0.0, 1.0, 1.0])
    assert bootstrap_mean_ci(v, seed=3) == bootstrap_mean_ci(v, seed=3)


def test_paired_stats_on_correlated_vectors():
    rng = np.random.default_rng(8)
    base = (rng.random(200) < 0.7).astype(float)
    flip = rng.random(200) < 0.1
    other = np.where(flip, 1.0 - base, base)
    ps = paired_difference_stats(base, other, seed=0)
    assert ps.diff_ci95[0] <= ps.mean_difference <= ps.diff_ci95[1]
    assert ps.required_n > 1


# ---------------------------------------------------------------------------
# report files


def test_report_round_trip(tmp_path):
    report = EvalReport(
        accuracy=0.75,
        per_class_accuracy={"s1": 0.8, "s2": 0.7},
        confusion=np.array([[8, 2], [3, 7]]),
        ci95=(0.6, 0.9),
        n=20,
        class_order=("s1", "s2"),
        correct=np.ones(20),
    )
    ps = PairedStats(mean_difference=0.05, diff_ci95=(-0.04, 0.13), effect_size=0.213, required_n=173)
    path = tmp_path / "report.csv"
    write_report(path, report, paired=ps, extra={"method": "graphon"})
    text = path.read_text()
    assert "accuracy,0.75" in text
    assert "effect_size,0.213" in text
    assert "required_n_for_80pct_power,173" in text
    assert "confusion_s1,8|2" in text
    assert "method,graphon" in text


def test_report_validates_consistency():
    with pytest.raises(ParameterError):
        EvalReport(
            accuracy=0.95,
            per_class_accuracy={},
            confusion=np.array([[1]]),
            ci95=(0.1, 0.2),
            n=1,
            class_order=("s1",),
        )


def test_read_correctness_csv(tmp_path):
    path = tmp_path / "correct.csv"
    path.write_text("trial_id,correct\n1,0\n0,1\n2,1\n")
    v = read_correctness_csv(path)
    assert np.array_equal(v, [1.0, 0.0, 1.0])
    bad = tmp_path / "bad.csv"
    bad.write_text("trial_id,correct\n0,2\n")
    with pytest.raises(ParseError, match="row 2"):
        read_correctness_csv(bad)


@pytest.mark.parametrize(
    "body, match",
    [
        ("0,1\nx,0\n", "row 3: bad trial_id"),
        ("0,1\n1.5,0\n", "row 3: bad trial_id"),
        ("0,1\n1,0\n0,0\n", "row 4: duplicate trial_id 0"),
    ],
)
def test_read_correctness_csv_rejects_bad_trial_ids(tmp_path, body, match):
    path = tmp_path / "correct.csv"
    path.write_text("trial_id,correct\n" + body)
    with pytest.raises(ParseError, match=match):
        read_correctness_csv(path)

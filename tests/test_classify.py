import math
import tracemalloc
from dataclasses import FrozenInstanceError
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphon_decode import classify
from graphon_decode.classify import (
    _BOOTSTRAP_BLOCK,
    _fit_decoder,
    _out_of_fold_predictions,
    EvalReport,
    bootstrap_mean_ci,
    cross_validated_accuracy,
    evaluate,
    pair_by_trial_id,
    paired_difference_stats,
    predict,
    read_correctness_csv,
    required_n_for_power,
    ridge_fit,
    select_lambda,
    stratified_folds,
    write_report,
)
from graphon_decode.embedding import pca_fit
from graphon_decode.errors import DataError, ParameterError, ParseError, SingularSystemError
from graphon_decode.protocols import Responses


def make_dataset(matrix, labels):
    return Responses(
        values=[v / np.linalg.norm(v) for v in np.abs(matrix)],
        labels=labels,
        trial_ids=range(len(labels)),
    )


# ---------------------------------------------------------------------------
# ridge fit and predict


def test_two_point_classes_separate_at_zero():
    coords = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    labels = ["s1", "s1", "s2", "s2"]
    model = ridge_fit(coords, labels, lam=0.0)
    assert _fit_decoder(coords, labels, lam=0.0)(coords) == labels
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
    # a lone row may come 1-D
    assert predict(model, np.array([0.5])) == predict(model, [0.5]) == predict(model, [[0.5]]) == ["b"]


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
    report = cross_validated_accuracy(ds.labels, ds.values, folds=7, lam=1.0, seed=0)
    assert report.accuracy == 1.0
    assert report.ci95 == (1.0, 1.0)
    assert report.confusion.trace() == report.n


def test_permuted_labels_score_near_chance():
    rng = np.random.default_rng(3)
    mat = np.abs(rng.normal(1.0, 0.3, size=(60, 6)))
    labels = list(np.array(["s1", "s2", "s3"]).repeat(20))
    rng.shuffle(labels)
    ds = make_dataset(mat, labels)
    report = cross_validated_accuracy(ds.labels, ds.values, folds=5, lam=1.0, seed=1)
    assert report.ci95[0] <= 1.0 / 3.0 <= report.ci95[1]


def test_cross_validation_is_deterministic():
    rng = np.random.default_rng(4)
    mat = np.abs(rng.normal(1.0, 0.5, size=(28, 5)))
    labels = ["s1"] * 14 + ["s2"] * 14
    ds = make_dataset(mat, labels)
    r1 = cross_validated_accuracy(ds.labels, ds.values, folds=7, seed=9)
    r2 = cross_validated_accuracy(ds.labels, ds.values, folds=7, seed=9)
    assert r1.accuracy == r2.accuracy
    assert r1.ci95 == r2.ci95
    assert np.array_equal(r1.correct, r2.correct)
    assert np.array_equal(r1.confusion, r2.confusion)


def test_pca_embedder_fits_on_train_only(monkeypatch):
    rng = np.random.default_rng(5)
    mat = np.abs(rng.normal(1.0, 0.2, size=(21, 10)))
    labels = ["s1"] * 7 + ["s2"] * 7 + ["s3"] * 7
    ds = make_dataset(mat, labels)
    seen = []

    def recording_fit(rows, dims):
        seen.append(rows.copy())
        return pca_fit(rows, dims=dims)

    monkeypatch.setattr(classify, "pca_fit", recording_fit)
    _out_of_fold_predictions(np.asarray(ds.labels), ds.values, 7, 1.0, 0, pca_dims=4)
    # each fold's fit sees its 18 training trials and none of its 3 held out
    folds = stratified_folds(ds.labels, 7, seed=0)
    assert len(seen) == len(folds) == 7
    for rows, test in zip(seen, folds):
        assert np.array_equal(rows, np.delete(ds.values, test, axis=0))


def test_insufficient_class_counts_rejected():
    rng = np.random.default_rng(6)
    mat = np.abs(rng.normal(1.0, 0.2, size=(8, 4)))
    labels = ["s1"] * 6 + ["s2"] * 2
    ds = make_dataset(mat, labels)
    with pytest.raises(ParameterError, match="fewer than"):
        cross_validated_accuracy(ds.labels, ds.values, folds=4)


def test_inner_cv_lambda_grid():
    rng = np.random.default_rng(11)
    coords = np.vstack([rng.normal(-1, 0.1, (12, 2)), rng.normal(1, 0.1, (12, 2))])
    labels = ["a"] * 12 + ["b"] * 12
    lam = select_lambda(coords, labels, grid=(0.01, 0.1, 1.0, 10.0), seed=0)
    assert lam in (0.01, 0.1, 1.0, 10.0)
    assert lam == select_lambda(coords, labels, grid=(0.01, 0.1, 1.0, 10.0), seed=0)
    # direction-coded classes survive the unit-norm constraint and stay
    # perfectly separable when the grid picks the penalty
    mat = np.vstack(
        [np.abs(rng.normal([3.0, 0.1], 0.05, (12, 2))), np.abs(rng.normal([0.1, 3.0], 0.05, (12, 2)))]
    )
    ds = make_dataset(mat, labels)
    predicted = _out_of_fold_predictions(ds.labels, ds.values, 4, 1.0, 0, lam_grid=(0.01, 0.1, 1.0, 10.0))
    assert predicted.tolist() == list(ds.labels)


def test_lambda_grid_falls_back_on_tiny_classes():
    lam = select_lambda(np.array([[0.0], [1.0]]), ["a", "b"], grid=(0.01, 1.0, 10.0))
    assert lam == 1.0  # median candidate


def test_lambda_grid_sees_the_training_rows_not_their_pca_coordinates(monkeypatch):
    # the penalty is chosen by refitting PCA inside each inner fold, so the
    # axes never see the rows that score a penalty
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((24, 10))
    labels = np.array(["a", "b"] * 12)
    rows[labels == "b", 0] += 3.0
    seen, choose = [], classify.select_lambda

    def spy(coords, *args, **kwargs):
        seen.append(np.shape(coords))
        return choose(coords, *args, **kwargs)

    monkeypatch.setattr(classify, "select_lambda", spy)
    _out_of_fold_predictions(labels, rows, 3, 1.0, 0, lam_grid=(0.1, 1.0), pca_dims=2)
    assert seen == [(16, 10)] * 3


def test_lambda_grid_takes_the_median_when_inner_folds_cannot_fit_pca():
    # 4 trials per class split 2/1/1 leave an inner training set of 4 rows:
    # enough for 3 components, too few for 4
    rows = np.random.default_rng(3).standard_normal((8, 10))
    labels = ["a", "b"] * 4
    grid = (0.01, 0.1, 1.0, 10.0)
    assert select_lambda(rows, labels, grid, pca_dims=4) == 1.0
    assert select_lambda(rows, labels, grid, pca_dims=3) in grid


def test_stratified_folds_balance_classes():
    labels = ["a"] * 12 + ["b"] * 12
    folds = stratified_folds(labels, 4, seed=0)
    assert sorted(np.concatenate(folds).tolist()) == list(range(24))
    for f in folds:
        labs = [labels[i] for i in f]
        assert labs.count("a") == 3 and labs.count("b") == 3


def test_resampling_guards():
    # a zero resample count, a negative seed or an empty penalty grid is a
    # ParameterError rather than an IndexError or a ValueError from numpy
    with pytest.raises(ParameterError, match="resamples"):
        bootstrap_mean_ci([1.0, 0.0], resamples=0)
    with pytest.raises(ParameterError, match="seed"):
        bootstrap_mean_ci([1.0, 0.0], seed=-1)
    with pytest.raises(ParameterError, match="seed"):
        stratified_folds(["a", "b"] * 2, 2, seed=-1)
    with pytest.raises(ParameterError, match="grid"):
        select_lambda([[0.0], [1.0]], ["a", "b"], grid=())


# ---------------------------------------------------------------------------
# bootstrap and power statistics


def test_identical_vectors_give_null_stats():
    v = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    ps = paired_difference_stats(v, v.copy())
    assert ps.mean_difference == 0.0
    assert ps.diff_ci95 == (0.0, 0.0)
    assert ps.effect_size == 0.0
    assert math.isinf(ps.required_n)
    with pytest.raises(ParameterError, match="resamples"):  # the draw is checked without variance too
        paired_difference_stats(v, v, resamples=0)


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


def test_required_n_is_the_smallest_n_with_the_power():
    # the two-sided test at n has power Phi(sqrt(n) d - z_{0.975}) >= 0.80,
    # and one sample fewer falls short of it
    normal = NormalDist()
    z_alpha = normal.inv_cdf(0.975)
    for d in (0.213, 0.1, 0.5, 1.0):
        n = required_n_for_power(d)
        assert normal.cdf(math.sqrt(n) * d - z_alpha) >= 0.80
        assert normal.cdf(math.sqrt(n - 1) * d - z_alpha) < 0.80


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


def _unblocked_means(stack, resamples, seed):
    # one (resamples x n) draw at once: the reference the blocks must match bit
    # for bit, averaged row by row
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = rng.integers(0, stack.shape[1], size=(resamples, stack.shape[1]))
    return np.stack([row[draws].mean(axis=1) for row in stack])


@pytest.mark.parametrize("kind", ["binary", "ternary", "gaussian", "counts"])
@pytest.mark.parametrize("n", [1, 2, 7, 37, 900, _BOOTSTRAP_BLOCK + 1])
def test_blocked_bootstrap_equals_one_unblocked_draw(n, kind, monkeypatch):
    # spy on the means handed to np.percentile, so every resample's mean is
    # compared bit for bit, not only the ones that set the interval
    seen = []
    percentile = np.percentile
    monkeypatch.setattr(np, "percentile", lambda a, q: seen.append(a.copy()) or percentile(a, q))
    rows = max(1, _BOOTSTRAP_BLOCK // n)
    counts = {1, rows - 1, rows, rows + 1}
    if n <= _BOOTSTRAP_BLOCK:  # above it the unblocked reference would need 10,000 x n x 16 bytes
        counts.add(10_000)
    for seed in (0, 1, 12345):
        rng = np.random.default_rng([seed, n])
        values = {
            "binary": (rng.random(n) < 0.6).astype(float),
            "ternary": rng.integers(-1, 2, n).astype(float),
            "gaussian": rng.standard_normal(n),
            "counts": rng.integers(0, 6, n).astype(float),
        }[kind]
        # each stack with whether its rows are summed as packed integer codes
        stacks = [(np.vstack([values, 1.0 - values, rng.standard_normal(n)]), False)]
        if kind == "counts":
            bits = values % 2.0
            wide = values + 2.0**40 * (np.arange(n) % 2)  # one value has no spread to pack
            stacks += [
                (np.vstack([bits, 1.0 - bits, bits - (1.0 - bits)]), True),
                (np.vstack([values, 5.0 - values]), True),
                (np.vstack([values, wide, 2.0**40 - wide]), n == 1),
                (np.vstack([values, np.r_[-0.0, values[1:]]]), False),
            ]
        for resamples in sorted(c for c in counts if c >= 1):
            # one unblocked draw gives the reference means of the sample and of every stack row
            expected, *stacked = np.split(
                _unblocked_means(np.vstack([values, *(stack for stack, _ in stacks)]), resamples, seed),
                np.cumsum([1, *(len(stack) for stack, _ in stacks[:-1])]),
            )
            seen.clear()
            ci = bootstrap_mean_ci(values, resamples=resamples, seed=seed)
            assert seen[0].tobytes() == expected.tobytes(), (seed, resamples)
            tail = 100.0 * (1.0 - 0.95) / 2.0  # the 95% level, computed as the function does
            lo, hi = percentile(expected[0], [tail, 100.0 - tail])
            assert ci == (float(lo), float(hi)), (seed, resamples)
            # a stack shares the draw, whichever path sums its rows
            pairs = []
            for (stack, packs), reference in zip(stacks, stacked):
                assert (classify._pack(stack) is not None) == packs
                seen.clear()
                pairs.append(bootstrap_mean_ci(stack, resamples=resamples, seed=seed))
                assert len(pairs[-1]) == len(seen) == len(stack)
                assert np.stack(seen).tobytes() == reference.tobytes(), (seed, resamples)
            # and each row of the first stack equals its own call bit for bit
            for row, pair, means in zip(stacks[0][0], pairs[0], stacked[0]):
                seen.clear()
                assert bootstrap_mean_ci(row, resamples=resamples, seed=seed) == pair, (seed, resamples)
                assert seen[0].tobytes() == means.tobytes(), (seed, resamples)


def test_bootstrap_memory_does_not_grow_with_resamples():
    # numpy reports its buffers to tracemalloc; one unblocked draw of
    # 10,000 x 900 indices plus its gather peaks at ~137 MiB
    values = (np.random.default_rng(0).random(900) < 0.7).astype(float)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        bootstrap_mean_ci(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak


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
        correct=np.repeat([1.0, 0.0], [15, 5]),
        confusion=np.array([[8, 2], [3, 7]]),
        class_order=("s1", "s2"),
        ci95=(0.6, 0.9),
    )
    path = tmp_path / "report.csv"
    write_report(path, report, extra={"method": "graphon"})
    text = path.read_text()
    assert "accuracy,0.75" in text
    assert "confusion_s1,8|2" in text
    assert "method,graphon" in text


def test_report_is_read_only_and_leaves_its_inputs_writable():
    # a write into a report's correctness once moved its accuracy off its confusion
    labels = np.array(["a", "b", "a", "b"])
    report = evaluate(labels, {"m": np.array(["a", "b", "b", "b"])}, 100, 0)[0]["m"]
    for name in ("correct", "confusion"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(report, name)[:] = 1
        with pytest.raises(FrozenInstanceError):
            setattr(report, name, np.ones(4))
    assert report.accuracy == 0.75
    assert report.confusion.tolist() == [[1, 1], [0, 2]]
    correct, confusion = np.array([1.0, 0.0]), np.array([[1, 0], [1, 0]])
    EvalReport(correct, confusion, ("s1", "s2"), (0.0, 1.0))
    assert correct.flags.writeable and confusion.flags.writeable


@pytest.mark.parametrize(
    "predicted, shape", [(["a"], "(1,)"), (["a", "b", "a", "b", "a"], "(5,)"), ([["a", "b"], ["a", "b"]], "(2, 2)")]
)
def test_evaluate_takes_one_prediction_per_trial(predicted, shape):
    # one prediction was once broadcast over four trials, and scored 0.5
    with pytest.raises(ParameterError) as err:
        evaluate(["a", "b", "a", "b"], {"m": np.array(predicted)}, 10, 0)
    assert str(err.value) == f"method 'm' must predict one label per trial, got shape {shape}"


def test_report_validates_consistency():
    with pytest.raises(ParameterError, match="confusion matrix total"):
        EvalReport(
            correct=np.array([1.0, 0.0]),
            confusion=np.array([[1]]),
            class_order=("s1",),
            ci95=(0.5, 0.5),
        )


@st.composite
def labelled_predictions(draw):
    """2-60 trial labels from 2-5 classes, and two methods' predictions of
    them, each taken from the labels present."""
    classes = [f"s{i}" for i in range(draw(st.integers(2, 5)))]
    n = draw(st.integers(2, 60))
    labels = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    present = st.sampled_from(sorted(set(labels)))
    a, b = (draw(st.lists(present, min_size=n, max_size=n)) for _ in range(2))
    return labels, np.array(a), np.array(b)


@given(labelled_predictions())
@settings(max_examples=100, deadline=None)
def test_evaluate_report_matches_a_per_trial_reference(case):
    labels, a, b = case
    correct_a = (np.array(labels) == a).astype(float)
    diff = correct_a - (np.array(labels) == b)
    assume(diff.std() > 0 or not diff.any())  # a constant nonzero difference has no effect size
    differences = [diff, np.zeros_like(diff)]
    reports, paired = evaluate(labels, {"a": a}, resamples=20, seed=0, differences=differences)

    order = sorted(set(labels))
    confusion = np.zeros((len(order), len(order)), dtype=int)
    for true, pred in zip(labels, a):
        confusion[order.index(true), order.index(pred)] += 1
    report = reports["a"]
    assert report.class_order == tuple(order)
    np.testing.assert_array_equal(report.confusion, confusion)
    assert report.n == len(labels)
    assert report.accuracy == float(correct_a.mean())
    per_class = {c: float(correct_a[np.array(labels) == c].mean()) for c in order}
    assert report.per_class_accuracy == per_class
    for ps in paired:
        assert ps.required_n == required_n_for_power(ps.effect_size)
    assert paired[1].effect_size == 0.0 and math.isinf(paired[1].required_n)


def test_single_resample_report_need_not_contain_its_accuracy():
    # one resample's percentile interval is that resample's mean, which
    # seldom equals the accuracy
    rng = np.random.default_rng(3)
    mat = np.abs(rng.normal(1.0, 0.3, size=(20, 6)))
    labels = ["s1", "s2"] * 10
    report = cross_validated_accuracy(labels, mat, folds=5, resamples=1, seed=0)
    assert report.ci95[0] == report.ci95[1] != report.accuracy


def test_read_correctness_csv(tmp_path):
    path = tmp_path / "correct.csv"
    path.write_text("trial_id,correct\n1,0\n0,1\n2,1\n")
    v = read_correctness_csv(path)
    assert list(v.items()) == [(0, 1.0), (1, 0.0), (2, 1.0)]
    bad = tmp_path / "bad.csv"
    bad.write_text("trial_id,correct\n0,2\n")
    with pytest.raises(ParseError, match="row 2"):
        read_correctness_csv(bad)


def test_pair_by_trial_id_follows_the_first_map():
    a, b = pair_by_trial_id({5: 1.0, 2: 0.0, 9: 1.0}, {2: 1.0, 9: 0.0, 5: 0.0})
    assert a.tolist() == [1.0, 0.0, 1.0] and b.tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(DataError, match=r"trial id 9 is only in a \(1 unpaired ids\)"):
        pair_by_trial_id({2: 1.0, 9: 1.0}, {2: 1.0})
    with pytest.raises(DataError, match=r"trial id 1 is only in right \(7 unpaired ids\)"):
        pair_by_trial_id({0: 1.0, 9: 0.0}, dict.fromkeys(range(7), 1.0), names=("left", "right"))


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

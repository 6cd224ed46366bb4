"""Ridge-regression stimulus classification with bootstrap statistics.

The classifier regresses one-hot class indicators on low-dimensional
coordinates with an L2 penalty on the weights (never on the intercept) and
predicts by argmax of the class scores.  Accuracy uncertainty comes from a
percentile bootstrap over per-trial correctness; method comparisons use
paired differences with Cohen's d and a normal-approximation sample-size
estimate.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .embedding import _matrix, pca_fit, pca_transform
from .errors import DataError, ParameterError, SingularSystemError
from .protocols import _read_keyed_rows
from .sbm import _field_value, _readonly, _rng, _write_csv


@dataclass(frozen=True, eq=False)
class RidgeModel:
    weights: np.ndarray  # (dims, classes)
    intercepts: np.ndarray  # (classes,)
    class_order: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Cross-validated accuracy with its bootstrap CI and confusion matrix.

    ``correct`` holds the pooled out-of-fold correctness per trial in dataset
    order, which is what paired method comparisons consume.  The report
    stores what the folds observed, as read-only copies, so the trial count
    and the accuracies derived from it keep agreeing with the confusion.
    """

    correct: np.ndarray = field(repr=False)
    confusion: np.ndarray  # rows true class, columns predicted
    class_order: tuple[str, ...]
    ci95: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "correct", _readonly(np.array(self.correct)))
        object.__setattr__(self, "confusion", _readonly(np.array(self.confusion)))
        # a percentile interval need not contain the accuracy, so it is not checked
        if self.confusion.sum() != self.n:
            raise ParameterError("confusion matrix total must equal the trial count")

    @property
    def n(self) -> int:
        return self.correct.size

    @property
    def accuracy(self) -> float:
        return float(self.correct.mean())

    @property
    def per_class_accuracy(self) -> dict[str, float]:
        # exact integer counts, so each equals the mean of its class's correctness
        c = self.confusion
        return {lab: float(c[i, i] / c[i].sum()) for i, lab in enumerate(self.class_order)}


def ridge_fit(coords, labels, lam: float = 1.0) -> RidgeModel:
    """Closed-form ridge regression of one-hot labels on coordinates.

    Features and targets are centered so the penalty never touches the
    intercept.  With lam = 0 and collinear features the normal equations are
    singular and a SingularSystemError advises regularizing.
    """
    labels = list(labels)
    x = _matrix(coords, "coords", labels=labels)
    if not 0 <= lam < math.inf:
        raise ParameterError(f"lam must be finite and nonnegative, got {lam}")
    class_order, index = np.unique(labels, return_inverse=True)
    if class_order.size < 2:
        raise ParameterError("need at least two distinct classes")
    y = np.eye(class_order.size)[index]

    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    xc = x - x_mean
    gram = xc.T @ xc + lam * np.eye(x.shape[1])
    if lam == 0.0:
        rank = np.linalg.matrix_rank(gram)
        if rank < x.shape[1]:
            raise SingularSystemError(
                "normal equations are singular (collinear features at lam=0); "
                "refit with lam > 0"
            )
    weights = np.linalg.solve(gram, xc.T @ (y - y_mean))
    intercepts = y_mean - x_mean @ weights
    return RidgeModel(
        weights=_readonly(weights),
        intercepts=_readonly(intercepts),
        class_order=tuple(class_order.tolist()),
    )


def predict(model: RidgeModel, coords) -> list[str]:
    """Argmax of class scores; exact ties resolve to the earliest class in
    ``class_order``."""
    # one row may come alone; ragged rows are 1-D as objects, and _matrix refuses them
    x = _matrix([coords] if np.asarray(coords, dtype=object).ndim == 1 else coords, "coords")
    if x.shape[1] != model.weights.shape[0]:
        raise ParameterError(
            f"feature dimension {x.shape[1]} does not match model ({model.weights.shape[0]})"
        )
    scores = x @ model.weights + model.intercepts
    picks = np.argmax(scores, axis=1)  # first maximum wins ties
    return [model.class_order[k] for k in picks]


# Bootstrap indices drawn per block: 2**17 int64 draws plus their gather, of
# packed integer codes or of one row's floats, is 2 MiB, and larger blocks
# were no faster (BENCH_10.json).
_BOOTSTRAP_BLOCK = 2**17


def stratified_folds(labels, folds: int, seed: int = 0) -> list[np.ndarray]:
    """Shuffled per-class round-robin assignment into ``folds`` test folds."""
    labels, folds = np.asarray(labels), _field_value("folds", "int", folds, 2)
    rng = _rng(seed)
    assignment = np.empty(labels.size, dtype=int)
    for lab in sorted(set(labels.tolist())):
        idx = np.nonzero(labels == lab)[0]
        if idx.size < folds:
            raise ParameterError(
                f"class {lab!r} has {idx.size} trials, fewer than {folds} folds"
            )
        idx = rng.permutation(idx)
        assignment[idx] = np.arange(idx.size) % folds
    return [np.nonzero(assignment == f)[0] for f in range(folds)]


def _check_class_sizes(labels, classes, folds: int, source: str = "") -> None:
    """DataError, its message prefixed by ``source``, unless ``classes`` holds
    two or more classes and each has at least ``folds`` trials in ``labels``."""
    counts = Counter(labels)
    short = {lab: counts[lab] for lab in classes if counts[lab] < folds}
    if short:
        raise DataError(f"{source}classes with fewer usable trials than {folds} folds: {short}")
    if len(classes) < 2:
        raise DataError(f"{source}need at least two classes, got {list(classes)}")


def _pack(samples):
    """The k x n stack ``samples`` as one int64 code per trial, the bits each
    row takes and n times each row's minimum; None unless every value is an
    integer, none is -0.0, and the rows fit.  Row s holds its values less
    their minimum in bits [s * width, (s + 1) * width), wide enough for the
    sum of n of them, and k * width <= 62 keeps the codes' sums in an int64.
    With n * |value| < 2**53, every partial sum of n values is an integer a
    double holds, so numpy's float sum of a resample is its exact sum too."""
    k, n = samples.shape
    if not (
        n * np.abs(samples).max() < 2**53  # False for NaN and infinity too
        and (samples == np.trunc(samples)).all()
        and not (np.signbit(samples) & (samples == 0)).any()
    ):
        return None
    low = samples.min(axis=1)
    offsets = (samples - low[:, None]).astype(np.int64)
    width = (int(offsets.max()) * n).bit_length()
    if k * width > 62:
        return None
    code = (offsets << (width * np.arange(k, dtype=np.int64))[:, None]).sum(axis=0)
    return code, width, n * low.astype(np.int64)


def bootstrap_mean_ci(
    values, resamples: int = 10_000, seed: int = 0
) -> tuple[float, float] | list[tuple[float, float]]:
    """95% percentile bootstrap CI for the mean of ``values``: one (low, high)
    pair for one sample (1-D), or a list of k pairs for a k x n stack of
    samples.

    The resamples are drawn and averaged in blocks of at most
    ``_BOOTSTRAP_BLOCK`` indices, so memory does not grow with ``resamples``.
    The blocks continue one generator stream and each row's mean depends on
    that row alone, so the result equals one unblocked draw bit for bit.
    Every sample of a stack is averaged over the same drawn indices, so its
    pair equals the pair of its own call.  A stack that :func:`_pack` takes,
    such as per-trial correctness and its paired differences, is gathered
    once per block as packed integer codes; its sums are exact, so each
    mean is the double the per-row float gather gives.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.size == 0:
        raise ParameterError("need a nonempty sample or k x n stack of samples")
    resamples = _field_value("resamples", "int", resamples, 1)
    rng = _rng(seed)
    samples = values.reshape(-1, values.shape[-1])
    n = samples.shape[1]
    rows = max(1, _BOOTSTRAP_BLOCK // n)
    means = np.empty((len(samples), resamples))
    packed = _pack(samples)
    for start in range(0, resamples, rows):
        stop = min(start + rows, resamples)
        draws = rng.integers(0, n, size=(stop - start, n))
        if packed is None:
            for sample, out in zip(samples, means):
                out[start:stop] = sample[draws].mean(axis=1)
        else:
            code, width, low_sums = packed
            sums = code[draws].sum(axis=1)
            for s, (low_sum, out) in enumerate(zip(low_sums, means)):
                out[start:stop] = (((sums >> (s * width)) & ((1 << width) - 1)) + low_sum) / n
    tail = 100.0 * (1.0 - 0.95) / 2.0  # 2.500000000000002; a literal 2.5 moves interval bits
    pairs = [tuple(float(x) for x in np.percentile(row, [tail, 100.0 - tail])) for row in means]
    return pairs[0] if values.ndim == 1 else pairs


def select_lambda(coords, labels, grid, seed: int = 0, pca_dims: int | None = None) -> float:
    """Inner 3-fold cross-validation over a penalty grid; ties go to the
    larger penalty.  Each penalty is scored by the decoder of
    :func:`_fit_decoder`, so with ``pca_dims`` the principal axes are refitted
    without each inner fold's rows.  Falls back to the median candidate when
    the classes are too small to split further, or an inner training set too
    small to fit ``pca_dims`` components."""
    labels = np.asarray(labels)
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ParameterError("the penalty grid is empty")
    inner = min(3, *Counter(labels.tolist()).values())
    if inner < 2 or (
        pca_dims is not None
        and labels.size - max(map(len, stratified_folds(labels, inner, seed))) < pca_dims + 1
    ):
        return grid[len(grid) // 2]
    coords = np.asarray(coords, dtype=float)
    best_lam, best_hits = grid[0], -1
    for lam in grid:
        predicted = _out_of_fold_predictions(labels, coords, inner, lam, seed, pca_dims=pca_dims)
        hits = int(np.sum(predicted == labels))
        if hits >= best_hits:  # >= so ties prefer the larger (more regularized) lam
            best_lam, best_hits = lam, hits
    return best_lam


def cross_validated_accuracy(
    labels, coords, folds: int = 7, lam: float = 1.0, seed: int = 0, resamples: int = 10_000
) -> EvalReport:
    """Stratified k-fold accuracy of a ridge classifier with penalty ``lam``
    on fixed coordinates.

    ``labels`` holds one stimulus label per trial and ``coords`` one row of
    coordinates per trial.  The report pools out-of-fold predictions.
    """
    predicted = _out_of_fold_predictions(labels, np.asarray(coords, dtype=float), folds, lam, seed)
    return evaluate(labels, {"cv": predicted}, resamples, seed)[0]["cv"]


def evaluate(
    labels, predicted: dict, resamples: int, seed: int, differences=()
) -> tuple[dict[str, EvalReport], list[PairedStats]]:
    """The report of each method's out-of-fold ``predicted`` labels, and the
    paired statistics of each vector of ``differences``.  Every interval
    comes from one bootstrap draw, and each equals the interval of its own
    draw."""
    labels = np.asarray(labels)
    for method, p in predicted.items():
        if np.shape(p) != labels.shape:  # numpy would broadcast a lone prediction
            raise ParameterError(
                f"method {method!r} must predict one label per trial, got shape {np.shape(p)}"
            )
    correct = [(labels == p).astype(float) for p in predicted.values()]
    cis = bootstrap_mean_ci(np.vstack([*correct, *differences]), resamples=resamples, seed=seed)
    class_order, true = np.unique(labels, return_inverse=True)
    k = class_order.size
    reports = {}
    for (method, p), c, ci in zip(predicted.items(), correct, cis):
        # one bin per (true, predicted) class pair; every prediction is a label present
        confusion = np.bincount(true * k + np.searchsorted(class_order, p), minlength=k * k)
        reports[method] = EvalReport(c, confusion.reshape(k, k), tuple(class_order.tolist()), ci)
    paired = [_paired_stats(d, ci) for d, ci in zip(differences, cis[len(reports):])]
    return reports, paired


def _fit_decoder(rows, labels, lam: float, pca_dims: int | None = None, lam_grid=None, seed: int = 0):
    """The rows -> labels function of a ridge classifier fitted on ``rows``,
    or with ``pca_dims`` on their top principal components, its penalty chosen
    from ``lam_grid`` by :func:`select_lambda` when that is set."""
    if lam_grid is not None:
        lam = select_lambda(rows, labels, lam_grid, seed, pca_dims)
    if pca_dims is None:
        model = ridge_fit(rows, labels, lam=lam)
        return lambda mat: predict(model, mat)
    pca = pca_fit(rows, dims=pca_dims)
    model = ridge_fit(pca.coords, labels, lam=lam)
    return lambda mat: predict(model, pca_transform(pca, mat))


def _out_of_fold_predictions(
    labels, rows, folds: int, lam: float, seed: int, lam_grid=None, pca_dims: int | None = None
) -> np.ndarray:
    """Each trial's label as predicted by the decoder :func:`_fit_decoder`
    fits without its fold, so nothing fitted sees the trials it predicts."""
    labels = np.asarray(labels)
    predicted = np.empty(labels.size, dtype=object)
    for test_idx in stratified_folds(labels, folds, seed=seed):
        train_mask = np.ones(labels.size, dtype=bool)
        train_mask[test_idx] = False
        decode = _fit_decoder(rows[train_mask], labels[train_mask], lam, pca_dims, lam_grid, seed)
        predicted[test_idx] = decode(rows[test_idx])
    return predicted.astype(str)


# ---------------------------------------------------------------------------
# paired comparison statistics


@dataclass(frozen=True)
class PairedStats:
    mean_difference: float
    diff_ci95: tuple[float, float]
    effect_size: float

    @property
    def required_n(self) -> float:
        """Trials per paired sample for 80 percent power."""
        return required_n_for_power(self.effect_size)


def required_n_for_power(effect_size: float) -> float:
    """Paired-sample size for a two-sided test at 5% significance and 80%
    power under the normal approximation: n = ((z_{0.975} + z_{0.80}) / d)^2,
    rounded up."""
    if effect_size == 0:
        return math.inf
    z_alpha = NormalDist().inv_cdf(1.0 - 0.05 / 2.0)
    z_power = NormalDist().inv_cdf(0.80)
    return float(math.ceil(((z_alpha + z_power) / abs(effect_size)) ** 2))


def paired_difference_stats(
    correct_a, correct_b, resamples: int = 10_000, seed: int = 0
) -> PairedStats:
    """Bootstrap CI of the mean paired difference, Cohen's d on the
    differences, and the sample size needed for 80 percent power.

    Identical vectors are a meaningful degenerate case (no difference at all:
    effect 0, CI collapsed at 0).  A constant nonzero difference has no
    variance to standardize by, so the effect size is undefined and an error
    is raised.
    """
    a = np.asarray(correct_a, dtype=float)
    b = np.asarray(correct_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ParameterError("need two equal-length 1-D vectors with >= 2 entries")
    diff = a - b
    return _paired_stats(diff, bootstrap_mean_ci(diff, resamples=resamples, seed=seed))


def _paired_stats(diff, ci) -> PairedStats:
    """The statistics of paired differences ``diff`` (>= 2 entries), with
    ``ci`` the bootstrap CI of their mean, unused when they have no variance."""
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return PairedStats(mean_difference=0.0, diff_ci95=(0.0, 0.0), effect_size=0.0)
        raise ParameterError(
            "paired differences have zero variance with nonzero mean; "
            "effect size is undefined"
        )
    return PairedStats(mean_difference=mean, diff_ci95=ci, effect_size=mean / sd)


# ---------------------------------------------------------------------------
# report files


def write_report(path, report: EvalReport, extra: dict | None = None) -> None:
    """Key,value lines followed by the confusion matrix; one file per method."""
    order = report.class_order
    _write_csv(path, [
        ("key", "value"),
        ("n", report.n),
        ("accuracy", report.accuracy),
        ("ci95_low", report.ci95[0]),
        ("ci95_high", report.ci95[1]),
        *((f"accuracy_{lab}", report.per_class_accuracy[lab]) for lab in order),
        *sorted((extra or {}).items()),
        ("confusion_rows_true_cols_predicted", order),
        *((f"confusion_{lab}", tuple(row.tolist())) for lab, row in zip(order, report.confusion)),
    ])


def pair_by_trial_id(a: dict, b: dict, names=("a", "b")) -> tuple[np.ndarray, np.ndarray]:
    """Two trial_id -> correctness maps as paired vectors in the order of
    ``a``.  A trial id on one side only is a DataError naming the first such
    id and the side, of ``names``, that holds it."""
    unpaired = sorted(set(a).symmetric_difference(b))
    if unpaired:
        side = names[0] if unpaired[0] in a else names[1]
        raise DataError(f"trial id {unpaired[0]} is only in {side} ({len(unpaired)} unpaired ids)")
    return np.array(list(a.values()), dtype=float), np.array([b[t] for t in a], dtype=float)


def _correct(text: str) -> float:
    if text not in ("0", "1"):
        raise ValueError(f"correct must be 0 or 1, got {text!r}")
    return float(text)


def read_correctness_csv(path) -> dict[int, float]:
    """trial_id,correct file with correct in {0, 1}, as a trial_id ->
    correct map ordered by trial_id.

    Every rejected row is named by its line number, and a trial id may
    appear only once.
    """
    rows = _read_keyed_rows(path, ("trial_id", "correct"), _correct)
    return {t: rows[t] for t in sorted(rows)}

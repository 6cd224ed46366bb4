"""Projections of responses onto graph eigenvectors, limit-kernel
eigenfunctions, and principal components.

Two conventions exist for the kernel-eigenfunction coordinates.  Under
"blocksum" coordinate k is the signed sum of per-block response sums
with the sign pattern of eigenfunction k scaled to unit maximum entry:

    c1 = S1 + S2 + S3 + S4        c2 = S2 - S3
    c3 = S1 - S4                  c4 = (S1 + S4) - (S2 + S3)

Under "orthonormal" coordinate k is the exact L2([0,1]) inner product of the
response (viewed as a step function whose cells subdivide each quarter) with
the unit-norm eigenfunction, i.e. sum_b phi_k(b) * S_b / (4 m_b) for block
sizes m_b.  The two differ by a fixed positive factor per coordinate: maps
differ only in axis scale, but a ridge fit at a fixed ``lam`` is not scale
invariant, so cross-validated accuracy can differ.  blocksum is the default
because its values read directly as block-mass differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, ParameterError
from .protocols import _read_trial_table, _trial_rows, _write_trial_table
from .graphon import EIGENFUNCTIONS
from .sbm import BLOCK_COUNT, SpectralDecomposition, _field_value, _integers, _readonly, _rng

CONVENTIONS = ("blocksum", "orthonormal")


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """Per-trial coordinates with their labels; the coordinates are a
    read-only copy, so the set keeps the finite values it was checked with."""

    method: str
    coords: np.ndarray
    labels: tuple[str, ...]
    trial_ids: tuple[int, ...]

    def __post_init__(self):
        coords = np.array(_matrix(self.coords, "coords", ContractError))
        labels, trial_ids = _trial_rows(self.labels, self.trial_ids, coords.shape[0], "coordinate")
        object.__setattr__(self, "coords", _readonly(coords))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "trial_ids", trial_ids)


def _matrix(mat, what: str, error: type[ValueError] = ParameterError, labels=None) -> np.ndarray:
    """``mat`` as a nonempty 2-D array of finite floats; a ragged, boolean or non-numeric ``mat``
    (a Responses is 0-D) or a non-finite entry is an ``error`` naming ``what`` (and the row),
    and so are ``labels``, when given, unless there is one per row."""
    try:
        arr = np.asarray(mat)
    except ValueError:  # ragged rows
        arr = np.empty(0)
    if arr.ndim != 2 or arr.size == 0 or arr.dtype.kind not in "iuf":
        raise error(f"{what} must be a nonempty 2-D array of numbers")
    arr = arr.astype(float, copy=False)
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise error(f"{what} must be finite, row {bad[0]} is {arr[bad[0]].tolist()}")
    if labels is not None and len(labels) != arr.shape[0]:
        raise error("one label per coordinate row required")
    return arr


def _check_indices(indices, top: int, kind: str) -> np.ndarray:
    """``indices`` as an int array; the error names the first outside 1..``top``, not all."""
    idx = _integers(indices, f"{kind} indices", ParameterError)
    out = idx[(idx < 1) | (idx > top)]
    if idx.size == 0 or out.size:
        first = f", the first out of range is {out[0]}" if out.size else ""
        raise ParameterError(f"{kind} indices must lie in 1..{top}, got {idx.size} indices{first}")
    return idx


def _basis_project(mat, basis: np.ndarray, indices) -> np.ndarray:
    """Inner products of the rows of ``mat`` with the basis columns at 1-based ``indices``."""
    mat = _matrix(mat, "mat")
    size, modes = basis.shape
    if mat.shape[1] != size:
        raise ParameterError(f"response length {mat.shape[1]} does not match basis size {size}")
    idx = _check_indices(indices, modes, "eigen")
    return mat @ basis[:, idx - 1]


def gft_project(mat, decomposition: SpectralDecomposition, indices=(2, 3, 4)) -> np.ndarray:
    """Inner products of each row with selected eigenvectors (1-based, in the
    decomposition's order: the four block modes first)."""
    return _basis_project(mat, decomposition.eigenvectors, indices)


def _block_sums(mat: np.ndarray, block_map: np.ndarray) -> np.ndarray:
    sums = np.empty((mat.shape[0], BLOCK_COUNT))
    for b in range(1, BLOCK_COUNT + 1):
        sums[:, b - 1] = mat[:, block_map == b].sum(axis=1)
    return sums


def graphon_project(
    mat,
    block_map,
    convention: str = "blocksum",
    indices=(2, 3, 4),
) -> np.ndarray:
    """Kernel-eigenfunction coordinates of each row of ``mat``, its units grouped by block.

    ``block_map`` assigns every unit to a block 1..4; the analytic
    eigenfunctions are constant per block, so each coordinate only needs the
    per-block response sums (see the module docstring for both conventions).
    Their block values are the columns of :data:`graphon.EIGENFUNCTIONS`.
    """
    if convention not in CONVENTIONS:
        raise ParameterError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    mat = _matrix(mat, "mat")
    block_map = _integers(block_map, "block map entries", ParameterError)
    outside = np.flatnonzero((block_map < 1) | (block_map > BLOCK_COUNT))
    if outside.size:
        unit = outside[0]
        raise ParameterError(f"block map entries must lie in 1..4, unit {unit} has block {block_map[unit]}")
    if block_map.shape != (mat.shape[1],):
        raise ParameterError(
            f"block map covers {block_map.size} units, responses have {mat.shape[1]}"
        )
    idx = _check_indices(indices, BLOCK_COUNT, "coordinate")
    sums = _block_sums(mat, block_map)
    block_counts = np.array([(block_map == b).sum() for b in range(1, BLOCK_COUNT + 1)])
    if convention == "orthonormal" and np.any(block_counts == 0):
        raise ParameterError("orthonormal convention needs every block populated")

    phi = EIGENFUNCTIONS[:, idx - 1]
    if convention == "blocksum":
        weights = phi / np.max(np.abs(phi), axis=0)
    else:
        weights = phi / (BLOCK_COUNT * block_counts)[:, None]
    return sums @ weights


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Mean and sign-fixed principal axes fitted on a training matrix, and
    the training rows' coordinates on them."""

    mean: np.ndarray
    components: np.ndarray  # (dims, features)
    explained_variance_ratio: np.ndarray
    coords: np.ndarray  # (trials, dims), as pca_transform gives for the training rows


# Gram orders from which pca_fit solves for its eigenpairs by Lanczos instead
# of a dense eigh, whose tridiagonal reduction of the whole matrix dominates
# above this.  Dense eigh against Lanczos, 4 components, 2 OpenBLAS threads
# on a 2-core x86-64 VM: measured-style rows 5.7 vs 4.9 ms at order 300 and
# 45.9 vs 12.9 ms at 771; structureless Poisson rows 9.9 vs 8.0 ms at 400
# and 43.3 vs 23.1 ms at 771.  Lanczos stays ahead up to 16 components at
# order 771 and falls behind by 20; the cap also keeps ARPACK's condition
# that fewer eigenpairs than the order are asked for.
_LANCZOS_MIN_ORDER = 400
_LANCZOS_MAX_DIMS = 16


def _top_eigenpairs(gram: np.ndarray, dims: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``dims`` largest eigenvalues (descending) and their eigenvectors
    of the symmetric matrix whose upper triangle ``gram`` holds."""
    k = gram.shape[0]
    # scipy is imported where it is called, here, in pca_fit and in
    # pca_transform: importing scipy.linalg or scipy.sparse takes about half
    # of importing the package, and the other projections never call them
    if k < _LANCZOS_MIN_ORDER or dims > _LANCZOS_MAX_DIMS:
        from scipy.linalg import eigh

        evals, evecs = eigh(gram, lower=False, subset_by_index=[k - dims, k - 1])
    else:
        from scipy.linalg import blas
        from scipy.sparse.linalg import LinearOperator, eigsh

        # dsymv reads the Fortran-ordered triangle in place; the start vector
        # must not be constant, which a centred Gram maps to zero
        op = LinearOperator((k, k), matvec=lambda x: blas.dsymv(1.0, gram, x), dtype=float)
        v0 = _rng(0).standard_normal(k)
        evals, evecs = eigsh(op, k=dims, which="LA", tol=0, v0=v0)
    return evals[::-1], evecs[:, ::-1]


def pca_fit(mat: np.ndarray, dims: int) -> PcaModel:
    """Top ``dims`` principal axes of the centred matrix C, each signed so its
    largest-magnitude entry is positive.

    Only the top ``dims`` eigenpairs of the smaller Gram matrix are solved
    for: C Cᵀ when there are fewer trials than features (an axis is then
    uᵀC / √λ), else Cᵀ C (whose eigenvectors are the axes).  A Gram matrix
    of order 400 or more is solved by Lanczos iteration (ARPACK's implicitly
    restarted Lanczos, through scipy's ``eigsh``, to machine precision from a
    fixed start vector), a smaller one or more than 16 components by a dense
    ``eigh``; both agree with the SVD of C to rounding.  A direction without
    variance, which only a wide rank-deficient C has among its top ``dims``,
    gets a zero axis, and so does every axis when all rows are equal.

    The products here and in :func:`pca_transform` call scipy's BLAS, the
    library the eigensolvers run in.  numpy and scipy each ship their own
    OpenBLAS, whose idle threads keep spinning for a while after a call, so
    alternating the two made each fold's fit twice as slow on two cores.
    """
    from scipy.linalg import blas

    mat, dims = _matrix(mat, "mat"), _field_value("dims", "int", dims, 1)
    if mat.shape[0] < dims + 1:
        raise ParameterError(f"need at least {dims + 1} trials to fit {dims} components")
    if dims > mat.shape[1]:
        raise ParameterError(f"cannot fit {dims} components to {mat.shape[1]} features")
    mean = mat.mean(axis=0)
    centered = mat - mean
    wide = centered.shape[0] < centered.shape[1]
    # the upper triangle of C Cᵀ (wide) or Cᵀ C; centered.T is Fortran-ordered
    gram = blas.dsyrk(1.0, centered.T, trans=int(wide))
    k = gram.shape[0]
    # sum(C²) is the Gram's trace: its diagonal holds each row's or column's
    # sum of squares.  Equal rows leave only their mean's rounding there:
    # tr <~ (n·eps)²·(tr + n·|mean|²)
    total = float(np.trace(gram))
    n = mat.shape[0]
    varied = total > (n * np.finfo(float).eps) ** 2 * (total + n * float(np.sum(mean * mean)))
    if varied:
        evals, evecs = _top_eigenpairs(gram, dims)
        evals = np.maximum(evals, 0.0)
    else:  # ARPACK would stop on the zero operator
        evals, evecs = np.zeros(dims), np.zeros((k, dims))
    if wide:
        # below this an eigenvalue of C Cᵀ is rounding, and uᵀC / √λ noise
        kept = evals > evals[0] * k * np.finfo(float).eps
        evals[~kept] = 0.0
        comps = blas.dgemm(1.0, centered.T, evecs).T
        comps[kept] /= np.sqrt(evals[kept])[:, None]
        comps[~kept] = 0.0
    else:
        comps = evecs.T.copy()
    lead = np.argmax(np.abs(comps), axis=1)
    signs = np.sign(comps[np.arange(dims), lead])
    signs[signs == 0] = 1.0
    comps *= signs[:, None]
    evr = evals / total if varied else np.zeros(dims)
    coords = blas.dgemm(1.0, comps, centered.T).T  # the product pca_transform runs
    return PcaModel(
        mean=_readonly(mean),
        components=_readonly(comps),
        explained_variance_ratio=_readonly(evr),
        coords=_readonly(coords),
    )


def pca_transform(model: PcaModel, mat: np.ndarray) -> np.ndarray:
    from scipy.linalg import blas

    mat = _matrix(mat, "mat")
    if mat.shape[1] != model.mean.size:
        raise ParameterError("feature dimension does not match the fitted model")
    return blas.dgemm(1.0, model.components, (mat - model.mean).T).T


def pca_fit_transform(mat, dims: int = 3) -> np.ndarray:
    """Mean-centered projection of the rows of ``mat`` onto their own top principal axes."""
    return pca_fit(mat, dims).coords


def aligned_eigenvector_basis(decomposition: SpectralDecomposition) -> tuple[np.ndarray, bool]:
    """Top-4 empirical eigenvectors made comparable across graph realizations,
    and whether modes 2 and 3 were treated as a degenerate pair.

    The limit operator's second and third eigenvalues coincide, so a sampled
    graph's modes 2 and 3 span an arbitrary rotation (possibly reflection) of
    the analytic plane.  Unless the two empirical eigenvalues differ by more
    than 5% (relative), the pair is multiplied by the 2x2 orthogonal Q
    minimizing ||E Q - T||_F for the empirical pair E and the targets T: the
    limit eigenfunctions sampled at the nodes, at unit norm.  Modes 1 and 4
    are flipped to positive inner product with their targets.  Without this,
    per-realization bases differ by arbitrary in-plane rotations and sign
    flips, which would inflate any cross-realization scatter measurement.
    """
    size = decomposition.eigenvectors.shape[0]
    if size % BLOCK_COUNT != 0:
        raise ParameterError("decomposition size must be a multiple of 4")
    targets = np.repeat(EIGENFUNCTIONS, size // BLOCK_COUNT, axis=0) / np.sqrt(size)
    basis = decomposition.eigenvectors[:, :BLOCK_COUNT].copy()
    lam2, lam3 = decomposition.eigenvalues[1], decomposition.eigenvalues[2]
    denom = max(abs(lam2), abs(lam3))
    degenerate = not (denom == 0 or abs(lam2 - lam3) / denom > 0.05)
    rotation = np.eye(2)
    if degenerate:
        u, _, vt = np.linalg.svd(decomposition.eigenvectors[:, 1:3].T @ targets[:, 1:3])
        rotation = u @ vt
    # multiplied even by the identity: skipping the product can change the
    # sign of a zero entry, and with it the bytes written
    basis[:, 1:3] = basis[:, 1:3] @ rotation
    for col in (0, 3):
        if basis[:, col] @ targets[:, col] < 0:
            basis[:, col] = -basis[:, col]
    return basis, degenerate


def aligned_gft_project(mat, decomposition: SpectralDecomposition, indices=(2, 3, 4)) -> np.ndarray:
    """gft_project with the per-realization basis aligned first (see
    :func:`aligned_eigenvector_basis`); it covers modes 1..4 only."""
    basis, _ = aligned_eigenvector_basis(decomposition)
    return _basis_project(mat, basis, indices)


# ---------------------------------------------------------------------------
# embedding-quality metrics


def centroids_by_label(coords: np.ndarray, labels) -> dict[str, np.ndarray]:
    labels = np.asarray(labels)
    coords = _matrix(coords, "coords", labels=labels)
    return {lab: coords[labels == lab].mean(axis=0) for lab in dict.fromkeys(labels.tolist())}


def silhouette_score(coords: np.ndarray, labels) -> float:
    """Mean silhouette over points: (b - a) / max(a, b) with Euclidean
    distances; singleton clusters contribute 0."""
    labels = np.asarray(labels)
    coords = _matrix(coords, "coords", labels=labels)
    unique = list(dict.fromkeys(labels.tolist()))
    if len(unique) < 2:
        raise ParameterError("silhouette needs at least two labels")
    dists = np.sqrt(np.maximum(
        np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=-1), 0.0
    ))
    scores = np.zeros(coords.shape[0])
    for i in range(coords.shape[0]):
        same = labels == labels[i]
        n_same = int(same.sum())
        if n_same <= 1:
            continue
        a = dists[i, same].sum() / (n_same - 1)
        b = min(dists[i, labels == lab].mean() for lab in unique if lab != labels[i])
        scores[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(scores.mean())


def centroid_betweenness(coords: np.ndarray, labels) -> float:
    """Projection parameter of the s2 centroid onto the segment from the s1
    to the s3 centroid; values strictly inside (0, 1) mean the middle
    stimulus response sits between the outer two."""
    cents = centroids_by_label(coords, labels)
    try:
        a, mid, b = (cents[lab] for lab in ("s1", "s2", "s3"))
    except KeyError as exc:
        raise ParameterError(f"label {exc} missing from embedding") from exc
    span = b - a
    denom = float(span @ span)
    if denom == 0:
        raise ParameterError("outer centroids coincide")
    return float((mid - a) @ span / denom)


def cross_realization_dispersion(embeddings: list[EmbeddingSet]) -> float:
    """Scatter of per-realization stimulus centroids, scale-free.

    For each stimulus, the centroid of its trials is computed per realization;
    the dispersion is the mean distance of these centroids from their overall
    mean, averaged over stimuli, divided by the mean distance between the
    overall centroids of different stimuli.  The normalization makes methods
    with different coordinate scales comparable.  Every realization must hold
    the same stimuli; a DataError names the first that does not.
    """
    if len(embeddings) < 2:
        raise ParameterError("need at least two realizations")
    labels = list(dict.fromkeys(embeddings[0].labels))
    for i, e in enumerate(embeddings[1:], start=1):
        held = dict.fromkeys(e.labels)
        lacks = [lab for lab in labels if lab not in held]
        adds = [lab for lab in held if lab not in labels]
        if lacks or adds:
            what = f"lacks stimulus {lacks[0]!r}" if lacks else f"adds stimulus {adds[0]!r}"
            raise DataError(f"realization {i} {what}; every realization must hold the stimuli of realization 0")
    per_real = {
        lab: np.array([centroids_by_label(e.coords, e.labels)[lab] for e in embeddings])
        for lab in labels
    }
    overall = {lab: cents.mean(axis=0) for lab, cents in per_real.items()}
    within = np.mean(
        [np.linalg.norm(per_real[lab] - overall[lab], axis=1).mean() for lab in labels]
    )
    seps = [
        np.linalg.norm(overall[a] - overall[b])
        for i, a in enumerate(labels)
        for b in labels[i + 1 :]
    ]
    between = float(np.mean(seps))
    if between == 0:
        raise ParameterError("stimulus centroids coincide; dispersion undefined")
    return float(within / between)


# ---------------------------------------------------------------------------
# file format


def write_embeddings_csv(embedding: EmbeddingSet, path) -> None:
    """trial_id,label,c1..cd,method rows; the file consumed by plotting and
    classification."""
    columns = [f"c{i + 1}" for i in range(embedding.coords.shape[1])]
    _write_trial_table(
        path, columns, embedding.trial_ids, embedding.labels, embedding.coords, embedding.method
    )


def read_embeddings_csv(path) -> EmbeddingSet:
    """Inverse of :func:`write_embeddings_csv`; rows of more than one method
    read as method "mixed"."""
    trial_ids, labels, coords, _, methods = _read_trial_table(path, "c", 1, method=True)
    return EmbeddingSet(
        method=methods[0] if len(set(methods)) == 1 else "mixed",
        coords=coords,
        labels=tuple(labels),
        trial_ids=tuple(trial_ids),
    )

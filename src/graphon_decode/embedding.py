"""Projections of responses onto graph eigenvectors, limit-kernel
eigenfunctions, and principal components.

Two conventions exist for the kernel-eigenfunction coordinates.  Under
"blocksum" coordinate k is the signed sum of per-block response sums
with the sign pattern of block eigenvector k scaled to unit maximum entry:

    c1 = S1 + S2 + S3 + S4        c2 = S2 - S3
    c3 = S1 - S4                  c4 = (S1 + S4) - (S2 + S3)

Under "orthonormal" coordinate k is the exact L2([0,1]) inner product of the
response (viewed as a step function whose cells subdivide each quarter) with
the unit-norm eigenfunction, i.e. sum_b phi_k(b) * S_b / (4 m_b) for block
sizes m_b.  The two differ only by a fixed positive factor per coordinate, so
maps and classifiers behave identically; blocksum is the default because its
values read directly as block-mass differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, eigh

from .errors import ContractError, ParameterError
from .protocols import Responses, _read_trial_table, _write_trial_table
from .sbm import BLOCK_COUNT, SpectralDecomposition, block_eigenvector_matrix, _readonly

CONVENTIONS = ("blocksum", "orthonormal")


@dataclass
class EmbeddingSet:
    """Per-trial coordinates with their labels and a description of the basis."""

    method: str
    coords: np.ndarray
    labels: tuple[str, ...]
    trial_ids: tuple[int, ...]
    basis_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.ndim != 2:
            raise ContractError("coords must be a 2-D (trials x dims) array")
        if len(self.labels) != self.coords.shape[0] or len(self.trial_ids) != self.coords.shape[0]:
            raise ContractError("one label and trial id per coordinate row required")


def _unpack(responses) -> tuple[np.ndarray, tuple[str, ...], tuple[int, ...]]:
    """Matrix, labels and trial ids of a Responses; a plain (signals x units)
    array, such as raw eigenvectors, gets empty labels and ids 0..k-1."""
    if isinstance(responses, Responses):
        return responses.values, responses.labels, responses.trial_ids
    mat = np.asarray(responses, dtype=float)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ParameterError("expected Responses or a nonempty 2-D (signals x units) array")
    return mat, ("",) * mat.shape[0], tuple(range(mat.shape[0]))


def _basis_project(responses, basis: np.ndarray, indices, basis_meta: dict) -> EmbeddingSet:
    """Inner products of the responses with the columns of ``basis`` at the
    1-based ``indices``; ``basis_meta`` is added to the embedding's."""
    mat, labels, trial_ids = _unpack(responses)
    size, modes = basis.shape
    if mat.shape[1] != size:
        raise ParameterError(f"response length {mat.shape[1]} does not match basis size {size}")
    idx = np.asarray(indices, dtype=int)
    if idx.size == 0 or np.any(idx < 1) or np.any(idx > modes):
        raise ParameterError(f"eigen indices must lie in 1..{modes}, got {indices}")
    return EmbeddingSet(
        method="gft",
        coords=mat @ basis[:, idx - 1],
        labels=labels,
        trial_ids=trial_ids,
        basis_meta={"indices": tuple(int(i) for i in idx), **basis_meta},
    )


def gft_project(responses, decomposition: SpectralDecomposition, indices=(2, 3, 4)) -> EmbeddingSet:
    """Inner products with selected eigenvectors (1-based, descending order)."""
    return _basis_project(responses, decomposition.eigenvectors, indices, {})


def _block_sums(mat: np.ndarray, block_map: np.ndarray) -> np.ndarray:
    sums = np.empty((mat.shape[0], BLOCK_COUNT))
    for b in range(1, BLOCK_COUNT + 1):
        sums[:, b - 1] = mat[:, block_map == b].sum(axis=1)
    return sums


def graphon_project(
    responses,
    block_map,
    convention: str = "blocksum",
    indices=(2, 3, 4),
) -> EmbeddingSet:
    """Kernel-eigenfunction coordinates of responses grouped by block.

    ``block_map`` assigns every response entry to a block 1..4; the analytic
    eigenfunctions are constant per block, so each coordinate only needs the
    per-block response sums (see the module docstring for both conventions).
    Their block values, twice the block eigenvectors, do not depend on alpha.
    """
    if convention not in CONVENTIONS:
        raise ParameterError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    mat, labels, trial_ids = _unpack(responses)
    block_map = np.asarray(block_map, dtype=int)
    if block_map.shape != (mat.shape[1],):
        raise ParameterError(
            f"block map covers {block_map.size} units, responses have {mat.shape[1]}"
        )
    idx = np.asarray(indices, dtype=int)
    if idx.size == 0 or np.any(idx < 1) or np.any(idx > BLOCK_COUNT):
        raise ParameterError(f"coordinate indices must lie in 1..4, got {indices}")
    sums = _block_sums(mat, block_map)
    block_counts = np.array([(block_map == b).sum() for b in range(1, BLOCK_COUNT + 1)])
    if convention == "orthonormal" and np.any(block_counts == 0):
        raise ParameterError("orthonormal convention needs every block populated")

    phi = 2.0 * block_eigenvector_matrix()[:, idx - 1]  # block values of the unit eigenfunctions
    if convention == "blocksum":
        weights = phi / np.max(np.abs(phi), axis=0)
    else:
        weights = phi / (BLOCK_COUNT * np.where(block_counts > 0, block_counts, 1))[:, None]
    coords = sums @ weights
    return EmbeddingSet(
        method="graphon",
        coords=coords,
        labels=labels,
        trial_ids=trial_ids,
        basis_meta={"indices": tuple(int(i) for i in idx), "convention": convention},
    )


@dataclass(frozen=True)
class PcaModel:
    """Mean and sign-fixed principal axes fitted on a training matrix."""

    mean: np.ndarray
    components: np.ndarray  # (dims, features)
    explained_variance_ratio: np.ndarray


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
    if k < _LANCZOS_MIN_ORDER or dims > _LANCZOS_MAX_DIMS:
        evals, evecs = eigh(gram, lower=False, subset_by_index=[k - dims, k - 1])
    else:
        # imported here: it adds ~17 ms to importing the package
        from scipy.sparse.linalg import LinearOperator, eigsh

        # dsymv reads the Fortran-ordered triangle in place; the start vector
        # must not be constant, which a centred Gram maps to zero
        op = LinearOperator((k, k), matvec=lambda x: blas.dsymv(1.0, gram, x), dtype=float)
        v0 = np.random.default_rng(0).standard_normal(k)
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
    mat = np.asarray(mat, dtype=float)
    if dims < 1:
        raise ParameterError(f"need at least one component, got dims={dims}")
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
    total = float(np.sum(centered * centered))
    # equal rows leave only their mean's rounding: sum(C²) <~ (n·eps)²·(sum(C²) + n·|mean|²)
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
    return PcaModel(
        mean=_readonly(mean), components=_readonly(comps), explained_variance_ratio=_readonly(evr)
    )


def pca_transform(model: PcaModel, mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.shape[1] != model.mean.size:
        raise ParameterError("feature dimension does not match the fitted model")
    return blas.dgemm(1.0, model.components, (mat - model.mean).T).T


def pca_fit_transform(responses, dims: int = 3) -> EmbeddingSet:
    """Mean-centered projection onto the top principal axes of these responses."""
    mat, labels, trial_ids = _unpack(responses)
    model = pca_fit(mat, dims)
    coords = pca_transform(model, mat)
    return EmbeddingSet(
        method="pca",
        coords=coords,
        labels=labels,
        trial_ids=trial_ids,
        basis_meta={
            "dims": dims,
            "explained_variance_ratio": tuple(float(x) for x in model.explained_variance_ratio),
        },
    )


def discretized_eigenvector_basis(n: int) -> np.ndarray:
    """Unit-norm node-space versions of the four block eigenvectors: each
    block value repeated n times and divided by sqrt(n)."""
    return np.repeat(block_eigenvector_matrix(), n, axis=0) / np.sqrt(n)


@dataclass(frozen=True)
class AlignmentResult:
    """Orthogonal transform for the degenerate eigenvector pair (modes 2, 3).

    ``degenerate`` is False when the two empirical eigenvalues were not close
    enough to justify mixing the pair; the rotation is then the identity.
    """

    rotation: np.ndarray
    degenerate: bool


def align_degenerate_pair(decomposition: SpectralDecomposition) -> AlignmentResult:
    """Orthogonal Procrustes fit of empirical modes 2 and 3 onto the analytic
    block contrasts.

    The limit operator's second and third eigenvalues coincide, so a sampled
    graph's modes 2 and 3 span an arbitrary rotation (possibly reflection) of
    the analytic plane.  This returns the 2x2 orthogonal matrix Q minimizing
    ||E Q - T||_F for the empirical pair E and the discretized targets T.
    When the two empirical eigenvalues differ by more than 5% (relative), the
    pair is not treated as degenerate and Q is the identity.
    """
    size = decomposition.eigenvectors.shape[0]
    if size % BLOCK_COUNT != 0:
        raise ParameterError("decomposition size must be a multiple of 4")
    lam2, lam3 = decomposition.eigenvalues[1], decomposition.eigenvalues[2]
    denom = max(abs(lam2), abs(lam3))
    if denom == 0 or abs(lam2 - lam3) / denom > 0.05:
        return AlignmentResult(rotation=_readonly(np.eye(2)), degenerate=False)
    basis = discretized_eigenvector_basis(size // BLOCK_COUNT)
    target = basis[:, 1:3]
    empirical = decomposition.eigenvectors[:, 1:3]
    u, _, vt = np.linalg.svd(empirical.T @ target)
    rotation = u @ vt
    return AlignmentResult(rotation=_readonly(rotation), degenerate=True)


def aligned_eigenvector_basis(
    decomposition: SpectralDecomposition,
) -> tuple[np.ndarray, AlignmentResult]:
    """Top-4 empirical eigenvectors made comparable across graph realizations.

    Applies the degenerate-pair rotation to modes 2 and 3 and flips modes 1
    and 4 to positive inner product with their analytic counterparts.  Without
    this, per-realization bases differ by arbitrary in-plane rotations and
    sign flips, which would inflate any cross-realization scatter measurement.
    """
    size = decomposition.eigenvectors.shape[0]
    basis = decomposition.eigenvectors[:, :BLOCK_COUNT].copy()
    alignment = align_degenerate_pair(decomposition)
    basis[:, 1:3] = basis[:, 1:3] @ alignment.rotation
    targets = discretized_eigenvector_basis(size // BLOCK_COUNT)
    for col in (0, 3):
        if basis[:, col] @ targets[:, col] < 0:
            basis[:, col] = -basis[:, col]
    return basis, alignment


def aligned_gft_project(responses, decomposition: SpectralDecomposition, indices=(2, 3, 4)) -> EmbeddingSet:
    """gft_project with the per-realization basis aligned first (see
    :func:`aligned_eigenvector_basis`); it covers modes 1..4 only."""
    basis, alignment = aligned_eigenvector_basis(decomposition)
    meta = {"aligned": True, "degenerate_pair": alignment.degenerate}
    return _basis_project(responses, basis, indices, meta)


# ---------------------------------------------------------------------------
# embedding-quality metrics


def centroids_by_label(coords: np.ndarray, labels) -> dict[str, np.ndarray]:
    labels = np.asarray(labels)
    return {lab: coords[labels == lab].mean(axis=0) for lab in dict.fromkeys(labels.tolist())}


def silhouette_score(coords: np.ndarray, labels) -> float:
    """Mean silhouette over points: (b - a) / max(a, b) with Euclidean
    distances; singleton clusters contribute 0."""
    coords = np.asarray(coords, dtype=float)
    labels = np.asarray(labels)
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
    cents = centroids_by_label(np.asarray(coords, dtype=float), labels)
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
    with different coordinate scales comparable.
    """
    if len(embeddings) < 2:
        raise ParameterError("need at least two realizations")
    labels = list(dict.fromkeys(embeddings[0].labels))
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

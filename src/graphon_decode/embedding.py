"""Projections of responses onto graph eigenvectors, step-kernel
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
from pathlib import Path

import numpy as np

from .errors import ContractError, ParameterError, ParseError
from .graphon import GraphonEigenpair
from .protocols import Responses
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


def gft_project(responses, decomposition: SpectralDecomposition, indices=(2, 3, 4)) -> EmbeddingSet:
    """Inner products with selected eigenvectors (1-based, descending order)."""
    mat, labels, trial_ids = _unpack(responses)
    size = decomposition.eigenvectors.shape[0]
    if mat.shape[1] != size:
        raise ParameterError(
            f"response length {mat.shape[1]} does not match basis size {size}"
        )
    idx = np.asarray(indices, dtype=int)
    if idx.size == 0 or np.any(idx < 1) or np.any(idx > size):
        raise ParameterError(f"eigen indices must lie in 1..{size}, got {indices}")
    coords = mat @ decomposition.eigenvectors[:, idx - 1]
    return EmbeddingSet(
        method="gft",
        coords=coords,
        labels=labels,
        trial_ids=trial_ids,
        basis_meta={"indices": tuple(int(i) for i in idx)},
    )


def _block_sums(mat: np.ndarray, block_map: np.ndarray) -> np.ndarray:
    sums = np.empty((mat.shape[0], BLOCK_COUNT))
    for b in range(1, BLOCK_COUNT + 1):
        sums[:, b - 1] = mat[:, block_map == b].sum(axis=1)
    return sums


def graphon_project(
    responses,
    eigenpairs: list[GraphonEigenpair],
    block_map,
    convention: str = "blocksum",
    indices=(2, 3, 4),
) -> EmbeddingSet:
    """Kernel-eigenfunction coordinates of responses grouped by block.

    ``block_map`` assigns every response entry to a block 1..4; the analytic
    eigenfunctions are constant per block, so each coordinate only needs the
    per-block response sums (see the module docstring for both conventions).
    """
    if convention not in CONVENTIONS:
        raise ParameterError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    if len(eigenpairs) != BLOCK_COUNT:
        raise ParameterError("expected the four analytic eigenpairs")
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

    weights = np.empty((BLOCK_COUNT, idx.size))
    for col, k in enumerate(idx):
        phi = eigenpairs[k - 1].eigenfunction.values  # block values of the unit eigenfunction
        if convention == "blocksum":
            weights[:, col] = phi / np.max(np.abs(phi))
        else:
            weights[:, col] = phi / (BLOCK_COUNT * np.where(block_counts > 0, block_counts, 1))
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


def pca_fit(mat: np.ndarray, dims: int) -> PcaModel:
    mat = np.asarray(mat, dtype=float)
    if mat.shape[0] < dims + 1:
        raise ParameterError(f"need at least {dims + 1} trials to fit {dims} components")
    mean = mat.mean(axis=0)
    centered = mat - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:dims].copy()
    lead = np.argmax(np.abs(comps), axis=1)
    signs = np.sign(comps[np.arange(dims), lead])
    signs[signs == 0] = 1.0
    comps *= signs[:, None]
    total = float(np.sum(svals**2))
    evr = (svals[:dims] ** 2 / total) if total > 0 else np.zeros(dims)
    return PcaModel(
        mean=_readonly(mean), components=_readonly(comps), explained_variance_ratio=_readonly(evr)
    )


def pca_transform(model: PcaModel, mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.shape[1] != model.mean.size:
        raise ParameterError("feature dimension does not match the fitted model")
    return (mat - model.mean) @ model.components.T


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


def align_degenerate_pair(
    decomposition: SpectralDecomposition,
    eigenpairs: list[GraphonEigenpair] | None = None,
    rel_gap: float = 0.05,
) -> AlignmentResult:
    """Orthogonal Procrustes fit of empirical modes 2 and 3 onto the analytic
    block contrasts.

    The limit operator's second and third eigenvalues coincide, so a sampled
    graph's modes 2 and 3 span an arbitrary rotation (possibly reflection) of
    the analytic plane.  This returns the 2x2 orthogonal matrix Q minimizing
    ||E Q - T||_F for the empirical pair E and the discretized targets T.
    When the two empirical eigenvalues differ by more than ``rel_gap``
    (relative), the pair is not treated as degenerate and Q is the identity.
    """
    size = decomposition.eigenvectors.shape[0]
    if size % BLOCK_COUNT != 0:
        raise ParameterError("decomposition size must be a multiple of 4")
    lam2, lam3 = decomposition.eigenvalues[1], decomposition.eigenvalues[2]
    denom = max(abs(lam2), abs(lam3))
    if denom == 0 or abs(lam2 - lam3) / denom > rel_gap:
        return AlignmentResult(rotation=_readonly(np.eye(2)), degenerate=False)
    basis = discretized_eigenvector_basis(size // BLOCK_COUNT)
    target = basis[:, 1:3]
    empirical = decomposition.eigenvectors[:, 1:3]
    u, _, vt = np.linalg.svd(empirical.T @ target)
    rotation = u @ vt
    return AlignmentResult(rotation=_readonly(rotation), degenerate=True)


def aligned_eigenvector_basis(
    decomposition: SpectralDecomposition, rel_gap: float = 0.05
) -> tuple[np.ndarray, AlignmentResult]:
    """Top-4 empirical eigenvectors made comparable across graph realizations.

    Applies the degenerate-pair rotation to modes 2 and 3 and flips modes 1
    and 4 to positive inner product with their analytic counterparts.  Without
    this, per-realization bases differ by arbitrary in-plane rotations and
    sign flips, which would inflate any cross-realization scatter measurement.
    """
    size = decomposition.eigenvectors.shape[0]
    basis = decomposition.eigenvectors[:, :BLOCK_COUNT].copy()
    alignment = align_degenerate_pair(decomposition, rel_gap=rel_gap)
    basis[:, 1:3] = basis[:, 1:3] @ alignment.rotation
    targets = discretized_eigenvector_basis(size // BLOCK_COUNT)
    for col in (0, 3):
        if basis[:, col] @ targets[:, col] < 0:
            basis[:, col] = -basis[:, col]
    return basis, alignment


def aligned_gft_project(responses, decomposition: SpectralDecomposition, indices=(2, 3, 4)) -> EmbeddingSet:
    """gft_project with the per-realization basis aligned first (see
    :func:`aligned_eigenvector_basis`)."""
    mat, labels, trial_ids = _unpack(responses)
    basis, alignment = aligned_eigenvector_basis(decomposition)
    idx = np.asarray(indices, dtype=int)
    if np.any(idx < 1) or np.any(idx > BLOCK_COUNT):
        raise ParameterError(f"aligned projection only covers modes 1..4, got {indices}")
    coords = mat @ basis[:, idx - 1]
    return EmbeddingSet(
        method="gft",
        coords=coords,
        labels=labels,
        trial_ids=trial_ids,
        basis_meta={
            "indices": tuple(int(i) for i in idx),
            "aligned": True,
            "degenerate_pair": alignment.degenerate,
        },
    )


def v0_residual_norm(values: np.ndarray, block_map) -> float:
    """L2 norm of the response component with zero mean on every block.

    This is the part of the signal invisible to the four analytic modes; it is
    reported as a diagnostic and unused by the decoding pipeline.
    """
    values = np.asarray(values, dtype=float)
    block_map = np.asarray(block_map, dtype=int)
    total = 0.0
    for b in range(1, BLOCK_COUNT + 1):
        sel = values[block_map == b]
        if sel.size == 0:
            continue
        cell = 1.0 / (BLOCK_COUNT * sel.size)
        total += float(np.sum((sel - sel.mean()) ** 2) * cell)
    return float(np.sqrt(total))


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


def centroid_betweenness(coords: np.ndarray, labels, order=("s1", "s2", "s3")) -> float:
    """Projection parameter of the middle centroid onto the segment between
    the two outer centroids; values strictly inside (0, 1) mean the middle
    stimulus response sits between the outer two."""
    cents = centroids_by_label(np.asarray(coords, dtype=float), labels)
    try:
        a, mid, b = (cents[lab] for lab in order)
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
    d = embedding.coords.shape[1]
    lines = ["trial_id,label," + ",".join(f"c{i + 1}" for i in range(d)) + ",method"]
    for tid, lab, row in zip(embedding.trial_ids, embedding.labels, embedding.coords):
        vals = ",".join(repr(float(x)) for x in row)
        lines.append(f"{tid},{lab},{vals},{embedding.method}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_embeddings_csv(path) -> EmbeddingSet:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[:2] != ["trial_id", "label"] or header[-1] != "method":
        raise ParseError(f"{path}: unexpected header {lines[0]!r}")
    d = len(header) - 3
    coords, labels, trial_ids, methods = [], [], [], []
    for ln, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != d + 3:
            raise ParseError(f"{path}: row {ln}: expected {d + 3} cells")
        try:
            trial_ids.append(int(cells[0]))
            coords.append([float(tok) for tok in cells[2 : 2 + d]])
        except ValueError:
            raise ParseError(f"{path}: row {ln}: non-numeric cell") from None
        labels.append(cells[1])
        methods.append(cells[-1])
    method = methods[0] if len(set(methods)) == 1 else "mixed"
    return EmbeddingSet(
        method=method,
        coords=np.array(coords),
        labels=tuple(labels),
        trial_ids=tuple(trial_ids),
    )

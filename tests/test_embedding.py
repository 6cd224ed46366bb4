import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from graphon_decode import embedding
from graphon_decode.embedding import (
    EmbeddingSet,
    aligned_eigenvector_basis,
    aligned_gft_project,
    centroid_betweenness,
    cross_realization_dispersion,
    gft_project,
    graphon_project,
    pca_fit,
    pca_fit_transform,
    pca_transform,
    read_embeddings_csv,
    silhouette_score,
    write_embeddings_csv,
)
from graphon_decode.errors import DataError, ParameterError, ParseError
from graphon_decode.graphon import EIGENFUNCTIONS, analytic_graphon_eigenpairs
from graphon_decode.sbm import (
    SbmConfig,
    SpectralDecomposition,
    block_membership,
    edge_probability_matrix,
    eigendecompose,
    sample_adjacency,
    write_spectra,
)

PHIS = [phi for _, phi in analytic_graphon_eigenpairs(0.05)]


def unit(vec):
    vec = np.asarray(vec, dtype=float)
    return vec / np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# graph Fourier projection


def test_projecting_an_eigenvector_gives_a_unit_coordinate():
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=6, seed=0))
    dec = eigendecompose(adj)
    f = dec.eigenvectors[:, 1]  # mode 2
    coords = gft_project([f], dec, indices=(2, 3, 4))
    assert np.allclose(coords[0], [1.0, 0.0, 0.0], atol=1e-10)


def test_projection_of_orthogonal_signal_is_zero():
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=6, seed=1))
    dec = eigendecompose(adj)
    f = dec.eigenvectors[:, 10]
    coords = gft_project([f], dec, indices=(2, 3, 4))
    assert np.allclose(coords[0], 0.0, atol=1e-10)


def test_parseval_identity_for_unit_norm_signal():
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=5, seed=2))
    dec = eigendecompose(adj)
    rng = np.random.default_rng(0)
    f = unit(rng.random(adj.size))
    coords = gft_project([f], dec, indices=tuple(range(1, adj.size + 1)))
    assert np.sum(coords[0] ** 2) == pytest.approx(1.0, abs=1e-10)


def test_gft_dimension_mismatch():
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=5, seed=2))
    dec = eigendecompose(adj)
    with pytest.raises(ParameterError):
        gft_project([np.ones(7)], dec)


# ---------------------------------------------------------------------------
# kernel-eigenfunction projection


def test_uniform_response_has_zero_contrast_coordinates():
    n = 10
    f = unit(np.ones(4 * n))
    coords = graphon_project([f], block_membership(n))
    assert np.allclose(coords[0], 0.0, atol=1e-12)


def test_block_two_concentration():
    # unit mass entirely in block 2: c2 = +1, c3 = 0, c4 = -1 under blocksum
    n = 4
    values = np.zeros(4 * n)
    values[n : 2 * n] = 0.25  # L1 block sum 1
    values = values / np.linalg.norm(values)
    scale = values[n]  # entries now this per node; rescale expectations
    block_sum = scale * n
    coords = graphon_project([values], block_membership(n), indices=(2, 3, 4))
    assert np.allclose(coords[0], [block_sum, 0.0, -block_sum], atol=1e-12)
    # with the raw L1-normalized signal the coordinates are exactly (+1, 0, -1)
    raw = np.zeros(4 * n)
    raw[n : 2 * n] = 0.25
    coords_raw = graphon_project([raw], block_membership(n), indices=(2, 3, 4))
    assert np.allclose(coords_raw[0], [1.0, 0.0, -1.0], atol=1e-12)


def test_block_one_concentration():
    n = 5
    raw = np.zeros(4 * n)
    raw[:n] = 1.0 / n  # unit L1 block sum
    coords = graphon_project([raw], block_membership(n), indices=(2, 3, 4))
    assert np.allclose(coords[0], [0.0, 1.0, 1.0], atol=1e-12)


def test_orthonormal_convention_matches_exact_quadrature():
    # viewing the response as a step function on [0,1] (each node a cell of
    # length 1/(4n)), the orthonormal coordinate must equal the exact L2 inner
    # product with the unit eigenfunction.
    n = 6
    rng = np.random.default_rng(3)
    f = unit(rng.random(4 * n))
    coords = graphon_project([f], block_membership(n), convention="orthonormal", indices=(1, 2, 3, 4))
    for col, k in enumerate((1, 2, 3, 4)):
        want = float(np.sum(f * np.repeat(PHIS[k - 1], n))) / (4 * n)
        assert coords[0, col] == pytest.approx(want, abs=1e-12)


def test_conventions_differ_by_fixed_positive_factor():
    n = 7
    rng = np.random.default_rng(4)
    mat = np.vstack([unit(rng.random(4 * n)) for _ in range(5)])
    blocksum = graphon_project(mat, block_membership(n), indices=(2, 3, 4))
    ortho = graphon_project(mat, block_membership(n), convention="orthonormal", indices=(2, 3, 4))
    ratio = ortho / blocksum
    for col, k in enumerate((2, 3, 4)):
        phi = PHIS[k - 1]
        expected = np.max(np.abs(phi)) / (4 * n)
        assert np.allclose(ratio[:, col], expected, atol=1e-12)


def test_blocksum_matches_projection_onto_expectation_graph_eigenvectors():
    # On the expectation (edge-probability) matrix the block sign patterns are
    # exact eigenvectors; inner products with them reproduce the blocksum
    # coordinates up to the norm of each pattern vector.
    n = 3
    cfg = SbmConfig(alpha=0.1, n=n, seed=0)
    b = edge_probability_matrix(cfg)
    patterns = {
        2: np.repeat([0.0, 1.0, -1.0, 0.0], n),
        3: np.repeat([1.0, 0.0, 0.0, -1.0], n),
        4: np.repeat([1.0, -1.0, -1.0, 1.0], n),
    }
    for k, pat in patterns.items():
        bp = b @ pat
        lam = bp[np.abs(pat) > 0][0] / pat[np.abs(pat) > 0][0]
        assert np.allclose(bp, lam * pat, atol=1e-12)
    rng = np.random.default_rng(5)
    f = unit(rng.random(4 * n))
    coords = graphon_project([f], block_membership(n), indices=(2, 3, 4))
    for col, k in enumerate((2, 3, 4)):
        assert coords[0, col] == pytest.approx(float(f @ patterns[k]), abs=1e-12)


def test_graphon_project_requires_matching_block_map():
    with pytest.raises(ParameterError):
        graphon_project([unit(np.ones(8))], block_membership(3))


def test_graphon_project_block_map_must_be_integers():
    block_map = block_membership(2).astype(float)
    block_map[1] = 1.5  # int would read block 1
    with pytest.raises(ParameterError, match="block map entries must be integers"):
        graphon_project([unit(np.ones(8))], block_map)


def test_projection_indices_must_be_integers():
    mat = [unit(np.ones(8))]
    with pytest.raises(ParameterError, match="coordinate indices must be integers"):
        graphon_project(mat, block_membership(2), indices=(1.9,))
    dec = eigendecompose(sample_adjacency(SbmConfig(alpha=0.05, n=2, seed=0)))
    with pytest.raises(ParameterError, match="eigen indices must be integers"):
        gft_project(mat, dec, indices=(2.7,))
    assert np.array_equal(gft_project(mat, dec, indices=(2.0,)), gft_project(mat, dec, indices=(2,)))


def _project_with(name, mat):
    n = 2
    if name == "graphon":
        return graphon_project(mat, block_membership(n))
    if name == "pca":
        return pca_fit_transform(mat, dims=1)
    dec = eigendecompose(sample_adjacency(SbmConfig(alpha=0.05, n=n, seed=0)))
    return (gft_project if name == "gft" else aligned_gft_project)(mat, dec)


@pytest.mark.parametrize("name", ["graphon", "gft", "aligned_gft", "pca"])
@pytest.mark.parametrize("mat", [np.ones(8), np.empty((0, 8))], ids=["vector", "no-rows"])
def test_projections_reject_what_is_not_a_nonempty_matrix(name, mat):
    with pytest.raises(ParameterError, match="nonempty 2-D"):
        _project_with(name, mat)


# ---------------------------------------------------------------------------
# PCA


def test_collinear_data_is_captured_by_first_component():
    base = np.array([1.0, -2.0, 0.5, 3.0])
    ts = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    mat = np.outer(ts, base)
    coords = pca_fit_transform(mat, dims=2)
    evr = pca_fit(mat, dims=2).explained_variance_ratio
    assert evr[0] == pytest.approx(1.0, abs=1e-12)
    dists = ts * np.linalg.norm(base)
    assert np.allclose(np.abs(coords[:, 0]), np.abs(dists), atol=1e-10)
    # signed order along the line is preserved (up to one global flip)
    deltas = np.diff(coords[:, 0])
    assert np.all(deltas > 0) or np.all(deltas < 0)


def test_duplicated_dataset_gives_identical_model():
    rng = np.random.default_rng(6)
    mat = rng.random((6, 5))
    m1 = pca_fit(mat, dims=3)
    m2 = pca_fit(np.vstack([mat, mat]), dims=3)
    assert np.allclose(m1.components, m2.components, atol=1e-10)
    assert np.allclose(m1.explained_variance_ratio, m2.explained_variance_ratio, atol=1e-10)


def test_full_rank_pca_reconstructs_data():
    rng = np.random.default_rng(7)
    mat = rng.random((10, 8))
    model = pca_fit(mat, dims=8)
    coords = pca_transform(model, mat)
    recon = coords @ model.components + model.mean
    assert np.max(np.abs(recon - mat)) < 1e-10


def test_pca_needs_enough_trials():
    with pytest.raises(ParameterError):
        pca_fit(np.random.default_rng(0).random((3, 5)), dims=3)


def test_pca_needs_a_component():
    with pytest.raises(ParameterError, match="at least one component"):
        pca_fit(np.random.default_rng(0).random((6, 5)), dims=0)


def test_pca_needs_as_many_features_as_components():
    with pytest.raises(ParameterError, match="5 components to 3 features"):
        pca_fit(np.random.default_rng(0).random((8, 3)), dims=5)


def svd_reference(mat, dims):
    """Sign-fixed axes and variance ratios from the full SVD of the centred matrix."""
    _, svals, vt = np.linalg.svd(mat - mat.mean(axis=0), full_matrices=False)
    comps = vt[:dims]
    lead = np.argmax(np.abs(comps), axis=1)
    comps = comps * np.sign(comps[np.arange(dims), lead])[:, None]
    return comps, svals[:dims] ** 2 / np.sum(svals**2)


# Gram orders 450: above the order from which pca_fit solves by Lanczos
LANCZOS_SHAPES = [(450, 600), (700, 450)]


@pytest.mark.parametrize(
    "shape",
    [(12, 40), (40, 12), (25, 25), *LANCZOS_SHAPES],
    ids=["wide", "tall", "square", "lanczos-wide", "lanczos-tall"],
)
def test_pca_matches_the_svd(shape):
    mat = np.random.default_rng(8).poisson(3.0, size=shape).astype(float)
    comps, ratios = svd_reference(mat, dims=4)
    model = pca_fit(mat, dims=4)
    assert np.max(np.abs(model.components - comps)) < 1e-10
    assert np.max(np.abs(model.explained_variance_ratio - ratios)) < 1e-10


def test_rank_deficient_wide_pca_stays_finite():
    rows = np.random.default_rng(9).random((2, 30))
    mat = np.vstack([rows, rows, rows])  # 6 trials of rank 1 once centred
    model = pca_fit(mat, dims=3)
    assert np.isfinite(model.components).all()
    assert (model.explained_variance_ratio >= 0).all()
    assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(model.components[0], svd_reference(mat, dims=1)[0][0], atol=1e-10)
    assert np.isfinite(pca_transform(model, rows)).all()


def test_lanczos_shapes_skip_the_dense_solver(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr(embedding, "eigh", dense)
    for shape in LANCZOS_SHAPES:
        pca_fit(np.random.default_rng(8).poisson(3.0, size=shape).astype(float), dims=4)


def test_package_import_leaves_the_lanczos_solver_unloaded():
    # importing scipy.sparse.linalg costs ~17 ms, which pca_fit pays only
    # when a Gram matrix first needs it; a fresh interpreter, because this
    # run's other tests load it
    src = str(Path(embedding.__file__).resolve().parents[1])
    code = "import sys, graphon_decode.cli; print('scipy.sparse.linalg' in sys.modules)"
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert loaded.strip() == "False"


def test_rank_one_lanczos_pca_has_zero_trailing_axes():
    rng = np.random.default_rng(10)
    mat = np.outer(rng.random(450), rng.random(600))
    model = pca_fit(mat, dims=4)
    assert np.isfinite(model.components).all()
    assert np.all(model.components[1:] == 0.0)
    assert np.all(model.explained_variance_ratio[1:] == 0.0)
    assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(model.components[0], svd_reference(mat, dims=1)[0][0], atol=1e-10)


@pytest.mark.parametrize("shape", LANCZOS_SHAPES, ids=["wide", "tall"])
def test_pca_of_identical_rows_has_zero_axes(shape):
    # integer rows average to themselves exactly, so C is all zeros
    row = np.random.default_rng(11).poisson(3.0, size=shape[1]).astype(float)
    model = pca_fit(np.tile(row, (shape[0], 1)), dims=4)
    assert np.all(model.components == 0.0)
    assert np.all(model.explained_variance_ratio == 0.0)
    assert np.array_equal(model.mean, row)


@pytest.mark.parametrize("shape", LANCZOS_SHAPES, ids=["wide", "tall"])
def test_pca_of_equal_rows_with_an_inexact_mean_has_zero_axes(shape):
    # sevenths do not average to themselves exactly: C is ~1e-15, not 0
    row = np.random.default_rng(0).random(shape[1]) / 7
    model = pca_fit(np.tile(row, (shape[0], 1)), dims=4)
    assert np.all(model.components == 0.0)
    assert np.all(model.explained_variance_ratio == 0.0)


def test_pca_fit_holds_no_second_training_sized_matrix():
    # numpy reports its buffers to tracemalloc.  A wide fit needs the centred
    # copy C and the Gram C Cᵀ; summing C * C for the total variance made a
    # second copy of C and peaked at 10.6 MB here
    mat = np.random.default_rng(0).poisson(3.0, size=(600, 800)).astype(float)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        pca_fit(mat, dims=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * 8 * (600 * 800 + 600**2), peak


# ---------------------------------------------------------------------------
# degenerate-pair alignment


def analytic_targets(n):
    """The four limit eigenfunctions sampled at the 4n nodes, at unit norm:
    what an aligned basis should equal."""
    return np.repeat(EIGENFUNCTIONS, n, axis=0) / np.sqrt(4 * n)


def synthetic_decomposition(n, rotate=None, swap=False, flip=False):
    vecs = analytic_targets(n)
    pair = vecs[:, 1:3].copy()
    if rotate is not None:
        c, s = np.cos(rotate), np.sin(rotate)
        pair = pair @ np.array([[c, -s], [s, c]])
    if swap:
        pair = pair[:, ::-1]
    vecs[:, 1:3] = pair
    if flip:
        vecs[:, [0, 3]] *= -1.0
    vals = np.array([1.0, 0.9, 0.9, 0.8])
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs)


def test_alignment_is_identity_when_already_aligned():
    dec = synthetic_decomposition(5)
    basis, degenerate = aligned_eigenvector_basis(dec)
    assert degenerate
    assert np.allclose(basis, dec.eigenvectors, atol=1e-10)


def test_alignment_recovers_swap():
    dec = synthetic_decomposition(5, swap=True)
    basis, degenerate = aligned_eigenvector_basis(dec)
    assert degenerate
    assert np.allclose(basis[:, 1:3], dec.eigenvectors[:, 2:0:-1], atol=1e-10)


def test_alignment_recovers_rotation():
    dec = synthetic_decomposition(6, rotate=np.deg2rad(30.0))
    basis, _ = aligned_eigenvector_basis(dec)
    assert np.max(np.abs(basis[:, 1:3] - analytic_targets(6)[:, 1:3])) < 1e-8


def test_alignment_refuses_non_degenerate_pair():
    basis = analytic_targets(4)
    vals = np.array([1.0, 0.9, 0.7, 0.5])  # gap 2-3 over 20 percent
    dec = SpectralDecomposition(eigenvalues=vals, eigenvectors=basis)
    aligned, degenerate = aligned_eigenvector_basis(dec)
    assert not degenerate
    assert np.array_equal(aligned[:, 1:3], basis[:, 1:3])


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("flip", [False, True])
def test_aligned_basis_equals_targets_over_a_full_turn(swap, flip):
    # the signs of modes 1 and 4 are checked here, not only the overlaps' size
    target = analytic_targets(5)
    for theta in np.linspace(0.0, 2.0 * np.pi, 13):
        dec = synthetic_decomposition(5, rotate=theta, swap=swap, flip=flip)
        basis, degenerate = aligned_eigenvector_basis(dec)
        assert degenerate
        assert np.max(np.abs(basis - target)) < 1e-10


def test_aligned_basis_close_to_analytic_on_samples():
    n = 60
    target = analytic_targets(n)
    for seed in range(3):
        adj = sample_adjacency(SbmConfig(alpha=0.05, n=n, seed=seed))
        basis, degenerate = aligned_eigenvector_basis(eigendecompose(adj))
        assert degenerate
        for col in range(4):
            overlap = abs(basis[:, col] @ target[:, col])
            assert overlap > 0.9


@pytest.mark.parametrize("alpha", [0.3, 0.45])
def test_block_modes_are_the_four_largest_in_magnitude(alpha, tmp_path):
    # above alpha = 1/4 the fourth block mode's eigenvalue, (1 - 4 alpha) N / 4,
    # is negative, and the fourth largest value belongs to the noise bulk
    n = 400
    dec = eigendecompose(sample_adjacency(SbmConfig(alpha=alpha, n=n, seed=0)))
    basis, _ = aligned_eigenvector_basis(dec)
    assert abs(basis[:, 3] @ analytic_targets(n)[:, 3]) > 0.9
    write_spectra(dec, tmp_path / "eigenvalues.csv", tmp_path / "eigenvectors.csv")
    index, value = (tmp_path / "eigenvalues.csv").read_text().splitlines()[4].split(",")
    assert index == "3" and float(value) < 0


def test_aligned_projection_is_the_product_with_the_aligned_basis():
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=30, seed=1))
    dec = eigendecompose(adj)
    f = unit(np.random.default_rng(1).random(adj.size))
    basis, _ = aligned_eigenvector_basis(dec)
    # a fancy index, as the projection takes: a 1:4 slice is a strided view,
    # whose product can differ in the last bits
    assert np.array_equal(aligned_gft_project([f], dec), np.array([f]) @ basis[:, [1, 2, 3]])


# ---------------------------------------------------------------------------
# diagnostics and metrics


def test_silhouette_orders_separated_lower_than_mixed():
    rng = np.random.default_rng(8)
    tight = np.vstack([rng.normal(0, 0.05, (10, 2)), rng.normal(5, 0.05, (10, 2))])
    loose = np.vstack([rng.normal(0, 2.0, (10, 2)), rng.normal(1, 2.0, (10, 2))])
    labels = ["a"] * 10 + ["b"] * 10
    assert silhouette_score(tight, labels) > 0.9
    assert silhouette_score(tight, labels) > silhouette_score(loose, labels)


def test_centroid_betweenness_of_collinear_clusters():
    coords = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 1.0], [1.1, 1.0], [2.0, 2.0], [2.1, 2.0]])
    labels = ["s1", "s1", "s2", "s2", "s3", "s3"]
    t = centroid_betweenness(coords, labels)
    assert 0.0 < t < 1.0
    assert t == pytest.approx(0.5, abs=0.05)


def test_dispersion_prefers_stable_embeddings():
    from graphon_decode.embedding import EmbeddingSet

    rng = np.random.default_rng(9)
    centers = {"s1": np.array([0.0, 0.0]), "s2": np.array([3.0, 0.0])}

    def fake(realization_jitter):
        sets = []
        for _ in range(6):
            drift = rng.normal(0, realization_jitter, 2)
            coords, labels = [], []
            for lab, c in centers.items():
                coords.append(c + drift + rng.normal(0, 0.01, (5, 2)))
                labels.extend([lab] * 5)
            sets.append(
                EmbeddingSet(
                    method="x",
                    coords=np.vstack(coords),
                    labels=tuple(labels),
                    trial_ids=tuple(range(10)),
                )
            )
        return sets

    stable = cross_realization_dispersion(fake(0.01))
    drifting = cross_realization_dispersion(fake(0.8))
    assert stable < drifting


@pytest.mark.parametrize(
    "later, message",
    [(("s1", "s1"), "realization 1 lacks stimulus 's2'"), (("s1", "s2", "s3"), "realization 1 adds stimulus 's3'")],
    ids=["lacks", "adds"],
)
def test_dispersion_needs_the_same_stimuli_in_every_realization(later, message):
    first = EmbeddingSet("x", [[0.0, 0.0], [1.0, 0.0]], ("s1", "s2"), (0, 1))
    other = EmbeddingSet("x", np.ones((len(later), 2)), later, tuple(range(len(later))))
    with pytest.raises(DataError, match=message):
        cross_realization_dispersion([first, other])


# ---------------------------------------------------------------------------
# file format


def test_embeddings_csv_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    from graphon_decode.embedding import EmbeddingSet

    es = EmbeddingSet(
        method="graphon",
        coords=rng.random((4, 3)),
        labels=("s1", "s1", "s2", "s2"),
        trial_ids=(0, 1, 2, 3),
    )
    path = tmp_path / "embedding.csv"
    write_embeddings_csv(es, path)
    head = path.read_text().splitlines()[0]
    assert head == "trial_id,label,c1,c2,c3,method"
    back = read_embeddings_csv(path)
    assert back.method == "graphon"
    assert back.labels == es.labels
    assert np.array_equal(back.coords, es.coords)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_embeddings_csv_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "embedding.csv"
    path.write_text(
        "trial_id,label,c1,c2,method\n0,s1,0.5,1.0,pca\n" f"1,s2,{cell},1.0,pca\n"
    )
    with pytest.raises(ParseError, match="row 3: non-finite"):
        read_embeddings_csv(path)


@pytest.mark.parametrize(
    "text, match",
    [
        ("trial_id,label,method\n0,s1,pca\n1,s2,pca\n", "header must be trial_id,label,c1..c<k>,method"),
        ("trial_id,label,foo,method\n0,s1,0.5,pca\n1,s2,1.0,pca\n", "header must be"),
        ("trial_id,label,c2,c3,method\n0,s1,0.5,1.0,pca\n", "header must be"),
        ("trial_id,label,c1,method\n0,s1,0.5,pca\n1,s2,1.0,pca\n0,s2,2.0,pca\n", "row 4: duplicate trial_id 0"),
    ],
    ids=["no-value-columns", "misnamed-column", "not-from-c1", "repeated-trial-id"],
)
def test_embeddings_csv_rejects_malformed_tables(tmp_path, text, match):
    path = tmp_path / "embedding.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=match):
        read_embeddings_csv(path)


def test_embeddings_csv_without_rows_is_a_parse_error(tmp_path):
    path = tmp_path / "embedding.csv"
    path.write_text("trial_id,label,c1,c2,method\n")
    with pytest.raises(ParseError, match="no data rows"):
        read_embeddings_csv(path)

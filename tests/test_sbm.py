import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_decode import sbm
from graphon_decode.errors import ContractError, ParameterError, ParseError
from graphon_decode.graphon import top_eigenvalue_deviation
from graphon_decode.sbm import (
    AdjacencyMatrix,
    SbmConfig,
    block_membership,
    build_block_probability_matrix,
    edge_probability_matrix,
    eigendecompose,
    read_edge_list,
    sample_adjacency,
    write_edge_list,
    write_spectra,
    _cell,
    _int,
)

alphas = st.floats(min_value=1e-6, max_value=0.5 - 1e-6, exclude_max=True)


# ---------------------------------------------------------------------------
# block probability matrix


def test_block_matrix_at_default_alpha():
    c = build_block_probability_matrix(0.05)
    assert np.allclose(np.diag(c), 0.90)
    assert c[0, 3] == 0.0 and c[3, 0] == 0.0
    for i, j in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        assert c[i, j] == 0.05 and c[j, i] == 0.05
    assert c[1, 2] == 0.0 and c[2, 1] == 0.0


def test_block_matrix_small_alpha_approaches_identity():
    c = build_block_probability_matrix(1e-12)
    assert np.allclose(c, np.eye(4), atol=3e-12)


def test_block_matrix_quarter_alpha_spectrum():
    c = build_block_probability_matrix(0.25)
    w = np.sort(np.linalg.eigvalsh(c))[::-1]
    assert np.allclose(w, [1.0, 0.5, 0.5, 0.0], atol=1e-12)


@pytest.mark.parametrize("bad", [0.0, 0.5, -0.1, 0.7, 1.0])
def test_block_matrix_rejects_out_of_range_alpha(bad):
    with pytest.raises(ParameterError):
        build_block_probability_matrix(bad)


@given(alphas)
@settings(max_examples=50, deadline=None)
def test_block_matrix_invariants(alpha):
    c = build_block_probability_matrix(alpha)
    assert np.array_equal(c, c.T)
    assert np.all(c >= 0.0) and np.all(c <= 1.0)
    assert np.allclose(c.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# sampling


def test_sampled_graph_structure():
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=20, seed=7))
    a = adj.entries
    assert a.shape == (80, 80)
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert set(np.unique(a)) <= {0, 1}


def test_blocks_one_and_four_never_connect():
    for seed in range(5):
        adj = sample_adjacency(SbmConfig(alpha=0.45, n=15, seed=seed))
        n = 15
        assert np.all(adj.entries[0 * n : 1 * n, 3 * n : 4 * n] == 0)


def test_same_index_cross_block_pairs_never_connect():
    # The complete-graph factor has a zero diagonal, so node k of one block
    # is never wired to node k of another block.
    n = 30
    adj = sample_adjacency(SbmConfig(alpha=0.45, n=n, seed=3))
    for b1 in range(4):
        for b2 in range(4):
            if b1 == b2:
                continue
            sub = adj.entries[b1 * n : (b1 + 1) * n, b2 * n : (b2 + 1) * n]
            assert np.all(np.diag(sub) == 0)


def test_within_block_density_concentrates():
    # Each within-block unordered pair is an independent Bernoulli(1 - 2*alpha)
    # draw, so the pooled empirical density concentrates at 0.9 for alpha=0.05;
    # 3 sigma over 4 * C(100, 2) pairs is ~0.0064, well inside the 0.02 band.
    n = 100
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=n, seed=11))
    dens = []
    for b in range(4):
        sub = adj.entries[b * n : (b + 1) * n, b * n : (b + 1) * n]
        dens.append(np.triu(sub, k=1).sum() / (n * (n - 1) / 2))
    assert abs(np.mean(dens) - 0.9) < 0.02


def test_sampled_in_degrees_match_binomial_expectation():
    cfg = SbmConfig(alpha=0.05, n=100, seed=6)
    adj = sample_adjacency(cfg)
    probs = edge_probability_matrix(cfg)
    expected = probs.sum(axis=1)
    sigma = np.sqrt((probs * (1.0 - probs)).sum(axis=1))
    s = adj.entries.sum(axis=1)
    assert abs(s.mean() - expected.mean()) < 3 * sigma.mean() / np.sqrt(adj.size)


def test_sampling_is_deterministic():
    cfg = SbmConfig(alpha=0.05, n=25, seed=123)
    a1 = sample_adjacency(cfg)
    a2 = sample_adjacency(cfg)
    assert np.array_equal(a1.entries, a2.entries)


def test_edge_probability_matrix_matches_block_pattern():
    cfg = SbmConfig(alpha=0.1, n=3, seed=0)
    b = edge_probability_matrix(cfg)
    # node 0 (block 1, index 0) vs node 4 (block 2, index 1): prob alpha
    assert b[0, 4] == 0.1
    # node 0 vs node 3 (block 2, index 0): same within-block index, prob 0
    assert b[0, 3] == 0.0
    # within block 1, distinct indices: 1 - 2*alpha
    assert b[0, 1] == 0.8
    assert np.array_equal(b, b.T)


def test_config_validation():
    with pytest.raises(ParameterError):
        SbmConfig(alpha=0.6, n=10, seed=0)
    with pytest.raises(ParameterError):
        SbmConfig(alpha=0.05, n=0, seed=0)
    with pytest.raises(ParameterError):
        SbmConfig(alpha=0.05, n=10, seed=-1)


def test_block_membership_layout():
    m = block_membership(3)
    assert list(m) == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]


# ---------------------------------------------------------------------------
# eigendecomposition


def test_complete_graph_spectrum():
    k4 = AdjacencyMatrix(np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
    dec = eigendecompose(k4)
    assert np.allclose(dec.eigenvalues, [3.0, -1.0, -1.0, -1.0], atol=1e-10)


def test_two_node_path_spectrum():
    dec = eigendecompose(AdjacencyMatrix([[0, 1], [1, 0]]))
    assert np.allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-12)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(dec.eigenvectors[:, 0]), [s, s], atol=1e-12)
    assert np.allclose(np.abs(dec.eigenvectors[:, 1]), [s, s], atol=1e-12)


def test_decomposition_invariants_on_sample():
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=15, seed=2))
    dec = eigendecompose(adj)
    v = dec.eigenvectors
    assert np.max(np.abs(v.T @ v - np.eye(adj.size))) < 1e-10
    recon = v @ np.diag(dec.eigenvalues) @ v.T
    assert np.max(np.abs(recon - adj.entries)) < 1e-8
    per_col = np.abs(adj.entries @ v - v * dec.eigenvalues).max(axis=0)
    assert np.all(per_col < 1e-8)
    assert np.all(np.diff(dec.eigenvalues) <= 1e-12)


def test_eigendecompose_rejects_asymmetric_input():
    # eigendecompose takes a graph, and an asymmetric matrix is no graph
    with pytest.raises(ContractError, match="symmetric"):
        eigendecompose(AdjacencyMatrix([[0, 1], [0, 0]]))


def test_sign_convention_makes_leading_entry_positive():
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=10, seed=5))
    dec = eigendecompose(adj)
    lead = np.argmax(np.abs(dec.eigenvectors), axis=0)
    assert np.all(dec.eigenvectors[lead, np.arange(adj.size)] > 0)


def test_eigendecompose_bytes_do_not_depend_on_the_blas_thread_count():
    # raw eigh bytes of this 400-node graph differ between 1 and 2 OpenBLAS
    # threads, so this holds only while eigendecompose pins one thread; fresh
    # interpreters, because OpenBLAS reads the variable once, at load
    src = str(Path(sbm.__file__).resolve().parents[1])
    code = (
        "import hashlib\n"
        "from graphon_decode.experiment import sample_graph\n"
        "from graphon_decode.sbm import SbmConfig, eigendecompose\n"
        "dec = eigendecompose(sample_graph(SbmConfig(seed=0)))\n"
        "print(hashlib.sha256(dec.eigenvalues.tobytes() + dec.eigenvectors.tobytes()).hexdigest())\n"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        for threads in ("1", "2")
    }
    assert len(digests) == 1


def test_one_blas_thread_restores_the_count_after_the_body_raises():
    threads = sbm._openblas_threads()
    if threads is None:
        pytest.skip("numpy does not link its bundled OpenBLAS")
    get, put = threads
    before = get()
    try:
        put(2)
        outside = get()
        if outside == 1:
            pytest.skip("OpenBLAS runs on one thread only")
        with pytest.raises(RuntimeError, match="body"):
            with sbm._one_blas_thread():
                assert get() == 1
                raise RuntimeError("body")
        assert get() == outside
    finally:
        put(before)


def test_scaled_top_eigenvalues_near_limit_values():
    # Limit prediction for alpha=0.05: {0.25, 0.225, 0.225, 0.20}.
    targets = np.array([0.25, 0.225, 0.225, 0.20])
    tops = []
    for seed in range(10):
        adj = sample_adjacency(SbmConfig(alpha=0.05, n=100, seed=seed))
        dec = eigendecompose(adj)
        tops.append(dec.eigenvalues[:4] / adj.size)
    tops = np.array(tops)
    assert np.all(np.abs(tops - targets) < 0.03)


def test_top_eigenvalue_deviation_shrinks_with_size():
    seeds = range(10)
    devs = [top_eigenvalue_deviation(0.05, n, seeds) for n in (25, 50, 100)]
    assert devs[0] >= devs[1] >= devs[2]


# ---------------------------------------------------------------------------
# file formats


def test_edge_list_round_trip(tmp_path):
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=8, seed=9))
    path = tmp_path / "graph.edges"
    write_edge_list(adj, path)
    header = path.read_text().splitlines()[0]
    assert header == "# nodes=32 alpha=0.05 seed=9"
    back = read_edge_list(path)
    assert np.array_equal(back.entries, adj.entries)
    assert back.alpha == 0.05 and back.seed == 9


def test_edge_list_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("# nodes=4 alpha=none seed=none\n0 1\n9 0\n")
    with pytest.raises(ParseError, match="line 3"):
        read_edge_list(path)
    # the writer lists each edge once; a repeat, in either orientation, once
    # read as one edge
    for rows, line, edge in (("0 1\n1 2\n1 0\n0 1\n", 4, "1 0"), ("0 1\n1 2\n\n2 1\n", 5, "2 1")):
        path.write_text("# nodes=3 alpha=none seed=none\n" + rows)
        with pytest.raises(ParseError, match=f"line {line}: edge {edge} is listed twice"):
            read_edge_list(path)


def test_edge_list_rejects_self_loops(tmp_path):
    path = tmp_path / "loop.edges"
    path.write_text("# nodes=4 alpha=none seed=none\n0 1\n3 3\n")
    with pytest.raises(ParseError, match="line 3: self-loop 3 3"):
        read_edge_list(path)


@pytest.mark.parametrize("text", ["", "nodes=4\n0 1\n", "0 1\n# nodes=4\n"], ids=["empty", "no-hash", "not-first"])
def test_edge_list_needs_its_header_line_first(tmp_path, text):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(ParseError, match="missing header line"):
        read_edge_list(path)


def test_edge_list_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.edges"
    path.write_text("# nodes=4 alpha=none seed=none\n0 1\n\n  \n2 3\n\n")
    assert read_edge_list(path).entries.tolist() == [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


@pytest.mark.parametrize(
    "header",
    [
        "# nodes=8 garbage", "# nodes=8 alpha=high seed=0", "# nodes=8 alpha=0.05 seed=x", "# nodes=-4",
        # values no graph holds, so no writer writes
        "# nodes=8 alpha=nan seed=0", "# nodes=8 alpha=inf seed=0", "# nodes=8 alpha=0.5 seed=0",
        "# nodes=8 alpha=0 seed=0", "# nodes=8 alpha=0.05 seed=-1",
        # spellings Python's float() reads but the writer never writes
        "# nodes=8 alpha=0.0_5 seed=0", "# nodes=8 alpha=\u0660.05 seed=0",
    ],
)
def test_edge_list_rejects_bad_headers(tmp_path, header):
    path = tmp_path / "bad.edges"
    path.write_text(header + "\n0 1\n")
    with pytest.raises(ParseError, match="bad header"):
        read_edge_list(path)


def test_spectra_export(tmp_path):
    dec = eigendecompose(AdjacencyMatrix(np.eye(6, k=1) + np.eye(6, k=-1)))  # path graph on 6 nodes
    vals = tmp_path / "eigenvalues.csv"
    vecs = tmp_path / "eigenvectors.csv"
    write_spectra(dec, vals, vecs)
    lines = vals.read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert lines[1].startswith("0,")
    assert len(lines) == 1 + 4  # the four block modes, as in eigenvectors.csv
    assert lines[1:] == [f"{k},{float(dec.eigenvalues[k])!r}" for k in range(4)]
    mat = np.array(
        [[float(tok) for tok in ln.split(",")] for ln in vecs.read_text().splitlines()]
    )
    assert mat.shape == (6, 4)
    assert np.allclose(mat, dec.eigenvectors[:, :4])


def test_adjacency_wrapper_validation():
    with pytest.raises(ContractError):
        AdjacencyMatrix(np.array([[0, 1], [1, 1]]))  # nonzero diagonal
    with pytest.raises(ContractError):
        AdjacencyMatrix(np.array([[0, 2], [2, 0]]))  # non-binary
    with pytest.raises(ContractError):
        AdjacencyMatrix(entries=np.array([[0, 1], [0, 0]], dtype=np.int8))
    # a recorded alpha and seed meet their SbmConfig fields' rules
    for alpha, seed, match in [
        (float("nan"), None, "alpha must be finite"), (0.5, None, "alpha must lie strictly inside"),
        (True, None, "alpha must not be a boolean"), ("0.1", None, "alpha must be a number"),
        (None, -1, "seed must be at least 0, got -1"), (None, 1.5, "seed must be an integer"),
        (None, True, "seed must not be a boolean"), (None, "3", "seed must be an integer"),
    ]:
        with pytest.raises(ParameterError, match=match):
            AdjacencyMatrix([[0, 1], [1, 0]], alpha, seed)
    adj = AdjacencyMatrix([[0, 1], [1, 0]], np.float64(0.25), np.int64(3))
    assert (type(adj.alpha), type(adj.seed)) == (float, int)


def test_adjacency_checks_entries_as_given_and_keeps_a_readonly_int8_copy():
    pair = [[0, 1], [1, 0]]
    for entries in (pair, np.array(pair), np.array(pair, dtype=bool), np.array(pair, dtype=float)):
        adj = AdjacencyMatrix(entries)
        assert adj.entries.dtype == np.int8 and not adj.entries.flags.writeable
        assert np.array_equal(adj.entries, pair)
    for bad in (0.5, 1.9, 257):  # int8 would read these as 0, 1 and 1
        with pytest.raises(ContractError, match="0 or 1"):
            AdjacencyMatrix(np.array([[0, bad], [bad, 0]]))
    given = np.array(pair, dtype=np.int8)
    adj = AdjacencyMatrix(given)
    given[:] = 0
    assert np.array_equal(adj.entries, pair)


def test_int_reads_an_optional_minus_and_ascii_digits_only():
    assert [_int(t) for t in ("0", "7", "-12", "007")] == [0, 7, -12, 7]
    for text in ("", "-", "+1", " 1", "1 ", "1_0", "\u0661", "1.0", "0x1", "1\n"):
        with pytest.raises(ValueError, match="not an integer"):
            _int(text)


def test_cell_writes_floats_as_repr_and_tuples_joined_by_bars():
    assert _cell(np.float64(0.1)) == "0.1"
    assert _cell(np.float32(0.5)) == "0.5"
    assert _cell(3) == "3" and _cell(np.int64(3)) == "3"
    assert _cell((0.25, np.float64(1.0), 2)) == "0.25|1.0|2"
    assert _cell("s1") == "s1"

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_decode.errors import ContractError, ParameterError
from graphon_decode.graphon import (
    GraphonEigenpair,
    StepFunction,
    StepGraphon,
    StepKernel,
    analytic_graphon_eigenpairs,
    apply_kernel_operator,
    common_refinement,
    infty_to_one_norm_lower_bound,
    kernel_difference,
    l2_inner,
    l2_norm,
    limit_graphon,
    step_graphon_from_adjacency,
    uniform_boundaries,
)
from graphon_decode.sbm import SbmConfig, adjacency_from_entries, sample_adjacency


def brute_force_norm(kernel: StepKernel) -> float:
    """Exhaustive maximum of the bilinear form over all sign vectors."""
    lengths = kernel.lengths()
    m = kernel.values * np.outer(lengths, lengths)
    best = 0.0
    for f in itertools.product([-1.0, 1.0], repeat=m.shape[0]):
        fv = np.array(f)
        g = np.sign(m.T @ fv)
        g[g == 0] = 1.0
        best = max(best, abs(float(fv @ m @ g)))
    return best


# ---------------------------------------------------------------------------
# construction and evaluation


def test_step_graphon_from_two_node_path():
    adj = adjacency_from_entries(np.array([[0, 1], [1, 0]]))
    w = step_graphon_from_adjacency(adj)
    assert np.array_equal(w.boundaries, [0.0, 0.5, 1.0])
    assert np.array_equal(w.values, [[0.0, 1.0], [1.0, 0.0]])


def test_step_graphon_matches_adjacency_pointwise():
    adj = sample_adjacency(SbmConfig(alpha=0.2, n=2, seed=4))
    w = step_graphon_from_adjacency(adj)
    size = adj.size
    rng = np.random.default_rng(0)
    for _ in range(50):
        i, j = rng.integers(0, size, size=2)
        x = (i + 0.375) / size
        y = (j + 0.625) / size
        assert w.evaluate(x, y) == adj.entries[i, j]


def test_limit_graphon_values():
    w = limit_graphon(0.05)
    assert w.boundaries.size == 5
    assert np.allclose(np.diag(w.values), 0.9)
    assert w.evaluate(0.1, 0.9) == 0.0
    # blocks 2 and 3 are mutually disconnected; alpha sits on the 1-2, 1-3,
    # 2-4 and 3-4 couplings
    assert w.evaluate(0.3, 0.6) == 0.0
    assert w.evaluate(0.1, 0.3) == 0.05
    assert w.evaluate(0.3, 0.9) == 0.05


def test_limit_graphon_rejects_bad_alpha():
    with pytest.raises(ParameterError):
        limit_graphon(0.0)


def test_kernel_validation():
    with pytest.raises(ContractError):
        StepKernel(np.array([0.0, 0.4, 1.0]), np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ContractError):
        StepKernel(np.array([0.1, 1.0]), np.array([[0.0]]))
    with pytest.raises(ContractError):
        StepGraphon(np.array([0.0, 1.0]), np.array([[1.5]]))


# ---------------------------------------------------------------------------
# analytic eigenpairs of the limit kernel


def test_analytic_graphon_eigenvalues_at_default_alpha():
    vals = [p.eigenvalue for p in analytic_graphon_eigenpairs(0.05)]
    assert np.allclose(vals, [0.25, 0.225, 0.225, 0.20], atol=1e-15)


def test_second_eigenfunction_block_values():
    pairs = analytic_graphon_eigenpairs(0.1)
    phi2 = pairs[1].eigenfunction
    s = np.sqrt(2.0)
    assert np.allclose(phi2.values, [0.0, s, -s, 0.0], atol=1e-15)
    assert abs(l2_inner(phi2, phi2) - 1.0) < 1e-12


def test_analytic_eigenfunctions_are_orthonormal():
    pairs = analytic_graphon_eigenpairs(0.3)
    for i, a in enumerate(pairs):
        for j, b in enumerate(pairs):
            want = 1.0 if i == j else 0.0
            assert abs(l2_inner(a.eigenfunction, b.eigenfunction) - want) < 1e-12


@pytest.mark.parametrize("alpha", [0.05, 0.20, 0.45])
def test_analytic_pairs_satisfy_kernel_eigen_equation(alpha):
    w = limit_graphon(alpha)
    for pair in analytic_graphon_eigenpairs(alpha):
        out = apply_kernel_operator(w, pair.eigenfunction)
        target = StepFunction(pair.eigenfunction.boundaries, pair.eigenvalue * pair.eigenfunction.values)
        diff = StepFunction(out.boundaries, out.values - target.evaluate(0.5 * (out.boundaries[:-1] + out.boundaries[1:])))
        assert l2_norm(diff) < 1e-12


# ---------------------------------------------------------------------------
# kernel operator


def test_operator_on_constant_signal_gives_row_sums():
    w = limit_graphon(0.07)
    f = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
    out = apply_kernel_operator(w, f)
    assert np.allclose(out.values, 0.25, atol=1e-15)


def test_operator_on_fourth_eigenfunction():
    alpha = 0.12
    w = limit_graphon(alpha)
    phi4 = analytic_graphon_eigenpairs(alpha)[3].eigenfunction
    out = apply_kernel_operator(w, phi4)
    lam = (1.0 - 4.0 * alpha) / 4.0
    mids = 0.5 * (out.boundaries[:-1] + out.boundaries[1:])
    assert np.max(np.abs(out.values - lam * phi4.evaluate(mids))) < 1e-12


def test_zero_kernel_maps_everything_to_zero():
    w = StepKernel(np.array([0.0, 0.5, 1.0]), np.zeros((2, 2)))
    f = StepFunction(np.array([0.0, 0.25, 1.0]), np.array([3.0, -1.0]))
    out = apply_kernel_operator(w, f)
    assert np.all(out.values == 0.0)


def test_operator_spectrum_equals_scaled_adjacency_spectrum():
    # For an adjacency of size a, the induced step-kernel operator acting on
    # functions piecewise constant on a fine uniform grid has matrix
    # blowup(A) / N; its nonzero spectrum must equal eig(A) / a exactly.
    rng = np.random.default_rng(42)
    for size in (2, 3, 5, 8):
        upper = rng.integers(0, 2, size=(size, size))
        a = np.triu(upper, k=1)
        a = a + a.T
        adj = adjacency_from_entries(a)
        w = step_graphon_from_adjacency(adj)
        fine = size * 4
        mids = (np.arange(fine) + 0.5) / fine
        op = w.evaluate(mids[:, None], mids[None, :]) / fine
        ev_op = np.linalg.eigvalsh(op)
        ev_op = ev_op[np.abs(ev_op) > 1e-10]
        ev_adj = np.linalg.eigvalsh(a.astype(float)) / size
        ev_adj = ev_adj[np.abs(ev_adj) > 1e-10]
        assert ev_op.size == ev_adj.size
        assert np.allclose(np.sort(ev_op), np.sort(ev_adj), atol=1e-8)


# ---------------------------------------------------------------------------
# infinity-to-one norm lower bound


def test_norm_of_zero_kernel():
    w = StepKernel(np.array([0.0, 1.0]), np.zeros((1, 1)))
    assert infty_to_one_norm_lower_bound(w) == 0.0


def test_norm_of_constant_kernel_is_exact():
    w = StepGraphon(np.array([0.0, 0.3, 1.0]), np.full((2, 2), 0.7))
    assert abs(infty_to_one_norm_lower_bound(w, restarts=1) - 0.7) < 1e-14


def test_norm_of_two_block_sign_kernel():
    c = 0.4
    w = StepKernel(np.array([0.0, 0.5, 1.0]), np.array([[c, -c], [-c, c]]))
    got = infty_to_one_norm_lower_bound(w, restarts=8, seed=1)
    assert abs(got - 0.4) < 1e-14
    assert abs(brute_force_norm(w) - 0.4) < 1e-14


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_norm_estimate_matches_exhaustive_search_and_bound(m, seed):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, size=(m, m))
    vals = 0.5 * (vals + vals.T)
    cuts = np.sort(rng.uniform(0.05, 0.95, size=m - 1))
    bounds = np.concatenate([[0.0], cuts, [1.0]])
    w = StepKernel(bounds, vals)
    est = infty_to_one_norm_lower_bound(w, restarts=32, seed=seed)
    exact = brute_force_norm(w)
    assert est <= exact + 1e-12
    assert est <= w.max_abs() + 1e-12
    # with 32 restarts on <= 4 cells the ascent should actually find the optimum
    assert abs(est - exact) < 1e-10


def test_norm_is_exact_total_mass_for_constant_sign_kernels():
    # when the kernel never changes sign the all-ones pair is optimal, so the
    # estimator returns the integral of |K| exactly on its first restart
    rng = np.random.default_rng(12)
    vals = rng.uniform(0.1, 1.0, size=(5, 5))
    vals = 0.5 * (vals + vals.T)
    w = StepGraphon(uniform_boundaries(5), vals)
    lengths = w.lengths()
    total_mass = float(np.sum(np.abs(w.values) * np.outer(lengths, lengths)))
    assert infty_to_one_norm_lower_bound(w, restarts=1) == pytest.approx(total_mass, abs=1e-15)
    assert total_mass <= w.max_abs()
    flipped = StepKernel(uniform_boundaries(5), -vals)
    assert infty_to_one_norm_lower_bound(flipped, restarts=2, seed=0) == pytest.approx(
        total_mass, abs=1e-15
    )


def test_norm_monotone_in_restarts():
    rng = np.random.default_rng(3)
    vals = rng.uniform(-1.0, 1.0, size=(6, 6))
    vals = 0.5 * (vals + vals.T)
    w = StepKernel(uniform_boundaries(6), vals)
    prev = 0.0
    for restarts in (1, 2, 4, 8, 16):
        cur = infty_to_one_norm_lower_bound(w, restarts=restarts, seed=5)
        assert cur >= prev - 1e-15
        prev = cur


def test_norm_deterministic_given_seed():
    rng = np.random.default_rng(8)
    vals = rng.uniform(-1.0, 1.0, size=(5, 5))
    vals = 0.5 * (vals + vals.T)
    w = StepKernel(uniform_boundaries(5), vals)
    a = infty_to_one_norm_lower_bound(w, restarts=16, seed=9)
    b = infty_to_one_norm_lower_bound(w, restarts=16, seed=9)
    assert a == b


def test_sampled_kernels_approach_the_limit():
    # Distance estimate between the sampled step kernel and the limit kernel
    # shrinks with graph size, averaged over seeds.
    target = limit_graphon(0.05)
    means = []
    for n in (4, 10, 24):
        dists = []
        for seed in range(5):
            adj = sample_adjacency(SbmConfig(alpha=0.05, n=n, seed=seed))
            diff = kernel_difference(step_graphon_from_adjacency(adj), target)
            dists.append(infty_to_one_norm_lower_bound(diff, restarts=8, seed=seed))
        means.append(np.mean(dists))
    assert means[0] > means[1] > means[2]


# ---------------------------------------------------------------------------
# plumbing


def test_common_refinement_merges_exactly():
    a = uniform_boundaries(4)
    b = uniform_boundaries(8)
    merged = common_refinement(a, b)
    assert np.array_equal(merged, uniform_boundaries(8))


def test_kernel_difference_on_common_refinement():
    a = StepGraphon(np.array([0.0, 0.5, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    b = limit_graphon(0.25)
    d = kernel_difference(a, b)
    assert d.boundaries.size == 5
    assert d.evaluate(0.1, 0.1) == 1.0 - 0.5
    assert d.evaluate(0.1, 0.6) == 0.0 - 0.25


def test_eigenpair_container_holds_metadata():
    pair = analytic_graphon_eigenpairs(0.05)[0]
    assert isinstance(pair, GraphonEigenpair)
    assert pair.eigenvalue == 0.25
    assert np.allclose(pair.eigenfunction.values, 1.0)

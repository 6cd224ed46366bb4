import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_decode.errors import ContractError, ParameterError
from graphon_decode.graphon import analytic_graphon_eigenpairs, infty_to_one_norm_lower_bound
from graphon_decode.sbm import SbmConfig, block_membership, build_block_probability_matrix, sample_adjacency


def brute_force_norm(u: np.ndarray) -> float:
    """Exhaustive maximum of the bilinear form over all sign vectors."""
    m = u / u.shape[0] ** 2
    best = 0.0
    for f in itertools.product([-1.0, 1.0], repeat=m.shape[0]):
        fv = np.array(f)
        g = np.sign(m.T @ fv)
        g[g == 0] = 1.0
        best = max(best, abs(float(fv @ m @ g)))
    return best


def apply_limit_kernel(alpha: float, phi: np.ndarray) -> np.ndarray:
    """Quarter values of the limit kernel operator applied to the function
    with quarter values phi: each quarter has length 1/4."""
    return build_block_probability_matrix(alpha) @ (phi * 0.25)


def random_symmetric(rng, m: int) -> np.ndarray:
    vals = rng.uniform(-1.0, 1.0, size=(m, m))
    return 0.5 * (vals + vals.T)


# ---------------------------------------------------------------------------
# analytic eigenpairs of the limit kernel


def test_analytic_graphon_eigenvalues_at_default_alpha():
    vals = [lam for lam, _ in analytic_graphon_eigenpairs(0.05)]
    assert np.allclose(vals, [0.25, 0.225, 0.225, 0.20], atol=1e-15)


def test_second_eigenfunction_block_values():
    _, phi2 = analytic_graphon_eigenpairs(0.1)[1]
    s = np.sqrt(2.0)
    assert np.allclose(phi2, [0.0, s, -s, 0.0], atol=1e-15)
    assert abs(float(phi2 @ phi2) * 0.25 - 1.0) < 1e-12


def test_analytic_eigenfunctions_are_orthonormal():
    # the L2([0,1]) inner product of quarter-constant functions is phi . psi / 4
    phis = np.column_stack([phi for _, phi in analytic_graphon_eigenpairs(0.3)])
    assert np.max(np.abs(phis.T @ phis * 0.25 - np.eye(4))) < 1e-12


@pytest.mark.parametrize("alpha", [0.05, 0.20, 0.45])
def test_analytic_pairs_satisfy_kernel_eigen_equation(alpha):
    for lam, phi in analytic_graphon_eigenpairs(alpha):
        assert np.max(np.abs(apply_limit_kernel(alpha, phi) - lam * phi)) < 1e-12


def test_graphon_eigenpairs_reject_bad_alpha():
    with pytest.raises(ParameterError):
        analytic_graphon_eigenpairs(0.0)


def test_eigenpair_container_holds_metadata():
    lam, phi = analytic_graphon_eigenpairs(0.05)[0]
    assert isinstance(lam, float) and lam == 0.25
    assert phi.shape == (4,) and not phi.flags.writeable
    assert np.allclose(phi, 1.0)


# ---------------------------------------------------------------------------
# kernel operator


def test_operator_on_constant_signal_gives_row_sums():
    assert np.allclose(apply_limit_kernel(0.07, np.ones(4)), 0.25, atol=1e-15)


def test_operator_on_fourth_eigenfunction():
    alpha = 0.12
    _, phi4 = analytic_graphon_eigenpairs(alpha)[3]
    lam = (1.0 - 4.0 * alpha) / 4.0
    assert np.max(np.abs(apply_limit_kernel(alpha, phi4) - lam * phi4)) < 1e-12


# ---------------------------------------------------------------------------
# infinity-to-one norm lower bound


def test_kernel_validation():
    with pytest.raises(ContractError):
        infty_to_one_norm_lower_bound(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ContractError):
        infty_to_one_norm_lower_bound(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        infty_to_one_norm_lower_bound(np.zeros(4))
    with pytest.raises(ParameterError):
        infty_to_one_norm_lower_bound(np.zeros((2, 2)), restarts=0)


def test_norm_of_zero_kernel():
    assert infty_to_one_norm_lower_bound(np.zeros((1, 1))) == 0.0


def test_norm_of_constant_kernel_is_exact():
    assert abs(infty_to_one_norm_lower_bound(np.full((2, 2), 0.7), restarts=1) - 0.7) < 1e-14


def test_norm_of_two_block_sign_kernel():
    c = 0.4
    u = np.array([[c, -c], [-c, c]])
    got = infty_to_one_norm_lower_bound(u, restarts=8, seed=1)
    assert abs(got - 0.4) < 1e-14
    assert abs(brute_force_norm(u) - 0.4) < 1e-14


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_norm_estimate_matches_exhaustive_search_and_bound(m, seed):
    u = random_symmetric(np.random.default_rng(seed), m)
    est = infty_to_one_norm_lower_bound(u, restarts=32, seed=seed)
    exact = brute_force_norm(u)
    assert est <= exact + 1e-12
    assert est <= np.max(np.abs(u)) + 1e-12
    # with 32 restarts on <= 4 cells the ascent should actually find the optimum
    assert abs(est - exact) < 1e-10


@pytest.mark.parametrize("seed", [10, 94, 2542])
def test_norm_estimate_is_exact_when_restarts_cover_every_sign_class(seed):
    # 31 random starts missed the optimum's sign class at these seeds; 8
    # classes of 4 cells fit in 32 restarts, so every class is a start
    u = random_symmetric(np.random.default_rng(seed), 4)
    est = infty_to_one_norm_lower_bound(u, restarts=32, seed=seed)
    assert est == pytest.approx(brute_force_norm(u), abs=1e-15)


def test_norm_is_exact_total_mass_for_constant_sign_kernels():
    # when the kernel never changes sign the all-ones pair is optimal, so the
    # estimator returns the integral of |K| exactly on its first restart
    rng = np.random.default_rng(12)
    u = np.abs(random_symmetric(rng, 5)) + 0.1
    total_mass = float(np.sum(u) / 25)
    assert infty_to_one_norm_lower_bound(u, restarts=1) == pytest.approx(total_mass, abs=1e-15)
    assert total_mass <= np.max(u)
    assert infty_to_one_norm_lower_bound(-u, restarts=2, seed=0) == pytest.approx(total_mass, abs=1e-15)


def test_norm_monotone_in_restarts():
    u = random_symmetric(np.random.default_rng(3), 6)
    prev = 0.0
    for restarts in (1, 2, 4, 8, 16):
        cur = infty_to_one_norm_lower_bound(u, restarts=restarts, seed=5)
        assert cur >= prev - 1e-15
        prev = cur


def test_norm_deterministic_given_seed():
    u = random_symmetric(np.random.default_rng(8), 5)
    a = infty_to_one_norm_lower_bound(u, restarts=16, seed=9)
    b = infty_to_one_norm_lower_bound(u, restarts=16, seed=9)
    assert a == b


def test_sampled_kernels_approach_the_limit():
    # Distance estimate between a sampled graph and the limit kernel, both on
    # the graph's cells, shrinks with graph size, averaged over seeds.
    c = build_block_probability_matrix(0.05)
    means = []
    for n in (4, 10, 24):
        blocks = block_membership(n) - 1
        limit = c[np.ix_(blocks, blocks)]
        dists = []
        for seed in range(5):
            adj = sample_adjacency(SbmConfig(alpha=0.05, n=n, seed=seed))
            dists.append(infty_to_one_norm_lower_bound(adj.entries - limit, restarts=8, seed=seed))
        means.append(np.mean(dists))
    assert means[0] > means[1] > means[2]

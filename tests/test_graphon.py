import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_decode.errors import ParameterError
from graphon_decode.graphon import EIGENFUNCTIONS, analytic_graphon_eigenpairs
from graphon_decode.sbm import build_block_probability_matrix


def apply_limit_kernel(alpha: float, phi: np.ndarray) -> np.ndarray:
    """Quarter values of the limit kernel operator applied to the function
    with quarter values phi: each quarter has length 1/4."""
    return build_block_probability_matrix(alpha) @ (phi * 0.25)


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


@given(st.floats(min_value=1e-6, max_value=0.5 - 1e-6, exclude_max=True))
@settings(max_examples=50, deadline=None)
def test_analytic_pairs_satisfy_kernel_eigen_equation_at_any_alpha(alpha):
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
    assert not EIGENFUNCTIONS.flags.writeable
    for k, (_, phi) in enumerate(analytic_graphon_eigenpairs(0.2)):
        assert np.array_equal(phi, EIGENFUNCTIONS[:, k])
    # 2 * (1 / sqrt(2)) rounds one ulp below sqrt(2); orthonormal bits read it
    assert EIGENFUNCTIONS[1, 1] == np.nextafter(np.sqrt(2.0), 0.0)


# ---------------------------------------------------------------------------
# kernel operator


def test_operator_on_constant_signal_gives_row_sums():
    assert np.allclose(apply_limit_kernel(0.07, np.ones(4)), 0.25, atol=1e-15)


def test_operator_on_fourth_eigenfunction():
    alpha = 0.12
    _, phi4 = analytic_graphon_eigenpairs(alpha)[3]
    lam = (1.0 - 4.0 * alpha) / 4.0
    assert np.max(np.abs(apply_limit_kernel(alpha, phi4) - lam * phi4)) < 1e-12

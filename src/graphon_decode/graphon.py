"""The four-block limit kernel: its eigenfunctions, its eigenvalues, and how
close a sampled graph's spectrum comes to them.

The limit of the sampled graph sequence is the kernel W(x, y) = C[i, j] for x
in quarter i and y in quarter j of [0, 1], where C is the 4x4 block
probability matrix.  Its operator maps a function with value phi[j] on
quarter j to the function with values C @ (phi / 4), so every eigenfunction
with a nonzero eigenvalue is constant on each quarter and the nonzero spectrum
is that of C / 4 (Ruiz, Chamon & Ribeiro 2021, "Graphon Signal Processing").

This module is the one definition of that spectrum; the graphon projection,
the eigenvector alignment and the convergence diagnostic read it from here.
"""

from __future__ import annotations

import numpy as np

from .sbm import BLOCK_COUNT, SbmConfig, _check_alpha, eigendecompose, sample_adjacency

_S = 1.0 / np.sqrt(2.0)

# Column k holds eigenfunction k's value on each quarter, at unit L2 norm on
# [0, 1]: the flat function, the quarter-2-minus-3 and quarter-1-minus-4
# contrasts, and the (+, -, -, +) pattern, for every alpha.  2 * _S is one ulp
# below sqrt(2), and orthonormal coordinates read that last bit.
EIGENFUNCTIONS = 2.0 * np.array(
    [
        [0.5, 0.0, _S, 0.5],
        [0.5, _S, 0.0, -0.5],
        [0.5, -_S, 0.0, -0.5],
        [0.5, 0.0, -_S, 0.5],
    ]
)
EIGENFUNCTIONS.setflags(write=False)


def analytic_graphon_eigenpairs(alpha: float) -> list[tuple[float, np.ndarray]]:
    """Closed-form nonzero eigenpairs of the limit kernel operator.

    Returns four (eigenvalue, quarter values) pairs in fixed order, the
    columns of :data:`EIGENFUNCTIONS` with the eigenvalues 1/4, the double
    (1 - 2*alpha)/4, and (1 - 4*alpha)/4: those of the block matrix divided
    by 4.

    Besides these four modes the operator has the eigenvalue 0 with infinite
    multiplicity, spanned by all functions whose mean over every quarter
    vanishes; that subspace carries no block information and is not returned.
    """
    _check_alpha(alpha)
    values = [1.0, 1.0 - 2.0 * alpha, 1.0 - 2.0 * alpha, 1.0 - 4.0 * alpha]
    return [(lam / BLOCK_COUNT, EIGENFUNCTIONS[:, k]) for k, lam in enumerate(values)]


def top_eigenvalue_deviation(alpha: float, n: int, seeds) -> float:
    """Convergence diagnostic: mean absolute gap between the top-4 eigenvalues
    of A / size and the limit kernel's, averaged over the given seeds.
    Positions 2 and 3 share a limit value, so their internal order does not
    matter."""
    targets = np.array([lam for lam, _ in analytic_graphon_eigenpairs(alpha)])
    devs = []
    for seed in seeds:
        adj = sample_adjacency(SbmConfig(alpha=alpha, n=n, seed=seed))
        top = eigendecompose(adj).eigenvalues[:BLOCK_COUNT] / adj.size
        devs.append(np.mean(np.abs(top - targets)))
    return float(np.mean(devs))

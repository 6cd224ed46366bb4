"""The four-block limit kernel and its eigenpairs.

The limit of the sampled graph sequence is the kernel W(x, y) = C[i, j] for x
in quarter i and y in quarter j of [0, 1], where C is the 4x4 block
probability matrix.  Its operator maps a function with value phi[j] on
quarter j to the function with values C @ (phi / 4), so every eigenfunction
with a nonzero eigenvalue is constant on each quarter and the nonzero spectrum
is that of C / 4 (Ruiz, Chamon & Ribeiro 2021, "Graphon Signal Processing").
"""

from __future__ import annotations

import numpy as np

from .sbm import BLOCK_COUNT, analytic_block_eigenpairs, _readonly


def analytic_graphon_eigenpairs(alpha: float) -> list[tuple[float, np.ndarray]]:
    """Closed-form nonzero eigenpairs of the limit kernel operator.

    Returns four (eigenvalue, quarter values) pairs in the order of
    :func:`sbm.analytic_block_eigenpairs`: the eigenvalues are the
    block-matrix eigenvalues divided by 4, and the eigenfunctions are the
    block eigenvectors rescaled by 2, so each has unit L2 norm on [0, 1]
    (a quarter-supported block vector of unit Euclidean norm would otherwise
    have L2 norm 1/2).

    Besides these four modes the operator has the eigenvalue 0 with infinite
    multiplicity, spanned by all functions whose mean over every quarter
    vanishes; that subspace carries no block information and is not returned.
    """
    return [(lam / BLOCK_COUNT, _readonly(2.0 * vec)) for lam, vec in analytic_block_eigenpairs(alpha)]

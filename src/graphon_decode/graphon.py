"""The four-block limit kernel in matrix form: eigenpairs and a cut-norm diagnostic.

The limit of the sampled graph sequence is the kernel W(x, y) = C[i, j] for x
in quarter i and y in quarter j of [0, 1], where C is the 4x4 block
probability matrix.  Its operator maps a function with value phi[j] on
quarter j to the function with values C @ (phi / 4), so every eigenfunction
with a nonzero eigenvalue is constant on each quarter and the nonzero spectrum
is that of C / 4 (Ruiz, Chamon & Ribeiro 2021, "Graphon Signal Processing").
A graph on N nodes is the kernel that is constant on N equal cells, so its
difference to the limit is an N x N matrix too.  Everything here is therefore
finite matrix algebra, limited only by floating-point rounding.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ContractError, ParameterError
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


def _unit_signs(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, 1.0, -1.0)


def infty_to_one_norm_lower_bound(u, restarts: int = 32, seed: int = 0) -> float:
    """Heuristic lower bound on sup |int f(x) K(x,y) g(y) dx dy| over |f|,|g| <= 1,
    for the kernel K that takes the value u[i, j] on cell (i, j) of N equal cells.

    The supremum is attained by functions that are +-1 and constant on the
    cells, so the problem reduces to maximizing the bilinear form of u / N^2
    over sign vectors.  We run alternating sign ascent from one deterministic
    all-ones start plus seeded random restarts and keep the best value found.
    The result never exceeds the true norm, is monotone in ``restarts`` for a
    fixed seed, and is deterministic given the seed.

    When 2^(N-1) <= ``restarts`` it starts instead from every sign vector
    whose first entry is +1, one of which is optimal up to sign, so the result
    is the exact norm.  Otherwise the exact norm is combinatorially hard; this
    estimator is intended as a convergence diagnostic, not a certified distance.
    """
    if restarts < 1:
        raise ParameterError(f"restarts must be >= 1, got {restarts}")
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] == 0:
        raise ContractError(f"kernel must be a nonempty square matrix, got shape {u.shape}")
    if not np.array_equal(u, u.T):
        raise ContractError("kernel values must be symmetric")
    m = u / u.shape[0] ** 2
    n = m.shape[0]
    if 2 ** (n - 1) <= restarts:
        starts = (np.array((1.0, *signs)) for signs in itertools.product((1.0, -1.0), repeat=n - 1))
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        starts = (np.ones(n) if r == 0 else rng.choice([-1.0, 1.0], size=n) for r in range(restarts))
    best = 0.0
    for g in starts:
        prev = -np.inf
        for _ in range(200):
            f = _unit_signs(m @ g)
            g = _unit_signs(m.T @ f)
            val = float(f @ m @ g)
            if val <= prev + 1e-15:
                break
            prev = val
        best = max(best, val)
    return best

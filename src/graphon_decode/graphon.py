"""Step kernels on the unit square: evaluation, kernel operator, spectra, norms.

Every object here is piecewise constant on a finite partition of [0, 1], so
integrals reduce to exact finite sums over the common refinement of the
partitions involved.  No sampling grids are used anywhere; invariant checks
are therefore limited only by floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError
from .sbm import (
    BLOCK_COUNT,
    AdjacencyMatrix,
    analytic_block_eigenpairs,
    build_block_probability_matrix,
    _check_alpha,
    _readonly,
)


def _check_boundaries(b: np.ndarray) -> None:
    if b.ndim != 1 or b.size < 2:
        raise ContractError("boundaries must be a 1-D array with at least two points")
    if b[0] != 0.0 or b[-1] != 1.0:
        raise ContractError(f"boundaries must start at 0 and end at 1, got [{b[0]}, {b[-1]}]")
    if np.any(np.diff(b) <= 0):
        raise ContractError("boundaries must be strictly increasing")


def uniform_boundaries(m: int) -> np.ndarray:
    """Partition of [0, 1] into m equal cells; each point is the correctly
    rounded value of i/m, so shared multiples of coarser grids match exactly."""
    if m < 1:
        raise ParameterError(f"cell count must be positive, got {m}")
    return np.arange(m + 1) / m


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function: values[i] on [boundaries[i], boundaries[i+1])."""

    boundaries: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        v = np.asarray(self.values, dtype=float)
        _check_boundaries(b)
        if v.ndim != 1 or v.size != b.size - 1:
            raise ContractError("values must be 1-D with one entry per cell")
        object.__setattr__(self, "boundaries", _readonly(b.copy()))
        object.__setattr__(self, "values", _readonly(v.copy()))

    def lengths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    def evaluate(self, x) -> np.ndarray:
        idx = _locate(self.boundaries, np.asarray(x, dtype=float))
        return self.values[idx]


@dataclass(frozen=True)
class StepKernel:
    """Symmetric piecewise-constant kernel on [0,1]^2 over a product partition.

    Values may be any reals; differences of two kernels live here too.
    """

    boundaries: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        v = np.asarray(self.values, dtype=float)
        _check_boundaries(b)
        m = b.size - 1
        if v.shape != (m, m):
            raise ContractError(f"values must be {m}x{m} for {m} cells, got {v.shape}")
        if not np.array_equal(v, v.T):
            raise ContractError("kernel values must be symmetric")
        object.__setattr__(self, "boundaries", _readonly(b.copy()))
        object.__setattr__(self, "values", _readonly(v.copy()))

    def lengths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    def evaluate(self, x, y) -> np.ndarray:
        xi = _locate(self.boundaries, np.asarray(x, dtype=float))
        yi = _locate(self.boundaries, np.asarray(y, dtype=float))
        return self.values[xi, yi]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


@dataclass(frozen=True)
class StepGraphon(StepKernel):
    """Step kernel with values in [0, 1], i.e. a graph or graph-limit object."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise ContractError("graphon values must lie in [0, 1]")


@dataclass(frozen=True)
class GraphonEigenpair:
    """Eigenvalue with its piecewise-constant, unit-L2-norm eigenfunction."""

    eigenvalue: float
    eigenfunction: StepFunction


def _locate(boundaries: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cell index of each point; the last cell is closed on the right."""
    idx = np.searchsorted(boundaries, x, side="right") - 1
    return np.clip(idx, 0, boundaries.size - 2)


def common_refinement(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Merged partition containing every boundary of both inputs."""
    return np.unique(np.concatenate([b1, b2]))


def _cells_in(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """Index into the coarse partition of each fine cell (via midpoints)."""
    mids = 0.5 * (fine[:-1] + fine[1:])
    return _locate(coarse, mids)


def step_graphon_from_adjacency(adjacency: AdjacencyMatrix) -> StepGraphon:
    """Represent a graph as a step kernel: uniform partition into ``size``
    cells, cell (i, j) carrying the adjacency entry A[i][j]."""
    size = adjacency.size
    return StepGraphon(uniform_boundaries(size), adjacency.entries.astype(float))


def limit_graphon(alpha: float) -> StepGraphon:
    """The four-quarter step kernel whose values are the block probabilities;
    this is the limit object of the sampled graph sequence for fixed alpha."""
    c = build_block_probability_matrix(alpha)
    return StepGraphon(uniform_boundaries(BLOCK_COUNT), c.entries)


def analytic_graphon_eigenpairs(alpha: float) -> list[GraphonEigenpair]:
    """Closed-form nonzero eigenpairs of the limit kernel operator.

    Eigenvalues are the block-matrix eigenvalues divided by 4.  Eigenfunctions
    are the block eigenvectors spread over the quarters and rescaled by 2 so
    each has exactly unit L2 norm on [0, 1] (a quarter-supported block vector
    of unit Euclidean norm would otherwise have L2 norm 1/2).

    Besides these four modes the operator has the eigenvalue 0 with infinite
    multiplicity, spanned by all functions whose mean over every quarter
    vanishes; that subspace carries no block information and is not returned.
    """
    _check_alpha(alpha)
    quarters = uniform_boundaries(BLOCK_COUNT)
    pairs = []
    for lam, vec in analytic_block_eigenpairs(alpha):
        pairs.append(
            GraphonEigenpair(
                eigenvalue=lam / BLOCK_COUNT,
                eigenfunction=StepFunction(quarters, 2.0 * vec),
            )
        )
    return pairs


def apply_kernel_operator(kernel: StepKernel, signal: StepFunction) -> StepFunction:
    """Integrate the kernel against a signal: out(x) = sum_j K(x, y_j) f_j |cell_j|,
    computed exactly on the common refinement of the two partitions."""
    bounds = common_refinement(kernel.boundaries, signal.boundaries)
    lengths = np.diff(bounds)
    ki = _cells_in(kernel.boundaries, bounds)
    si = _cells_in(signal.boundaries, bounds)
    weighted = signal.values[si] * lengths
    out = kernel.values[np.ix_(ki, ki)] @ weighted
    return StepFunction(bounds, out)


def l2_inner(f: StepFunction, g: StepFunction) -> float:
    """Exact L2([0,1]) inner product of two piecewise-constant functions."""
    bounds = common_refinement(f.boundaries, g.boundaries)
    lengths = np.diff(bounds)
    fi = _cells_in(f.boundaries, bounds)
    gi = _cells_in(g.boundaries, bounds)
    return float(np.sum(f.values[fi] * g.values[gi] * lengths))


def l2_norm(f: StepFunction) -> float:
    return float(np.sqrt(max(l2_inner(f, f), 0.0)))


def kernel_difference(a: StepKernel, b: StepKernel) -> StepKernel:
    """a - b as a signed step kernel on the common refinement."""
    bounds = common_refinement(a.boundaries, b.boundaries)
    ai = _cells_in(a.boundaries, bounds)
    bi = _cells_in(b.boundaries, bounds)
    vals = a.values[np.ix_(ai, ai)] - b.values[np.ix_(bi, bi)]
    return StepKernel(bounds, vals)


def _unit_signs(x: np.ndarray) -> np.ndarray:
    s = np.where(x >= 0.0, 1.0, -1.0)
    return s


def infty_to_one_norm_lower_bound(kernel: StepKernel, restarts: int = 32, seed: int = 0) -> float:
    """Heuristic lower bound on sup |int f(x) K(x,y) g(y) dx dy| over |f|,|g| <= 1.

    For a step kernel the supremum is attained by functions that are +-1 and
    constant on the kernel's own cells, so the problem reduces to maximizing a
    bilinear form over sign vectors.  We run alternating sign ascent from one
    deterministic all-ones start plus seeded random restarts and keep the best
    value found.  The result never exceeds the true norm, is monotone in
    ``restarts`` for a fixed seed, and is deterministic given the seed.

    The exact norm is combinatorially hard; this estimator is intended as a
    convergence diagnostic, not a certified distance.
    """
    if restarts < 1:
        raise ParameterError(f"restarts must be >= 1, got {restarts}")
    lengths = kernel.lengths()
    m = kernel.values * np.outer(lengths, lengths)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    best = 0.0
    for r in range(restarts):
        if r == 0:
            g = np.ones(m.shape[0])
        else:
            g = rng.choice([-1.0, 1.0], size=m.shape[0])
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


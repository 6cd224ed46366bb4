"""Stochastic block graphs: block probabilities, Bernoulli sampling, full spectra.

Graphs have four equal blocks of n nodes.  Edge probabilities are the
Kronecker product of a 4x4 block matrix with the adjacency matrix of the
complete graph on n nodes.  Because the complete graph has a zero diagonal,
same-indexed nodes of *different* blocks are never connected either; the
product is implemented literally so sampled graphs match the analytic limit
object used downstream.

:func:`eigendecompose` runs ``eigh`` with numpy's bundled OpenBLAS pinned to
one thread: the eigenvectors of a multi-threaded run differ in the last bits
with the thread count, so pinning makes them the same on any core count.  A
numpy linked against another BLAS runs ``eigh`` unchanged.
"""

from __future__ import annotations

import ctypes
import functools
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, ParameterError, ParseError

BLOCK_COUNT = 4


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 0.5:
        raise ParameterError(f"alpha must lie strictly inside (0, 0.5), got {alpha!r}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _cell(x) -> str:
    """A CSV cell: a float as repr(float), which reads back bit for bit; a
    tuple as its cells joined by "|"; anything else as str."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, tuple):
        return "|".join(map(_cell, x))
    return str(x)


_ASCII_INT = re.compile(r"-?[0-9]+")


def _int(text: str) -> int:
    """The integer a file spells as an optional "-" and ASCII digits; any
    other text, such as "+1", " 1", "1_0" or "١", is a ValueError."""
    if _ASCII_INT.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _integers(values, what: str, error: type[ValueError] = ContractError) -> np.ndarray:
    """``values`` as an int64 array; a value the conversion would change, as
    it would 2.9, NaN or "3", is an ``error`` that names ``what``."""
    arr = np.asarray(values)
    with np.errstate(invalid="ignore"):
        ints = arr.astype(np.int64)
    if not np.array_equal(ints, arr):
        raise error(f"{what} must be integers")
    return ints


@contextmanager
def _open_utf8(path):
    """The file as UTF-8 text for ``csv``; a byte that does not decode is a ParseError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _write_csv(path, rows) -> None:
    """Every artifact CSV: each row's cells formatted by :func:`_cell` and
    joined by ",", each row ended by a newline."""
    Path(path).write_text("".join(",".join(map(_cell, row)) + "\n" for row in rows))


@dataclass(frozen=True)
class SbmConfig:
    """Sampling parameters: coupling alpha, nodes per block n, RNG seed.
    Also the ``sbm`` section of an experiment config."""

    alpha: float = 0.05
    n: int = 100
    seed: int = 0

    def __post_init__(self):
        _check_alpha(self.alpha)
        if int(self.n) != self.n or self.n < 1:
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ParameterError(f"seed must be a nonnegative integer, got {self.seed!r}")

    @property
    def size(self) -> int:
        return BLOCK_COUNT * self.n


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """Symmetric 0/1 adjacency matrix with zero diagonal.

    ``entries`` may be any square array-like; it is checked as given, and the
    graph keeps its own read-only int8 copy.  ``alpha`` and ``seed`` record
    how the graph was sampled and may be None for graphs built directly from
    entries.
    """

    entries: np.ndarray
    alpha: float | None = None
    seed: int | None = None

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ContractError(f"adjacency must be square, got shape {a.shape}")
        if not np.array_equal(a, a.T):
            raise ContractError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ContractError("adjacency diagonal must be zero")
        if not np.isin(a, (0, 1)).all():
            raise ContractError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "entries", _readonly(a.astype(np.int8)))

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Full eigensystem of a symmetric matrix: the four eigenvalues of largest
    magnitude first, then the rest, each part sorted descending.

    Column k of ``eigenvectors`` belongs to ``eigenvalues[k]``; columns are
    orthonormal and sign-fixed so the largest-magnitude entry is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def build_block_probability_matrix(alpha: float) -> np.ndarray:
    """Read-only 4x4 symmetric matrix of block-to-block connection
    probabilities for the four-block architecture.

    Intra-block density is 1 - 2*alpha; blocks 1-2, 1-3, 2-4 and 3-4 couple
    with density alpha; blocks 1 and 4 are disconnected.  Every row sums to 1.
    """
    _check_alpha(alpha)
    a = float(alpha)
    d = 1.0 - 2.0 * a
    return _readonly(
        np.array(
            [
                [d, a, a, 0.0],
                [a, d, 0.0, a],
                [a, 0.0, d, a],
                [0.0, a, a, d],
            ]
        )
    )


def block_membership(n: int) -> np.ndarray:
    """Block id (1..4) of every node for blocks of n nodes in index order."""
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    return _readonly(np.repeat(np.arange(1, BLOCK_COUNT + 1), n))


def edge_probability_matrix(config: SbmConfig) -> np.ndarray:
    """Bernoulli parameter for every node pair: block matrix (x) complete graph."""
    c = build_block_probability_matrix(config.alpha)
    k = np.ones((config.n, config.n)) - np.eye(config.n)
    return np.kron(c, k)


def sample_adjacency(config: SbmConfig) -> AdjacencyMatrix:
    """Draw one graph: independent Bernoulli edges on the upper triangle,
    mirrored down.  Deterministic for a given config seed."""
    probs = edge_probability_matrix(config)
    size = config.size
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    iu = np.triu_indices(size, k=1)
    edges = rng.random(iu[0].size) < probs[iu]
    entries = np.zeros((size, size), dtype=np.int8)
    entries[iu] = edges
    entries += entries.T
    return AdjacencyMatrix(entries, alpha=config.alpha, seed=config.seed)


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or
    None when numpy links another BLAS."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore its count."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def eigendecompose(adjacency: AdjacencyMatrix) -> SpectralDecomposition:
    """Dense eigendecomposition of a graph's adjacency matrix: the four block
    modes, the eigenpairs of largest magnitude, in descending value, then the
    rest in descending value.  Above alpha = 1/4 the fourth block mode's
    eigenvalue is negative, so it does not sit among the four largest values.

    Eigenvector signs are fixed so each column's largest-magnitude entry is
    positive, making the output deterministic up to degenerate subspaces;
    ``eigh`` runs on one OpenBLAS thread, so the bytes do not depend on the
    core count.
    """
    with _one_blas_thread():
        w, v = np.linalg.eigh(adjacency.entries.astype(float))
    # eigh sorts ascending, so a descending index order is a descending value order
    modes = np.sort(np.lexsort((w, np.abs(w)))[-BLOCK_COUNT:])[::-1]
    order = np.concatenate((modes, np.setdiff1d(np.arange(w.size), modes)[::-1]))
    w = w[order]
    # take returns C order, as a fancy index would not: the last bits of the
    # products that read these columns depend on their layout
    v = v.take(order, axis=1)
    lead = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[lead, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    v *= signs
    return SpectralDecomposition(eigenvalues=_readonly(w), eigenvectors=_readonly(v))


def write_edge_list(adjacency: AdjacencyMatrix, path) -> None:
    """Plain-text edge list, one "u v" pair per line (0-based, upper triangle),
    preceded by a header recording size and sampling metadata."""
    alpha = "none" if adjacency.alpha is None else _cell(adjacency.alpha)
    seed = "none" if adjacency.seed is None else str(adjacency.seed)
    u, v = np.nonzero(np.triu(adjacency.entries, k=1))
    lines = [f"# nodes={adjacency.size} alpha={alpha} seed={seed}"]
    lines.extend(f"{int(a)} {int(b)}" for a, b in zip(u, v))
    Path(path).write_text("\n".join(lines) + "\n")


def read_edge_list(path) -> AdjacencyMatrix:
    """Inverse of :func:`write_edge_list`."""
    with _open_utf8(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ParseError(f"{path}: missing header line")
    try:
        fields = dict(tok.split("=", 1) for tok in lines[0].lstrip("# ").split())
        size = _int(fields["nodes"])
        alpha = None if fields.get("alpha", "none") == "none" else float(fields["alpha"])
        seed = None if fields.get("seed", "none") == "none" else _int(fields["seed"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: line 1: bad header {lines[0]!r}") from exc
    if size < 0:
        raise ParseError(f"{path}: line 1: bad header {lines[0]!r}")
    entries = np.zeros((size, size), dtype=np.int8)
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            a, b = (_int(tok) for tok in line.split())
        except ValueError as exc:
            raise ParseError(f"{path}: line {ln}: expected 'u v', got {line!r}") from exc
        if not (0 <= a < size and 0 <= b < size):
            raise ParseError(f"{path}: line {ln}: node index out of range")
        if a == b:
            raise ParseError(f"{path}: line {ln}: self-loop {a} {b}")
        entries[a, b] = entries[b, a] = 1
    return AdjacencyMatrix(entries, alpha=alpha, seed=seed)


def write_spectra(decomposition: SpectralDecomposition, values_path, vectors_path) -> None:
    """The four block modes, the only modes any embedding reads: their
    eigenvalues as index,eigenvalue CSV, and their eigenvectors (nodes x
    modes, columns aligned with eigenvalue indices 0..3) in a sidecar CSV."""
    _write_csv(values_path, [("index", "eigenvalue"), *enumerate(decomposition.eigenvalues[:BLOCK_COUNT])])
    _write_csv(vectors_path, decomposition.eigenvectors[:, :BLOCK_COUNT])

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
import math
import numbers
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
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
_ASCII_FLOAT = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?")


def _int(text: str) -> int:
    """The integer a file spells as an optional "-" and ASCII digits; any
    other text, such as "+1", " 1", "1_0" or "١", is a ValueError."""
    if _ASCII_INT.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _float(text: str) -> float:
    """The number a file spells as :func:`_cell` writes a finite float: ASCII
    digits, an optional fraction and an optional exponent, as in "0.05" or
    "1e-05"; any other text, such as "0.0_5", ".5", "nan" or "٠.05", is a
    ValueError."""
    if _ASCII_FLOAT.fullmatch(text) is None:
        raise ValueError(f"not a number: {text!r}")
    return float(text)


def _integers(values, what: str, error: type[ValueError] = ContractError) -> np.ndarray:
    """``values``, one flat sequence, as an int64 array.  A scalar or nested
    ``values``, a boolean, or a value the conversion would change or refuse,
    as it would 2.9, NaN, "3", "a" or None, is an ``error`` that names
    ``what``."""
    try:
        arr = np.asarray(values)
        with np.errstate(invalid="ignore"):
            ints = arr.astype(np.int64)
    except (TypeError, ValueError, OverflowError):
        ints = None
    # numpy turns (True, 0) into int64, so the items are checked as well as the dtype
    items = () if isinstance(values, np.ndarray) and arr.dtype != object else values
    if (
        ints is None
        or arr.ndim != 1
        or arr.dtype == bool
        or any(isinstance(x, (bool, np.bool_)) for x in items)
        or not np.array_equal(ints, arr)
    ):
        raise error(f"{what} must be integers")
    return ints


# what each annotation's base kind takes, how it is stored, and how to name it
_KINDS = {
    "bool": ((bool, np.bool_), bool, "a boolean"),
    "int": (numbers.Integral, int, "an integer"),
    "float": (numbers.Real, float, "a number"),
    "str": (str, str, "a string"),
}


def _field_value(where: str, kind: str, value, least: int | None = None):
    """``value`` as the Python bool, int, float or str its field's ``kind``
    stores; a value of another kind, or a number below ``least``, is a
    ParameterError naming ``where``.  With ``kind`` "int" and a ``least``
    it is the one check of every count and seed, which refuses a boolean, a
    fraction or a string."""
    types, store, noun = _KINDS[kind]
    if isinstance(value, (bool, np.bool_)) and kind != "bool":
        raise ParameterError(f"{where} must not be a boolean, got {value!r}")
    if not isinstance(value, types):
        raise ParameterError(f"{where} must be {noun}, got {value!r}")
    if kind in ("int", "float"):
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ParameterError(f"{where} must be finite, got {value!r}")
    value = store(value)
    if least is not None and value < least:
        raise ParameterError(f"{where} must be at least {least}, got {value}")
    return value


def _check_fields(section, prefix: str) -> None:
    """Hold each scalar or tuple field of the frozen dataclass ``section`` to
    its annotation, wherever the section is built: a bool is not a number, a
    number is finite, a tuple field takes a list or a tuple, and only an
    optional field takes None.  A field whose metadata gives a ``least``
    is held to it.  Values are stored as Python scalars and tuples; a
    ParameterError names the field as ``prefix`` + its name."""
    for f in fields(section):
        kind = f.type.removesuffix(" | None")
        sequence = kind.startswith("tuple[")
        if sequence:
            kind = kind[len("tuple[") : -len(", ...]")]
        if kind not in _KINDS:  # a nested section checks itself
            continue
        where, value = prefix + f.name, getattr(section, f.name)
        least = f.metadata.get("least")
        if value is None:
            if not f.type.endswith(" | None"):
                raise ParameterError(f"{where} must not be null")
            continue
        if not sequence:
            value = _field_value(where, kind, value, least)
        elif isinstance(value, (list, tuple)):
            value = tuple(_field_value(where, kind, item, least) for item in value)
        else:
            raise ParameterError(f"{where} must be a list, got {value!r}")
        object.__setattr__(section, f.name, value)


def _rng(seed: int) -> np.random.Generator:
    """The package's one kind of generator: PCG64 seeded by ``SeedSequence(seed)``."""
    return np.random.default_rng(np.random.SeedSequence(_field_value("seed", "int", seed, 0)))


@contextmanager
def _open_utf8(path):
    """The file as UTF-8 text for ``csv``, less a leading byte order mark
    (as spreadsheets save "CSV UTF-8"); a byte that does not decode is a
    ParseError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
    n: int = field(default=100, metadata={"least": 1})
    seed: int = field(default=0, metadata={"least": 0})

    def __post_init__(self):
        _check_fields(self, "sbm.")
        _check_alpha(self.alpha)

    @property
    def size(self) -> int:
        return BLOCK_COUNT * self.n


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """Symmetric 0/1 adjacency matrix with zero diagonal.

    ``entries`` may be any square array-like; it is checked as given, and the
    graph keeps its own read-only int8 copy.  ``alpha`` and ``seed`` record
    how the graph was sampled and may be None for graphs built directly from
    entries; a given one meets the rules of its :class:`SbmConfig` field, so
    every graph reads back from the edge list it writes.
    """

    entries: np.ndarray
    alpha: float | None = None
    seed: int | None = field(default=None, metadata={"least": 0})

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
        _check_fields(self, "")
        if self.alpha is not None:
            _check_alpha(self.alpha)
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
    return _readonly(np.repeat(np.arange(1, BLOCK_COUNT + 1), _field_value("n", "int", n, 1)))


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
    rng = _rng(config.seed)
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
    v *= np.sign(v[lead, np.arange(v.shape[1])])
    return SpectralDecomposition(eigenvalues=_readonly(w), eigenvectors=_readonly(v))


def write_edge_list(adjacency: AdjacencyMatrix, path) -> None:
    """Plain-text edge list, one "u v" pair per line (0-based, upper triangle),
    preceded by a header recording size and sampling metadata."""
    alpha = "none" if adjacency.alpha is None else _cell(adjacency.alpha)
    seed = "none" if adjacency.seed is None else str(adjacency.seed)
    u, v = np.nonzero(np.triu(adjacency.entries, k=1))
    lines = [f"# nodes={adjacency.size} alpha={alpha} seed={seed}"]
    lines.extend(map("{} {}".format, u.tolist(), v.tolist()))
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
        alpha = None if fields.get("alpha", "none") == "none" else _float(fields["alpha"])
        seed = None if fields.get("seed", "none") == "none" else _int(fields["seed"])
        AdjacencyMatrix(np.zeros((0, 0)), alpha, seed)  # the graph's own rules for both
        entries = np.zeros((size, size), dtype=np.int8)  # a negative size is a ValueError
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: line 1: bad header {lines[0]!r}") from exc
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
        if entries[a, b]:
            raise ParseError(f"{path}: line {ln}: edge {a} {b} is listed twice")
        entries[a, b] = entries[b, a] = 1
    return AdjacencyMatrix(entries, alpha=alpha, seed=seed)


def write_spectra(decomposition: SpectralDecomposition, values_path, vectors_path) -> None:
    """The four block modes, the only modes any embedding reads: their
    eigenvalues as index,eigenvalue CSV, and their eigenvectors (nodes x
    modes, columns aligned with eigenvalue indices 0..3) in a sidecar CSV."""
    _write_csv(values_path, [("index", "eigenvalue"), *enumerate(decomposition.eigenvalues[:BLOCK_COUNT])])
    _write_csv(vectors_path, decomposition.eigenvectors[:, :BLOCK_COUNT])

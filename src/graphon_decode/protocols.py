"""Stimulation protocols, response extraction, and the per-trial CSV tables.

Responses are per-unit spike counts (or fluorescence intensities) inside a
100-ms window starting at stimulus onset, written as counts and normalized to
unit L2 norm by :class:`Responses`.  The window is half-open, [onset,
onset + window), so an event exactly at the right endpoint is excluded.
"""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError, ParseError, ZeroResponseError
from .lif import SpikeRaster
from .sbm import BLOCK_COUNT, _int, _integers, _open_utf8, _readonly, _write_csv

EXPERIMENTAL_LABELS = ("s1", "s2", "s3")

# a label is written as one unquoted CSV cell, and "|" joins the labels of a
# report's confusion header, so none of these may occur in it
_BAD_LABEL = re.compile(r'[,"|\r\n]')
_BAD_LABEL_TEXT = "contains a comma, quote, '|' or line break"


@dataclass(frozen=True)
class Protocol:
    """Stimuli, each a (label, target node indices) pair."""

    stimuli: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        labels = [str(label) for label, _ in self.stimuli]  # 1 and "1" are one label
        if len(set(labels)) != len(labels):
            raise ContractError(f"stimulus labels must be unique, got {labels}")
        for label in labels:
            if _BAD_LABEL.search(label):
                raise ContractError(f"stimulus label {label!r} {_BAD_LABEL_TEXT}")
        clean = tuple(
            (str(label), tuple(sorted(_integers(targets, f"stimulus {label!r} targets").tolist())))
            for label, targets in self.stimuli
        )
        object.__setattr__(self, "stimuli", clean)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.stimuli)


@dataclass(frozen=True, eq=False)
class Responses:
    """Unit-L2, nonnegative responses of every unit: one row per trial, with
    that trial's stimulus label and id.  Each given row, counts or otherwise,
    is normalized by :func:`normalize_response` (a no-op for unit rows)."""

    values: np.ndarray  # (trials, units), read-only
    labels: tuple[str, ...]
    trial_ids: tuple[int, ...]

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2 or v.size == 0:
            raise ContractError("response values must be a nonempty (trials x units) matrix")
        labels = tuple(str(lab) for lab in self.labels)
        trial_ids = tuple(int(t) for t in self.trial_ids)
        if len(labels) != v.shape[0] or len(trial_ids) != v.shape[0]:
            raise ContractError("one label and one trial id per response row required")
        for i, row in enumerate(v):  # in place, so no second matrix is made
            if not (row >= 0).all():  # also rejects NaN
                raise ContractError(f"response row {i}: values must be nonnegative")
            try:
                v[i] = normalize_response(row)
            except (ContractError, ZeroResponseError) as exc:
                raise ContractError(f"response row {i}: {exc}") from None
        object.__setattr__(self, "values", _readonly(v))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "trial_ids", trial_ids)


def two_cluster_protocol(n: int) -> Protocol:
    """s1 targets all of block 1, s2 all of block 2."""
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    return Protocol(stimuli=(("s1", tuple(range(0, n))), ("s2", tuple(range(n, 2 * n)))))


def mixed_cluster_protocol(n: int) -> Protocol:
    """Three stimuli partitioning blocks 1 and 2.

    s1 covers the first ceil(2n/3) nodes of block 1; s2 the remaining
    floor(n/3) of block 1 together with the first floor(n/3) of block 2;
    s3 the remaining ceil(2n/3) of block 2.  For n not divisible by 3 the
    remainders go to s1 and s3, which keeps the three sets disjoint and
    jointly covering blocks 1 and 2 for every n >= 3.
    """
    if n < 3:
        raise ParameterError(f"mixed protocol needs n >= 3, got {n}")
    third = n // 3
    s1 = tuple(range(0, n - third))
    s2 = tuple(range(n - third, n)) + tuple(range(n, n + third))
    s3 = tuple(range(n + third, 2 * n))
    return Protocol(stimuli=(("s1", s1), ("s2", s2), ("s3", s3)))


def extract_response(
    raster: SpikeRaster, onset: float, window: float = 100.0, trial_id: int = 0
) -> np.ndarray:
    """Integer spike counts per neuron in [onset, onset + window).

    Raises ZeroResponseError when no neuron spiked in the window; such trials
    carry no information and normalization would be undefined.
    """
    if window <= 0:
        raise ParameterError("window must be positive")
    if onset < 0 or onset + window > raster.duration + 1e-9:
        raise ParameterError(
            f"window [{onset}, {onset + window}) outside trial of {raster.duration} ms"
        )
    counts = raster.counts(onset, onset + window)
    if not counts.any():
        raise ZeroResponseError(f"trial {trial_id}: no spikes in [{onset}, {onset + window})")
    return counts


def normalize_response(values: np.ndarray) -> np.ndarray:
    """L2 normalization, the one rule that turns a row of counts into a unit
    response.  Bit-idempotent: a row whose norm is within 1e-12 of 1 comes
    back unchanged, so a file of unit rows reads back as written; an integer
    row has norm 1 only as a single spike, which division leaves unchanged.
    A row of zero or non-finite norm has no unit response and raises."""
    values = np.asarray(values, dtype=float)
    norm = np.linalg.norm(values)
    if norm == 0.0:
        raise ZeroResponseError("cannot normalize an all-zero response")
    if not np.isfinite(norm):
        raise ContractError(f"cannot normalize a response of norm {norm}")
    return values if abs(norm - 1.0) <= 1e-12 else values / norm


def _write_trial_table(path, columns, trial_ids, labels, values, method=None) -> None:
    """trial_id,label,<columns>[,method] with one row per trial."""
    tail = () if method is None else (method,)
    rows = [("trial_id", "label", *columns, *(("method",) if tail else ()))]
    rows.extend((t, lab, *row, *tail) for t, lab, row in zip(trial_ids, labels, values.tolist()))
    _write_csv(path, rows)


def _trial_id(row, width: int, seen: set) -> int:
    """The trial id of a data row; a ValueError names the row's first fault
    among its cell count, trial id and label."""
    if len(row) != width:
        raise ValueError(f"expected {width} cells, got {len(row)}")
    try:
        trial_id = _int(row[0])
    except ValueError:
        raise ValueError(f"bad trial_id {row[0]!r}") from None
    if trial_id in seen:
        raise ValueError(f"duplicate trial_id {trial_id}")
    if _BAD_LABEL.search(row[1]):
        raise ValueError(f"label {row[1]!r} {_BAD_LABEL_TEXT}")
    return trial_id


def _parse_values(texts, m: int):
    """The (len(texts) x m) matrix of rows of comma-joined value cells as
    numpy's C reader converts them, or None when a row does not give m
    numbers."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty row is skipped, which the shape check catches
        try:
            block = np.loadtxt(texts, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    return block if block.shape == (len(texts), m) else None


def _convert_rows(path, texts, row_nos, m: int) -> np.ndarray:
    """The (rows x m) matrix of ``texts``, the joined value cells of the rows
    numbered ``row_nos``, in one parse.  When that fails, the rows are parsed
    one by one to name the first that is non-numeric or non-finite."""
    values = _parse_values(texts, m)
    if values is not None and np.isfinite(values).all():
        return values
    values = np.empty((len(texts), m))
    for i, (text, row_no) in enumerate(zip(texts, row_nos)):
        row = _parse_values([text], m)
        if row is None:
            raise ParseError(f"{path}: row {row_no}: non-numeric cell")
        if not np.isfinite(row).all():
            raise ParseError(f"{path}: row {row_no}: non-finite cell")
        values[i] = row
    return values


def _read_trial_table(path, prefix: str, first: int, method: bool = False):
    """Parse trial_id,label,<prefix><first>..<prefix><first+m-1>[,method], m >= 1.

    Returns the trial ids, labels, (rows x m) value matrix, line number of
    each row and the method column (None without one).  Trial ids are unique
    integers and values finite numbers; the first rejected row is named by
    its line.  The value cells of all rows are converted in one call.
    """
    tail = ["method"] if method else []
    with _open_utf8(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        m = len(header) - 2 - len(tail)
        if m < 1 or header != ["trial_id", "label", *(f"{prefix}{first + i}" for i in range(m)), *tail]:
            layout = ",".join(["trial_id", "label", f"{prefix}{first}..{prefix}<k>", *tail])
            raise ParseError(f"{path}: header must be {layout}, got {','.join(header)[:80]!r}")
        trial_ids, labels, lines, methods, texts, seen = [], [], [], [], [], set()
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                trial_id = _trial_id(row, len(header), seen)
            except ValueError as exc:
                _convert_rows(path, texts, lines, m)  # a bad value in an earlier row is named first
                raise ParseError(f"{path}: row {row_no}: {exc}") from None
            seen.add(trial_id)
            trial_ids.append(trial_id)
            labels.append(row[1])
            lines.append(row_no)
            methods.append(row[-1])
            texts.append(",".join(row[2 : 2 + m]))
    if not labels:
        raise ParseError(f"{path}: no data rows")
    return trial_ids, labels, _convert_rows(path, texts, lines, m), lines, methods if method else None


def write_responses_csv(counts, labels, trial_ids, path) -> None:
    """trial_id,label,roi_0..roi_{m-1} with one row of nonnegative integer
    counts per trial, such as :func:`extract_response` gives."""
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.dtype.kind not in "iu" or (counts < 0).any():
        raise ContractError("responses are written as a (trials x units) matrix of nonnegative integers")
    if not len(labels) == len(trial_ids) == len(counts):
        raise ContractError("one label and one trial id per response row required")
    columns = [f"roi_{i}" for i in range(counts.shape[1])]
    _write_trial_table(path, columns, trial_ids, labels, counts)


def read_responses_csv(path, allowed_labels=None) -> Responses:
    """Read a response CSV of nonnegative rows, counts or otherwise, as
    :class:`Responses` and, given ``allowed_labels``, restrict the stimulus
    labels; a rejected row is named by its line number."""
    trial_ids, labels, values, lines, _ = _read_trial_table(path, "roi_", 0)
    negative = (values < 0).any(axis=1)
    zero = ~values.any(axis=1)
    for i, (label, row_no) in enumerate(zip(labels, lines)):
        if allowed_labels is not None and label not in allowed_labels:
            raise ParseError(f"{path}: row {row_no}: label {label!r} not in {sorted(allowed_labels)}")
        if negative[i]:
            raise ParseError(f"{path}: row {row_no}: negative response value")
        if zero[i]:
            raise ParseError(f"{path}: row {row_no}: all-zero response")
    return Responses(values=values, labels=labels, trial_ids=trial_ids)


def _read_keyed_rows(path, header: tuple[str, str], value) -> dict:
    """A two-column CSV headed ``header`` as {integer first cell: ``value`` of
    the second}, in file order, skipping blank rows.  A rejected row is a
    ParseError naming it: a bad row (not two cells, or a ValueError from
    ``value``), a non-integer key named by its column, a duplicate key, or
    the ParseError that ``value`` raised."""
    entries = {}
    with _open_utf8(path) as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != list(header):
            raise ParseError(f"{path}: header must be {','.join(header)}, got {got}")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}: row {row_no}"
            if len(row) != 2:
                raise ParseError(f"{where}: bad row {row!r}")
            try:
                key = _int(row[0])
            except ValueError:
                raise ParseError(f"{where}: bad {header[0]} {row[0]!r}") from None
            try:
                entry = value(row[1])
            except ParseError as exc:
                raise ParseError(f"{where}: {exc}") from None
            except ValueError:
                raise ParseError(f"{where}: bad row {row!r}") from None
            if key in entries:
                raise ParseError(f"{where}: duplicate {header[0]} {key}")
            entries[key] = entry
    return entries


def _block(text: str) -> int:
    block = _int(text)
    if not 1 <= block <= BLOCK_COUNT:
        raise ParseError(f"block {block} outside 1..4")
    return block


def read_block_map(path, expected_size: int | None = None) -> np.ndarray:
    """roi_index,block CSV covering indices 0..m-1 exactly once, block in 1..4."""
    entries = _read_keyed_rows(path, ("roi_index", "block"), _block)
    m = len(entries)
    if m == 0:
        raise ParseError(f"{path}: no data rows")
    if sorted(entries) != list(range(m)):
        raise ParseError(f"{path}: roi indices must cover 0..{m - 1} exactly once")
    if expected_size is not None and m != expected_size:
        raise ParseError(f"{path}: block map covers {m} ROIs, responses have {expected_size}")
    return np.array([entries[i] for i in range(m)], dtype=int)


def load_experimental_responses(path, block_map_path) -> tuple[Responses, np.ndarray]:
    """Ingest a measured response matrix plus its ROI-to-block assignment.

    Rows are L2-normalized if they are not already (idempotent), labels are
    restricted to s1/s2/s3, and every validation failure carries the row
    number of the offending line.
    """
    responses = read_responses_csv(path, allowed_labels=set(EXPERIMENTAL_LABELS))
    block_map = read_block_map(block_map_path, expected_size=responses.values.shape[1])
    return responses, block_map

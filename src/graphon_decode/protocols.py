"""Stimulation protocols, response extraction, and response-matrix ingestion.

Responses are per-unit spike counts (or fluorescence intensities) inside a
100-ms window starting at stimulus onset, normalized to unit L2 norm.  The
window is half-open, [onset, onset + window), so an event exactly at the right
endpoint is excluded.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, ParameterError, ParseError, ZeroResponseError
from .lif import SpikeRaster
from .sbm import BLOCK_COUNT, _readonly

EXPERIMENTAL_LABELS = ("s1", "s2", "s3")


@dataclass(frozen=True)
class Protocol:
    """Named list of stimuli, each a (label, target node indices) pair."""

    name: str
    stimuli: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        labels = [label for label, _ in self.stimuli]
        if len(set(labels)) != len(labels):
            raise ContractError(f"stimulus labels must be unique, got {labels}")
        clean = tuple(
            (str(label), tuple(sorted(int(t) for t in targets)))
            for label, targets in self.stimuli
        )
        object.__setattr__(self, "stimuli", clean)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.stimuli)

    def targets_of(self, label: str) -> tuple[int, ...]:
        for lab, targets in self.stimuli:
            if lab == label:
                return targets
        raise KeyError(label)


@dataclass(frozen=True)
class Responses:
    """Unit-L2, nonnegative responses of every unit: one row per trial, with
    that trial's stimulus label and id."""

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
        if not (v >= 0).all():  # also rejects NaN
            raise ContractError("response values must be nonnegative")
        norms = np.linalg.norm(v, axis=1)
        off = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-10))
        if off.size:
            raise ContractError(
                f"responses must have unit L2 norm, row {off[0]} has {norms[off[0]]}"
            )
        object.__setattr__(self, "values", _readonly(v))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "trial_ids", trial_ids)


def two_cluster_protocol(n: int) -> Protocol:
    """s1 targets all of block 1, s2 all of block 2."""
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    return Protocol(
        name="two_cluster",
        stimuli=(
            ("s1", tuple(range(0, n))),
            ("s2", tuple(range(n, 2 * n))),
        ),
    )


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
    return Protocol(name="mixed_cluster", stimuli=(("s1", s1), ("s2", s2), ("s3", s3)))


def extract_response(
    raster: SpikeRaster, onset: float, window: float = 100.0, trial_id: int = 0
) -> np.ndarray:
    """Spike counts per neuron in [onset, onset + window), L2-normalized.

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
    norm = np.linalg.norm(counts)
    if norm == 0.0:
        raise ZeroResponseError(f"trial {trial_id}: no spikes in [{onset}, {onset + window})")
    return counts / norm


def normalize_response(values: np.ndarray) -> np.ndarray:
    """L2 normalization; idempotent on already-normalized input."""
    values = np.asarray(values, dtype=float)
    norm = np.linalg.norm(values)
    if norm == 0.0:
        raise ZeroResponseError("cannot normalize an all-zero response")
    return values / norm


def write_responses_csv(responses: Responses, path) -> None:
    """trial_id,label,roi_0..roi_{m-1} with one row per trial."""
    m = responses.values.shape[1]
    lines = ["trial_id,label," + ",".join(f"roi_{i}" for i in range(m))]
    for trial_id, label, row in zip(responses.trial_ids, responses.labels, responses.values):
        vals = ",".join(repr(float(x)) for x in row)
        lines.append(f"{trial_id},{label},{vals}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_responses_csv(path, allowed_labels=None) -> Responses:
    """Read a response CSV, renormalizing rows (a no-op for unit rows).

    Every rejected row is named by its line number; ``allowed_labels``
    optionally restricts the stimulus labels.
    """
    with open(path, newline="") as fh:
        # a line count bounds the row count, so the matrix is allocated once
        capacity = sum(1 for _ in fh)
        fh.seek(0)
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        m = len(header) - 2
        if m < 1 or header[:2] != ["trial_id", "label"] or header[2:] != [
            f"roi_{i}" for i in range(m)
        ]:
            raise ParseError(
                f"{path}: header must be trial_id,label,roi_0..roi_{{m-1}}, got {header[:4]}..."
            )
        values = np.empty((capacity - 1, m))
        labels, trial_ids = [], []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != m + 2:
                raise ParseError(f"{path}: row {row_no}: expected {m + 2} cells, got {len(row)}")
            try:
                trial_id = int(row[0])
            except ValueError:
                raise ParseError(f"{path}: row {row_no}: bad trial_id {row[0]!r}") from None
            label = row[1]
            if allowed_labels is not None and label not in allowed_labels:
                raise ParseError(
                    f"{path}: row {row_no}: label {label!r} not in {sorted(allowed_labels)}"
                )
            i = len(labels)
            try:
                values[i] = [float(tok) for tok in row[2:]]
            except ValueError:
                raise ParseError(f"{path}: row {row_no}: non-numeric cell") from None
            if not np.isfinite(values[i]).all():
                raise ParseError(f"{path}: row {row_no}: non-finite cell")
            if np.any(values[i] < 0):
                raise ParseError(f"{path}: row {row_no}: negative response value")
            try:
                values[i] = normalize_response(values[i])
            except ZeroResponseError:
                raise ParseError(f"{path}: row {row_no}: all-zero response") from None
            labels.append(label)
            trial_ids.append(trial_id)
    if not labels:
        raise ParseError(f"{path}: no data rows")
    return Responses(values=values[: len(labels)], labels=labels, trial_ids=trial_ids)


def read_block_map(path, expected_size: int | None = None) -> np.ndarray:
    """roi_index,block CSV covering indices 0..m-1 exactly once, block in 1..4."""
    entries: dict[int, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["roi_index", "block"]:
            raise ParseError(f"{path}: header must be roi_index,block, got {header}")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                idx, block = int(row[0]), int(row[1])
            except (ValueError, IndexError):
                raise ParseError(f"{path}: row {row_no}: bad row {row!r}") from None
            if not 1 <= block <= BLOCK_COUNT:
                raise ParseError(f"{path}: row {row_no}: block {block} outside 1..4")
            if idx in entries:
                raise ParseError(f"{path}: row {row_no}: duplicate roi_index {idx}")
            entries[idx] = block
    m = len(entries)
    if m == 0:
        raise ParseError(f"{path}: no data rows")
    if sorted(entries) != list(range(m)):
        raise ParseError(f"{path}: roi indices must cover 0..{m - 1} exactly once")
    if expected_size is not None and m != expected_size:
        raise ParseError(f"{path}: block map covers {m} ROIs, responses have {expected_size}")
    return np.array([entries[i] for i in range(m)], dtype=int)


def write_block_map(block_map, path) -> None:
    lines = ["roi_index,block"]
    lines.extend(f"{i},{int(b)}" for i, b in enumerate(block_map))
    Path(path).write_text("\n".join(lines) + "\n")


def load_experimental_responses(path, block_map_path) -> tuple[Responses, np.ndarray]:
    """Ingest a measured response matrix plus its ROI-to-block assignment.

    Rows are L2-normalized if they are not already (idempotent), labels are
    restricted to s1/s2/s3, and every validation failure carries the row
    number of the offending line.
    """
    responses = read_responses_csv(path, allowed_labels=set(EXPERIMENTAL_LABELS))
    block_map = read_block_map(block_map_path, expected_size=responses.values.shape[1])
    return responses, block_map

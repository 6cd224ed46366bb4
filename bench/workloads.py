"""Seeded inputs and command lines for the two benchmark workloads.

Each workload is one `graphon-decode` command run in-process through
`graphon_decode.cli.main`.  The benchmark seed only shapes the files written
here; the program sees nothing but those files and the command line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Why each workload exists; each puts most of its work in a different layer,
# so a change to one layer shows in one workload and predicts no change in
# the others.
WHY = {
    "run_default": (
        "the documented default `run` (4x100 neurons, 40 trials, 3 embeddings, 7-fold CV, "
        "10k bootstrap); lif.run_trial is ~90% of its wall; the traced run adds a --jobs 2 op"
    ),
    "decode_measured": (
        "`reproduce table` on a measured-style 900x1000 count matrix; no simulation, "
        "so PCA SVD, bootstrap and CSV parsing dominate and simulator changes predict no change"
    ),
}

WORKLOADS = tuple(WHY)

# Measured-style matrix shape: stimuli x trials per stimulus x ROIs.
MEASURED_LABELS = ("s1", "s2", "s3")
MEASURED_TRIALS = 300
MEASURED_ROIS = 1000

# Workers for the traced run's pooled `run` op (capped at nproc by the
# caller).  Timed ops run at jobs=1: on two cores, two workers whose OpenBLAS
# threads oversubscribe the cores made op times spread by +-25%, too wide to
# bound.
POOL_JOBS = 2


@dataclass(frozen=True)
class Workload:
    """One prepared workload: the argv of one operation and where it writes."""

    name: str
    argv: tuple[str, ...]
    out_dir: Path
    jobs: int
    classifies: bool


def _seed_words(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _write_config(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def run_default_config(seed: int) -> dict:
    """The documented default config, with only the graph seed taken from
    the benchmark seed (the config's own default is graph seed 0)."""
    return {"sbm": {"seed": seed}}


def measured_block_map(seed: int) -> np.ndarray:
    """ROI -> block (1..4) with uneven block sizes, blocks interleaved in ROI
    order the way a recording's ROI numbering ignores anatomy."""
    rng = _seed_words(seed, 1)
    shares = rng.dirichlet(np.full(4, 8.0))
    sizes = np.maximum(np.round(shares * MEASURED_ROIS).astype(int), 50)
    sizes[-1] = MEASURED_ROIS - sizes[:-1].sum()
    blocks = np.repeat(np.arange(1, 5), sizes)
    return rng.permutation(blocks)


def measured_counts(seed: int, block_map: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Poisson spike counts, one row per trial, with block-dependent rates.

    Each stimulus raises the rate of two blocks; a per-trial, per-block gain
    jitter keeps the classes overlapping so accuracy stays below 1.
    """
    rng = _seed_words(seed, 2)
    base = 3.0
    lift = np.array(
        [
            [1.35, 1.20, 1.00, 1.00],
            [1.00, 1.30, 1.25, 1.00],
            [1.00, 1.00, 1.20, 1.35],
        ]
    )
    roi_gain = rng.lognormal(0.0, 0.3, size=block_map.size)
    labels, rows = [], []
    for s, label in enumerate(MEASURED_LABELS):
        jitter = rng.lognormal(0.0, 0.12, size=(MEASURED_TRIALS, 4))
        rates = base * roi_gain * (lift[s] * jitter)[:, block_map - 1]
        rows.append(rng.poisson(rates))
        labels += [label] * MEASURED_TRIALS
    counts = np.vstack(rows)
    if np.any(counts.sum(axis=1) == 0):
        raise RuntimeError("generated an all-zero trial; the table op would reject it")
    order = rng.permutation(counts.shape[0])
    return [labels[i] for i in order], counts[order]


def write_measured_inputs(seed: int, csv_path: Path, block_map_path: Path) -> None:
    block_map = measured_block_map(seed)
    labels, counts = measured_counts(seed, block_map)
    header = "trial_id,label," + ",".join(f"roi_{i}" for i in range(counts.shape[1]))
    lines = [header]
    for trial_id, (label, row) in enumerate(zip(labels, counts)):
        lines.append(f"{trial_id},{label}," + ",".join(map(str, row.tolist())))
    csv_path.write_text("\n".join(lines) + "\n")
    block_lines = ["roi_index,block"]
    block_lines += [f"{i},{int(b)}" for i, b in enumerate(block_map)]
    block_map_path.write_text("\n".join(block_lines) + "\n")


def prepare(name: str, seed: int, work: Path, jobs: int = 1) -> Workload:
    """Write the workload's input files under ``work`` and return its op,
    run with ``jobs`` trial workers."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    if name == "run_default":
        cfg = work / "config.json"
        _write_config(cfg, run_default_config(seed))
        argv = ("run", "--config", str(cfg), "--out", str(out), "--jobs", str(jobs))
        return Workload(name, argv, out, jobs, classifies=True)
    if name == "decode_measured":
        csv_path, map_path = work / "measured.csv", work / "block_map.csv"
        write_measured_inputs(seed, csv_path, map_path)
        argv = (
            "reproduce", "table", "--out", str(out),
            "--experimental-csv", str(csv_path), "--block-map", str(map_path),
        )
        return Workload(name, argv, out, jobs, classifies=True)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")

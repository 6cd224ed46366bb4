"""End-to-end experiment driver.

A declarative config describes one experiment: sample a graph, run stimulated
trials, extract responses, embed them with one or more methods, classify, and
write every artifact as CSV plus a manifest of content hashes.  Everything is
deterministic given the config: per-trial RNG streams are derived from the
root seed with a splittable seed sequence, a trial's raster does not depend on
the batch it runs in, and results are gathered in trial-id order, so a worker
pool never changes output bytes.

The config is an :class:`ExperimentConfig` of frozen sections (``sbm`` is
``sbm.SbmConfig``, ``sim`` is ``lif.SimParams``).  Each section checks its own
fields in ``__post_init__``, so ``dataclasses.replace`` re-runs the checks, and
ExperimentConfig checks what reads more than one section.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .classify import (
    _check_class_sizes,
    _out_of_fold_predictions,
    evaluate,
    pair_by_trial_id,
    read_correctness_csv,
    write_report,
)
from .embedding import (
    CONVENTIONS,
    EmbeddingSet,
    aligned_gft_project,
    centroid_betweenness,
    cross_realization_dispersion,
    gft_project,
    graphon_project,
    pca_fit_transform,
    silhouette_score,
    write_embeddings_csv,
)
from .errors import ConfigError, ContractError, DataError, ParameterError, ZeroResponseError
from .lif import SimParams, run_trials, write_raster_csv
from .protocols import (
    Protocol,
    Responses,
    _write_trial_table,
    extract_response,
    load_experimental_responses,
    mixed_cluster_protocol,
    two_cluster_protocol,
    write_responses_csv,
)
from .sbm import (
    BLOCK_COUNT,
    AdjacencyMatrix,
    SbmConfig,
    SpectralDecomposition,
    block_membership,
    eigendecompose,
    sample_adjacency,
    write_edge_list,
    write_spectra,
    _write_csv,
)

# Published decoding accuracy of the reservoir-computing baseline on the same
# recordings; ingested as a reference constant for the comparison table.
REFERENCE_RC_ACCURACY = 0.748

_GRAPH_STREAM = 0
_TRIAL_STREAM = 1
_RASTER_NAME = "trial_{:04d}.csv"  # the one name format of a trial's raster

METHODS = ("graphon", "gft", "pca")
PROTOCOLS = ("two_cluster", "mixed_cluster", "custom")


def derive_seed(*keys: int) -> int:
    """Deterministic 64-bit seed from a tuple of integer keys."""
    ss = np.random.SeedSequence([int(k) for k in keys])
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ProtocolSection:
    name: str = "two_cluster"
    custom_path: str | None = None

    def __post_init__(self):
        if self.name not in PROTOCOLS:
            raise ParameterError(f"protocol.name must be one of {PROTOCOLS}, got {self.name!r}")
        if self.name == "custom" and not self.custom_path:
            raise ParameterError("custom protocol requires protocol.custom_path")


@dataclass(frozen=True)
class EmbeddingSection:
    methods: tuple[str, ...] = METHODS
    dimensions: int = 3
    convention: str = "blocksum"

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        for method in self.methods:
            if method not in METHODS:
                raise ParameterError(f"embedding.methods must be among {METHODS}, got {method!r}")
        if len(set(self.methods)) < len(self.methods):
            raise ParameterError(f"embedding.methods must not repeat a method, got {list(self.methods)}")
        if self.convention not in CONVENTIONS:
            raise ParameterError(f"embedding.convention must be in {CONVENTIONS}, got {self.convention!r}")
        if not 1 <= self.dimensions <= BLOCK_COUNT:
            raise ParameterError(f"embedding.dimensions must lie in 1..4, got {self.dimensions}")


@dataclass(frozen=True)
class ClassifySection:
    enabled: bool = True
    lam: float = 1.0
    lam_grid: tuple[float, ...] | None = None  # e.g. (0.01, 0.1, 1, 10) for inner CV
    folds: int = 7
    resamples: int = 10_000
    seed: int = 0
    dimensions: int = 4

    def __post_init__(self):
        if self.lam_grid is not None:
            object.__setattr__(self, "lam_grid", tuple(self.lam_grid))
            if not self.lam_grid or min(self.lam_grid) < 0:
                raise ParameterError(f"classify.lam_grid must be nonempty, all >= 0, got {self.lam_grid}")
        for name, least in (("lam", 0), ("folds", 2), ("resamples", 1), ("seed", 0), ("dimensions", 1)):
            value = getattr(self, name)
            if value < least:
                raise ParameterError(f"classify.{name} must be at least {least}, got {value}")


@dataclass(frozen=True)
class IoSection:
    out_dir: str = "results"


@dataclass(frozen=True)
class ExperimentConfig:
    sbm: SbmConfig = field(default_factory=SbmConfig)
    sim: SimParams = field(default_factory=SimParams)
    protocol: ProtocolSection = field(default_factory=ProtocolSection)
    trials_per_stimulus: int = 20
    embedding: EmbeddingSection = field(default_factory=EmbeddingSection)
    classify: ClassifySection = field(default_factory=ClassifySection)
    io: IoSection = field(default_factory=IoSection)

    def __post_init__(self):
        if self.trials_per_stimulus < 1:
            raise ParameterError(f"trials_per_stimulus must be at least 1, got {self.trials_per_stimulus}")
        if self.classify.enabled and not self.embedding.methods:
            raise ParameterError("embedding.methods must name at least one method when classify.enabled is true")
        # the kernel basis has four eigenfunctions, so graphon classifies in at most 4-D
        dims = self.classify.dimensions
        if dims > BLOCK_COUNT and "graphon" in self.embedding.methods:
            raise ParameterError(f"classify.dimensions must lie in 1..4 with the graphon method, got {dims}")
        # gft and pca have at most one coordinate per node
        if dims > self.sbm.size and {"gft", "pca"} & set(self.embedding.methods):
            raise ParameterError(f"classify.dimensions must lie in 1..{self.sbm.size} with gft or pca, got {dims}")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from nested dicts, rejecting unknown keys; every check
    of the sections and of ExperimentConfig runs, and fails as a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
    top = {f.name: f for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, value in data.items():
        if key not in top:
            raise ConfigError(f"unknown config section {key!r}")
        cls = top[key].default_factory  # MISSING for trials_per_stimulus, the one scalar
        if not is_dataclass(cls):
            _check_scalars(key, top[key].type, value)
            kwargs[key] = value
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"section {key!r} must be a mapping")
        known = {f.name: f.type for f in fields(cls)}
        unknown = set(value) - set(known)
        if unknown:
            raise ConfigError(f"unknown keys in section {key!r}: {sorted(unknown)}")
        for name, item in value.items():
            _check_scalars(f"{key}.{name}", known[name], item)
        try:
            kwargs[key] = cls(**value)
        except (TypeError, ParameterError) as exc:
            raise ConfigError(f"bad section {key!r}: {exc}") from exc
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ParameterError) as exc:
        raise ConfigError(str(exc)) from exc


# what each field annotation's base kind takes from JSON, and how to name it
_KINDS = {
    "bool": (bool, "a boolean"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
}


def _check_scalars(where: str, annotation: str, value) -> None:
    """Reject a value of a kind its field's annotation does not take, so a
    section's own checks see only values of the right kind: a string field
    takes a string, a tuple field a list, a numeric field a finite number
    (``true`` is not a count), and only an optional field takes null."""
    kind = annotation.removesuffix(" | None")
    if value is None:
        if kind == annotation:
            raise ConfigError(f"{where} must not be null")
        return
    items = (value,)
    if kind.startswith("tuple["):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        kind, items = kind[len("tuple[") : -len(", ...]")], value
    types, noun = _KINDS[kind]
    for item in items:
        if isinstance(item, bool) and kind != "bool":
            raise ConfigError(f"{where} must not be a boolean, got {item!r}")
        if not isinstance(item, types):
            raise ConfigError(f"{where} must be {noun}, got {item!r}")
        if isinstance(item, float) and not math.isfinite(item):
            raise ConfigError(f"{where} must be finite, got {item!r}")


def load_config(path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(data)


def save_config(config: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(asdict(config), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# trial execution


def _trial_chunk(payload):
    """Simulate a chunk of (trial id, stimulus index, seed) specs as one
    run_trials batch; returns the (trial id, label, window counts) rows of
    the trials that responded and the ids of those that did not.  With a
    ``raster_dir`` the kept trials' rasters are written there, from this
    process; without one the rasters end with the counting window (see
    :func:`run_trials`) and are dropped."""
    adjacency, sim, protocol, specs, raster_dir = payload
    rasters = run_trials(
        adjacency,
        [protocol.stimuli[stim_idx][1] for _, stim_idx, _ in specs],
        [seed for _, _, seed in specs],
        sim,
        stop_at_window=raster_dir is None,
    )
    rows, skipped = [], []
    for (trial_id, stim_idx, _), raster in zip(specs, rasters):
        label = protocol.stimuli[stim_idx][0]
        try:
            counts = extract_response(raster, onset=sim.onset, window=sim.window, trial_id=trial_id)
        except ZeroResponseError:
            skipped.append(trial_id)
            continue
        rows.append((trial_id, label, counts))
        if raster_dir is not None:
            meta = {"label": label, **asdict(sim)}
            write_raster_csv(raster, Path(raster_dir) / _RASTER_NAME.format(trial_id), meta=meta)
    return rows, skipped


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ParameterError(f"jobs must be at least 1, got {jobs}")


def run_protocol_trials(
    adjacency, config: ExperimentConfig, realization: int = 0, jobs: int = 1, raster_dir=None
) -> tuple[Responses, np.ndarray, list[int]]:
    """Run every (stimulus, trial) pair of the config's protocol on
    ``adjacency`` and return the responses, the window counts they are
    normalized from (one int64 row per response) and the skipped trial ids.

    Trial seeds derive from (sbm.seed, 1, realization, stimulus, trial), and a
    trial's raster does not depend on the batch it is simulated in, so any
    execution order, worker count, or subset of stimuli reproduces the same
    per-trial dynamics.  The trials are split into min(``jobs``, trials)
    contiguous chunks, one pool task and worker each (so the adjacency is
    pickled once per chunk), and each chunk runs as one batch, whatever its
    stimuli.  Unless rasters are written to ``raster_dir``, a trial is
    simulated only up to the end of its counting window.  Zero-response
    trials are skipped; a DataError is raised when no trial is usable.
    """
    _check_jobs(jobs)
    protocol = _build_protocol(config)
    n_stimuli, per_stimulus = len(protocol.stimuli), config.trials_per_stimulus
    specs = [
        (
            (realization * n_stimuli + stim_idx) * per_stimulus + t,
            stim_idx,
            derive_seed(config.sbm.seed, _TRIAL_STREAM, realization, stim_idx, t),
        )
        for stim_idx in range(n_stimuli)
        for t in range(per_stimulus)
    ]
    parts = min(jobs, len(specs))
    bounds = [len(specs) * i // parts for i in range(parts + 1)]
    payloads = [
        (adjacency, config.sim, protocol, specs[lo:hi], raster_dir) for lo, hi in zip(bounds, bounds[1:])
    ]
    if parts > 1:
        with ProcessPoolExecutor(max_workers=parts) as pool:
            chunks = list(pool.map(_trial_chunk, payloads))
    else:
        chunks = list(map(_trial_chunk, payloads))
    # specs and chunks are in trial-id order, so the rows are too
    rows = [row for chunk_rows, _ in chunks for row in chunk_rows]
    skipped = [trial_id for _, chunk_skipped in chunks for trial_id in chunk_skipped]
    if not rows:
        raise DataError(
            f"realization {realization}: all {len(specs)} trials were zero-response; "
            "nothing to embed"
        )
    trial_ids, labels, counts = zip(*rows)
    counts = np.vstack(counts)
    return Responses(values=counts, labels=labels, trial_ids=trial_ids), counts, skipped


def sample_graph(sbm: SbmConfig, realization: int | None = None) -> AdjacencyMatrix:
    """The graph of one experiment.  A single-graph experiment draws it from
    ``sbm.seed`` itself; realization r of a multi-graph experiment draws it
    from the seed derived from (sbm.seed, r)."""
    seed = sbm.seed if realization is None else derive_seed(sbm.seed, _GRAPH_STREAM, realization)
    return sample_adjacency(replace(sbm, seed=seed))


_GRAPH_FILES = ("graph.edges", "eigenvalues.csv", "eigenvectors.csv")


def write_graph(adjacency: AdjacencyMatrix, out_dir: Path) -> SpectralDecomposition:
    """Write graph.edges, eigenvalues.csv and eigenvectors.csv of ``adjacency``
    into ``out_dir``; returns the eigendecomposition."""
    decomposition = eigendecompose(adjacency)
    edges, values, vectors = (Path(out_dir) / name for name in _GRAPH_FILES)
    write_edge_list(adjacency, edges)
    write_spectra(decomposition, values, vectors)
    return decomposition


def _build_protocol(config: ExperimentConfig) -> Protocol:
    """The config's protocol.  Every fault of a custom protocol file is a
    ConfigError that names the file."""
    name = config.protocol.name
    if name == "two_cluster":
        return two_cluster_protocol(config.sbm.n)
    if name == "mixed_cluster":
        return mixed_cluster_protocol(config.sbm.n)
    path = config.protocol.custom_path
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        stimuli = tuple((s["label"], s["targets"]) for s in data["stimuli"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(
            f'{path}: custom protocol must be {{"stimuli": [{{"label": ..., "targets": [...]}}]}}'
        ) from exc
    if not stimuli:
        raise ConfigError(f"{path}: custom protocol has no stimuli")
    size = BLOCK_COUNT * config.sbm.n
    for label, targets in stimuli:
        # JSON true and 1.7 are not node indices
        if not isinstance(targets, list) or any(type(t) is not int for t in targets):
            raise ConfigError(f"{path}: custom stimulus {label!r} targets must be a list of integers")
        if any(not 0 <= t < size for t in targets):
            raise ConfigError(f"{path}: custom stimulus {label!r} targets outside 0..{size - 1}")
    try:
        return Protocol(stimuli=stimuli)
    except ContractError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# embedding and classification


@dataclass(frozen=True, eq=False)
class Bases:
    """What the projections read besides the responses: the unit-to-block map
    and the coordinate convention (graphon), and the sampled graph's
    eigendecomposition (gft).  No block map means four equal blocks in unit
    order, the layout of every simulated response."""

    block_map: np.ndarray | None = None
    convention: str = "blocksum"
    decomposition: SpectralDecomposition | None = None


def map_indices(dimensions: int) -> tuple[int, ...]:
    """1-based basis indices of a map with ``dimensions`` coordinates; maps
    below four dimensions drop the total-mass coordinate (index 1) first."""
    if dimensions < 1:
        raise ParameterError(f"a map needs at least one dimension, got {dimensions}")
    if dimensions >= BLOCK_COUNT:
        return tuple(range(1, dimensions + 1))
    return (2, 3, 4)[:dimensions]


def project(method: str, responses: Responses, indices, bases: Bases) -> EmbeddingSet:
    """Embed ``responses`` with one method: the basis coordinates at
    ``indices``, or for PCA the top len(indices) principal components of
    these rows, each row under its trial's label and id."""
    if method == "graphon":
        block_map, width = bases.block_map, responses.values.shape[1]
        if block_map is None:
            if width % BLOCK_COUNT:
                raise ConfigError(f"{width} units do not split into four equal blocks; pass --block-map")
            block_map = block_membership(width // BLOCK_COUNT)
        coords = graphon_project(responses.values, block_map, bases.convention, indices)
    elif method == "gft":
        coords = gft_project(responses.values, bases.decomposition, indices)
    elif method == "pca":
        coords = pca_fit_transform(responses.values, len(indices))
    else:
        raise ConfigError(f"unknown embedding method {method!r}")
    return EmbeddingSet(method, coords, responses.labels, responses.trial_ids)


def _cross_validate(
    responses: Responses, classes, methods, bases: Bases, classify: ClassifySection
) -> dict[str, np.ndarray]:
    """Out-of-fold predicted labels of each method.  A DataError names every
    class of ``classes`` that kept fewer usable trials than there are folds.
    PCA is refitted per training fold; a fixed basis projects all rows once."""
    _check_class_sizes(responses.labels, classes, classify.folds)
    dims = classify.dimensions
    predicted = {}
    for method in methods:
        rows, pca_dims = responses.values, dims
        if method != "pca":
            rows, pca_dims = project(method, responses, tuple(range(1, dims + 1)), bases).coords, None
        predicted[method] = _out_of_fold_predictions(
            responses.labels, rows, classify.folds, classify.lam, classify.seed, classify.lam_grid,
            pca_dims,
        )
    return predicted


# ---------------------------------------------------------------------------
# manifest


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out_dir: Path, config_dict: dict, files: list[str], extra: dict) -> None:
    manifest = {
        "package_version": __version__,
        "config": config_dict,
        "config_sha256": hashlib.sha256(
            json.dumps(config_dict, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest(),
        "files": {name: _sha256_file(out_dir / name) for name in sorted(files)},
        **extra,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def verify_manifest(out_dir) -> list[str]:
    """Recompute hashes of every file listed in the manifest; returns the
    names that changed or vanished (empty list means verified)."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    bad = []
    for name, digest in manifest["files"].items():
        path = out_dir / name
        if not path.exists() or _sha256_file(path) != digest:
            bad.append(name)
    return bad


# ---------------------------------------------------------------------------
# experiment entry points


def run_experiment(
    config: ExperimentConfig, jobs: int = 1, dump_rasters: bool = False
) -> dict:
    """Full pipeline for one config into ``config.io.out_dir``; returns a
    summary with output locations.

    Zero-response trials are skipped with a note; the run fails (DataError)
    only when a stimulus class keeps fewer usable trials than the fold count
    needed for classification, or when nothing can be embedded at all; with
    fewer trials per stimulus than folds it fails (ConfigError) before any write.
    """
    _check_jobs(jobs)
    folds, per_stimulus = config.classify.folds, config.trials_per_stimulus
    if config.classify.enabled and per_stimulus < folds:
        raise ConfigError(f"trials_per_stimulus {per_stimulus} is below classify.folds {folds}")
    protocol = _build_protocol(config)  # a bad custom protocol file fails before any write
    out = Path(config.io.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    raster_dir = None
    if dump_rasters:
        raster_dir = out / "rasters"
        raster_dir.mkdir(exist_ok=True)

    adjacency = sample_graph(config.sbm)
    responses, counts, skipped = run_protocol_trials(adjacency, config, jobs=jobs, raster_dir=raster_dir)
    bases = Bases(convention=config.embedding.convention, decomposition=write_graph(adjacency, out))
    write_responses_csv(counts, responses.labels, responses.trial_ids, out / "responses.csv")
    files = [*_GRAPH_FILES, "responses.csv"]
    if raster_dir is not None:
        # this run's rasters only: an earlier run may have left others there
        files += [f"rasters/{_RASTER_NAME.format(t)}" for t in responses.trial_ids]

    summary: dict = {
        "out_dir": str(out),
        "n_responses": len(responses.labels),
        "skipped_trials": skipped,
        "accuracy": {},
    }
    indices = map_indices(config.embedding.dimensions)
    for method in config.embedding.methods:
        name = f"embeddings_{method}.csv"
        write_embeddings_csv(project(method, responses, indices, bases), out / name)
        files.append(name)

    if config.classify.enabled:
        # the protocol's labels, so a class that lost every trial is named too
        methods = config.embedding.methods
        predicted = _cross_validate(responses, protocol.labels, methods, bases, config.classify)
        reports, _ = evaluate(responses.labels, predicted, config.classify.resamples, config.classify.seed)
        for method, report in reports.items():
            name = f"report_{method}.csv"
            write_report(out / name, report, extra={"method": method})
            files.append(name)
            summary["accuracy"][method] = report.accuracy

    # the settings only: where a run is written is not part of what it ran
    settings = {key: value for key, value in asdict(config).items() if key != "io"}
    write_manifest(out, settings, files, extra={})
    summary["files"] = files
    return summary


def trial_invariance_experiment(config: ExperimentConfig, realizations: int = 3, jobs: int = 1) -> dict:
    """The config's stimuli on ``realizations`` independently re-sampled graphs.

    Each realization gets its own graph and eigenbasis; responses are embedded
    with the per-realization (aligned) eigenvector basis and with the fixed
    kernel-eigenfunction basis.  Returns both embedding lists plus the
    scale-free cross-realization dispersion of each method and their ratio
    (kernel over eigenvector; below 1 means the kernel coordinates are the
    more stable ones).
    """
    bases, indices = Bases(convention=config.embedding.convention), map_indices(3)
    gft_sets: list[EmbeddingSet] = []
    graphon_sets: list[EmbeddingSet] = []
    for r in range(realizations):
        adjacency = sample_graph(config.sbm, r)
        responses, _, _ = run_protocol_trials(adjacency, config, r, jobs)
        coords = aligned_gft_project(responses.values, eigendecompose(adjacency), indices)
        gft_sets.append(EmbeddingSet("gft", coords, responses.labels, responses.trial_ids))
        graphon_sets.append(project("graphon", responses, indices, bases))
    disp_gft = cross_realization_dispersion(gft_sets)
    disp_graphon = cross_realization_dispersion(graphon_sets)
    return {
        "dispersion_gft": disp_gft,
        "dispersion_graphon": disp_graphon,
        "ratio": disp_graphon / disp_gft,
        "gft_embeddings": gft_sets,
        "graphon_embeddings": graphon_sets,
    }


def mixed_cluster_experiment(config: ExperimentConfig, jobs: int = 1) -> dict:
    """The config's experiment on realization 0, embedded with the kernel
    basis and with PCA, plus separability metrics for both maps."""
    responses, _, _ = run_protocol_trials(sample_graph(config.sbm, 0), config, 0, jobs)
    bases = Bases(convention=config.embedding.convention)
    result = {"metrics": {}}
    for method in ("graphon", "pca"):
        es = result[method] = project(method, responses, map_indices(3), bases)
        result["metrics"][method] = {
            "silhouette": silhouette_score(es.coords, es.labels),
            "betweenness": centroid_betweenness(es.coords, es.labels),
        }
    return result


# ---------------------------------------------------------------------------
# canned figure reproductions
#
# Each builder runs its experiment into ``out`` and returns the files written
# and whether a surrogate replaced missing measured inputs.


def _reproduce_fig5(out: Path, seed: int, jobs: int, measured) -> tuple[list[str], bool]:
    # the documented default experiment, its graph drawn from the seed itself
    config = ExperimentConfig(sbm=SbmConfig(seed=seed))
    adjacency = sample_graph(config.sbm)
    responses, _, _ = run_protocol_trials(adjacency, config, jobs=jobs)
    bases = Bases(decomposition=eigendecompose(adjacency))
    es = project("gft", responses, map_indices(3), bases)
    files = {"fig5_gft_modes_2_3.csv": [0, 1], "fig5_gft_modes_2_4.csv": [0, 2]}
    for name, cols in files.items():
        _write_trial_table(out / name, ("x", "y"), es.trial_ids, es.labels, es.coords[:, cols])
    return list(files), False


def _reproduce_fig6(out: Path, seed: int, jobs: int, measured) -> tuple[list[str], bool]:
    config = ExperimentConfig(sbm=SbmConfig(seed=seed), trials_per_stimulus=5)
    result = trial_invariance_experiment(config, realizations=3, jobs=jobs)
    files = []
    for r, es in enumerate(result["gft_embeddings"]):
        name = f"fig6_gft_realization_{r}.csv"
        write_embeddings_csv(es, out / name)
        files.append(name)
    pooled = result["graphon_embeddings"]
    merged = EmbeddingSet(
        method="graphon",
        coords=np.vstack([es.coords for es in pooled]),
        labels=tuple(lab for es in pooled for lab in es.labels),
        trial_ids=tuple(tid for es in pooled for tid in es.trial_ids),
    )
    write_embeddings_csv(merged, out / "fig6_graphon.csv")
    files.append("fig6_graphon.csv")
    keys = ("dispersion_gft", "dispersion_graphon", "ratio")
    _write_csv(out / "fig6_dispersion.csv", [("key", "value"), *((k, result[k]) for k in keys)])
    files.append("fig6_dispersion.csv")
    return files, False


def _reproduce_fig8(out: Path, seed: int, jobs: int, measured) -> tuple[list[str], bool]:
    files = []
    summary = [("alpha", "method", "silhouette", "betweenness")]
    for alpha in (0.05, 0.20, 0.45):
        config = ExperimentConfig(
            sbm=SbmConfig(alpha=alpha, seed=seed),
            protocol=ProtocolSection(name="mixed_cluster"),
            trials_per_stimulus=10,
        )
        result = mixed_cluster_experiment(config, jobs=jobs)
        tag = f"{int(round(alpha * 100)):03d}"
        for method in ("graphon", "pca"):
            name = f"fig8_{method}_alpha{tag}.csv"
            write_embeddings_csv(result[method], out / name)
            files.append(name)
            m = result["metrics"][method]
            summary.append((alpha, method, m["silhouette"], m["betweenness"]))
    _write_csv(out / "fig8_summary.csv", summary)
    files.append("fig8_summary.csv")
    return files, False


def _reproduce_table(out: Path, seed: int, jobs: int, measured) -> tuple[list[str], bool]:
    """Accuracy table: kernel embedding vs PCA, cross-validated, with paired
    statistics.  ``measured`` holds the measured responses, block map and
    external decoder's correctness (or None) that :func:`reproduce` read;
    without it a simulated surrogate dataset, clearly marked, replaces them."""
    config = ExperimentConfig(
        sbm=SbmConfig(seed=seed),
        protocol=ProtocolSection(name="mixed_cluster"),
        trials_per_stimulus=7,
    )
    degraded = measured is None
    if degraded:
        source = "simulated_surrogate"
        responses, _, _ = run_protocol_trials(sample_graph(config.sbm, 0), config, 0, jobs)
        block_map = rc = None
    else:
        source = "experimental"
        responses, block_map, rc = measured
    bases = Bases(block_map, config.embedding.convention)
    classes = sorted(set(responses.labels))
    predicted = _cross_validate(responses, classes, ("graphon", "pca"), bases, config.classify)
    labels = np.asarray(responses.labels)
    graphon, pca = ((labels == predicted[m]).astype(float) for m in ("graphon", "pca"))
    differences = [graphon - pca]
    if rc is not None:
        differences.append(graphon - rc)
    reports, (paired, *vs_rc) = evaluate(
        labels, predicted, config.classify.resamples, config.classify.seed, differences
    )

    rows = [("key", "value"), ("source", source), ("n", reports["graphon"].n)]
    for method, report in reports.items():
        rows += [(f"accuracy_{method}", report.accuracy), (f"ci95_{method}", report.ci95)]
    rows += [
        ("accuracy_rc_reference", REFERENCE_RC_ACCURACY),
        ("paired_diff_graphon_minus_pca", paired.mean_difference),
        ("paired_diff_ci95", paired.diff_ci95),
        ("effect_size", paired.effect_size),
        ("required_n_for_80pct_power", paired.required_n),
    ]
    for vs in vs_rc:
        rows += [
            ("paired_diff_graphon_minus_rc", vs.mean_difference),
            ("paired_diff_rc_ci95", vs.diff_ci95),
            ("effect_size_vs_rc", vs.effect_size),
            ("required_n_vs_rc", vs.required_n),
        ]

    files = []
    for method, report in reports.items():
        name = f"table_report_{method}.csv"
        write_report(out / name, report, extra={"method": method, "source": source})
        files.append(name)
    _write_csv(out / "table_accuracy.csv", rows)
    files.append("table_accuracy.csv")
    return files, degraded


_FIGURES = {
    "fig5": _reproduce_fig5,
    "fig6": _reproduce_fig6,
    "fig8": _reproduce_fig8,
    "table": _reproduce_table,
}
FIGURE_IDS = tuple(_FIGURES)


def reproduce(
    figure_id: str,
    out_dir,
    jobs: int = 1,
    seed: int = 0,
    experimental_csv=None,
    block_map_csv=None,
    rc_correct_csv=None,
) -> dict:
    """Canned experiment behind each shipped figure or table.  Measured
    inputs that the figure does not read, or that do not go together, are a
    ConfigError raised before anything is simulated or written, and the
    table's measured inputs are read before the output directory is made.

    Returns a summary with the output files and a ``degraded`` flag that is
    True when a surrogate dataset replaced missing experimental inputs.
    """
    build = _FIGURES.get(figure_id)
    if build is None:
        raise ConfigError(f"unknown figure id {figure_id!r}; choose from {FIGURE_IDS}")
    _check_jobs(jobs)
    # only the table reads measured inputs, and an external decoder's
    # correctness pairs with measured trials, not with the surrogate's
    paths = (experimental_csv, block_map_csv, rc_correct_csv)
    if figure_id != "table" and any(paths):
        raise ConfigError(f"reproduce {figure_id} reads no measured inputs; only table does")
    if bool(experimental_csv) != bool(block_map_csv):
        raise ConfigError("--experimental-csv and --block-map must be given together")
    if rc_correct_csv and not experimental_csv:
        raise ConfigError("--rc-correct needs the measured trials of --experimental-csv and --block-map")
    SbmConfig(seed=seed)  # checks the seed before the output directory is made
    measured = None  # the table's measured inputs, read before the directory is made
    if experimental_csv:
        responses, block_map = load_experimental_responses(experimental_csv, block_map_csv)
        rc = None
        if rc_correct_csv:  # in the responses' row order, paired by trial id
            names = (str(experimental_csv), str(rc_correct_csv))
            ids = dict.fromkeys(responses.trial_ids, 0.0)
            _, rc = pair_by_trial_id(ids, read_correctness_csv(rc_correct_csv), names=names)
        measured = (responses, block_map, rc)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files, degraded = build(out, seed, jobs, measured)
    write_manifest(
        out,
        {"figure_id": figure_id, "seed": seed},
        files,
        extra={"degraded": degraded},
    )
    return {"out_dir": str(out), "files": files, "degraded": degraded}

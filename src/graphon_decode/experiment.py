"""End-to-end experiment driver.

A declarative config describes one experiment: sample a graph, run stimulated
trials, extract responses, embed them with one or more methods, classify, and
write every artifact as CSV plus a manifest of content hashes.  Everything is
deterministic given the config: per-trial RNG streams are derived from the
root seed with a splittable seed sequence, and aggregation sorts by trial id,
so a worker pool never changes output bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .classify import (
    cross_validated_accuracy,
    paired_difference_stats,
    write_report,
)
from .embedding import (
    EmbeddingSet,
    aligned_gft_project,
    centroid_betweenness,
    cross_realization_dispersion,
    gft_project,
    graphon_project,
    pca_fit,
    pca_fit_transform,
    pca_transform,
    silhouette_score,
    write_embeddings_csv,
)
from .errors import ConfigError, DataError, ParameterError, ZeroResponseError
from .graphon import analytic_graphon_eigenpairs
from .lif import (
    AuxCurrentParams,
    InitialState,
    NeuronParams,
    StimulusPulse,
    SynapseParams,
    run_trial,
    write_raster_csv,
)
from .protocols import (
    Protocol,
    Responses,
    extract_response,
    load_experimental_responses,
    mixed_cluster_protocol,
    two_cluster_protocol,
    write_responses_csv,
)
from .sbm import (
    SbmConfig,
    block_membership,
    eigendecompose,
    sample_adjacency,
    write_edge_list,
    write_spectra,
)

# Published decoding accuracy of the reservoir-computing baseline on the same
# recordings; ingested as a reference constant for the comparison table.
REFERENCE_RC_ACCURACY = 0.748

_GRAPH_STREAM = 0
_TRIAL_STREAM = 1

FIGURE_IDS = ("fig5", "fig6", "fig8", "table")


def derive_seed(*keys: int) -> int:
    """Deterministic 64-bit seed from a tuple of integer keys."""
    ss = np.random.SeedSequence([int(k) for k in keys])
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SbmSection:
    alpha: float = 0.05
    n: int = 100
    seed: int = 0


@dataclass(frozen=True)
class SimSection:
    """Every dynamical parameter of a trial; defaults are the published
    constants plus the pipeline's own windowing choices."""

    dt: float = 0.1
    duration: float = 150.0
    onset: float = 20.0
    pulse_ms: float = 5.0
    amplitude_na: float = 2.5
    poisson_rate: float = 1.0
    window: float = 100.0
    # membrane
    tau_mem: float = 20.0
    e_leak: float = -74.0
    r_in: float = 4.0e4
    v_threshold: float = -54.0
    v_reset: float = -60.0
    # synapses
    e_syn: float = 0.0
    g_max: float = 3.5e-4
    tau_g: float = 5.0
    beta: float = 0.8
    tau_recovery: float = 2.0e4
    delay: float = 2.8
    # after-spike machinery
    refractory_ms: float = 2.0
    kca_increment: float = 0.0
    kca_tau: float = 80.0
    kca_reversal: float = -80.0
    # initial conditions and degree policy
    v0: float | None = None
    g0: float = 0.0
    r0: float = 1.0
    zero_degree: str = "error"


@dataclass(frozen=True)
class ProtocolSection:
    name: str = "two_cluster"
    custom_path: str | None = None


@dataclass(frozen=True)
class EmbeddingSection:
    methods: tuple[str, ...] = ("graphon", "gft", "pca")
    dimensions: int = 3
    convention: str = "blocksum"


@dataclass(frozen=True)
class ClassifySection:
    enabled: bool = True
    lam: float = 1.0
    lam_grid: tuple[float, ...] | None = None  # e.g. (0.01, 0.1, 1, 10) for inner CV
    folds: int = 7
    resamples: int = 10_000
    seed: int = 0
    dimensions: int = 4


@dataclass(frozen=True)
class IoSection:
    out_dir: str = "results"


@dataclass(frozen=True)
class ExperimentConfig:
    sbm: SbmSection = field(default_factory=SbmSection)
    sim: SimSection = field(default_factory=SimSection)
    protocol: ProtocolSection = field(default_factory=ProtocolSection)
    trials_per_stimulus: int = 20
    embedding: EmbeddingSection = field(default_factory=EmbeddingSection)
    classify: ClassifySection = field(default_factory=ClassifySection)
    io: IoSection = field(default_factory=IoSection)


_SECTIONS = {
    "sbm": SbmSection,
    "sim": SimSection,
    "protocol": ProtocolSection,
    "embedding": EmbeddingSection,
    "classify": ClassifySection,
    "io": IoSection,
}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from nested dicts, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
    kwargs = {}
    for key, value in data.items():
        if key == "trials_per_stimulus":
            _check_scalars(key, "int", value)
            if value < 1:
                raise ConfigError(f"trials_per_stimulus must be a positive integer, got {value!r}")
            kwargs[key] = value
            continue
        cls = _SECTIONS.get(key)
        if cls is None:
            raise ConfigError(f"unknown config section {key!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"section {key!r} must be a mapping")
        known = {f.name: f.type for f in fields(cls)}
        unknown = set(value) - set(known)
        if unknown:
            raise ConfigError(f"unknown keys in section {key!r}: {sorted(unknown)}")
        for name, item in value.items():
            _check_scalars(f"{key}.{name}", known[name], item)
        payload = dict(value)
        if cls is EmbeddingSection and "methods" in payload:
            payload["methods"] = tuple(payload["methods"])
        if cls is ClassifySection and payload.get("lam_grid") is not None:
            payload["lam_grid"] = tuple(payload["lam_grid"])
        try:
            kwargs[key] = cls(**payload)
        except (TypeError, ParameterError) as exc:
            raise ConfigError(f"bad section {key!r}: {exc}") from exc
    try:
        config = ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    _validate_config(config)
    return config


def _check_scalars(where: str, annotation: str, value) -> None:
    """Reject what JSON lets through but no field means: a boolean outside a
    boolean field (``true`` is not a count), a non-integer in an integer
    field, and NaN or infinite numbers.  Lists are checked item by item."""
    for item in value if isinstance(value, (list, tuple)) else (value,):
        if isinstance(item, bool):
            if annotation != "bool":
                raise ConfigError(f"{where} must not be a boolean, got {item!r}")
        elif annotation == "int" and not isinstance(item, int):
            raise ConfigError(f"{where} must be an integer, got {item!r}")
        elif isinstance(item, float) and not math.isfinite(item):
            raise ConfigError(f"{where} must be finite, got {item!r}")


def _validate_config(config: ExperimentConfig) -> None:
    if config.protocol.name not in ("two_cluster", "mixed_cluster", "custom"):
        raise ConfigError(f"unknown protocol {config.protocol.name!r}")
    if config.protocol.name == "custom" and not config.protocol.custom_path:
        raise ConfigError("custom protocol requires protocol.custom_path")
    for method in config.embedding.methods:
        if method not in ("graphon", "gft", "pca"):
            raise ConfigError(f"unknown embedding method {method!r}")
    if config.embedding.convention not in ("blocksum", "orthonormal"):
        raise ConfigError(f"unknown convention {config.embedding.convention!r}")
    if not 1 <= config.embedding.dimensions <= 4:
        raise ConfigError("embedding.dimensions must lie in 1..4")
    # trials must cover the counting window and the simulator's own minimum
    # of 100 ms past stimulus onset
    needed = config.sim.onset + max(config.sim.window, 100.0)
    if config.sim.duration < needed:
        raise ConfigError(
            f"sim.duration must be at least onset + max(window, 100) = {needed} ms"
        )
    try:
        SbmConfig(alpha=config.sbm.alpha, n=config.sbm.n, seed=config.sbm.seed)
        _sim_objects(config.sim)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    data = asdict(config)
    data["embedding"]["methods"] = list(data["embedding"]["methods"])
    if data["classify"]["lam_grid"] is not None:
        data["classify"]["lam_grid"] = list(data["classify"]["lam_grid"])
    return data


def load_config(path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(data)


def save_config(config: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n")


def config_hash(config: ExperimentConfig) -> str:
    canon = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# trial execution


def _sim_objects(sim: SimSection):
    neuron = NeuronParams(
        tau_mem=sim.tau_mem,
        e_leak=sim.e_leak,
        r_in=sim.r_in,
        v_threshold=sim.v_threshold,
        v_reset=sim.v_reset,
    )
    synapse = SynapseParams(
        e_syn=sim.e_syn,
        g_max=sim.g_max,
        tau_g=sim.tau_g,
        beta=sim.beta,
        tau_recovery=sim.tau_recovery,
        delay=sim.delay,
        poisson_rate=sim.poisson_rate,
    )
    aux = AuxCurrentParams(
        refractory_ms=sim.refractory_ms,
        kca_increment=sim.kca_increment,
        kca_tau=sim.kca_tau,
        kca_reversal=sim.kca_reversal,
    )
    initial = InitialState(v0=sim.v0, g0=sim.g0, r0=sim.r0)
    return neuron, synapse, aux, initial


def _trial_job(payload):
    adjacency, sim, label, targets, trial_id, seed = payload
    neuron, synapse, aux, initial = _sim_objects(sim)
    stimulus = StimulusPulse(
        targets=targets, onset=sim.onset, duration=sim.pulse_ms, amplitude=sim.amplitude_na
    )
    raster = run_trial(
        adjacency,
        neuron=neuron,
        synapse=synapse,
        aux=aux,
        stimulus=stimulus,
        duration=sim.duration,
        dt=sim.dt,
        seed=seed,
        initial=initial,
        zero_degree=sim.zero_degree,
    )
    try:
        response = extract_response(raster, onset=sim.onset, window=sim.window, trial_id=trial_id)
    except ZeroResponseError:
        response = None
    return trial_id, label, response, raster


def run_protocol_trials(
    adjacency,
    protocol: Protocol,
    sim: SimSection,
    trials_per_stimulus: int,
    root_seed: int,
    realization: int = 0,
    jobs: int = 1,
    raster_dir=None,
) -> tuple[Responses, list[int]]:
    """Run every (stimulus, trial) job and return responses plus skipped ids.

    Trial seeds derive from (root_seed, realization, stimulus, trial), so any
    execution order, worker count, or subset of stimuli reproduces the same
    per-trial dynamics.  Zero-response trials are skipped; a DataError is
    raised when no trial is usable.
    """
    jobs_list = []
    n_stimuli = len(protocol.stimuli)
    for stim_idx, (label, targets) in enumerate(protocol.stimuli):
        for t in range(trials_per_stimulus):
            trial_id = (realization * n_stimuli + stim_idx) * trials_per_stimulus + t
            seed = derive_seed(root_seed, _TRIAL_STREAM, realization, stim_idx, t)
            jobs_list.append((adjacency, sim, label, targets, trial_id, seed))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_trial_job, jobs_list))
    else:
        results = [_trial_job(p) for p in jobs_list]

    results.sort(key=lambda item: item[0])
    kept = [item for item in results if item[2] is not None]
    if not kept:
        raise DataError(
            f"realization {realization}: all {len(results)} trials were zero-response; "
            "nothing to embed"
        )
    if raster_dir is not None:
        for trial_id, label, _, raster in kept:
            meta = {"label": label, **asdict(sim)}
            write_raster_csv(raster, Path(raster_dir) / f"trial_{trial_id:04d}.csv", meta=meta)
    trial_ids, labels, rows, _ = zip(*kept)
    skipped = [trial_id for trial_id, _, row, _ in results if row is None]
    return Responses(values=np.vstack(rows), labels=labels, trial_ids=trial_ids), skipped


def _simulate(
    alpha: float,
    n: int,
    protocol: Protocol,
    trials_per_stimulus: int,
    root_seed: int,
    realization: int = 0,
    jobs: int = 1,
    sim: SimSection | None = None,
    graph_seed: int | None = None,
):
    """Sample one graph and run the protocol's trials on it; returns the
    adjacency and the responses.  The graph seed derives from (root_seed,
    realization) unless given."""
    if graph_seed is None:
        graph_seed = derive_seed(root_seed, _GRAPH_STREAM, realization)
    adjacency = sample_adjacency(SbmConfig(alpha=alpha, n=n, seed=graph_seed))
    responses, _ = run_protocol_trials(
        adjacency, protocol, sim or SimSection(), trials_per_stimulus, root_seed, realization, jobs
    )
    return adjacency, responses


def _build_protocol(config: ExperimentConfig) -> Protocol:
    name = config.protocol.name
    if name == "two_cluster":
        return two_cluster_protocol(config.sbm.n)
    if name == "mixed_cluster":
        return mixed_cluster_protocol(config.sbm.n)
    try:
        data = json.loads(Path(config.protocol.custom_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{config.protocol.custom_path}: {exc}") from exc
    try:
        stimuli = tuple((s["label"], tuple(s["targets"])) for s in data["stimuli"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(
            f"{config.protocol.custom_path}: custom protocol must be "
            '{"stimuli": [{"label": ..., "targets": [...]}]}'
        ) from exc
    size = 4 * config.sbm.n
    for label, targets in stimuli:
        if any(not 0 <= t < size for t in targets):
            raise ConfigError(f"custom stimulus {label!r} targets outside 0..{size - 1}")
    return Protocol(name="custom", stimuli=stimuli)


# ---------------------------------------------------------------------------
# embedding plumbing


def _map_indices(dimensions: int) -> tuple[int, ...]:
    # low-dimensional maps drop the total-mass coordinate first
    if dimensions >= 4:
        return (1, 2, 3, 4)
    return (2, 3, 4)[:dimensions]


def _embed(method, responses, config, decomposition, eigenpairs, block_map, indices):
    if method == "graphon":
        return graphon_project(
            responses, eigenpairs, block_map, convention=config.embedding.convention, indices=indices
        )
    if method == "gft":
        return gft_project(responses, decomposition, indices=indices)
    if method == "pca":
        return pca_fit_transform(responses, dims=len(indices))
    raise ConfigError(f"unknown embedding method {method!r}")


def classification_embedder(
    method, responses: Responses, block_map, config, decomposition, eigenpairs
):
    """Embedder callable for cross-validation over ``responses``: maps (train
    indices, test indices) to coordinates.  PCA refits per training fold, the
    two spectral bases are fixed and ignore the split."""
    dims = config.classify.dimensions
    indices = tuple(range(1, dims + 1))
    mat = responses.values

    def project(rows):
        if method == "graphon":
            return graphon_project(
                rows, eigenpairs, block_map, convention=config.embedding.convention, indices=indices
            ).coords
        return gft_project(rows, decomposition, indices=indices).coords

    def embed(train, test):
        if method == "pca":
            model = pca_fit(mat[train], dims=dims)
            return pca_transform(model, mat[train]), pca_transform(model, mat[test])
        return project(mat[train]), project(mat[test])

    return embed


# ---------------------------------------------------------------------------
# manifest


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out_dir: Path, config_dict: dict, files: list[str], extra: dict | None = None) -> None:
    manifest = {
        "package_version": __version__,
        "config": config_dict,
        "config_sha256": hashlib.sha256(
            json.dumps(config_dict, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest(),
        "files": {name: _sha256_file(out_dir / name) for name in sorted(files)},
    }
    if extra:
        manifest.update(extra)
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
    config: ExperimentConfig, jobs: int = 1, dump_rasters: bool = False, out_dir=None
) -> dict:
    """Full pipeline for one config; returns a summary with output locations.

    Zero-response trials are skipped with a note; the run fails (DataError)
    only when a stimulus class keeps fewer usable trials than the fold count
    needed for classification, or when nothing can be embedded at all.
    """
    out = Path(out_dir if out_dir is not None else config.io.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: list[str] = []

    sbm_cfg = SbmConfig(alpha=config.sbm.alpha, n=config.sbm.n, seed=config.sbm.seed)
    adjacency = sample_adjacency(sbm_cfg)
    decomposition = eigendecompose(adjacency)
    write_edge_list(adjacency, out / "graph.edges")
    write_spectra(decomposition, out / "eigenvalues.csv", out / "eigenvectors.csv")
    files += ["graph.edges", "eigenvalues.csv", "eigenvectors.csv"]

    raster_dir = None
    if dump_rasters:
        raster_dir = out / "rasters"
        raster_dir.mkdir(exist_ok=True)

    protocol = _build_protocol(config)
    responses, skipped = run_protocol_trials(
        adjacency,
        protocol,
        config.sim,
        config.trials_per_stimulus,
        root_seed=config.sbm.seed,
        jobs=jobs,
        raster_dir=raster_dir,
    )
    write_responses_csv(responses, out / "responses.csv")
    files.append("responses.csv")
    if raster_dir is not None:
        files += [f"rasters/{p.name}" for p in sorted(raster_dir.iterdir())]

    block_map = block_membership(config.sbm.n)
    eigenpairs = analytic_graphon_eigenpairs(config.sbm.alpha)
    indices = _map_indices(config.embedding.dimensions)
    summary: dict = {
        "out_dir": str(out),
        "n_responses": len(responses.labels),
        "skipped_trials": skipped,
        "accuracy": {},
    }

    for method in config.embedding.methods:
        es = _embed(method, responses, config, decomposition, eigenpairs, block_map, indices)
        name = f"embeddings_{method}.csv"
        write_embeddings_csv(es, out / name)
        files.append(name)

    if config.classify.enabled:
        counts = Counter(responses.labels)
        short = {lab: counts[lab] for lab in protocol.labels if counts[lab] < config.classify.folds}
        if short:
            raise DataError(
                f"classes with fewer usable trials than {config.classify.folds} folds: {short}"
            )
        for method in config.embedding.methods:
            report = cross_validated_accuracy(
                responses.labels,
                classification_embedder(
                    method, responses, block_map, config, decomposition, eigenpairs
                ),
                folds=config.classify.folds,
                lam=config.classify.lam,
                seed=config.classify.seed,
                resamples=config.classify.resamples,
                lam_grid=config.classify.lam_grid,
            )
            name = f"report_{method}.csv"
            write_report(out / name, report, extra={"method": method})
            files.append(name)
            summary["accuracy"][method] = report.accuracy

    write_manifest(
        out,
        config_to_dict(config),
        files,
        extra={
            "seeds": {
                "graph": config.sbm.seed,
                "classify": config.classify.seed,
                "trial_stream": "seed_sequence(sbm.seed, 1, realization, stimulus, trial)",
            }
        },
    )
    summary["files"] = files
    return summary


def trial_invariance_experiment(
    alpha: float = 0.05,
    n: int = 100,
    realizations: int = 3,
    trials_per_stimulus: int = 5,
    root_seed: int = 0,
    jobs: int = 1,
    sim: SimSection | None = None,
) -> dict:
    """Fixed stimuli on independently re-sampled graphs.

    Each realization gets its own graph and eigenbasis; responses are embedded
    with the per-realization (aligned) eigenvector basis and with the fixed
    kernel-eigenfunction basis.  Returns both embedding lists plus the
    scale-free cross-realization dispersion of each method and their ratio
    (kernel over eigenvector; below 1 means the kernel coordinates are the
    more stable ones).
    """
    protocol = two_cluster_protocol(n)
    eigenpairs = analytic_graphon_eigenpairs(alpha)
    block_map = block_membership(n)
    gft_sets: list[EmbeddingSet] = []
    graphon_sets: list[EmbeddingSet] = []
    for r in range(realizations):
        adjacency, responses = _simulate(
            alpha, n, protocol, trials_per_stimulus, root_seed, realization=r, jobs=jobs, sim=sim
        )
        decomposition = eigendecompose(adjacency)
        gft_sets.append(aligned_gft_project(responses, decomposition, indices=(2, 3, 4)))
        graphon_sets.append(
            graphon_project(responses, eigenpairs, block_map, indices=(2, 3, 4))
        )
    disp_gft = cross_realization_dispersion(gft_sets)
    disp_graphon = cross_realization_dispersion(graphon_sets)
    return {
        "dispersion_gft": disp_gft,
        "dispersion_graphon": disp_graphon,
        "ratio": disp_graphon / disp_gft,
        "gft_embeddings": gft_sets,
        "graphon_embeddings": graphon_sets,
    }


def mixed_cluster_experiment(
    alpha: float,
    n: int = 100,
    trials_per_stimulus: int = 10,
    root_seed: int = 0,
    jobs: int = 1,
    sim: SimSection | None = None,
) -> dict:
    """Three-stimulus run embedded with the kernel basis and with PCA,
    plus separability metrics for both maps."""
    _, responses = _simulate(
        alpha, n, mixed_cluster_protocol(n), trials_per_stimulus, root_seed, jobs=jobs, sim=sim
    )
    eigenpairs = analytic_graphon_eigenpairs(alpha)
    block_map = block_membership(n)
    graphon_es = graphon_project(responses, eigenpairs, block_map, indices=(2, 3, 4))
    pca_es = pca_fit_transform(responses, dims=3)
    result = {"responses": responses, "graphon": graphon_es, "pca": pca_es, "metrics": {}}
    for name, es in (("graphon", graphon_es), ("pca", pca_es)):
        result["metrics"][name] = {
            "silhouette": silhouette_score(es.coords, es.labels),
            "betweenness": centroid_betweenness(es.coords, es.labels),
        }
    return result


# ---------------------------------------------------------------------------
# canned figure reproductions


def _write_xy(es: EmbeddingSet, cols: tuple[int, int], path: Path) -> None:
    lines = ["trial_id,label,x,y"]
    for tid, lab, row in zip(es.trial_ids, es.labels, es.coords):
        lines.append(f"{tid},{lab},{repr(float(row[cols[0]]))},{repr(float(row[cols[1]]))}")
    path.write_text("\n".join(lines) + "\n")


def _reproduce_fig5(out: Path, jobs: int, seed: int) -> list[str]:
    # the documented default experiment, its graph drawn from the seed itself
    adjacency, responses = _simulate(
        0.05, 100, two_cluster_protocol(100), 20, seed, jobs=jobs, graph_seed=seed
    )
    es = gft_project(responses, eigendecompose(adjacency), indices=(2, 3, 4))
    _write_xy(es, (0, 1), out / "fig5_gft_modes_2_3.csv")
    _write_xy(es, (0, 2), out / "fig5_gft_modes_2_4.csv")
    return ["fig5_gft_modes_2_3.csv", "fig5_gft_modes_2_4.csv"]


def _reproduce_fig6(out: Path, jobs: int, seed: int) -> list[str]:
    result = trial_invariance_experiment(
        realizations=3, trials_per_stimulus=5, root_seed=seed, jobs=jobs
    )
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
    lines = [
        "key,value",
        f"dispersion_gft,{repr(result['dispersion_gft'])}",
        f"dispersion_graphon,{repr(result['dispersion_graphon'])}",
        f"ratio,{repr(result['ratio'])}",
    ]
    (out / "fig6_dispersion.csv").write_text("\n".join(lines) + "\n")
    files.append("fig6_dispersion.csv")
    return files


def _reproduce_fig8(out: Path, jobs: int, seed: int) -> list[str]:
    files = []
    summary = ["alpha,method,silhouette,betweenness"]
    for alpha in (0.05, 0.20, 0.45):
        result = mixed_cluster_experiment(
            alpha, trials_per_stimulus=10, root_seed=seed, jobs=jobs
        )
        tag = f"{int(round(alpha * 100)):03d}"
        for method in ("graphon", "pca"):
            name = f"fig8_{method}_alpha{tag}.csv"
            write_embeddings_csv(result[method], out / name)
            files.append(name)
            m = result["metrics"][method]
            summary.append(
                f"{repr(alpha)},{method},{repr(m['silhouette'])},{repr(m['betweenness'])}"
            )
    (out / "fig8_summary.csv").write_text("\n".join(summary) + "\n")
    files.append("fig8_summary.csv")
    return files


def _reproduce_table(
    out: Path,
    jobs: int,
    seed: int,
    experimental_csv=None,
    block_map_csv=None,
    rc_correct_csv=None,
) -> tuple[list[str], bool]:
    """Accuracy table: kernel embedding vs PCA, cross-validated, with paired
    statistics.  Falls back to a simulated surrogate dataset (clearly marked,
    degraded exit) when no measured responses are provided."""
    config = ExperimentConfig()
    alpha = config.sbm.alpha
    degraded = not (experimental_csv and block_map_csv)
    if degraded:
        source = "simulated_surrogate"
        _, responses = _simulate(alpha, 100, mixed_cluster_protocol(100), 7, seed, jobs=jobs)
        block_map = block_membership(100)
    else:
        source = "experimental"
        responses, block_map = load_experimental_responses(experimental_csv, block_map_csv)

    eigenpairs = analytic_graphon_eigenpairs(alpha)
    reports = {}
    for method in ("graphon", "pca"):
        reports[method] = cross_validated_accuracy(
            responses.labels,
            classification_embedder(
                method, responses, block_map, config, decomposition=None, eigenpairs=eigenpairs
            ),
            folds=config.classify.folds,
            lam=config.classify.lam,
            seed=config.classify.seed,
            resamples=config.classify.resamples,
        )
    paired = paired_difference_stats(reports["graphon"].correct, reports["pca"].correct)

    files = []
    for method, report in reports.items():
        name = f"table_report_{method}.csv"
        write_report(out / name, report, extra={"method": method, "source": source})
        files.append(name)

    lines = ["key,value", f"source,{source}", f"n,{reports['graphon'].n}"]
    for method, report in reports.items():
        lines.append(f"accuracy_{method},{repr(report.accuracy)}")
        lines.append(f"ci95_{method},{repr(report.ci95[0])}|{repr(report.ci95[1])}")
    lines.append(f"accuracy_rc_reference,{repr(REFERENCE_RC_ACCURACY)}")
    lines.append(f"paired_diff_graphon_minus_pca,{repr(paired.mean_difference)}")
    lines.append(
        f"paired_diff_ci95,{repr(paired.diff_ci95[0])}|{repr(paired.diff_ci95[1])}"
    )
    lines.append(f"effect_size,{repr(paired.effect_size)}")
    lines.append(f"required_n_for_80pct_power,{repr(paired.required_n)}")
    if rc_correct_csv:
        from .classify import read_correctness_csv

        rc = read_correctness_csv(rc_correct_csv)
        vs_rc = paired_difference_stats(reports["graphon"].correct, rc)
        lines.append(f"paired_diff_graphon_minus_rc,{repr(vs_rc.mean_difference)}")
        lines.append(
            f"paired_diff_rc_ci95,{repr(vs_rc.diff_ci95[0])}|{repr(vs_rc.diff_ci95[1])}"
        )
        lines.append(f"effect_size_vs_rc,{repr(vs_rc.effect_size)}")
        lines.append(f"required_n_vs_rc,{repr(vs_rc.required_n)}")
    (out / "table_accuracy.csv").write_text("\n".join(lines) + "\n")
    files.append("table_accuracy.csv")
    return files, degraded


def reproduce(
    figure_id: str,
    out_dir,
    jobs: int = 1,
    seed: int = 0,
    experimental_csv=None,
    block_map_csv=None,
    rc_correct_csv=None,
) -> dict:
    """Canned experiment behind each shipped figure or table.

    Returns a summary with the output files and a ``degraded`` flag that is
    True when a surrogate dataset replaced missing experimental inputs.
    """
    if figure_id not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {figure_id!r}; choose from {FIGURE_IDS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    degraded = False
    if figure_id == "fig5":
        files = _reproduce_fig5(out, jobs, seed)
    elif figure_id == "fig6":
        files = _reproduce_fig6(out, jobs, seed)
    elif figure_id == "fig8":
        files = _reproduce_fig8(out, jobs, seed)
    else:
        files, degraded = _reproduce_table(
            out, jobs, seed, experimental_csv, block_map_csv, rc_correct_csv
        )
    write_manifest(
        out,
        {"figure_id": figure_id, "seed": seed},
        files,
        extra={"degraded": degraded},
    )
    return {"out_dir": str(out), "files": files, "degraded": degraded}

import csv
import importlib
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_decode import classify, experiment
from graphon_decode.classify import cross_validated_accuracy
from graphon_decode.cli import main
from graphon_decode.embedding import CONVENTIONS
from graphon_decode.errors import ConfigError, DataError, ParameterError
from graphon_decode.experiment import (
    METHODS,
    ClassifySection,
    EmbeddingSection,
    ExperimentConfig,
    IoSection,
    ProtocolSection,
    config_from_dict,
    derive_seed,
    load_config,
    project,
    run_experiment,
    save_config,
    verify_manifest,
    write_manifest,
)
from graphon_decode.lif import SimParams
from graphon_decode.protocols import Responses, load_experimental_responses, read_responses_csv
from graphon_decode.sbm import SbmConfig, block_membership

REPO = Path(__file__).resolve().parents[1]

SMALL = {
    "sbm": {"alpha": 0.05, "n": 8, "seed": 3},
    "trials_per_stimulus": 5,
    "classify": {"folds": 5, "resamples": 200},
}


def small_config(tmp_path, name="out", **overrides):
    data = json.loads(json.dumps(SMALL))
    for key, value in overrides.items():
        if isinstance(value, dict):
            data.setdefault(key, {}).update(value)
        else:
            data[key] = value
    data.setdefault("io", {})["out_dir"] = str(tmp_path / name)
    return config_from_dict(data)


def write_measured(tmp_path) -> tuple[Path, Path]:
    """Nine trials per stimulus over 16 ROIs in four blocks of four.

    Counts come from integer arithmetic, not a random generator, so the input
    bytes cannot drift with numpy; stimulus s1 lifts blocks 1-2, s2 blocks 2-3
    and s3 blocks 3-4.
    """
    lifted = {"s1": (1, 2), "s2": (2, 3), "s3": (3, 4)}
    blocks = [1 + (roi % 4) for roi in range(16)]
    lines = ["trial_id,label," + ",".join(f"roi_{i}" for i in range(16))]
    trial_id = 0
    for rep in range(9):
        for label, lift in lifted.items():
            counts = [
                1 + (3 * trial_id + 5 * roi) % 4 + (3 if blocks[roi] in lift else 0)
                for roi in range(16)
            ]
            lines.append(f"{trial_id},{label}," + ",".join(map(str, counts)))
            trial_id += 1
    csv_path = tmp_path / "measured.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    map_path = tmp_path / "blocks.csv"
    map_path.write_text(
        "roi_index,block\n" + "".join(f"{i},{b}\n" for i, b in enumerate(blocks))
    )
    return csv_path, map_path


def test_lam_grid_run_with_inner_folds_too_small_for_pca(tmp_path):
    # each outer fold fits 4 PCA components on 8 trials; the penalty's inner
    # folds train on 4, so the grid's median is taken instead of failing
    # after every trial was simulated
    summary = run_experiment(small_config(tmp_path, classify={"lam_grid": [0.01, 0.1, 1.0, 10.0]}))
    assert set(summary["accuracy"]) == {"graphon", "gft", "pca"}


# ---------------------------------------------------------------------------
# configuration


def test_empty_config_gives_documented_defaults():
    cfg = config_from_dict({})
    assert cfg.protocol.name == "two_cluster"
    assert cfg.sbm.alpha == 0.05
    assert cfg.sbm.n == 100
    assert cfg.trials_per_stimulus == 20
    assert cfg.embedding.methods == ("graphon", "gft", "pca")
    assert cfg.classify.folds == 7


def test_config_round_trips_losslessly(tmp_path):
    cfg = config_from_dict(SMALL)
    path = tmp_path / "config.json"
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg


def test_config_behind_a_byte_order_mark_loads_as_without_it(tmp_path):
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_bytes(b'{"sim": {"dt": 0.1}}')
    marked.write_bytes(b'\xef\xbb\xbf{"sim": {"dt": 0.1}}')
    assert load_config(marked) == load_config(plain)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        config_from_dict({"sbm2": {}})
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"sbm": {"alpha": 0.05, "walrus": 1}})


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"sbm": {"alpha": 0.9}})
    with pytest.raises(ConfigError):
        config_from_dict({"sim": {"duration": 50.0}})  # cannot cover onset+window
    with pytest.raises(ConfigError):
        config_from_dict({"embedding": {"methods": ["umap"]}})
    with pytest.raises(ConfigError):
        config_from_dict({"protocol": {"name": "custom"}})  # missing path
    with pytest.raises(ConfigError, match="protocol.name"):
        config_from_dict({"protocol": {"name": "three_cluster"}})
    with pytest.raises(ConfigError, match="embedding.convention"):
        config_from_dict({"embedding": {"convention": "l1"}})
    with pytest.raises(ConfigError, match="embedding.dimensions"):
        config_from_dict({"embedding": {"dimensions": 5}})
    with pytest.raises(ConfigError):
        config_from_dict({"trials_per_stimulus": 0})
    with pytest.raises(ConfigError, match="classify.dimensions"):
        config_from_dict({"classify": {"dimensions": 0}})
    with pytest.raises(ConfigError, match="classify.dimensions"):
        config_from_dict({"classify": {"dimensions": 5}})  # the kernel basis has four modes
    config_from_dict({"embedding": {"methods": ["gft", "pca"]}, "classify": {"dimensions": 5}})
    with pytest.raises(ConfigError, match="embedding.methods must name at least one method"):
        config_from_dict({"embedding": {"methods": []}})  # classification has nothing to score
    with pytest.raises(ConfigError, match="embedding.methods must not repeat"):
        config_from_dict({"embedding": {"methods": ["pca", "gft", "pca"]}})
    config_from_dict({"embedding": {"methods": []}, "classify": {"enabled": False}})
    # each of these once loaded and failed only after simulating every trial
    for section, match in [
        ({"folds": 1}, "classify.folds"),
        ({"resamples": 0}, "classify.resamples"),
        ({"lam": -1}, "classify.lam"),
        ({"lam_grid": []}, "classify.lam_grid"),
        ({"lam_grid": [-1, 1]}, "classify.lam_grid"),
        ({"seed": -1}, "classify.seed"),
    ]:
        with pytest.raises(ConfigError, match=match):
            config_from_dict({"classify": section})
    # a value of the wrong kind is named with its field and the kind it needs
    for data, match in [
        ({"embedding": {"methods": "gft"}}, "embedding.methods must be a list"),
        ({"classify": {"lam_grid": "ab"}}, "classify.lam_grid must be a list"),
        ({"classify": {"lam_grid": ["a", "b"]}}, "classify.lam_grid must be a number"),
        ({"sim": {"dt": "0.1"}}, "sim.dt must be a number"),
        ({"io": {"out_dir": 7}}, "io.out_dir must be a string"),
        ({"protocol": {"name": 3}}, "protocol.name must be a string"),
        ({"sbm": {"n": [3]}}, "sbm.n must be an integer"),
        ({"trials_per_stimulus": "20"}, "trials_per_stimulus must be an integer"),
        ({"classify": {"enabled": 1}}, "classify.enabled must be a boolean"),
        ({"sim": {"dt": None}}, "sim.dt must not be null"),
    ]:
        with pytest.raises(ConfigError, match=match):
            config_from_dict(data)


def test_replace_reruns_the_section_checks():
    cfg = config_from_dict({})
    with pytest.raises(ParameterError, match="alpha"):
        replace(cfg.sbm, alpha=0.9)
    with pytest.raises(ParameterError, match="classify.folds"):
        replace(cfg.classify, folds=1)
    with pytest.raises(ParameterError, match="classify.dimensions"):
        replace(cfg, classify=replace(cfg.classify, dimensions=5))


@pytest.mark.parametrize(
    "data, match",
    [
        ({"trials_per_stimulus": True}, "trials_per_stimulus must not be a boolean"),
        ({"sbm": {"n": True}}, "sbm.n must not be a boolean"),
        ({"classify": {"folds": True}}, "classify.folds must not be a boolean"),
        ({"sim": {"dt": True}}, "sim.dt must not be a boolean"),
        ({"sbm": {"n": 8.5}}, "sbm.n must be an integer"),
        ({"trials_per_stimulus": 2.0}, "trials_per_stimulus must be an integer"),
        ({"sim": {"dt": float("nan")}}, "sim.dt must be finite"),
        ({"sim": {"v0": float("-inf")}}, "sim.v0 must be finite"),
        ({"classify": {"lam_grid": [0.1, float("inf")]}}, "classify.lam_grid must be finite"),
        ([{"sbm": {"n": 8}}], "config must be a mapping, got list"),
        ({"sbm": [8]}, "section 'sbm' must be a mapping"),
    ],
)
def test_booleans_and_non_finite_numbers_rejected(data, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(data)
    config_from_dict({"classify": {"enabled": False}, "sim": {"dt": 0.1, "v0": None}})


# each integer field of the config, as its own record names it, and how to set it
INTEGER_FIELDS = {
    "sbm.n": lambda v: SbmConfig(n=v),
    "sbm.seed": lambda v: SbmConfig(seed=v),
    "trials_per_stimulus": lambda v: ExperimentConfig(trials_per_stimulus=v),
    "embedding.dimensions": lambda v: EmbeddingSection(dimensions=v),
    "classify.folds": lambda v: ClassifySection(folds=v),
    "classify.resamples": lambda v: ClassifySection(resamples=v),
    "classify.seed": lambda v: ClassifySection(seed=v),
    "classify.dimensions": lambda v: ClassifySection(dimensions=v),
}


@pytest.mark.parametrize("value", [True, 2.5])
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_integer_fields_refuse_booleans_and_fractions_through_the_api(field, value):
    # the Python API keeps the config reader's rule: True is not 1 and 2.5 is no count
    wording = "must not be a boolean" if value is True else "must be an integer"
    with pytest.raises(ParameterError, match=f"^{re.escape(field)} {wording}, got {value!r}$"):
        INTEGER_FIELDS[field](value)


@pytest.mark.parametrize(
    "field, least",
    [("sbm.n", 1), ("sbm.seed", 0), ("trials_per_stimulus", 1), ("classify.folds", 2),
     ("classify.resamples", 1), ("classify.seed", 0), ("classify.dimensions", 1)],
)
def test_integer_fields_refuse_a_value_below_their_least(field, least):
    # each field's metadata gives its least value to the one integer rule
    with pytest.raises(ParameterError, match=f"^{re.escape(field)} must be at least {least}, got {least - 1}$"):
        INTEGER_FIELDS[field](least - 1)


# every config class, and the prefix its fields' messages carry
CONFIG_CLASSES = {
    SbmConfig: "sbm.",
    SimParams: "sim.",
    ProtocolSection: "protocol.",
    EmbeddingSection: "embedding.",
    ClassifySection: "classify.",
    IoSection: "io.",
    ExperimentConfig: "",
}

BOOLEAN, NON_FINITE = "must not be a boolean", "must be finite"

# values of a kind each annotation refuses, None aside, and the words that refuse them
WRONG_KINDS = {
    "bool": [(0, "must be a boolean")],
    "int": [(True, BOOLEAN), (np.True_, BOOLEAN), ("3", "must be an integer"), (2.5, "must be an integer")],
    "float": [(True, BOOLEAN), ("3", "must be a number"), (np.nan, NON_FINITE), (np.inf, NON_FINITE)],
    "str": [(3, "must be a string")],
    "tuple[str, ...]": [("pca", "must be a list"), ([3], "must be a string")],
    "tuple[float, ...]": [("0.1", "must be a list"), ([True], BOOLEAN), ([np.nan], NON_FINITE)],
}


def _wrong_kinds():
    for cls, prefix in CONFIG_CLASSES.items():
        for f in fields(cls):
            kind = f.type.removesuffix(" | None")
            if kind not in WRONG_KINDS:  # a nested section
                continue
            cases = WRONG_KINDS[kind] + ([(None, "must not be null")] if kind == f.type else [])
            for value, words in cases:
                where = prefix + f.name
                yield pytest.param(cls, f.name, f"{where} {words}", value, id=f"{where}={value!r}")


@pytest.mark.parametrize("cls, name, message, value", _wrong_kinds())
def test_every_config_field_refuses_a_value_of_the_wrong_kind_through_the_api(cls, name, message, value):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}(, got |$)"):
        cls(**{name: value})


def _numpy_or_not(strategy, *numpy_types):
    """Values of ``strategy``, some passed as numpy scalars."""
    return strategy.flatmap(lambda v: st.sampled_from([v, *(t(v) for t in numpy_types)]))


def _ints(lo, hi):
    return _numpy_or_not(st.integers(lo, hi), np.int64, np.uint32)


def _floats(lo, hi):
    return _numpy_or_not(st.floats(lo, hi), np.float64, np.float32)


@st.composite
def _valid_configs(draw):
    name = draw(st.sampled_from(["two_cluster", "mixed_cluster", "custom"]))
    custom_path = draw(st.text(min_size=1)) if name == "custom" else None
    return ExperimentConfig(
        sbm=SbmConfig(alpha=draw(_floats(0.01, 0.49)), n=draw(_ints(1, 50)), seed=draw(_ints(0, 2**32 - 1))),
        sim=SimParams(
            dt=draw(st.sampled_from([0.1, 0.2, np.float64(0.4), np.float64(1.4)])),
            duration=draw(_floats(120.0, 500.0)),
            beta=draw(_floats(0.01, 1.0)),
            v0=draw(st.none() | _floats(-80.0, -55.0)),
        ),
        protocol=ProtocolSection(name=name, custom_path=custom_path),
        trials_per_stimulus=draw(_ints(1, 100)),
        embedding=EmbeddingSection(
            methods=draw(st.lists(st.sampled_from(METHODS), min_size=1, unique=True)),
            dimensions=draw(_ints(1, 4)),
            convention=draw(st.sampled_from(CONVENTIONS)),
        ),
        classify=ClassifySection(
            enabled=draw(st.sampled_from([True, False, np.False_])),
            lam=draw(_floats(0.0, 1e6)),
            lam_grid=draw(st.none() | st.lists(_floats(0.0, 1e3), min_size=1)),
            folds=draw(_ints(2, 10)),
            resamples=draw(_ints(1, 100_000)),
            seed=draw(_ints(0, 2**32 - 1)),
            dimensions=draw(_ints(1, 4)),
        ),
        io=IoSection(out_dir=draw(st.text())),
    )


@settings(max_examples=60, deadline=None)
@given(config=_valid_configs())
def test_saved_configs_load_equal_and_save_to_the_same_bytes(config):
    # numpy scalars are stored as Python numbers, so save_config writes them
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        save_config(config, first)
        loaded = load_config(first)
        assert loaded == config
        save_config(loaded, second)
        assert second.read_bytes() == first.read_bytes()


def test_integral_numbers_hash_as_the_floats_they_equal(tmp_path):
    # lam 1 and duration 150 are the defaults 1.0 and 150.0, so the manifests name one experiment
    digests = []
    for name, data in [("given", {"classify": {"lam": 1}, "sim": {"duration": 150}}), ("default", {})]:
        (tmp_path / name).mkdir()
        write_manifest(tmp_path / name, asdict(config_from_dict(data)), [], extra={})
        digests.append(json.loads((tmp_path / name / "manifest.json").read_text())["config_sha256"])
    assert digests[0] == digests[1]


def test_duration_must_cover_the_configured_window(tmp_path):
    # a 50 ms window fits a trial 60 ms past onset; the simulator counts over the same window
    cfg = small_config(tmp_path, sim={"onset": 20.0, "window": 50.0, "duration": 80.0})
    summary = run_experiment(cfg)
    assert summary["n_responses"] == 10
    with pytest.raises(ConfigError, match="onset \\+ window = 90 ms"):
        config_from_dict({"sim": {"onset": 20.0, "window": 70.0, "duration": 80.0}})
    with pytest.raises(ConfigError, match="sim.window must be positive"):
        config_from_dict({"sim": {"window": 0.0}})


def test_sim_section_checks_run_at_load():
    # a step that does not divide the 2.8 ms delay, or an unknown degree
    # policy, fails when the config is built rather than when trials start
    with pytest.raises(ConfigError, match="delay"):
        config_from_dict({"sim": {"dt": 0.3}})
    with pytest.raises(ConfigError, match="zero_degree"):
        config_from_dict({"sim": {"zero_degree": "drop"}})


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert derive_seed(0, 0, 0) != derive_seed(0, 0, 1)


@pytest.mark.parametrize(
    "realization, match",
    [
        (1.5, "seed key must be an integer, got 1.5"),
        (True, "seed key must not be a boolean, got True"),
        ("1", "seed key must be an integer, got '1'"),
        (-1, "seed key must be at least 0, got -1"),
    ],
    ids=["fraction", "boolean", "string", "negative"],
)
def test_derive_seed_refuses_keys_that_are_not_nonnegative_integers(realization, match):
    # a fraction or a boolean once gave realization 1's graph
    with pytest.raises(ParameterError, match=match):
        experiment.sample_graph(SbmConfig(n=5), realization)
    # a numpy integer is an integer, and a config seed past 64 bits is a key
    assert derive_seed(np.int64(1)) == derive_seed(1)
    experiment.sample_graph(SbmConfig(n=5, seed=2**64 + 3), 1)


# ---------------------------------------------------------------------------
# run_experiment


def test_run_experiment_writes_expected_artifacts(tmp_path):
    cfg = small_config(tmp_path)
    summary = run_experiment(cfg)
    out = Path(summary["out_dir"])
    for name in (
        "graph.edges",
        "eigenvalues.csv",
        "eigenvectors.csv",
        "responses.csv",
        "embeddings_graphon.csv",
        "embeddings_gft.csv",
        "embeddings_pca.csv",
        "report_graphon.csv",
        "manifest.json",
    ):
        assert (out / name).exists(), name
    # 2 stimuli x 5 trials, none skipped at these settings
    text = (out / "responses.csv").read_text().splitlines()
    assert len(text) == 1 + 10
    assert summary["n_responses"] == 10
    assert set(summary["accuracy"]) == {"graphon", "gft", "pca"}


def test_rerun_is_byte_identical(tmp_path):
    cfg1 = small_config(tmp_path, "a")
    cfg2 = small_config(tmp_path, "b")
    s1 = run_experiment(cfg1)
    s2 = run_experiment(cfg2)
    for name in [*s1["files"], "manifest.json"]:
        b1 = (Path(s1["out_dir"]) / name).read_bytes()
        b2 = (Path(s2["out_dir"]) / name).read_bytes()
        assert b1 == b2, name


def test_worker_pool_does_not_change_bytes(tmp_path):
    serial = run_experiment(small_config(tmp_path, "serial"), jobs=1)
    pooled = run_experiment(small_config(tmp_path, "pooled"), jobs=2)
    for name in [*serial["files"], "manifest.json"]:
        assert (Path(serial["out_dir"]) / name).read_bytes() == (
            Path(pooled["out_dir"]) / name
        ).read_bytes(), name


def test_uneven_worker_chunks_do_not_change_bytes(tmp_path):
    # 2 stimuli x 5 trials split into 3 chunks of 3, 3 and 4 trials
    serial = run_experiment(small_config(tmp_path, "serial"), jobs=1, dump_rasters=True)
    pooled = run_experiment(small_config(tmp_path, "pooled"), jobs=3, dump_rasters=True)
    assert serial["files"] == pooled["files"]
    assert sum(name.startswith("rasters/") for name in serial["files"]) == 10
    for name in serial["files"]:
        assert (Path(serial["out_dir"]) / name).read_bytes() == (
            Path(pooled["out_dir"]) / name
        ).read_bytes(), name


@pytest.fixture
def pools(monkeypatch):
    """Replaces the worker pool by one that runs its chunks in this process;
    returns the pools made, each with its max_workers and chunk results."""
    made = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers, self.results = max_workers, []
            made.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            self.results = [fn(payload) for payload in payloads]
            return iter(self.results)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessPool)
    return made


@pytest.mark.parametrize("jobs, workers", [(3, 3), (10, 10), (11, 10), (5000, 10)])
def test_workers_are_capped_at_the_trial_count(tmp_path, pools, jobs, workers):
    # 2 stimuli x 5 trials: never more workers or chunks than the 10 trials
    serial = run_experiment(small_config(tmp_path, "serial"), jobs=1)
    pooled = run_experiment(small_config(tmp_path, "pooled"), jobs=jobs)
    assert [(pool.max_workers, len(pool.results)) for pool in pools] == [(workers, workers)]
    for name in serial["files"]:
        assert (Path(serial["out_dir"]) / name).read_bytes() == (
            Path(pooled["out_dir"]) / name
        ).read_bytes(), name


def test_trial_chunks_send_no_rasters_back(tmp_path, pools):
    # a worker returns response rows and skipped ids only; dumped rasters are
    # written by the worker that simulated them
    for dump in (False, True):
        config = small_config(tmp_path, f"dump_{dump}", classify={"enabled": False})
        run_experiment(config, jobs=2, dump_rasters=dump)
    results = [result for pool in pools for result in pool.results]
    assert len(results) == 4
    for result in results:
        assert b"SpikeRaster" not in pickle.dumps(result)
    assert len(list((tmp_path / "dump_True" / "rasters").iterdir())) == 10


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(tmp_path, jobs):
    with pytest.raises(ParameterError, match="jobs must be at least 1"):
        run_experiment(small_config(tmp_path, "never"), jobs=jobs)
    assert not (tmp_path / "never").exists()
    config_path = tmp_path / "config.json"
    save_config(small_config(tmp_path, "never"), config_path)
    for command in (["run"], ["simulate"], ["reproduce", "fig5"]):
        argv = [*command, "--jobs", str(jobs), "--out", str(tmp_path / "never")]
        if command[0] != "reproduce":
            argv += ["--config", str(config_path)]
        assert main(argv) == 2, command
        assert not (tmp_path / "never").exists()


def test_dumping_rasters_keeps_full_trials(tmp_path):
    # without a dump, trials stop at the end of the counting window; the
    # responses are the same, and every dumped raster covers the whole trial
    config = small_config(tmp_path, "plain", classify={"enabled": False})
    config_path = tmp_path / "config.json"
    save_config(config, config_path)
    assert main(["run", "--config", str(config_path)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "dump"), "--dump-rasters"]) == 0
    plain, dump = (tmp_path / name / "responses.csv" for name in ("plain", "dump"))
    assert plain.read_bytes() == dump.read_bytes()
    rasters = sorted((tmp_path / "dump" / "rasters").iterdir())
    assert len(rasters) == 10
    for path in rasters:
        assert f"# duration_ms={config.sim.duration!r}" in path.read_text().splitlines()


def test_run_writes_each_trials_window_counts(tmp_path):
    # responses.csv holds integer spike counts; read back, they give the very
    # rows run_protocol_trials hands to the projections, and each row counts
    # its trial's dumped raster over the half-open window
    config = small_config(tmp_path, "run", classify={"enabled": False})
    run_experiment(config, dump_rasters=True)
    out = tmp_path / "run"
    with open(out / "responses.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 10
    for row in rows:
        assert all(cell.isascii() and cell.isdigit() for cell in row[2:]), row
    responses, counts, skipped = experiment.run_protocol_trials(experiment.sample_graph(config.sbm), config)
    back = read_responses_csv(out / "responses.csv")
    assert back.values.tobytes() == responses.values.tobytes()
    assert (back.labels, back.trial_ids) == (responses.labels, responses.trial_ids)
    assert counts.tolist() == [[int(cell) for cell in row[2:]] for row in rows] and skipped == []
    start, stop = config.sim.onset, config.sim.onset + config.sim.window
    for row in rows:
        with open(out / "rasters" / f"trial_{int(row[0]):04d}.csv", newline="") as fh:
            lines = [line for line in csv.reader(fh) if not line[0].startswith("#")][1:]
        window = np.zeros(len(row) - 2, dtype=int)
        for neuron, time in lines:
            window[int(neuron)] += start <= float(time) < stop
        assert [int(cell) for cell in row[2:]] == window.tolist(), row[0]


# the commands that never call scipy, on paths relative to where they run,
# since the report names its embeddings file
SCIPY_FREE = [
    ["gen-graph", "--n", "4", "--seed", "0", "--out", "graph"],
    ["embed", "--responses", "../measured.csv", "--method", "graphon", "--out", "graphon.csv"],
    ["embed", "--responses", "../measured.csv", "--method", "gft", "--graph", "graph/graph.edges", "--out", "gft.csv"],
    ["classify", "--embeddings", "graphon.csv", "--resamples", "200", "--out", "report.csv"],
    ["stats", "--correct-a", "../correct_a.csv", "--correct-b", "../correct_b.csv", "--resamples", "200", "--out", "stats.csv"],
]

BLOCK_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
from graphon_decode.cli import main
sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))
"""


def test_scipy_free_commands_run_without_scipy_and_write_the_same_bytes(tmp_path, monkeypatch):
    # importing scipy is half of the package's start-up; a top-level scipy
    # import anywhere would make these commands pay it again
    write_measured(tmp_path)
    (tmp_path / "correct_a.csv").write_text("trial_id,correct\n0,1\n1,0\n2,1\n3,1\n")
    (tmp_path / "correct_b.csv").write_text("trial_id,correct\n3,0\n2,1\n1,0\n0,0\n")
    blocked, loaded = tmp_path / "blocked", tmp_path / "loaded"
    blocked.mkdir()
    loaded.mkdir()
    src = str(Path(experiment.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", BLOCK_SCIPY, json.dumps(SCIPY_FREE)],
        cwd=blocked, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    monkeypatch.chdir(loaded)
    for argv in SCIPY_FREE:
        assert main(argv) == 0, argv
    files = sorted(path.relative_to(loaded) for path in loaded.rglob("*") if path.is_file())
    assert files == sorted(path.relative_to(blocked) for path in blocked.rglob("*") if path.is_file())
    assert len(files) == 7  # the graph's edges and spectra, two embeddings, the report, the stats
    for name in files:
        assert (blocked / name).read_bytes() == (loaded / name).read_bytes(), name


def test_cli_embed_names_the_first_index_out_of_range(tmp_path, capsys):
    # 450 indices asked of a 400-node graph: the message names the count and
    # the first bad index, not all 450
    assert main(["gen-graph", "--n", "100", "--seed", "0", "--out", str(tmp_path)]) == 0
    responses = tmp_path / "responses.csv"
    responses.write_text("trial_id,label," + ",".join(f"roi_{i}" for i in range(400)) + "\n0,s1" + ",1" * 400 + "\n")
    argv = ["embed", "--responses", str(responses), "--dims", "450", "--out", str(tmp_path / "emb.csv")]
    for method, text in (("gft", "eigen indices must lie in 1..400"), ("graphon", "coordinate indices must lie in 1..4")):
        capsys.readouterr()
        assert main([*argv, "--method", method, "--graph", str(tmp_path / "graph.edges")]) == 2
        message = capsys.readouterr().err
        assert text in message and "450" in message and len(message) < 200, message
    assert not (tmp_path / "emb.csv").exists()


def test_manifest_lists_and_verifies_every_file(tmp_path):
    cfg = small_config(tmp_path)
    summary = run_experiment(cfg)
    out = Path(summary["out_dir"])
    manifest = json.loads((out / "manifest.json").read_text())
    listed = set(manifest["files"])
    written = {
        p.name for p in out.iterdir() if p.name != "manifest.json"
    }
    assert listed == written
    assert verify_manifest(out) == []
    (out / "responses.csv").write_text("tampered\n")
    assert verify_manifest(out) == ["responses.csv"]


def test_raster_dump_is_optional(tmp_path):
    cfg = small_config(tmp_path, "dump", trials_per_stimulus=2, classify={"enabled": False})
    summary = run_experiment(cfg, dump_rasters=True)
    rasters = sorted((Path(summary["out_dir"]) / "rasters").iterdir())
    assert len(rasters) == 4
    assert rasters[0].name == "trial_0000.csv"
    no_dump = small_config(tmp_path, "nodump", trials_per_stimulus=2, classify={"enabled": False})
    summary2 = run_experiment(no_dump)
    assert not (Path(summary2["out_dir"]) / "rasters").exists()


def test_manifest_of_a_rerun_lists_only_its_own_rasters(tmp_path, capsys):
    # the second run writes 6 rasters into a directory holding 12 from the
    # first; it certifies its own 6 and deletes none of the others
    out = tmp_path / "out"
    for trials in (6, 3):
        config = small_config(
            tmp_path, trials_per_stimulus=trials, sbm={"n": 12}, classify={"enabled": False}
        )
        save_config(config, tmp_path / "config.json")
        assert main(["run", "--config", str(tmp_path / "config.json"), "--dump-rasters"]) == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    listed = [name for name in files if name.startswith("rasters/")]
    assert listed == [f"rasters/trial_{i:04d}.csv" for i in range(6)]
    assert len(list((out / "rasters").iterdir())) == 12
    assert verify_manifest(out) == []
    assert capsys.readouterr().out.splitlines()[-1].endswith(": 13 files")


def test_all_silent_trials_fail_with_data_error(tmp_path):
    cfg = small_config(
        tmp_path,
        "silent",
        sim={"amplitude_na": 0.0, "poisson_rate": 0.0},
    )
    with pytest.raises(DataError):
        run_experiment(cfg)


def test_custom_protocol_file(tmp_path):
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(
        json.dumps(
            {
                "stimuli": [
                    {"label": "left", "targets": list(range(0, 8))},
                    {"label": "right", "targets": list(range(8, 16))},
                ]
            }
        )
    )
    cfg = small_config(
        tmp_path,
        "custom",
        protocol={"name": "custom", "custom_path": str(protocol_path)},
        classify={"enabled": False},
        trials_per_stimulus=2,
    )
    summary = run_experiment(cfg)
    text = (Path(summary["out_dir"]) / "embeddings_graphon.csv").read_text()
    assert "left" in text and "right" in text


def test_custom_protocol_rejects_out_of_range_targets(tmp_path):
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps({"stimuli": [{"label": "x", "targets": [999]}]}))
    cfg = small_config(
        tmp_path, "bad", protocol={"name": "custom", "custom_path": str(protocol_path)}
    )
    with pytest.raises(ConfigError, match="targets outside"):
        run_experiment(cfg)


def test_custom_protocol_malformed_json_is_a_config_error(tmp_path):
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text('{"stimuli": [')
    cfg = small_config(
        tmp_path, "badjson", protocol={"name": "custom", "custom_path": str(protocol_path)}
    )
    with pytest.raises(ConfigError, match="protocol.json"):
        run_experiment(cfg)


_BAD_LABEL_IDS = ["comma", "quote", "bar", "newline", "return"]


@pytest.mark.parametrize(
    "stimuli, match",
    [
        ([{"label": "a", "targets": "abc"}], "targets must be integers"),
        ([{"label": "a", "targets": [1.7]}], "targets must be integers"),
        ([{"label": "a", "targets": [True]}], "targets must be integers"),
        ([], "has no stimuli"),
        (None, "custom protocol must be"),
        ([{"label": "a"}], "custom protocol must be"),
        ([{"label": "a", "targets": [0]}, {"label": "a", "targets": [1]}], "labels must be unique"),
        ([{"label": 1, "targets": [0]}, {"label": "1", "targets": [1]}], "labels must be unique"),
        *(
            ([{"label": f"a{ch}b", "targets": [0]}, {"label": "c", "targets": [1]}], "comma, quote")
            for ch in ',"|\n\r'
        ),
    ],
    ids=[
        "string-targets", "float-target", "boolean-target", "no-stimuli", "null-stimuli", "no-targets",
        "duplicate-labels",
        "labels-equal-as-text", *_BAD_LABEL_IDS,
    ],
)
@pytest.mark.parametrize("command", ["run", "simulate"])
def test_cli_bad_custom_protocol_exits_2_before_writing(tmp_path, capsys, command, stimuli, match):
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps({"stimuli": stimuli}))
    config_path = tmp_path / "config.json"
    protocol = {"name": "custom", "custom_path": str(protocol_path)}
    save_config(small_config(tmp_path, "never", protocol=protocol), config_path)
    assert main([command, "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"{protocol_path}: " in err and match in err
    assert not (tmp_path / "never").exists()


def test_alpha_sweep_produces_one_artifact_dir_per_alpha(tmp_path):
    # sweep emulates the robustness comparison: same config, three couplings
    accs = {}
    for alpha in (0.05, 0.20, 0.45):
        cfg = small_config(
            tmp_path,
            f"alpha_{alpha}",
            sbm={"alpha": alpha, "n": 8, "seed": 3},
            classify={"enabled": False},
            trials_per_stimulus=2,
        )
        summary = run_experiment(cfg)
        accs[alpha] = summary["n_responses"]
    assert all(v == 4 for v in accs.values())


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_and_exit_codes(tmp_path):
    config_path = tmp_path / "config.json"
    cfg = small_config(tmp_path, "cli_out")
    save_config(cfg, config_path)
    assert main(["run", "--config", str(config_path)]) == 0
    assert (tmp_path / "cli_out" / "responses.csv").exists()


def test_cli_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"sbm": {"alpha": 2.0}}')
    assert main(["run", "--config", str(bad)]) == 2


def test_cli_run_with_no_or_repeated_methods_exits_2_before_writing(tmp_path, capsys):
    for methods, match in [([], "must name at least one method"), (["pca", "pca"], "must not repeat a method")]:
        data = json.loads(json.dumps(SMALL))
        data["embedding"] = {"methods": methods}
        data["io"] = {"out_dir": str(tmp_path / "never")}
        bad = tmp_path / "methods.json"
        bad.write_text(json.dumps(data))
        assert main(["run", "--config", str(bad)]) == 2
        assert f"embedding.methods {match}" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()
    good = tmp_path / "good.json"
    save_config(small_config(tmp_path, "simulated"), good)
    assert main(["simulate", "--config", str(good)]) == 0  # simulate drops the methods itself


def test_cli_run_with_fewer_trials_than_folds_exits_2_before_writing(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"sbm": {"n": 12}, "trials_per_stimulus": 5}))
    out = tmp_path / "never"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert "trials_per_stimulus 5 is below classify.folds 7" in capsys.readouterr().err
    assert not out.exists()
    # simulate turns classification off, so the same config runs
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0


@pytest.mark.parametrize("method", ["gft", "pca"])
def test_cli_run_classifying_in_more_dimensions_than_nodes_exits_2_before_writing(tmp_path, capsys, method):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "sbm": {"n": 2, "seed": 3},
        "trials_per_stimulus": 7,
        "embedding": {"methods": [method]},
        "classify": {"dimensions": 9},
    }))
    out = tmp_path / "never"
    for command in ("run", "simulate"):
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
        assert "classify.dimensions must lie in 1..8 with gft or pca, got 9" in capsys.readouterr().err
        assert not out.exists()


def test_cli_nan_dt_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"sim": {"dt": NaN}}')
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "never")]) == 2
    assert "sim.dt must be finite" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize(
    "digits, message",
    [(400, "sim.dt must be finite"), (5000, "Exceeds the limit")],  # Python converts at most 4300 digits
)
def test_cli_integer_too_large_for_a_float_exits_2(tmp_path, capsys, digits, message):
    bad = tmp_path / "huge.json"
    bad.write_text('{"sim": {"dt": 1' + "0" * (digits - 1) + "}}")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "never")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_cli_wrong_kind_of_value_exits_2(tmp_path, capsys):
    bad = tmp_path / "out_dir.json"
    bad.write_text('{"io": {"out_dir": 7}}')
    assert main(["run", "--config", str(bad)]) == 2
    assert "io.out_dir must be a string" in capsys.readouterr().err


def test_cli_run_with_one_fold_exits_2_before_writing(tmp_path, capsys):
    data = json.loads(json.dumps(SMALL))
    data["classify"]["folds"] = 1
    data["io"] = {"out_dir": str(tmp_path / "never")}
    bad = tmp_path / "folds.json"
    bad.write_text(json.dumps(data))
    assert main(["run", "--config", str(bad)]) == 2
    assert "classify.folds" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize(
    "argv, match",
    [
        (["classify", "--resamples", "0"], "resamples"),
        (["stats", "--resamples", "0"], "resamples"),
        (["classify", "--seed", "-1"], "seed"),
        (["stats", "--seed", "-1"], "seed"),
    ],
)
def test_cli_bad_resampling_flags_exit_2(tmp_path, capsys, argv, match):
    embeddings = tmp_path / "e.csv"
    rows = [f"{i},{'s1' if i < 4 else 's2'},{i % 4 + 4 * (i >= 4)}.0,{i % 3}.0,pca" for i in range(8)]
    embeddings.write_text("trial_id,label,c1,c2,method\n" + "\n".join(rows) + "\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("trial_id,correct\n0,1\n1,1\n2,0\n")
    b.write_text("trial_id,correct\n0,0\n1,1\n2,1\n")
    inputs = {
        "classify": [["--embeddings", str(embeddings), "--folds", "2"]],
        # identical files, whose differences have no variance, are checked too
        "stats": [["--correct-a", str(a), "--correct-b", str(other)] for other in (b, a)],
    }[argv[0]]
    for files in inputs:
        assert main(argv + files + ["--out", str(tmp_path / "out.csv")]) == 2
        assert match in capsys.readouterr().err


def test_cli_stats_bad_trial_id_exits_3(tmp_path, capsys):
    good = tmp_path / "a.csv"
    good.write_text("trial_id,correct\n0,1\n1,0\n")
    bad = tmp_path / "b.csv"
    bad.write_text("trial_id,correct\n0,1\none,0\n")
    argv = ["stats", "--correct-a", str(good), "--correct-b", str(bad), "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 3
    assert "row 3" in capsys.readouterr().err


def test_cli_missing_file_exits_3(tmp_path, capsys):
    assert main(["classify", "--embeddings", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "r.csv")]) == 3
    header_only = tmp_path / "e.csv"
    header_only.write_text("trial_id,label,c1,c2,method\n")
    assert main(["classify", "--embeddings", str(header_only), "--out", str(tmp_path / "r.csv")]) == 3
    assert "no data rows" in capsys.readouterr().err


def _unreadable_input(tmp_path, case):
    """The argv of one command whose input named ``bad`` cannot be read as
    text: a byte 0xff where UTF-8 is required, or a directory."""
    bad = tmp_path / "bad"
    bad.write_bytes(b"trial_id,label\xff\n")
    out = ["--out", str(tmp_path / "out")]
    if case == "config":
        return ["run", "--config", str(bad), *out], bad
    if case == "protocol":
        config = small_config(tmp_path, protocol={"name": "custom", "custom_path": str(bad)})
        save_config(config, tmp_path / "config.json")
        return ["run", "--config", str(tmp_path / "config.json"), *out], bad
    if case == "responses":
        return ["embed", "--responses", str(bad), "--method", "graphon", *out], bad
    if case == "block-map":
        csv_path, _ = write_measured(tmp_path)
        return ["reproduce", "table", "--experimental-csv", str(csv_path), "--block-map", str(bad), *out], bad
    if case == "rc-correct":
        return _table_argv(tmp_path / "out", *write_measured(tmp_path), bad), bad
    if case == "edge-list":
        responses = tmp_path / "responses.csv"
        responses.write_text("trial_id,label,roi_0,roi_1,roi_2,roi_3\n0,s1,1,0,0,0\n")
        return ["embed", "--responses", str(responses), "--method", "gft", "--graph", str(bad), *out], bad
    if case == "responses-directory":
        return ["embed", "--responses", str(tmp_path), "--method", "graphon", *out], tmp_path
    return ["classify", "--embeddings", str(tmp_path), *out], tmp_path


@pytest.mark.parametrize(
    "case, code",
    [
        ("config", 2),
        ("protocol", 2),
        ("responses", 3),
        ("block-map", 3),
        ("rc-correct", 3),
        ("edge-list", 3),
        ("responses-directory", 3),
        ("embeddings-directory", 3),
    ],
)
def test_cli_unreadable_input_exits_with_an_error_naming_it(tmp_path, capsys, case, code):
    argv, path = _unreadable_input(tmp_path, case)
    assert main(argv) == code
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _write_embeddings(path, labels, coords):
    """A two-coordinate embeddings file; returns the classify argv that reads it."""
    rows = [f"{i},{lab},{c1},{c2},pca" for i, (lab, (c1, c2)) in enumerate(zip(labels, coords))]
    path.write_text("trial_id,label,c1,c2,method\n" + "\n".join(rows) + "\n")
    return ["classify", "--embeddings", str(path), "--out", str(path.parent / "report.csv"), "--resamples", "50"]


def _rows(cells):
    return "".join(f"{i % 7},s{1 + i // 4},{cells}pca\n" for i in range(8))  # ids 0..6, then 0


@pytest.mark.parametrize(
    "text, match",
    [
        ("trial_id,label,method\n" + _rows(""), "header must be"),
        ("trial_id,label,foo,method\n" + _rows("0.5,"), "header must be"),
        ("trial_id,label,c1,method\n" + _rows("0.5,"), "row 9: duplicate trial_id 0"),
    ],
    ids=["no-value-columns", "misnamed-column", "repeated-trial-id"],
)
def test_cli_classify_malformed_embeddings_exit_3(tmp_path, capsys, text, match):
    path = tmp_path / "e.csv"
    path.write_text(text)
    assert main(["classify", "--embeddings", str(path), "--out", str(tmp_path / "r.csv"), "--folds", "2"]) == 3
    assert match in capsys.readouterr().err


def test_cli_classify_short_class_exits_3(tmp_path, capsys):
    path = tmp_path / "e.csv"
    argv = _write_embeddings(path, ["s1"] * 4 + ["s2"] * 2, [[i, i % 2] for i in range(6)])
    assert main(argv + ["--folds", "3"]) == 3
    err = capsys.readouterr().err
    assert f"{path}: classes with fewer usable trials than 3 folds: {{'s2': 2}}" in err


def test_cli_classify_single_class_exits_3(tmp_path, capsys):
    path = tmp_path / "e.csv"
    argv = _write_embeddings(path, ["s1"] * 6, [[i, i % 2] for i in range(6)])
    assert main(argv + ["--folds", "2"]) == 3
    assert f"{path}: need at least two classes, got ['s1']" in capsys.readouterr().err


def test_cli_classify_singular_system_exits_2(tmp_path, capsys):
    # c2 = 2 c1: collinear coordinates leave the unpenalized normal equations singular
    path = tmp_path / "e.csv"
    argv = _write_embeddings(path, ["s1"] * 4 + ["s2"] * 4, [[i, 2.0 * i] for i in range(8)])
    assert main(argv + ["--folds", "2", "--lam", "0"]) == 2
    assert "lam > 0" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_cli_classify_non_finite_penalty_exits_2_without_a_report(tmp_path, capsys, lam):
    # such a penalty fits no model, and every trial would be given the first class
    path = tmp_path / "e.csv"
    argv = _write_embeddings(path, ["s1"] * 4 + ["s2"] * 4, [[i, i % 3] for i in range(8)])
    assert main(argv + ["--folds", "2", "--lam", lam]) == 2
    assert f"lam must be finite and nonnegative, got {lam}" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_cli_stats_on_one_paired_trial_exits_3(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("trial_id,correct\n5,1\n")
    b.write_text("trial_id,correct\n5,0\n")
    argv = ["stats", "--correct-a", str(a), "--correct-b", str(b), "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 3
    assert f"{a} and {b} pair on 1 trial id(s)" in capsys.readouterr().err


def test_cli_stage_pipeline(tmp_path):
    config_path = tmp_path / "config.json"
    cfg = small_config(tmp_path, "staged", classify={"enabled": False})
    save_config(cfg, config_path)
    assert main(["simulate", "--config", str(config_path)]) == 0
    responses = tmp_path / "staged" / "responses.csv"
    embeddings = tmp_path / "embedding.csv"
    assert (
        main(
            [
                "embed",
                "--responses",
                str(responses),
                "--method",
                "graphon",
                "--dims",
                "4",
                "--out",
                str(embeddings),
            ]
        )
        == 0
    )
    report = tmp_path / "report.csv"
    assert (
        main(
            [
                "classify",
                "--embeddings",
                str(embeddings),
                "--folds",
                "5",
                "--resamples",
                "200",
                "--out",
                str(report),
            ]
        )
        == 0
    )
    assert "accuracy," in report.read_text()


def test_cli_embed_reproduces_the_run_embeddings(tmp_path):
    config_path = tmp_path / "config.json"
    save_config(small_config(tmp_path, "run"), config_path)
    assert main(["run", "--config", str(config_path)]) == 0
    run = tmp_path / "run"
    for method in ("graphon", "gft", "pca"):
        out = tmp_path / f"{method}.csv"
        argv = ["embed", "--responses", str(run / "responses.csv"), "--method", method]
        argv += ["--graph", str(run / "graph.edges"), "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (run / f"embeddings_{method}.csv").read_bytes(), method
    argv = ["embed", "--responses", str(run / "responses.csv"), "--method", "pca", "--dims", "0"]
    assert main(argv + ["--out", str(tmp_path / "none.csv")]) == 2


def test_cli_table_with_a_short_measured_class_exits_3(tmp_path, capsys):
    # s3 keeps 5 trials, fewer than the table's 7 folds
    labels = ["s1"] * 7 + ["s2"] * 7 + ["s3"] * 5
    rows = [f"{i},{lab}," + ",".join(str(1 + (i + roi) % 3) for roi in range(8)) for i, lab in enumerate(labels)]
    csv_path = tmp_path / "measured.csv"
    csv_path.write_text("trial_id,label," + ",".join(f"roi_{i}" for i in range(8)) + "\n" + "\n".join(rows) + "\n")
    map_path = tmp_path / "blocks.csv"
    map_path.write_text("roi_index,block\n" + "".join(f"{i},{1 + i // 2}\n" for i in range(8)))
    argv = ["reproduce", "table", "--out", str(tmp_path / "table")]
    argv += ["--experimental-csv", str(csv_path), "--block-map", str(map_path)]
    assert main(argv) == 3
    assert "'s3': 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, match",
    [
        (["fig5", "--experimental-csv", "x.csv"], "reproduce fig5 reads no measured inputs"),
        (["fig8", "--rc-correct", "rc.csv"], "reproduce fig8 reads no measured inputs"),
        (["table", "--experimental-csv", "x.csv"], "must be given together"),
        (["table", "--block-map", "b.csv"], "must be given together"),
        (["table", "--rc-correct", "rc.csv"], "--rc-correct needs the measured trials"),
        (["fig5", "--seed", "-1"], "seed must be at least 0, got -1"),
    ],
)
def test_cli_reproduce_rejects_misused_measured_inputs(tmp_path, capsys, argv, match):
    # rejected before anything is simulated or written
    out = tmp_path / "never"
    assert main(["reproduce", *argv, "--out", str(out)]) == 2
    assert match in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("convention", ["blocksum", "orthonormal"])
def test_graphon_projection_defaults_to_four_equal_blocks(convention):
    rng = np.random.default_rng(5)

    def unit_rows(shape):
        rows = rng.random(shape)
        return Responses(rows / np.linalg.norm(rows, axis=1, keepdims=True), ("s1",) * shape[0], range(shape[0]))

    n = 3
    responses = unit_rows((6, 4 * n))
    default = project("graphon", responses, (1, 2, 3, 4), convention=convention)
    explicit = project("graphon", responses, (1, 2, 3, 4), block_membership(n), convention)
    assert default.coords.tobytes() == explicit.coords.tobytes()
    five = unit_rows((2, 5))
    with pytest.raises(ConfigError, match="5 units .* pass --block-map"):
        project("graphon", five, (1, 2, 3, 4), convention=convention)


def _table_argv(out, csv_path, map_path, rc_path):
    argv = ["reproduce", "table", "--out", str(out), "--experimental-csv", str(csv_path)]
    return argv + ["--block-map", str(map_path), "--rc-correct", str(rc_path)]


def test_cli_table_pairs_rc_correctness_by_trial_id(tmp_path):
    # measured rows out of trial-id order, and an rc file holding the kernel
    # decoder's own correctness: paired by id, every difference is 0
    csv_path, map_path = write_measured(tmp_path)
    header, *rows = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join([header, *rows[5:], *rows[:5]]) + "\n")
    responses, block_map = load_experimental_responses(csv_path, map_path)
    coords = project("graphon", responses, (1, 2, 3, 4), block_map=block_map).coords
    report = cross_validated_accuracy(responses.labels, coords, folds=7, resamples=10)
    assert 0 < report.accuracy < 1
    rc_path = tmp_path / "rc.csv"
    pairs = sorted(zip(responses.trial_ids, report.correct))
    rc_path.write_text("trial_id,correct\n" + "".join(f"{t},{int(c)}\n" for t, c in pairs))
    assert main(_table_argv(tmp_path / "table", csv_path, map_path, rc_path)) == 0
    table = (tmp_path / "table" / "table_accuracy.csv").read_text().splitlines()
    assert "paired_diff_rc_ci95,0.0|0.0" in table


def test_cli_table_rc_ids_must_match_the_measured_trials(tmp_path, capsys):
    csv_path, map_path = write_measured(tmp_path)  # trial ids 0..26
    rc_path = tmp_path / "rc.csv"
    rc_path.write_text("trial_id,correct\n" + "".join(f"{100 + i},{i % 2}\n" for i in range(27)))
    out = tmp_path / "table"
    assert main(_table_argv(out, csv_path, map_path, rc_path)) == 3
    assert f"trial id 0 is only in {csv_path} (54 unpaired ids)" in capsys.readouterr().err
    assert not out.exists()
    assert not (out / "table_accuracy.csv").exists()


def test_cli_table_repeated_measured_trial_id_exits_3(tmp_path, capsys):
    csv_path, map_path = write_measured(tmp_path)
    header, *rows = csv_path.read_text().splitlines()
    rows = ["0," + row.split(",", 1)[1] for row in rows]
    csv_path.write_text("\n".join([header, *rows]) + "\n")
    argv = ["reproduce", "table", "--out", str(tmp_path / "table")]
    assert main(argv + ["--experimental-csv", str(csv_path), "--block-map", str(map_path)]) == 3
    assert "row 3: duplicate trial_id 0" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["responses", "header", "block-map", "rc-correct"])
def test_cli_table_cell_longer_than_the_csv_limit_exits_3(tmp_path, capsys, where):
    # a 200,000-character cell, above csv's default limit of 131,072
    csv_path, map_path = write_measured(tmp_path)
    rc_path = tmp_path / "rc.csv"
    rc_path.write_text("trial_id,correct\n" + "".join(f"{i},{i % 2}\n" for i in range(27)))
    long = '"' + "1" * 200_000 + '"'
    path, row = {
        "responses": (csv_path, 4),
        "header": (csv_path, 1),
        "block-map": (map_path, 3),
        "rc-correct": (rc_path, 3),
    }[where]
    lines = path.read_text().splitlines()
    lines[row - 1] = long if row == 1 else lines[row - 1].rsplit(",", 1)[0] + "," + long
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "table"
    assert main(_table_argv(out, csv_path, map_path, rc_path)) == 3
    assert f"{path}: row {row}: field larger than field limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "table", "table-rc"])
def test_one_bootstrap_draw_serves_every_interval(tmp_path, monkeypatch, command):
    # run: one CI per method; table: graphon, PCA and graphon - PCA, and with
    # --rc-correct graphon - rc too
    calls = []
    real = classify.bootstrap_mean_ci

    def spy(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    for module in (classify, experiment):
        monkeypatch.setattr(module, "bootstrap_mean_ci", spy, raising=False)
    if command == "run":
        config_path = tmp_path / "config.json"
        save_config(small_config(tmp_path, "run"), config_path)
        assert main(["run", "--config", str(config_path)]) == 0
    else:
        csv_path, map_path = write_measured(tmp_path)
        rc_path = tmp_path / "rc.csv"
        rc_path.write_text("trial_id,correct\n" + "".join(f"{i},{i % 2}\n" for i in range(27)))
        argv = _table_argv(tmp_path / "table", csv_path, map_path, rc_path)
        assert main(argv if command == "table-rc" else argv[:-2]) == 0
    assert calls == [{"run": (3, 10), "table": (3, 27), "table-rc": (4, 27)}[command]]


def test_cli_stats_pairs_by_trial_id(tmp_path, capsys):
    a, b, c = (tmp_path / f"{name}.csv" for name in "abc")
    a.write_text("trial_id,correct\n0,1\n1,0\n2,1\n3,1\n")
    b.write_text("trial_id,correct\n3,0\n1,1\n0,1\n2,0\n")  # the same ids, reordered
    c.write_text("trial_id,correct\n10,1\n11,0\n12,1\n13,1\n")
    out = tmp_path / "stats.csv"
    argv = ["stats", "--out", str(out), "--resamples", "50", "--correct-a", str(a), "--correct-b"]
    assert main(argv + [str(b)]) == 0
    assert "mean_difference,0.25" in out.read_text().splitlines()
    assert main(argv + [str(c)]) == 3
    assert f"trial id 0 is only in {a} (8 unpaired ids)" in capsys.readouterr().err


def test_cli_gft_embed_needs_graph(tmp_path):
    config_path = tmp_path / "config.json"
    cfg = small_config(tmp_path, "gftstage", classify={"enabled": False}, trials_per_stimulus=2)
    save_config(cfg, config_path)
    main(["simulate", "--config", str(config_path)])
    responses = tmp_path / "gftstage" / "responses.csv"
    out = tmp_path / "e.csv"
    assert main(["embed", "--responses", str(responses), "--method", "gft", "--out", str(out)]) == 2
    graph = tmp_path / "gftstage" / "graph.edges"
    assert (
        main(
            ["embed", "--responses", str(responses), "--method", "gft", "--graph", str(graph), "--out", str(out)]
        )
        == 0
    )


def test_cli_gft_embed_with_a_bad_graph_header_exits_3(tmp_path, capsys):
    rows = [f"{i},{'s1' if i < 4 else 's2'}," + ",".join(str(1 + (i + roi) % 3) for roi in range(8)) for i in range(8)]
    csv_path = tmp_path / "responses.csv"
    csv_path.write_text("trial_id,label," + ",".join(f"roi_{i}" for i in range(8)) + "\n" + "\n".join(rows) + "\n")
    graph = tmp_path / "g.edges"
    graph.write_text("# nodes=8 garbage\n0 1\n")
    argv = ["embed", "--responses", str(csv_path), "--method", "gft", "--graph", str(graph)]
    assert main(argv + ["--out", str(tmp_path / "e.csv")]) == 3
    assert "bad header" in capsys.readouterr().err


def _write_responses(path, labels, rois=8):
    rows = [f"{i},{lab}," + ",".join(str(1 + (i + roi) % 3) for roi in range(rois)) for i, lab in enumerate(labels)]
    path.write_text("trial_id,label," + ",".join(f"roi_{i}" for i in range(rois)) + "\n" + "\n".join(rows) + "\n")
    return path


def test_cli_gft_embed_with_a_graph_of_another_size_exits_3(tmp_path, capsys):
    csv_path = _write_responses(tmp_path / "responses.csv", ["s1"] * 4 + ["s2"] * 4)
    graph = tmp_path / "g.edges"
    graph.write_text("# nodes=12\n0 1\n")
    argv = ["embed", "--responses", str(csv_path), "--method", "gft", "--graph", str(graph)]
    assert main(argv + ["--out", str(tmp_path / "e.csv")]) == 3
    assert f"{graph} has 12 nodes, {csv_path} has 8 columns" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("cell", ['"x,y"', '"x""y"', '"x|y"', '"x\ny"', '"x\ry"'], ids=_BAD_LABEL_IDS)
def test_cli_embed_label_that_breaks_a_row_exits_3(tmp_path, capsys, cell):
    # csv.reader reads such a label from a quoted cell; written back unquoted
    # it would break the embeddings row
    csv_path = _write_responses(tmp_path / "responses.csv", [cell] + ["s1"] * 3 + ["s2"] * 4)
    argv = ["embed", "--responses", str(csv_path), "--method", "pca", "--out", str(tmp_path / "e.csv")]
    assert main(argv) == 3
    assert "row 2: label" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize(
    "row, match",
    [
        ("1,s1,1,-1,1,1,1,1,1,1", "row 3: negative response value"),
        ("1,s1,0,0,0,0,0,0,0,0", "row 3: all-zero response"),
    ],
    ids=["negative", "all-zero"],
)
def test_cli_embed_bad_response_row_exits_3(tmp_path, capsys, row, match):
    csv_path = _write_responses(tmp_path / "responses.csv", ["s1"] * 4 + ["s2"] * 4)
    lines = csv_path.read_text().splitlines(keepends=True)
    lines[2] = row + "\n"
    csv_path.write_text("".join(lines))
    argv = ["embed", "--responses", str(csv_path), "--method", "pca", "--out", str(tmp_path / "e.csv")]
    assert main(argv) == 3
    assert match in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


def _int_field_argv(tmp_path, field, text):
    """The argv of a command whose input holds ``text`` in one integer
    field, at row 3 of a CSV or line 3 (line 1 for a header field) of an
    edge list, and the fault its error must name."""
    responses = _write_responses(tmp_path / "responses.csv", ["s1"] * 4 + ["s2"] * 4)
    out = ["--out", str(tmp_path / "out.csv")]
    embed = ["embed", "--responses", str(responses)] + out
    path = tmp_path / "input"
    if field == "responses-trial-id":
        lines = responses.read_text().splitlines(keepends=True)
        lines[2] = text + lines[2][1:]
        responses.write_text("".join(lines))
        return embed + ["--method", "pca"], "row 3: bad trial_id"
    if field == "embeddings-trial-id":
        argv = _write_embeddings(path, ["s1"] * 4 + ["s2"] * 4, [[i, i % 3] for i in range(8)])
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = text + lines[2][1:]
        path.write_text("".join(lines))
        return argv + ["--folds", "2"], "row 3: bad trial_id"
    if field in ("roi-index", "block"):
        rows = [[str(i), str(1 + i // 2)] for i in range(8)]
        rows[1][field == "block"] = text
        path.write_text("roi_index,block\n" + "".join(",".join(r) + "\n" for r in rows))
        where = "row 3: bad row" if field == "block" else "row 3: bad roi_index"
        return embed + ["--method", "graphon", "--block-map", str(path)], where
    if field == "correct-trial-id":
        good = tmp_path / "good.csv"
        good.write_text("trial_id,correct\n0,1\n1,0\n")
        path.write_text(f"trial_id,correct\n0,1\n{text},0\n")
        return ["stats", "--correct-a", str(good), "--correct-b", str(path)] + out, "row 3: bad trial_id"
    header, edge = {"nodes": (f"# nodes={text}", "2 3"), "seed": (f"# nodes=8 seed={text}", "2 3")}.get(
        field, ("# nodes=8 alpha=none seed=none", f"{text} 3")
    )
    path.write_text(f"{header}\n0 1\n{edge}\n")
    where = "line 3: expected 'u v'" if field == "edge-node" else "line 1: bad header"
    return embed + ["--method", "gft", "--graph", str(path)], where


_CSV_INT_FIELDS = ["responses-trial-id", "embeddings-trial-id", "roi-index", "block", "correct-trial-id"]
# Python's int() reads each of these texts; an edge list splits on
# whitespace, so a space-padded token is a plain integer there
_BAD_INTS = {"underscore": "1_0", "arabic-indic": "\u0661", "plus": "+1", "space": " 1"}
_BAD_INT_CASES = [
    pytest.param(field, text, id=f"{field}-{name}")
    for field in _CSV_INT_FIELDS + ["edge-node", "nodes", "seed"]
    for name, text in _BAD_INTS.items()
    if name != "space" or field in _CSV_INT_FIELDS
]


@pytest.mark.parametrize("field, text", _BAD_INT_CASES)
def test_cli_integer_fields_take_only_ascii_digits(tmp_path, capsys, field, text):
    argv, where = _int_field_argv(tmp_path, field, text)
    assert main(argv) == 3
    assert where in capsys.readouterr().err


def test_cli_embed_needs_a_block_map_only_for_graphon(tmp_path, capsys):
    # five ROIs do not split into four equal blocks, which only the graphon method needs
    rows = [f"{i},{'s1' if i < 4 else 's2'}," + ",".join(str(1 + (i * roi) % 4) for roi in range(5)) for i in range(8)]
    csv_path = tmp_path / "five_rois.csv"
    csv_path.write_text("trial_id,label," + ",".join(f"roi_{i}" for i in range(5)) + "\n" + "\n".join(rows) + "\n")
    argv = ["embed", "--responses", str(csv_path), "--out", str(tmp_path / "e.csv"), "--method"]
    assert main(argv + ["pca"]) == 0
    assert main(argv + ["pca", "--dims", "6"]) == 2
    assert main(argv + ["graphon"]) == 2
    assert "pass --block-map" in capsys.readouterr().err


def test_cli_stats_round_trip(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rng = np.random.default_rng(0)
    rows_a = (rng.random(40) < 0.8).astype(int)
    rows_b = (rng.random(40) < 0.6).astype(int)
    a.write_text("trial_id,correct\n" + "\n".join(f"{i},{v}" for i, v in enumerate(rows_a)) + "\n")
    b.write_text("trial_id,correct\n" + "\n".join(f"{i},{v}" for i, v in enumerate(rows_b)) + "\n")
    out = tmp_path / "stats.csv"
    assert main(["stats", "--correct-a", str(a), "--correct-b", str(b), "--out", str(out), "--resamples", "500"]) == 0
    assert "effect_size," in out.read_text()


def test_cli_seed_override_changes_graph(tmp_path):
    config_path = tmp_path / "config.json"
    cfg = small_config(tmp_path, "seeded", classify={"enabled": False}, trials_per_stimulus=2)
    save_config(cfg, config_path)
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "s1"), "--seed", "1"])
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "s2"), "--seed", "2"])
    g1 = (tmp_path / "s1" / "graph.edges").read_text()
    g2 = (tmp_path / "s2" / "graph.edges").read_text()
    assert g1 != g2



def _check_csv_cells(path):
    """Every row after the '#' lines has the header's cell count, and every
    float cell, or float in a '|'-joined cell, is the repr of its value."""
    header, *rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    width = len(header.split(","))
    for row_no, row in enumerate(rows, start=2):
        cells = row.split(",")
        assert len(cells) == width, (path, row_no)
        for text in (part for cell in cells for part in cell.split("|")):
            try:
                int(text)
                continue
            except ValueError:
                pass
            try:
                value = float(text)
            except ValueError:
                continue
            assert repr(value) == text, (path, row_no, text)


def test_every_csv_artifact_has_full_rows_and_repr_floats(tmp_path):
    config_path = tmp_path / "config.json"
    save_config(small_config(tmp_path, "run"), config_path)
    assert main(["run", "--config", str(config_path), "--dump-rasters"]) == 0
    outs = [tmp_path / "run"]
    for figure in ("fig5", "fig6", "fig8", "table"):
        outs.append(tmp_path / figure)
        assert main(["reproduce", figure, "--seed", "3", "--out", str(outs[-1])]) in (0, 4)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("trial_id,correct\n" + "".join(f"{i},{int(i % 3 > 0)}\n" for i in range(12)))
    b.write_text("trial_id,correct\n" + "".join(f"{i},{int(i % 4 > 0)}\n" for i in range(12)))
    stats = tmp_path / "stats.csv"
    assert main(["stats", "--correct-a", str(a), "--correct-b", str(b), "--out", str(stats), "--resamples", "50"]) == 0
    paths = [stats]
    for out in outs:
        names = json.loads((out / "manifest.json").read_text())["files"]
        paths += [out / name for name in names if name.endswith(".csv")]
    assert len(paths) == 37  # rasters, graph, tables, reports and summaries
    for path in paths:
        _check_csv_cells(path)


def test_readme_library_example_runs():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    assert namespace["coords"].shape == (2, 3)


def test_console_script_resolves_to_the_cli_main():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["graphon-decode"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main

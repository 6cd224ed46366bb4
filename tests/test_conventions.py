"""Rules the whole package keeps: its API is its modules, types that hold
arrays compare by identity, every count and seed is held to one integer rule,
and the test settings let a failing property test report itself."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphon_decode
from graphon_decode.classify import EvalReport, RidgeModel, bootstrap_mean_ci, stratified_folds
from graphon_decode.embedding import EmbeddingSet, PcaModel, pca_fit
from graphon_decode.errors import ParameterError
from graphon_decode.experiment import (
    ClassifySection,
    ExperimentConfig,
    IoSection,
    map_indices,
    reproduce,
    run_experiment,
    run_protocol_trials,
    sample_graph,
    trial_invariance_experiment,
)
from graphon_decode.lif import SpikeRaster, TrialTrace, noise_events, run_trials
from graphon_decode.protocols import Responses, mixed_cluster_protocol, two_cluster_protocol
from graphon_decode.sbm import AdjacencyMatrix, SbmConfig, SpectralDecomposition, _rng, block_membership

MODULES = ["classify", "embedding", "errors", "experiment", "graphon", "lif", "protocols", "sbm"]


def test_package_namespace_holds_only_its_modules():
    # a fresh interpreter, because other tests in this run import cli, which
    # would add itself to the package namespace
    src = str(Path(graphon_decode.__file__).resolve().parents[1])
    code = "import graphon_decode as g; print(' '.join(sorted(n for n in vars(g) if not n.startswith('_'))))"
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert run.stdout.split() == MODULES


# each builds a fresh instance with equal arrays, each of two or more entries,
# which a value comparison could not turn into one truth value
ARRAY_HOLDERS = {
    "AdjacencyMatrix": lambda: AdjacencyMatrix([[0, 1], [1, 0]]),
    "SpectralDecomposition": lambda: SpectralDecomposition(np.ones(2), np.eye(2)),
    "TrialTrace": lambda: TrialTrace(np.arange(2.0), np.zeros(2), np.zeros(2), np.ones(2)),
    "SpikeRaster": lambda: SpikeRaster(times=[1.0, 2.0], offsets=[0, 2], duration=3.0, seed=0),
    "Responses": lambda: Responses(values=[[1.0, 0.0]], labels=("s1",), trial_ids=(0,)),
    "EmbeddingSet": lambda: EmbeddingSet("pca", [[0.0, 1.0]], ("s1",), (0,)),
    "PcaModel": lambda: PcaModel(np.zeros(2), np.eye(2), np.ones(2), np.zeros((3, 2))),
    "RidgeModel": lambda: RidgeModel(np.zeros((2, 2)), np.zeros(2), ("s1", "s2")),
    "EvalReport": lambda: EvalReport(np.array([True, False]), np.array([[1, 0], [1, 0]]), ("s1", "s2"), (0.0, 1.0)),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holding_types_compare_by_identity(build):
    a, b = build(), build()
    assert "__eq__" not in vars(type(a))
    assert a == a
    assert (a == b) is False and (a != b) is True


def _tiny(out):
    """A two-stimulus experiment on 12 neurons that writes into ``out``."""
    return ExperimentConfig(
        sbm=SbmConfig(n=3), trials_per_stimulus=2,
        classify=ClassifySection(enabled=False), io=IoSection(out_dir=str(out)),
    )


# every count and seed a library function or record takes, less the config
# fields, AdjacencyMatrix.seed and derive_seed's keys, whose own tables are in
# test_experiment.py and test_sbm.py: the name its error gives it, the least
# value it takes, and a call that passes it a value (``out`` is a directory
# the call would write into)
INTEGER_SETTINGS = {
    "_rng": ("seed", 0, lambda v, out: _rng(v)),
    "block_membership": ("n", 1, lambda v, out: block_membership(v)),
    "two_cluster_protocol": ("n", 1, lambda v, out: two_cluster_protocol(v)),
    "mixed_cluster_protocol": ("n", 3, lambda v, out: mixed_cluster_protocol(v)),
    "stratified_folds.folds": ("folds", 2, lambda v, out: stratified_folds(["a", "b"] * 4, v)),
    "stratified_folds.seed": ("seed", 0, lambda v, out: stratified_folds(["a", "b"] * 4, 2, v)),
    "bootstrap_mean_ci.resamples": ("resamples", 1, lambda v, out: bootstrap_mean_ci([0.0, 1.0], v)),
    "bootstrap_mean_ci.seed": ("seed", 0, lambda v, out: bootstrap_mean_ci([0.0, 1.0], 10, v)),
    "pca_fit": ("dims", 1, lambda v, out: pca_fit(np.random.default_rng(0).random((6, 5)), v)),
    "run_protocol_trials": (
        "jobs", 1, lambda v, out: run_protocol_trials(sample_graph(SbmConfig(n=3)), _tiny(out), jobs=v)
    ),
    "run_experiment": ("jobs", 1, lambda v, out: run_experiment(_tiny(out), jobs=v)),
    "reproduce.jobs": ("jobs", 1, lambda v, out: reproduce("fig5", out, jobs=v)),
    "reproduce.seed": ("seed", 0, lambda v, out: reproduce("fig5", out, seed=v)),
    "map_indices": ("dimensions", 1, lambda v, out: map_indices(v)),
    "trial_invariance_experiment": ("realizations", 2, lambda v, out: trial_invariance_experiment(_tiny(out), v)),
    "noise_events": ("seed", 0, lambda v, out: noise_events(v, np.ones(2), 10)),
    "run_trials": ("seed", 0, lambda v, out: run_trials(AdjacencyMatrix([[0, 1], [1, 0]]), [()], [v])),
    "SpikeRaster.seed": ("seed", 0, lambda v, out: SpikeRaster(times=[1.0], offsets=[0, 1], duration=3.0, seed=v)),
}


@pytest.mark.parametrize("value", [True, 2.5, "3", "least - 1"])
@pytest.mark.parametrize("setting", INTEGER_SETTINGS)
def test_every_count_and_seed_refuses_what_is_not_an_integer_at_its_bound(tmp_path, setting, value):
    # True once counted as 1, and 2.5 or "3" failed deep inside numpy, if at all
    where, least, call = INTEGER_SETTINGS[setting]
    if value == "least - 1":
        value, words = least - 1, f"must be at least {least}"
    else:
        words = "must not be a boolean" if value is True else "must be an integer"
    out = tmp_path / "never"
    with pytest.raises(ParameterError, match=f"^{re.escape(f'{where} {words}, got {value!r}')}$"):
        call(value, out)
    assert not out.exists()


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(x):
    assert x != x
"""


def test_a_failing_property_test_reports_its_example(tmp_path):
    # on a failure hypothesis imports libcst to write a patch; under the
    # settings' "error" filter a warning on that import once ended the run in
    # an INTERNALERROR that printed neither the assertion nor the example
    test_file = tmp_path / "test_failing_property.py"
    test_file.write_text(FAILING_PROPERTY)
    settings = Path(__file__).resolve().parents[1] / "pyproject.toml"
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(settings)]
    run = subprocess.run(
        [*command, "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output

"""Rules the whole package keeps: types that hold arrays compare by
identity, and the test settings let a failing property test report itself."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphon_decode.classify import EvalReport, RidgeModel
from graphon_decode.embedding import EmbeddingSet, PcaModel
from graphon_decode.experiment import Bases
from graphon_decode.lif import SpikeRaster, TrialTrace
from graphon_decode.protocols import Responses
from graphon_decode.sbm import AdjacencyMatrix, SpectralDecomposition

# each builds a fresh instance with equal arrays, each of two or more entries,
# which a value comparison could not turn into one truth value
ARRAY_HOLDERS = {
    "AdjacencyMatrix": lambda: AdjacencyMatrix([[0, 1], [1, 0]]),
    "SpectralDecomposition": lambda: SpectralDecomposition(np.ones(2), np.eye(2)),
    "TrialTrace": lambda: TrialTrace(np.arange(2.0), np.zeros(2), np.zeros(2), np.ones(2)),
    "SpikeRaster": lambda: SpikeRaster(times=[1.0, 2.0], offsets=[0, 2], duration=3.0, seed=0),
    "Responses": lambda: Responses(values=[[1.0, 0.0]], labels=("s1",), trial_ids=(0,)),
    "EmbeddingSet": lambda: EmbeddingSet("pca", [[0.0, 1.0]], ("s1",), (0,)),
    "PcaModel": lambda: PcaModel(np.zeros(2), np.eye(2), np.ones(2)),
    "RidgeModel": lambda: RidgeModel(np.zeros((2, 2)), np.zeros(2), ("s1", "s2")),
    "EvalReport": lambda: EvalReport(np.array([True, False]), np.array([[1, 0], [1, 0]]), ("s1", "s2"), (0.0, 1.0)),
    "Bases": lambda: Bases(block_map=np.array([1, 2, 3, 4])),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holding_types_compare_by_identity(build):
    a, b = build(), build()
    assert "__eq__" not in vars(type(a))
    assert a == a
    assert (a == b) is False and (a != b) is True


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

"""The benchmark tracer (bench/spans.py) finds its functions by module and
name.  A traced module that `import graphon_decode` no longer loads makes
`Tracer.install` raise KeyError; a renamed function makes its per-layer
metric read 0 without any error.  These tests catch both from the package
side; they read bench/spans.py and change nothing under bench/."""

import importlib
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import graphon_decode

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402
from test_experiment import write_measured  # noqa: E402


# the span names layer_metrics reads besides those of SELF_GROUPS
LAYER_SPAN_NAMES = (
    "lif.run_trial",
    "protocols.extract_response",
    "classify.ridge_fit",
    "experiment.run_protocol_trials",
    "experiment.write_manifest",
)


def assert_public_function(name, where):
    short, attr = name.split(".")
    assert short in spans.TRACED_MODULES, f"{where}: {name}"
    module = importlib.import_module(f"{spans.PACKAGE}.{short}")
    value = getattr(module, attr, None)
    assert not attr.startswith("_") and inspect.isfunction(value), f"{where}: {name}"
    assert value.__module__ == module.__name__, f"{where}: {name} is imported, not defined"


def test_package_import_loads_every_traced_module():
    # a fresh interpreter, because other tests in this run import submodules directly
    src = str(Path(graphon_decode.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = f"import sys, {spans.PACKAGE}; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    missing = [m for m in spans.TRACED_MODULES if f"{spans.PACKAGE}.{m}" not in loaded]
    assert not missing


def test_every_self_group_name_is_a_public_function_of_its_module():
    for metric, names in spans.SELF_GROUPS.items():
        for name in names:
            assert_public_function(name, metric)


def test_every_span_name_layer_metrics_reads_is_a_public_function_of_its_module():
    source = inspect.getsource(spans.layer_metrics)
    for name in LAYER_SPAN_NAMES:
        assert f'"{name}"' in source, f"layer_metrics no longer reads {name}; update this list"
        assert_public_function(name, "layer_metrics")


def test_table_files_are_read_and_written_without_child_spans(tmp_path):
    # protocols.write_s and embedding.write_s are these functions' self time,
    # so the table helpers they share must stay untraced (private)
    from graphon_decode import embedding, protocols

    responses = protocols.Responses(values=[[0.6, 0.8]], labels=("s1",), trial_ids=(0,))
    es = embedding.EmbeddingSet(method="pca", coords=[[1.0, 2.0]], labels=("s1",), trial_ids=(0,))

    def op():
        protocols.write_responses_csv([[3, 4]], responses.labels, responses.trial_ids, tmp_path / "responses.csv")
        embedding.write_embeddings_csv(es, tmp_path / "embeddings.csv")
        embedding.read_embeddings_csv(tmp_path / "embeddings.csv")

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_op(op)
    finally:
        tracer.uninstall()
    recorded = [(s.name, s.parent) for s in tracer.op_spans(tracer.op)]
    assert recorded == [
        (spans.ROOT, None),
        ("protocols.write_responses_csv", 0),
        ("embedding.write_embeddings_csv", 0),
        ("embedding.read_embeddings_csv", 0),
    ]


def test_measured_table_fits_pca_and_ridge_once_per_fold(tmp_path):
    # embedding.pca_s and classify.ridge_fits read these spans: 7 folds, each
    # fitting PCA once and a ridge model for graphon and for PCA, while the
    # fixed graphon basis projects every trial once, not once per fold
    from graphon_decode.cli import main

    csv_path, map_path = write_measured(tmp_path)
    argv = ["reproduce", "table", "--out", str(tmp_path / "table")]
    argv += ["--experimental-csv", str(csv_path), "--block-map", str(map_path)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.run_op(main, argv) == 0
    finally:
        tracer.uninstall()
    calls = Counter(s.name for s in tracer.op_spans(tracer.op))
    assert calls["embedding.pca_fit"] == 7
    assert calls["classify.ridge_fit"] == 14
    assert calls["embedding.graphon_project"] == 1

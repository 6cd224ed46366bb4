"""Self-time arithmetic and the tail-percentile rule of bench/spans.py.

Run with: python3 -m pytest bench/tests
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402
from spans import Span, Tracer, covered, layer_metrics, percentile, self_times, tail_percentile  # noqa: E402


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(6.0, 8.0), (1.0, 2.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(-5.0, 2.0), (9.0, 20.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(2.0, 4.0), (2.5, 3.0)], 0.0, 10.0) == pytest.approx(2.0)


def test_self_time_is_duration_minus_children():
    tree = [
        Span("op", 0.0, 10.0),
        Span("experiment.run_experiment", 1.0, 9.0, parent=0),
        Span("sbm.eigendecompose", 2.0, 3.0, parent=1),
        Span("lif.run_trial", 4.0, 8.0, parent=1),
        Span("lif.scaling_factors", 4.0, 4.5, parent=3),
    ]
    assert self_times(tree) == pytest.approx([2.0, 3.0, 1.0, 3.5, 0.5])
    assert sum(self_times(tree)) == pytest.approx(tree[0].duration)


def _op(*children):
    """Root span over [0, 10] with the given (name, start, end) children."""
    return [Span("op", 0.0, 10.0)] + [Span(n, a, b, parent=0) for n, a, b in children]


def test_module_self_times_add_up_to_the_op_wall():
    ops = _op(("sbm.eigendecompose", 1.0, 2.0), ("classify.bootstrap_mean_ci", 3.0, 7.0))
    metrics = layer_metrics(ops)
    assert metrics["sbm.eigh_s"] == pytest.approx(1.0)
    assert metrics["classify.bootstrap_s"] == pytest.approx(4.0)
    # five seconds outside any traced function (CLI parsing) go to experiment
    assert metrics["experiment.self_s"] == pytest.approx(5.0)
    total = sum(metrics[f"{m}.self_s"] for m in spans.TRACED_MODULES)
    assert total == pytest.approx(metrics["op.wall_s"]) == pytest.approx(10.0)


def test_layer_metrics_rejects_spans_without_a_root():
    with pytest.raises(ValueError):
        layer_metrics([Span("sbm.eigendecompose", 0.0, 1.0)])


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        values = list(range(n))
        beyond = [v for v in values if v > percentile(values, expected)]
        assert len(beyond) >= 10


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 90.0) == 5.0
    assert percentile(list(range(1, 101)), 90.0) == 90


def _fake_package(monkeypatch):
    """A two-module stand-in for graphon_decode: `sbm` defines a function
    and `experiment` imports it by name."""
    package = types.ModuleType("graphon_decode")
    sbm = types.ModuleType("graphon_decode.sbm")
    exec("def eigendecompose(x):\n    return x * 2\n", sbm.__dict__)
    sbm.eigendecompose.__module__ = "graphon_decode.sbm"
    experiment = types.ModuleType("graphon_decode.experiment")
    experiment.eigendecompose = sbm.eigendecompose
    exec("def run(x):\n    return eigendecompose(x) + 1\n", experiment.__dict__)
    experiment.run.__module__ = "graphon_decode.experiment"
    modules = {"graphon_decode": package, "graphon_decode.sbm": sbm,
               "graphon_decode.experiment": experiment}
    for short in spans.TRACED_MODULES:
        modules.setdefault(f"graphon_decode.{short}", types.ModuleType(f"graphon_decode.{short}"))
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    return sbm, experiment


def test_tracer_wraps_imported_names_and_restores_them(monkeypatch):
    sbm, experiment = _fake_package(monkeypatch)
    original = sbm.eigendecompose
    tracer = Tracer()
    tracer.install()
    try:
        assert experiment.eigendecompose is not original
        assert experiment.run(3) == 7  # outside an op: no spans
        assert tracer.spans == []
        assert tracer.run_op(experiment.run, 3) == 7
    finally:
        tracer.uninstall()
    assert sbm.eigendecompose is original and experiment.eigendecompose is original
    op = tracer.op_spans(1)
    assert [s.name for s in op] == ["op", "experiment.run", "sbm.eigendecompose"]
    assert [s.parent for s in op] == [None, 0, 1]

"""Pipeline benchmark for graphon-decode.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's `graphon-decode` command in-process, through
`graphon_decode.cli.main`, repeatedly for about S seconds, checks every
operation's outputs, and prints a human-readable report followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (tracing off); with --trace 1 they are the
per-layer ones, taken from spans that bench/spans.py records around the
public functions of the package.  `--workload all` runs every workload in
its own interpreter and prints all of their end-to-end metrics.

The program is imported from the src/ directory next to this one; the exit
code is 0 only when every check passed.  Inputs and outputs live under
.bench_build/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

sys.path.insert(0, str(BENCH_DIR))
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# Floors on the graphon method's cross-validated accuracy.  Measured values
# sit near 1.0 (two-cluster run) and 0.92 (generated measured matrix); a drop
# below these means the pipeline decodes something else, whatever its speed.
ACCURACY_FLOOR = {"run_default": 0.9, "decode_measured": 0.85}
SUM_TOLERANCE_S = 1e-6


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import graphon_decode from this checkout's src/, never from elsewhere."""
    if not (SRC / "graphon_decode" / "__init__.py").is_file():
        fail_setup(f"no graphon_decode package under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphon_decode
    from graphon_decode import cli, experiment

    if Path(graphon_decode.__file__).resolve().parent != (SRC / "graphon_decode").resolve():
        fail_setup(f"graphon_decode was imported from {graphon_decode.__file__}, not {SRC}")
    return graphon_decode, cli, experiment


# ---------------------------------------------------------------------------
# machine record


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    thread_vars = (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# one operation


@dataclass
class OpResult:
    wall_s: float
    traced: bool
    jobs: int
    errors: list[str] = field(default_factory=list)
    manifest_sha256: str | None = None
    artifact_bytes: int = 0
    accuracy: float | None = None
    op_id: int | None = None

    @property
    def ok(self) -> bool:
        return not self.errors


def _report_value(path: Path, key: str) -> float | None:
    for line in path.read_text().splitlines():
        name, _, value = line.partition(",")
        if name == key:
            return float(value)
    return None


def graphon_accuracy(workload: workloads.Workload) -> float | None:
    if workload.name == "run_default":
        return _report_value(workload.out_dir / "report_graphon.csv", "accuracy")
    if workload.name == "decode_measured":
        return _report_value(workload.out_dir / "table_accuracy.csv", "accuracy_graphon")
    return None


def run_op(program, workload: workloads.Workload, tracer: spans.Tracer | None = None) -> OpResult:
    """One timed call of the CLI on a clean output directory, then its checks."""
    _, cli, experiment = program
    shutil.rmtree(workload.out_dir, ignore_errors=True)
    gc.collect()
    captured = io.StringIO()
    rc, crash = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            if tracer is None:
                rc = cli.main(list(workload.argv))
            else:
                rc = tracer.run_op(cli.main, list(workload.argv))
    except Exception:  # an op that raises is a failed op, not a benchmark crash
        crash = traceback.format_exc(limit=5)
    wall = time.perf_counter() - start
    result = OpResult(wall, tracer is not None, workload.jobs, op_id=tracer.op if tracer else None)
    if crash is not None:
        result.errors.append(f"raised:\n{crash}")
        return result
    if rc != 0:
        result.errors.append(f"exit code {rc}: {captured.getvalue().strip()[-400:]}")
        return result
    manifest = workload.out_dir / "manifest.json"
    if not manifest.is_file():
        result.errors.append("no manifest.json written")
        return result
    bad = experiment.verify_manifest(workload.out_dir)
    if bad:
        result.errors.append(f"verify_manifest: files changed or missing: {bad}")
    result.manifest_sha256 = hashlib.sha256(manifest.read_bytes()).hexdigest()
    result.artifact_bytes = sum(p.stat().st_size for p in workload.out_dir.rglob("*") if p.is_file())
    if workload.classifies:
        result.accuracy = graphon_accuracy(workload)
        floor = ACCURACY_FLOOR[workload.name]
        if result.accuracy is None or not result.accuracy >= floor:
            result.errors.append(f"graphon accuracy {result.accuracy} below floor {floor}")
    return result


def check_same_outputs(ops: list[OpResult]) -> None:
    """Every op of a run hashes to the same manifest (jobs included)."""
    reference = next((op.manifest_sha256 for op in ops if op.manifest_sha256), None)
    for op in ops:
        if op.manifest_sha256 and op.manifest_sha256 != reference:
            op.errors.append(
                f"manifest {op.manifest_sha256[:12]} (jobs={op.jobs}) differs from "
                f"the run's first op {reference[:12]}"
            )


def warm_up() -> None:
    """Pay OpenBLAS start-up before timing; set-up cost is its own metric."""
    from graphon_decode.sbm import SbmConfig, eigendecompose, sample_adjacency

    eigendecompose(sample_adjacency(SbmConfig(alpha=0.05, n=100, seed=0)))


# ---------------------------------------------------------------------------
# end-to-end run (tracing off)


def setup_seconds(seed: int) -> tuple[list[float], list[str]]:
    samples, errors = [], []
    for k in range(SETUP_PROBES):
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(seed + k)],
                cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            errors.append(f"setup probe {k} timed out")
            continue
        if proc.returncode != 0:
            errors.append(f"setup probe {k} exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(probe["module"]).resolve().parent != (SRC / "graphon_decode").resolve():
            errors.append(f"setup probe imported {probe['module']}")
            continue
        samples.append(probe["import_s"] + probe["eigh_s"])
    return samples, errors


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (a pool worker);
    ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def repeat_for(seconds: float, step) -> list:
    """Call ``step`` at least once, and again while the next call, predicted
    to last as long as the previous one, ends within ``seconds``."""
    results, start = [], time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return results


def end_to_end(program, name: str, seed: int, seconds: float, work: Path) -> dict:
    workload = workloads.prepare(name, seed, work)
    warm_up()
    ops = repeat_for(seconds, lambda: run_op(program, workload))
    rss = peak_rss_mb()  # read before the set-up probes add children of their own
    check_same_outputs(ops)
    setup, setup_errors = setup_seconds(seed)
    good = [op for op in ops if op.ok]
    walls = [op.wall_s for op in good]
    metrics = {
        "wall_s": statistics.median(walls) if walls else None,
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": rss,
        "artifact_mb": statistics.median(op.artifact_bytes for op in good) / 1e6 if good else None,
    }
    accuracies = [op.accuracy for op in good if op.accuracy is not None]
    return {
        "ops": ops,
        "metrics": metrics,
        "extra": {
            "accuracy": statistics.median(accuracies) if accuracies else None,
            "wall_samples": walls,
            "setup_samples": setup,
        },
        "errors": setup_errors,
    }


# ---------------------------------------------------------------------------
# traced run


def _traced(program, workload, tracer) -> OpResult:
    tracer.install()
    try:
        return run_op(program, workload, tracer)
    finally:
        tracer.uninstall()


def check_self_sum(op: OpResult, per_op: dict) -> None:
    """Module self times, CLI parsing included, must add up to the op's wall."""
    total = sum(per_op[f"{m}.self_s"] for m in spans.TRACED_MODULES)
    if abs(total - per_op["op.wall_s"]) > SUM_TOLERANCE_S:
        op.errors.append(f"self times sum to {total} s, op wall is {per_op['op.wall_s']} s")


def traced(program, name: str, seed: int, seconds: float, work: Path) -> dict:
    """Alternate traced and untraced jobs=1 ops, so every trial runs where the
    wrappers see it.  run_default then traces one pooled op, whose trials run
    in workers, for the pool metrics."""
    tracer = spans.Tracer()
    workload = workloads.prepare(name, seed, work)
    warm_up()
    pairs = repeat_for(
        seconds, lambda: (_traced(program, workload, tracer), run_op(program, workload))
    )
    ops = [op for pair in pairs for op in pair]
    pool_jobs = min(workloads.POOL_JOBS, len(os.sched_getaffinity(0)))
    pooled = None
    if name == "run_default" and pool_jobs > 1:
        pooled = _traced(program, workloads.prepare(name, seed, work, jobs=pool_jobs), tracer)
        ops.append(pooled)
    check_same_outputs(ops)

    per_op = {}
    for op in ops:
        if op.traced:
            per_op[op.op_id] = spans.layer_metrics(tracer.op_spans(op.op_id))
            check_self_sum(op, per_op[op.op_id])
    good_pairs = [(t, u) for t, u in pairs if t.ok and u.ok]
    if not good_pairs:
        return {"ops": ops, "metrics": {}, "errors": [], "traced_ops": 0}
    layer = [per_op[t.op_id] for t, _ in good_pairs]
    metrics = {key: statistics.median(m[key] for m in layer) for key in layer[0]}
    # percentiles over every traced trial of the run, not per op
    trial_ms = [
        1e3 * s.duration for t, _ in good_pairs
        for s in tracer.op_spans(t.op_id) if s.name == "lif.run_trial"
    ]
    tail = spans.tail_percentile(len(trial_ms))
    metrics["lif.trial_ms_p50"] = spans.percentile(trial_ms, 50.0) if trial_ms else 0.0
    metrics["lif.trial_ms_tail"] = spans.percentile(trial_ms, tail) if tail else 0.0
    metrics["lif.trial_tail_pct"] = tail or 0.0
    metrics["trace.overhead_s"] = (
        statistics.median(t.wall_s for t, _ in good_pairs)
        - statistics.median(u.wall_s for _, u in good_pairs)
    )
    jobs, trials_wall = 1, metrics["experiment.trials_wall_s"]
    if pooled is not None and pooled.ok:
        jobs, trials_wall = pooled.jobs, per_op[pooled.op_id]["experiment.trials_wall_s"]
    metrics["experiment.pool_efficiency"] = (
        metrics["lif.busy_s"] / (jobs * trials_wall) if trials_wall > 0 else 0.0
    )
    return {"ops": ops, "metrics": metrics, "errors": [], "traced_ops": len(layer)}


# ---------------------------------------------------------------------------
# reporting


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report(name, seed, trace, machine, outcome, spec) -> dict:
    ops = outcome["ops"]
    failed = sum(not op.ok for op in ops)
    errors = list(outcome["errors"])
    for k, op in enumerate(ops):
        errors += [f"op {k} (jobs={op.jobs}, traced={op.traced}): {e}" for e in op.errors]
    print(f"workload {name} seed {seed} trace {trace}: {workloads.WHY[name]}")
    print("machine " + json.dumps(machine, sort_keys=True))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        key, unit = entry["name"], entry["unit"]
        value = outcome["metrics"].get(key)
        metrics[key] = {"value": value, "unit": unit}
        print(f"  {key:<32} {_fmt(value):>14} {unit}")
    if not trace:
        walls = outcome["extra"]["wall_samples"]
        tail = spans.tail_percentile(len(walls))
        tail_text = (
            f"p{tail:g} {_fmt(spans.percentile(walls, tail))} s" if tail
            else "no tail percentile (fewer than 20 samples)"
        )
        print(f"  wall_s: median of {len(walls)} ops; {tail_text}")
        print(f"  setup_s: median of {len(outcome['extra']['setup_samples'])} fresh interpreters")
        accuracy = outcome["extra"]["accuracy"]
        what = "graphon, cross-validated" if accuracy is not None else "this workload does not classify"
        print(f"  {'accuracy':<32} {_fmt(accuracy):>14} fraction ({what})")
    else:
        print(f"  layer metrics: median over {outcome['traced_ops']} traced jobs=1 ops")
    print(f"  {'error_rate':<32} {_fmt(failed / len(ops)):>14} fraction ({failed} of {len(ops)} ops)")
    for line in errors:
        print(f"bench: {line}", file=sys.stderr)
    missing = [k for k, v in metrics.items() if v["value"] is None]
    correct = not errors and not missing
    if missing:
        print(f"bench: no value for {missing}", file=sys.stderr)
    result = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = dict(result, workload=name, seed=seed, trace=trace, machine=machine,
                  wall_samples=[op.wall_s for op in ops], errors=errors)
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{name}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    return result


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        fail_setup(f"no BENCHMARK.json in {ROOT}")
    program = import_program()
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    machine = machine_record()
    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    try:
        measure = traced if args.trace else end_to_end
        outcome = measure(program, args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(args.workload, args.seed, args.trace, machine, outcome, spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

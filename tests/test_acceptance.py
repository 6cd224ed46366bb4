"""Acceptance suite: one test per shipped claim, at its stated tolerance.

Each test prints a single PASS/FAIL line (run with -s to stream them) and
enforces the claim with an assertion, including its runtime envelope.

The final criterion compares decoding accuracy on measured recordings and
needs the external response matrix; point the environment variables
EXPERIMENTAL_RESPONSES_CSV and EXPERIMENTAL_BLOCK_MAP_CSV at the files to
enable it.  Without them the pipeline must complete on a clearly marked
simulated surrogate with the degraded exit code instead.
"""

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from graphon_decode.classify import _fit_decoder, required_n_for_power
from graphon_decode.cli import main
from graphon_decode.embedding import graphon_project, read_embeddings_csv
from graphon_decode.experiment import (
    config_from_dict,
    mixed_cluster_experiment,
    reproduce,
    run_experiment,
    trial_invariance_experiment,
)
from graphon_decode.graphon import analytic_graphon_eigenpairs, top_eigenvalue_deviation
from graphon_decode.lif import SimParams, run_trial
from graphon_decode.sbm import adjacency_from_entries, block_membership, build_block_probability_matrix

ALPHAS = (0.05, 0.20, 0.45)


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} [{elapsed:.1f}s/{budget:.0f}s] {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed <= budget, f"criterion {num} exceeded its {budget:.0f}s runtime budget"


def test_criterion_1_analytic_eigenstructure():
    start = time.time()
    worst = 0.0
    for alpha in ALPHAS:
        c = build_block_probability_matrix(alpha)
        pairs = analytic_graphon_eigenpairs(alpha)
        # the limit kernel operator on quarter-constant functions: c @ (phi * 1/4)
        for lam, phi in pairs:
            worst = max(worst, float(np.max(np.abs(c @ (phi * 0.25) - lam * phi))))
        # the basis the pipeline projects onto: the eigenfunctions, sampled at
        # the 4n nodes, project to the identity, and the kernel applied to
        # them projects to diag(lambda)
        phis = np.column_stack([phi for _, phi in pairs])
        lams = np.diag([lam for lam, _ in pairs])
        for n in (1, 5, 100):
            block_map = block_membership(n)
            for signals, want in ((phis, np.eye(4)), (c @ (phis * 0.25), lams)):
                sampled = np.repeat(signals, n, axis=0).T
                got = graphon_project(sampled, block_map, "orthonormal", (1, 2, 3, 4))
                worst = max(worst, float(np.max(np.abs(got - want))))
    _report(
        1,
        "analytic eigenstructure",
        worst < 1e-12,
        f"max residual {worst:.2e} over alpha in {ALPHAS}",
        time.time() - start,
        budget=1.0,
    )


def test_criterion_2_spectral_convergence():
    start = time.time()
    seeds = range(10)
    dev50 = top_eigenvalue_deviation(0.05, 50, seeds)
    dev100 = top_eigenvalue_deviation(0.05, 100, seeds)
    ok = dev50 < 0.05 and dev100 < dev50
    _report(
        2,
        "spectral convergence",
        ok,
        f"mean abs deviation n=50: {dev50:.4f}, n=100: {dev100:.4f}",
        time.time() - start,
        budget=120.0,
    )


def test_criterion_3_lif_correctness():
    start = time.time()
    dt = 0.1
    # a noise-free 110 ms trial with the pulse on throughout
    held = SimParams(poisson_rate=0.0, onset=0.0, pulse_ms=110.0, duration=110.0, dt=dt)
    single = adjacency_from_entries(np.zeros((1, 1), dtype=int))

    # closed-form first spike under a constant 30 mV drive
    amp_na = 30.0 / (SimParams().r_in * 1e-3)
    sim = replace(held, amplitude_na=amp_na, zero_degree="isolate")
    raster = run_trial(single, (0,), sim=sim, record_trace=True)
    t_spike = raster.spikes[0][0]
    spike_err = abs(t_spike - 20.0 * math.log(3.0))
    ok_spike = spike_err <= 2 * dt

    # the depression step is exactly beta
    k = int(round(t_spike / dt))
    ok_beta = raster.trace.resource[k, 0] == 0.8

    # conduction delay lands in (t_spike + 2.8, t_spike + 2.8 + dt]
    two = adjacency_from_entries(np.array([[0, 1], [1, 0]]))
    raster2 = run_trial(two, (0,), sim=held, record_trace=True)
    t0 = raster2.spikes[0][0]
    g1 = raster2.trace.g_syn[:, 1]
    at_delay = int(round((t0 + 2.8) / dt))
    ok_delay = np.all(g1[: at_delay + 1] == 0.0) and g1[at_delay + 1] > 0.0

    _report(
        3,
        "integrate-and-fire correctness",
        ok_spike and ok_beta and ok_delay,
        f"spike time err {spike_err:.3f} ms, beta step exact: {ok_beta}, delay in-window: {ok_delay}",
        time.time() - start,
        budget=30.0,
    )


def test_criterion_4_two_cluster_separability(tmp_path):
    start = time.time()
    cfg = config_from_dict(
        {
            "sbm": {"alpha": 0.05, "n": 100, "seed": 0},
            "trials_per_stimulus": 20,
            "classify": {"enabled": False},
            "io": {"out_dir": str(tmp_path / "sep")},
        }
    )
    summary = run_experiment(cfg)
    es = read_embeddings_csv(Path(summary["out_dir"]) / "embeddings_graphon.csv")
    assert es.coords.shape[0] >= 40
    coords, labels = es.coords[:, [0, 2]], np.asarray(es.labels)  # map coords (c2, c3, c4)
    # a decoder fitted and scored on the same trials
    acc = float(np.mean(_fit_decoder(coords, labels, lam=1e-6)(coords) == labels))
    _report(
        4,
        "two-cluster separability",
        acc >= 0.95,
        f"linear separator on (c2, c4): accuracy {acc:.3f} over {es.coords.shape[0]} trials",
        time.time() - start,
        budget=300.0,
    )


def test_criterion_5_trial_invariance():
    start = time.time()
    wins, ratios = 0, []
    for meta in range(5):
        config = config_from_dict({"sbm": {"seed": 1000 + meta}, "trials_per_stimulus": 4})
        result = trial_invariance_experiment(config, realizations=10)
        ratios.append(result["ratio"])
        wins += result["ratio"] < 1.0
    _report(
        5,
        "trial invariance",
        wins >= 4,
        f"kernel/eigenvector dispersion ratio < 1 in {wins}/5 repetitions "
        f"(ratios {[round(r, 3) for r in ratios]})",
        time.time() - start,
        budget=900.0,
    )


def test_criterion_6_mixed_cluster_betweenness_and_robustness():
    start = time.time()
    betweenness = {}
    silhouettes = {}
    for alpha in ALPHAS:
        config = config_from_dict(
            {
                "sbm": {"alpha": alpha, "seed": 1},
                "protocol": {"name": "mixed_cluster"},
                "trials_per_stimulus": 7,
            }
        )
        result = mixed_cluster_experiment(config)
        betweenness[alpha] = result["metrics"]["graphon"]["betweenness"]
        silhouettes[alpha] = {
            m: result["metrics"][m]["silhouette"] for m in ("graphon", "pca")
        }
    ok_between = all(0.0 < t < 1.0 for t in betweenness.values())
    ok_sil = silhouettes[0.45]["graphon"] > silhouettes[0.45]["pca"]
    _report(
        6,
        "mixed-cluster betweenness and robustness",
        ok_between and ok_sil,
        f"middle-centroid projection {dict((a, round(t, 3)) for a, t in betweenness.items())}, "
        f"silhouette at alpha=0.45 graphon {silhouettes[0.45]['graphon']:.3f} "
        f"vs pca {silhouettes[0.45]['pca']:.3f}",
        time.time() - start,
        budget=1200.0,
    )


def test_criterion_7_power_analysis():
    start = time.time()
    n = required_n_for_power(0.213)
    _report(
        7,
        "sample-size estimate",
        abs(n - 173) <= 3,
        f"required n for effect 0.213 at 80% power: {n}",
        time.time() - start,
        budget=1.0,
    )


def test_criterion_8_accuracy_table(tmp_path):
    start = time.time()
    resp = os.environ.get("EXPERIMENTAL_RESPONSES_CSV")
    bmap = os.environ.get("EXPERIMENTAL_BLOCK_MAP_CSV")
    if resp and bmap and Path(resp).exists() and Path(bmap).exists():
        summary = reproduce(
            "table", tmp_path / "table", experimental_csv=resp, block_map_csv=bmap
        )
        table = (Path(summary["out_dir"]) / "table_accuracy.csv").read_text()
        values = dict(
            line.split(",", 1) for line in table.splitlines()[1:] if "," in line
        )
        acc_graphon = float(values["accuracy_graphon"])
        acc_pca = float(values["accuracy_pca"])
        ok = abs(acc_graphon - 0.790) <= 0.05 and abs(acc_pca - 0.752) <= 0.05
        detail = f"experimental data: graphon {acc_graphon:.3f}, pca {acc_pca:.3f}"
    else:
        code = main(["reproduce", "table", "--out", str(tmp_path / "table")])
        table = (tmp_path / "table" / "table_accuracy.csv").read_text()
        ok = code == 4 and "source,simulated_surrogate" in table
        detail = (
            "experimental responses unavailable; surrogate run exit code "
            f"{code}, marker present: {'source,simulated_surrogate' in table}"
        )
    _report(8, "decoding accuracy table", ok, detail, time.time() - start, budget=600.0)


def test_criterion_9_reproduction_determinism(tmp_path):
    start = time.time()
    s1 = reproduce("fig6", tmp_path / "r1", seed=0)
    s2 = reproduce("fig6", tmp_path / "r2", seed=0)
    mismatched = []
    names = set(s1["files"]) | {"manifest.json"}
    for name in sorted(names):
        b1 = (Path(s1["out_dir"]) / name).read_bytes()
        b2 = (Path(s2["out_dir"]) / name).read_bytes()
        if b1 != b2:
            mismatched.append(name)
    _report(
        9,
        "byte-identical reproduction",
        not mismatched,
        f"{len(names)} files compared, mismatches: {mismatched}",
        time.time() - start,
        budget=900.0,
    )

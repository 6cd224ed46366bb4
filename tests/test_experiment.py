import json
from pathlib import Path

import numpy as np
import pytest

from graphon_decode.cli import main
from graphon_decode.errors import ConfigError, DataError
from graphon_decode.experiment import (
    config_from_dict,
    config_hash,
    derive_seed,
    load_config,
    run_experiment,
    save_config,
    verify_manifest,
)

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
    assert config_hash(back) == config_hash(cfg)


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
    with pytest.raises(ConfigError):
        config_from_dict({"trials_per_stimulus": 0})


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
    ],
)
def test_booleans_and_non_finite_numbers_rejected(data, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(data)
    config_from_dict({"classify": {"enabled": False}, "sim": {"dt": 0.1, "v0": None}})


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert derive_seed(0, 0, 0) != derive_seed(0, 0, 1)


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
    for name in s1["files"]:
        b1 = (Path(s1["out_dir"]) / name).read_bytes()
        b2 = (Path(s2["out_dir"]) / name).read_bytes()
        assert b1 == b2, name


def test_worker_pool_does_not_change_bytes(tmp_path):
    serial = run_experiment(small_config(tmp_path, "serial"), jobs=1)
    pooled = run_experiment(small_config(tmp_path, "pooled"), jobs=2)
    for name in serial["files"]:
        assert (Path(serial["out_dir"]) / name).read_bytes() == (
            Path(pooled["out_dir"]) / name
        ).read_bytes(), name


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


def test_cli_nan_dt_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"sim": {"dt": NaN}}')
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "never")]) == 2
    assert "sim.dt must be finite" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_cli_stats_bad_trial_id_exits_3(tmp_path, capsys):
    good = tmp_path / "a.csv"
    good.write_text("trial_id,correct\n0,1\n1,0\n")
    bad = tmp_path / "b.csv"
    bad.write_text("trial_id,correct\n0,1\none,0\n")
    argv = ["stats", "--correct-a", str(good), "--correct-b", str(bad), "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 3
    assert "row 3" in capsys.readouterr().err


def test_cli_missing_file_exits_3(tmp_path):
    assert main(["classify", "--embeddings", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "r.csv")]) == 3


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

"""Golden hashes: the SHA-256 of every artifact of ten canned runs, of the
stage commands (gen-graph, embed, classify, stats), and of the default
config file.

Determinism tests compare a run against a second run of the same code, so a
change that reorders a float sum would pass them.  These digests were taken
once and pin the bytes themselves.  They hold for the build they were taken
on (x86-64, Python 3.11, numpy 2.4.6, OpenBLAS 0.3.31) and for the OpenBLAS
kernel it picked on that CPU, SkylakeX.  The kernel is chosen at run time
from the CPU, so the same wheels on another CPU may compute other bits:
under ``OPENBLAS_CORETYPE=Haswell`` the eight digests whose artifacts pass
through an eigendecomposition or a PCA fail (the three run_small_config
tests, fig5, fig6, fig8, gen-graph and embed) and the other seven hold.
The CI workflow prints the kernel of numpy and of scipy before the tests.
The 400-node eigendecompositions behind fig5 and fig6 run on one OpenBLAS
thread whatever the core count, and every digest holds both on the default
two threads of a 2-core host and under ``OPENBLAS_NUM_THREADS=1``.  An
intended change of output bytes re-pins them and says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from graphon_decode.cli import main
from graphon_decode.experiment import save_config

from test_experiment import small_config, write_measured


def _file_digests(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())["files"]


DEFAULT_CONFIG = "5dc22e006fdc3a306b5bb21b25ab0093e15d89fa382a2cf5ba84fd26c07abd31"

RUN_SMALL = {
    "eigenvalues.csv": "b145449997bace09e1d5a0572796de4687f55d5f3fe7cf20cadbbb79e28feb48",
    "eigenvectors.csv": "6630200ec981997312d63dcc4a2c99020f48c1b31f59f9ec9806444a6ee0588e",
    "embeddings_gft.csv": "d17cb41b847b77f06627ba8d56282d0bb36cc92f94bcc2a89bcc5ca47e072829",
    "embeddings_graphon.csv": "e6f9c2ef5ef648df6047026e23326f6a5ecc3f6dd39ca46fce37a6173f12107a",
    "embeddings_pca.csv": "04e3a5be119acaee3609ebd844cea2caa86562a5bd41f8235f4b262a0a6ae84a",
    "graph.edges": "78917443f75e01907c0afb57adc1d9bb20a36fc5b1d857cba8314cfb69ec326b",
    "report_gft.csv": "81d43c121abcb2a849e642449242e3e5c857100b705f76fcea676840a445c2fb",
    "report_graphon.csv": "0a6133592713f6826d8640000ffcc1068568c93cee5b16ea9159e23bed73fa4b",
    "report_pca.csv": "3f1879869a4a95982a41ad8b28902d0b37e1ed04151821dc3a256c3b3236f587",
    "responses.csv": "6fe717ccf05a57bac3074850fa0f3bd10ea9727e4d538f929c4eca6de11dd115",
}

# RUN_SMALL with each fold's penalty chosen by inner cross-validation over a
# grid; its graphon report differs from RUN_SMALL's, so the grid decides it
RUN_SMALL_LAM_GRID = {
    **RUN_SMALL,
    "report_graphon.csv": "c7ebd45796c0b11d01f770db5f827a45760f9e40d7d26eb1d7448af2ce889e11",
}

# RUN_SMALL with the orthonormal graphon convention: its coordinates read the
# last bit of the unit eigenfunctions' block values, which blocksum's do not
RUN_SMALL_ORTHONORMAL = {
    **RUN_SMALL,
    "embeddings_graphon.csv": "b7ae703933a92f75bb69c414aa9b98518d5a7af007b6476378720489fd164003",
    "report_graphon.csv": "c7ebd45796c0b11d01f770db5f827a45760f9e40d7d26eb1d7448af2ce889e11",
}

FIG5_SEED0 = {
    "fig5_gft_modes_2_3.csv": "0d6ae7346de10e605aeff15a87b509449f66c54f6b10aca8a80162b7d42089c5",
    "fig5_gft_modes_2_4.csv": "6f244df58ceba89a530647099c2779d0e38b4977efe61a89fc0c7f2e2e16606d",
}

FIG6_SEED0 = {
    "fig6_dispersion.csv": "f46aa18ad5b07c2643ce8ad50c19e416f5740f966227d9ee5b12e9032e780da7",
    "fig6_gft_realization_0.csv": "22b13daa99c2a11d1667e6d49d09b15f3431d8f5c188a3c052b7402db2d40cad",
    "fig6_gft_realization_1.csv": "01137a3a7047b10804e66a6c482b581f2a6087c261ca59b3bb1a1b194eb2613d",
    "fig6_gft_realization_2.csv": "1bcb516146c4a3939a5ed12db7f4e1a8619de966f61bed7099f02e5d90e7e0dd",
    "fig6_graphon.csv": "7733d6b8120632ea8a0322e3548bab679b804e2ab5158c97bb7d1730881157a0",
}

FIG8_SEED0 = {
    "fig8_graphon_alpha005.csv": "4853fd411d760e5d6871cc7cc1a5be29b87fa6e3ab2bbf8a181af8895d3784ea",
    "fig8_graphon_alpha020.csv": "d8a5e17772d09100f81a53bf54aa77f43f3cf6bfe7e65a7ecf988de8e63afd4f",
    "fig8_graphon_alpha045.csv": "7cb3539bff5eba11362122404a42c943ec06d15471083149dc3faa956b30f45e",
    "fig8_pca_alpha005.csv": "6822b6fb789ca84f1b0acdd5abaf59e7123b65b43cc526f237d35b5e4764b84a",
    "fig8_pca_alpha020.csv": "6ebd9437d60480b2262012f0333f01d3305f2454b702e739c57a75c447c69f3e",
    "fig8_pca_alpha045.csv": "824df54bd525f9ac3efb53eb82d77f3ea9aca375b7764d994d9b606361cf9266",
    "fig8_summary.csv": "72edc951d332bc9e319913d7e73982462323ca9caee9099fb5808c4a801da40a",
}

TABLE_SURROGATE_SEED0 = {
    "table_accuracy.csv": "335ca3982ccbb5aae36eaa65660756bf9d67f1e7e3ca774fabc972ed21ff28b6",
    "table_report_graphon.csv": "957e6be30d7bbd6a1ff5eb090478211c015d3203eec9f90915ae50d34b428d41",
    "table_report_pca.csv": "c9eb380a74feff1ed6130bd570f0a6d7c1eef98c17aaf026e427ddfcf2fba2f9",
}

# the simulated files of a noise-free run with rasters: they pin the synaptic
# path of the simulator alone, whatever the noise generator draws
RUN_NOISE_FREE = {
    "rasters/trial_0000.csv": "fd084a9d4ca90e9ea7f12d0807ccf137100c0a156f51f10fb849dfca8977e295",
    "rasters/trial_0001.csv": "b7538ded38abc963d815a83a75f25153830f10a25a4ecf39b93f3b9a9f7184ef",
    "rasters/trial_0002.csv": "865050048ebccc10b4c15743c97f6da7e5c8d679f8e15dbeaa5106471b173ed0",
    "rasters/trial_0003.csv": "aa0b8ae23866f0047ad06303e4a65a41ed002649fee046a1d818c0676ce7fd46",
    "rasters/trial_0004.csv": "c0597919ea2921231a0dc8e1464ecc7cf54c198e72c89156b61bbeda969aa9cb",
    "rasters/trial_0005.csv": "38fe29576f6be5418937ebd8b4548df7c9637f1b68ee77f12262c968012127bf",
    "rasters/trial_0006.csv": "8b3895402547dfa6dbeb714ec3ac7cf3a77ded0f9adf86f8cd4c63dbaef02a5f",
    "rasters/trial_0007.csv": "58f6168f2c29065956baa9f3c9cff74e42447e68d90eac9f9db9fd2f725a18d1",
    "rasters/trial_0008.csv": "1ccc8378519c0d7aca244294821d29d19533450f6879f278c93a51f5c5f512bd",
    "rasters/trial_0009.csv": "9db44ecfb858175c18c514966c7c2f1e92773fdcaf1ad19dee549b1bcd563a25",
    "responses.csv": "bdfd8d2d69ea0e8ec5a8a1731fe30feaebbc6c06b43a9197d9c66e5db31a5b38",
}

TABLE_MEASURED = {
    "table_accuracy.csv": "d92d1a87a8f82a9be0b95db4c1d14bff2d1999b8a1ce637cbcb4c5215bd264e5",
    "table_report_graphon.csv": "2df06f47b41aa7d2dd554aa9533381dc745d9dfd3d53ef6d9a7403af3f2fc80c",
    "table_report_pca.csv": "ed36502bbd2466a47b6641ad5b5154461d35ca6d5638d074b6c5db21e4c9db1d",
}

# a table whose PCA fold fits solve Gram matrices of order 516 to 519 (see
# write_large_measured); taken before those fits moved off the dense solver
TABLE_MEASURED_LARGE = {
    "table_accuracy.csv": "5f52cde2fcdcaede7be01c15ea16593f69d3bb61cc2df45b84dcf8308472e247",
    "table_report_graphon.csv": "82c10dc7480dd8a1a7e321e345fd2ca8ea250f58b23d141519913cb6e410220e",
    "table_report_pca.csv": "fb03a562f9a15ddbbff158f1442275e2c660957752c2953f085984b993a49c84",
}


# the stage commands: gen-graph on its own, and embed and classify on the
# small run's files, as the CLI's stage-by-stage path runs them
GEN_GRAPH = {
    "eigenvalues.csv": "7101a0d0abffe1f0f66691ddab43434f1374c6573df0e0532c83a6015b03bf0b",
    "eigenvectors.csv": "73842f67a0e2a7edeadfc4a81d8b9b1877ad621aefa86ab683ed138bdf07f396",
    "graph.edges": "d1049f9ebf42ac4573e94c40746bdaa3eeb02c3be589e309080cbb858aeda05d",
}

# embed writes the same bytes as the run's own embeddings
EMBED_SMALL = {method: RUN_SMALL[f"embeddings_{method}.csv"] for method in ("gft", "graphon", "pca")}

CLASSIFY_SMALL = {
    "graphon": "972125cdb857737ea88c46242f49274dd78759f9cffba7d7c5799f0aa3a637c8",
    "pca": "e51e9993caf24d055303cff6e26b07051af3582903f0feeb60894dde1155ad4f",
}

STATS = "15e2f2a9770687c1738da7d25ff130ff8ece35f92256ec25fda0acdb5b74cade"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory) -> Path:
    """The output directory of the small config's run."""
    tmp_path = tmp_path_factory.mktemp("small")
    config_path = tmp_path / "config.json"
    save_config(small_config(tmp_path, "run"), config_path)
    assert main(["run", "--config", str(config_path)]) == 0
    return tmp_path / "run"


def write_large_measured(tmp_path) -> tuple[Path, Path]:
    """201 trials per stimulus over 600 ROIs in four interleaved blocks.

    As in ``write_measured`` the counts are integer arithmetic, so the bytes
    cannot drift with numpy; a quadratic residue in trial and ROI spreads
    them, and stimulus s1 lifts blocks 1-2, s2 blocks 2-3 and s3 blocks 3-4.
    Each of the 7 outer training folds keeps 516 to 519 trials, and the top
    five eigenvalues of each one's centred Gram matrix lie at least 4% of the
    largest apart, so no tie decides an axis.
    """
    rois = 600
    lifted = {"s1": (1, 2), "s2": (2, 3), "s3": (3, 4)}
    blocks = [1 + roi % 4 for roi in range(rois)]
    lines = ["trial_id,label," + ",".join(f"roi_{i}" for i in range(rois))]
    trial_id = 0
    for rep in range(201):
        for label, lift in lifted.items():
            counts = [
                1 + (7 * trial_id * trial_id + 13 * trial_id * roi + 3 * roi * roi + roi) % 8
                + (2 if blocks[roi] in lift else 0)
                for roi in range(rois)
            ]
            lines.append(f"{trial_id},{label}," + ",".join(map(str, counts)))
            trial_id += 1
    csv_path = tmp_path / "measured_large.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    map_path = tmp_path / "blocks_large.csv"
    map_path.write_text(
        "roi_index,block\n" + "".join(f"{i},{b}\n" for i, b in enumerate(blocks))
    )
    return csv_path, map_path


def test_default_config_hash(tmp_path):
    path = tmp_path / "config.json"
    assert main(["default-config", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_CONFIG


def test_run_small_config_hashes(tmp_path):
    config_path = tmp_path / "config.json"
    save_config(small_config(tmp_path, "run"), config_path)
    assert main(["run", "--config", str(config_path)]) == 0
    assert _file_digests(tmp_path / "run") == RUN_SMALL


def test_run_small_config_lam_grid_hashes(tmp_path):
    config_path = tmp_path / "config.json"
    config = small_config(tmp_path, "run", classify={"lam_grid": [0.01, 0.1, 1.0, 10.0], "dimensions": 3})
    save_config(config, config_path)
    assert main(["run", "--config", str(config_path)]) == 0
    assert _file_digests(tmp_path / "run") == RUN_SMALL_LAM_GRID


def test_run_small_config_orthonormal_hashes(tmp_path):
    config_path = tmp_path / "config.json"
    save_config(small_config(tmp_path, "run", embedding={"convention": "orthonormal"}), config_path)
    assert main(["run", "--config", str(config_path)]) == 0
    assert _file_digests(tmp_path / "run") == RUN_SMALL_ORTHONORMAL


def test_run_noise_free_simulated_hashes(tmp_path):
    config_path = tmp_path / "config.json"
    config = small_config(tmp_path, "run", sim={"poisson_rate": 0.0}, sbm={"n": 16})
    save_config(config, config_path)
    assert main(["run", "--config", str(config_path), "--dump-rasters"]) == 0
    digests = _file_digests(tmp_path / "run")
    assert {name: digests[name] for name in RUN_NOISE_FREE} == RUN_NOISE_FREE


def test_reproduce_fig5_hashes(tmp_path):
    assert main(["reproduce", "fig5", "--seed", "0", "--out", str(tmp_path / "fig5")]) == 0
    assert _file_digests(tmp_path / "fig5") == FIG5_SEED0


def test_reproduce_fig6_hashes(tmp_path):
    assert main(["reproduce", "fig6", "--seed", "0", "--out", str(tmp_path / "fig6")]) == 0
    assert _file_digests(tmp_path / "fig6") == FIG6_SEED0


def test_reproduce_fig8_hashes(tmp_path):
    assert main(["reproduce", "fig8", "--seed", "0", "--out", str(tmp_path / "fig8")]) == 0
    assert _file_digests(tmp_path / "fig8") == FIG8_SEED0


def test_reproduce_table_surrogate_hashes(tmp_path):
    # no measured inputs: the simulated surrogate runs and the exit is degraded
    assert main(["reproduce", "table", "--seed", "0", "--out", str(tmp_path / "table")]) == 4
    assert _file_digests(tmp_path / "table") == TABLE_SURROGATE_SEED0


def test_reproduce_table_measured_hashes(tmp_path):
    csv_path, map_path = write_measured(tmp_path)
    out = tmp_path / "table"
    argv = ["reproduce", "table", "--out", str(out)]
    argv += ["--experimental-csv", str(csv_path), "--block-map", str(map_path)]
    assert main(argv) == 0
    assert _file_digests(out) == TABLE_MEASURED


def test_reproduce_table_measured_large_hashes(tmp_path):
    csv_path, map_path = write_large_measured(tmp_path)
    out = tmp_path / "table"
    argv = ["reproduce", "table", "--out", str(out)]
    argv += ["--experimental-csv", str(csv_path), "--block-map", str(map_path)]
    assert main(argv) == 0
    assert _file_digests(out) == TABLE_MEASURED_LARGE


def test_gen_graph_hashes(tmp_path):
    out = tmp_path / "graph"
    assert main(["gen-graph", "--alpha", "0.2", "--n", "20", "--seed", "4", "--out", str(out)]) == 0
    assert {p.name: _sha256(p) for p in sorted(out.iterdir())} == GEN_GRAPH


def test_embed_command_hashes(small_run, tmp_path):
    digests = {}
    for method in EMBED_SMALL:
        out = tmp_path / f"{method}.csv"
        argv = ["embed", "--responses", str(small_run / "responses.csv"), "--method", method]
        if method == "gft":
            argv += ["--graph", str(small_run / "graph.edges")]
        assert main([*argv, "--out", str(out)]) == 0
        digests[method] = _sha256(out)
    assert digests == EMBED_SMALL


def test_classify_command_hashes(small_run, tmp_path, monkeypatch):
    # the report records the --embeddings path, so it is given relative
    monkeypatch.chdir(small_run)
    digests = {}
    for method in CLASSIFY_SMALL:
        out = tmp_path / f"report_{method}.csv"
        argv = ["classify", "--embeddings", f"embeddings_{method}.csv", "--out", str(out)]
        assert main([*argv, "--folds", "5", "--resamples", "200"]) == 0
        digests[method] = _sha256(out)
    assert digests == CLASSIFY_SMALL


def test_stats_command_hashes(tmp_path):
    # 24 paired trials with a nonzero, non-constant difference, written in
    # different trial orders so the pairing by trial id is exercised
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("trial_id,correct\n" + "".join(f"{t},{int(t % 3 != 0)}\n" for t in range(24)))
    b.write_text("trial_id,correct\n" + "".join(f"{t},{int(t % 4 == 1)}\n" for t in reversed(range(24))))
    out = tmp_path / "stats.csv"
    assert main(["stats", "--correct-a", str(a), "--correct-b", str(b), "--out", str(out)]) == 0
    assert _sha256(out) == STATS

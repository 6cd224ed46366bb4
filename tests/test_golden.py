"""Golden hashes: the SHA-256 of every artifact of five canned runs.

Determinism tests compare a run against a second run of the same code, so a
change that reorders a float sum would pass them.  These digests were taken
once and pin the bytes themselves.  They hold for the build they were taken
on (x86-64, Python 3.11, numpy 2.4.6, OpenBLAS 0.3.31 on its default two
threads of a 2-core host: the 400-node eigendecompositions behind fig5 and
fig6 differ in the last bits on one thread); an intended change of output
bytes re-pins them and says why in CHANGES.md.  The digests of the small
``run``, ``embeddings_pca.csv`` (PCA from a subset eigensolve of the Gram
matrix) included, also hold under ``OPENBLAS_NUM_THREADS=1``.
"""

import json
from pathlib import Path

from graphon_decode.cli import main
from graphon_decode.experiment import save_config

from test_experiment import small_config


def _file_digests(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())["files"]


RUN_SMALL = {
    "eigenvalues.csv": "1797e24065d49b25b39961d288fc94c58b09f47726ae77fbdab3fc8595b4868a",
    "eigenvectors.csv": "6630200ec981997312d63dcc4a2c99020f48c1b31f59f9ec9806444a6ee0588e",
    "embeddings_gft.csv": "d554f4a5c219388fd4d9567c80e3de99c9c04a19ed00211f54ee3c88bccf5aa2",
    "embeddings_graphon.csv": "a7a4d7b961247618aefaef17791ccead7a03ec8d1bad3bd3776d90c38ed0fff0",
    "embeddings_pca.csv": "ccb7e06a7cb5e33b6f1c0bb7fc089962d2a451772a327b68f05e9120d318487a",
    "graph.edges": "78917443f75e01907c0afb57adc1d9bb20a36fc5b1d857cba8314cfb69ec326b",
    "report_gft.csv": "1762c511d97a453993e0d295b039bcabf518766e558eeb7ddd4eeb6319b3d0ea",
    "report_graphon.csv": "8512e89eb2fd3d2d251380d9f26e596e6a3284f049a01da069e05c9dbae72b90",
    "report_pca.csv": "aa449562059d7148f124c263d58448be94c7a2bdced95012d4e952fcfbfbd0c7",
    "responses.csv": "9bff630b590f05e068f63c17681ed611651d586820e8e2617f7ca45a2a79e448",
}

FIG5_SEED0 = {
    "fig5_gft_modes_2_3.csv": "1d4f6eb4fe35b5a9aecacf7e212e384187d0befdc264b49c84994dcce9ae8932",
    "fig5_gft_modes_2_4.csv": "5488002a0963e36ac8ec9b528c58e2fdd8f604c0496efd82eb7a7dcfe9f5af98",
}

FIG6_SEED0 = {
    "fig6_dispersion.csv": "8fc32c9fd2a7644858e976635e8e929d8eff7596400b4e24c71a8aaa2ba59fff",
    "fig6_gft_realization_0.csv": "67a0bc7909973d50cff1276866fd6ec3a717d27a2e16d9658d08aef36f343f5b",
    "fig6_gft_realization_1.csv": "68ac3984ced3a53bb1af1735065fc24c418f987d657ce7ab1687b589d45fb501",
    "fig6_gft_realization_2.csv": "ed026908db900a0a9867eed5cecd1a5da2830450a02b927d50fef55026a4a4ec",
    "fig6_graphon.csv": "eea2ed993395c4386fbe0ee1d25bca04d2a0b773723ddcf579fbd998ed633b7f",
}

TABLE_SURROGATE_SEED0 = {
    "table_accuracy.csv": "e184d0b97221bdaa6ad4989ff3cea4dcfcc11f0c24dd99cf217650fc442ba66f",
    "table_report_graphon.csv": "230aee7ed09ded610235bbfe05cf5944102625bedeefc2eda18a0fb432a91f49",
    "table_report_pca.csv": "c9eb380a74feff1ed6130bd570f0a6d7c1eef98c17aaf026e427ddfcf2fba2f9",
}

TABLE_MEASURED = {
    "table_accuracy.csv": "d92d1a87a8f82a9be0b95db4c1d14bff2d1999b8a1ce637cbcb4c5215bd264e5",
    "table_report_graphon.csv": "2df06f47b41aa7d2dd554aa9533381dc745d9dfd3d53ef6d9a7403af3f2fc80c",
    "table_report_pca.csv": "ed36502bbd2466a47b6641ad5b5154461d35ca6d5638d074b6c5db21e4c9db1d",
}


def test_run_small_config_hashes(tmp_path):
    config_path = tmp_path / "config.json"
    save_config(small_config(tmp_path, "run"), config_path)
    assert main(["run", "--config", str(config_path)]) == 0
    assert _file_digests(tmp_path / "run") == RUN_SMALL


def test_reproduce_fig5_hashes(tmp_path):
    assert main(["reproduce", "fig5", "--seed", "0", "--out", str(tmp_path / "fig5")]) == 0
    assert _file_digests(tmp_path / "fig5") == FIG5_SEED0


def test_reproduce_fig6_hashes(tmp_path):
    assert main(["reproduce", "fig6", "--seed", "0", "--out", str(tmp_path / "fig6")]) == 0
    assert _file_digests(tmp_path / "fig6") == FIG6_SEED0


def test_reproduce_table_surrogate_hashes(tmp_path):
    # no measured inputs: the simulated surrogate runs and the exit is degraded
    assert main(["reproduce", "table", "--seed", "0", "--out", str(tmp_path / "table")]) == 4
    assert _file_digests(tmp_path / "table") == TABLE_SURROGATE_SEED0


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


def test_reproduce_table_measured_hashes(tmp_path):
    csv_path, map_path = write_measured(tmp_path)
    out = tmp_path / "table"
    argv = ["reproduce", "table", "--out", str(out)]
    argv += ["--experimental-csv", str(csv_path), "--block-map", str(map_path)]
    assert main(argv) == 0
    assert _file_digests(out) == TABLE_MEASURED

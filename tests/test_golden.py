"""Golden hashes: the SHA-256 of every artifact of three canned runs.

Determinism tests compare a run against a second run of the same code, so a
change that reorders a float sum would pass them.  These digests were taken
once and pin the bytes themselves.  They hold for the build they were taken
on (x86-64, Python 3.11, numpy 2.4.6, OpenBLAS 0.3.31); an intended change of
output bytes re-pins them and says why in CHANGES.md.
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
    "eigenvectors.csv": "b15caada0976163c66cb522878661a7cb865e97f04146b69248d1b77f8cabaf3",
    "embeddings_gft.csv": "d554f4a5c219388fd4d9567c80e3de99c9c04a19ed00211f54ee3c88bccf5aa2",
    "embeddings_graphon.csv": "a7a4d7b961247618aefaef17791ccead7a03ec8d1bad3bd3776d90c38ed0fff0",
    "embeddings_pca.csv": "bfaadb064bc8e78613a510d5dddea1b04dfa55276be8b5916b80537bd2898237",
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

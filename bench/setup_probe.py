"""Set-up cost in a fresh interpreter: `import graphon_decode` plus the first,
cold `eigendecompose` of a 400-node graph (it pays OpenBLAS start-up).

Usage: python3 setup_probe.py SRC_DIR SEED; prints one JSON line.
"""

import json
import sys
import time

if __name__ == "__main__":
    src, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import graphon_decode
    from graphon_decode.sbm import SbmConfig, eigendecompose, sample_adjacency

    t1 = time.perf_counter()
    adjacency = sample_adjacency(SbmConfig(alpha=0.05, n=100, seed=seed))
    t2 = time.perf_counter()
    eigendecompose(adjacency)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "eigh_s": t3 - t2, "module": graphon_decode.__file__}))

"""Command-line driver.

Subcommands cover the pipeline stages (gen-graph, simulate, embed, classify,
stats), the full run, and canned figure reproductions.  Exit codes: 0 success,
2 configuration error, 3 data error, 4 degraded (a surrogate dataset was
substituted for missing experimental inputs).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .classify import (
    cross_validated_accuracy,
    paired_difference_stats,
    read_correctness_csv,
    write_report,
)
from .embedding import (
    gft_project,
    graphon_project,
    pca_fit_transform,
    read_embeddings_csv,
    write_embeddings_csv,
)
from .errors import ConfigError, ContractError, DataError, ParameterError, ParseError, ZeroResponseError
from .experiment import (
    ExperimentConfig,
    FIGURE_IDS,
    config_from_dict,
    load_config,
    reproduce,
    run_experiment,
    save_config,
)
from .graphon import analytic_graphon_eigenpairs
from .protocols import read_block_map, read_responses_csv
from .sbm import (
    SbmConfig,
    block_membership,
    eigendecompose,
    read_edge_list,
    sample_adjacency,
    write_edge_list,
    write_spectra,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DEGRADED = 4


def _load_or_default_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else config_from_dict({})
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides.setdefault("sbm", {})["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides.setdefault("io", {})["out_dir"] = str(args.out)
    if overrides:
        from .experiment import config_to_dict

        data = config_to_dict(config)
        for section, values in overrides.items():
            data[section].update(values)
        config = config_from_dict(data)
    return config


def _cmd_gen_graph(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    adjacency = sample_adjacency(SbmConfig(alpha=args.alpha, n=args.n, seed=args.seed))
    write_edge_list(adjacency, out / "graph.edges")
    decomposition = eigendecompose(adjacency)
    write_spectra(decomposition, out / "eigenvalues.csv", out / "eigenvectors.csv")
    print(f"wrote graph and spectra for {adjacency.size} nodes to {out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = _load_or_default_config(args)
    from .experiment import config_to_dict

    data = config_to_dict(config)
    data["embedding"]["methods"] = []
    data["classify"]["enabled"] = False
    config = config_from_dict(data)
    summary = run_experiment(config, jobs=args.jobs, dump_rasters=args.dump_rasters)
    print(
        f"simulated {summary['n_responses']} responses "
        f"({len(summary['skipped_trials'])} skipped) into {summary['out_dir']}"
    )
    return EXIT_OK


def _cmd_embed(args) -> int:
    responses = read_responses_csv(args.responses)
    length = responses.values.shape[1]
    if args.block_map:
        block_map = read_block_map(args.block_map, expected_size=length)
    elif length % 4 == 0:
        block_map = block_membership(length // 4)
    else:
        raise ConfigError("response length not divisible by 4; pass --block-map")
    indices = tuple(range(2, 2 + args.dims)) if args.dims < 4 else (1, 2, 3, 4)
    if args.method == "graphon":
        es = graphon_project(
            responses,
            analytic_graphon_eigenpairs(args.alpha),
            block_map,
            convention=args.convention,
            indices=indices,
        )
    elif args.method == "gft":
        if not args.graph:
            raise ConfigError("--graph EDGELIST is required for the gft method")
        decomposition = eigendecompose(read_edge_list(args.graph))
        es = gft_project(responses, decomposition, indices=indices)
    else:
        es = pca_fit_transform(responses, dims=args.dims)
    write_embeddings_csv(es, args.out)
    print(f"wrote {es.coords.shape[0]} x {es.coords.shape[1]} {args.method} embedding to {args.out}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    es = read_embeddings_csv(args.embeddings)
    # precomputed coordinates are the features; no per-fold embedding refit
    report = cross_validated_accuracy(
        es.labels,
        lambda tr, te: (es.coords[tr], es.coords[te]),
        folds=args.folds,
        lam=args.lam,
        seed=args.seed,
        resamples=args.resamples,
    )
    write_report(args.out, report, extra={"method": es.method, "embeddings": args.embeddings})
    print(f"accuracy {report.accuracy:.3f} ci95 [{report.ci95[0]:.3f}, {report.ci95[1]:.3f}]")
    return EXIT_OK


def _cmd_stats(args) -> int:
    a = read_correctness_csv(args.correct_a)
    b = read_correctness_csv(args.correct_b)
    ps = paired_difference_stats(a, b, resamples=args.resamples, seed=args.seed)
    lines = [
        "key,value",
        f"mean_difference,{repr(ps.mean_difference)}",
        f"diff_ci95_low,{repr(ps.diff_ci95[0])}",
        f"diff_ci95_high,{repr(ps.diff_ci95[1])}",
        f"effect_size,{repr(ps.effect_size)}",
        f"required_n_for_80pct_power,{repr(ps.required_n)}",
    ]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(
        f"mean diff {ps.mean_difference:+.4f}, ci95 [{ps.diff_ci95[0]:.4f}, {ps.diff_ci95[1]:.4f}], "
        f"effect size {ps.effect_size:.3f}, required n {ps.required_n}"
    )
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _load_or_default_config(args)
    summary = run_experiment(config, jobs=args.jobs, dump_rasters=args.dump_rasters)
    print(f"artifacts in {summary['out_dir']}: {len(summary['files'])} files")
    for method, acc in summary["accuracy"].items():
        print(f"  {method}: cross-validated accuracy {acc:.3f}")
    return EXIT_OK


def _cmd_show_config(args) -> int:
    save_config(config_from_dict({}), args.out)
    print(f"wrote default config to {args.out}")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    summary = reproduce(
        args.figure,
        args.out,
        jobs=args.jobs,
        seed=args.seed,
        experimental_csv=args.experimental_csv,
        block_map_csv=args.block_map,
        rc_correct_csv=args.rc_correct,
    )
    print(f"wrote {len(summary['files'])} files to {summary['out_dir']}")
    if summary["degraded"]:
        print(
            "warning: experimental responses not provided; "
            "a simulated surrogate dataset was used (marked in the outputs)"
        )
        return EXIT_DEGRADED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphon-decode",
        description="Stimulus decoding on stochastic block spiking networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="sample a block graph and write its spectra")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--n", type=int, default=100, help="nodes per block")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen_graph)

    p = sub.add_parser("simulate", help="run stimulated trials and write responses")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--dump-rasters", action="store_true")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("embed", help="project a response CSV into coordinates")
    p.add_argument("--responses", required=True)
    p.add_argument("--method", choices=("graphon", "gft", "pca"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--dims", type=int, default=3)
    p.add_argument("--convention", choices=("blocksum", "orthonormal"), default="blocksum")
    p.add_argument("--block-map", default=None)
    p.add_argument("--graph", default=None, help="edge-list file (gft method)")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("classify", help="cross-validate a classifier on an embedding CSV")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--folds", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resamples", type=int, default=10_000)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("stats", help="paired comparison of two correctness CSVs")
    p.add_argument("--correct-a", required=True)
    p.add_argument("--correct-b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resamples", type=int, default=10_000)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--dump-rasters", action="store_true")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("default-config", help="write the documented default config")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_show_config)

    p = sub.add_parser("reproduce", help="canned experiment behind a shipped figure")
    p.add_argument("figure", choices=FIGURE_IDS)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--experimental-csv", default=None)
    p.add_argument("--block-map", default=None)
    p.add_argument("--rc-correct", default=None)
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ParseError, ZeroResponseError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ParameterError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

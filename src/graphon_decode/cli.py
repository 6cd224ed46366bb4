"""Command-line driver.

Subcommands cover the pipeline stages (gen-graph, simulate, embed, classify,
stats), the full run, and canned figure reproductions.  Exit codes: 0 success,
2 configuration error, 3 data error, 4 degraded (a surrogate dataset was
substituted for missing experimental inputs).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .classify import (
    _check_class_sizes,
    cross_validated_accuracy,
    pair_by_trial_id,
    paired_difference_stats,
    read_correctness_csv,
    write_report,
)
from .embedding import CONVENTIONS, read_embeddings_csv, write_embeddings_csv
from .errors import (
    ConfigError, ContractError, DataError, ParameterError, ParseError, SingularSystemError, ZeroResponseError
)
from .experiment import (
    FIGURE_IDS,
    METHODS,
    ClassifySection,
    EmbeddingSection,
    ExperimentConfig,
    load_config,
    map_indices,
    project,
    reproduce,
    run_experiment,
    sample_graph,
    save_config,
    write_graph,
)
from .protocols import read_block_map, read_responses_csv
from .sbm import SbmConfig, eigendecompose, read_edge_list, _write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DEGRADED = 4


def _load_or_default_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config = replace(config, sbm=replace(config.sbm, seed=args.seed))
    if args.out is not None:
        config = replace(config, io=replace(config.io, out_dir=str(args.out)))
    return config


def _cmd_gen_graph(args) -> int:
    adjacency = sample_graph(SbmConfig(alpha=args.alpha, n=args.n, seed=args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_graph(adjacency, out)
    print(f"wrote graph and spectra for {adjacency.size} nodes to {out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = _load_or_default_config(args)
    config = replace(
        config,
        embedding=replace(config.embedding, methods=()),
        classify=replace(config.classify, enabled=False),
    )
    summary = run_experiment(config, jobs=args.jobs, dump_rasters=args.dump_rasters)
    print(
        f"simulated {summary['n_responses']} responses "
        f"({len(summary['skipped_trials'])} skipped) into {summary['out_dir']}"
    )
    return EXIT_OK


def _cmd_embed(args) -> int:
    responses = read_responses_csv(args.responses)
    length = responses.values.shape[1]
    block_map = decomposition = None
    if args.method == "graphon" and args.block_map:  # the only method that reads a block map
        block_map = read_block_map(args.block_map, expected_size=length)
    if args.method == "gft":
        if not args.graph:
            raise ConfigError("--graph EDGELIST is required for the gft method")
        graph = read_edge_list(args.graph)
        if graph.size != length:
            raise DataError(f"{args.graph} has {graph.size} nodes, {args.responses} has {length} columns")
        decomposition = eigendecompose(graph)
    es = project(args.method, responses, map_indices(args.dims), block_map, args.convention, decomposition)
    write_embeddings_csv(es, args.out)
    print(f"wrote {es.coords.shape[0]} x {es.coords.shape[1]} {args.method} embedding to {args.out}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    es = read_embeddings_csv(args.embeddings)
    _check_class_sizes(es.labels, sorted(set(es.labels)), args.folds, f"{args.embeddings}: ")
    report = cross_validated_accuracy(
        es.labels, es.coords, folds=args.folds, lam=args.lam, seed=args.seed, resamples=args.resamples
    )
    write_report(args.out, report, extra={"method": es.method, "embeddings": args.embeddings})
    print(f"accuracy {report.accuracy:.3f} ci95 [{report.ci95[0]:.3f}, {report.ci95[1]:.3f}]")
    return EXIT_OK


def _cmd_stats(args) -> int:
    paths = (args.correct_a, args.correct_b)
    a, b = pair_by_trial_id(*map(read_correctness_csv, paths), names=paths)
    if a.size < 2:
        raise DataError(f"{paths[0]} and {paths[1]} pair on {a.size} trial id(s); need at least 2")
    ps = paired_difference_stats(a, b, resamples=args.resamples, seed=args.seed)
    _write_csv(args.out, [
        ("key", "value"),
        ("mean_difference", ps.mean_difference),
        ("diff_ci95_low", ps.diff_ci95[0]),
        ("diff_ci95_high", ps.diff_ci95[1]),
        ("effect_size", ps.effect_size),
        ("required_n_for_80pct_power", ps.required_n),
    ])
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
    save_config(ExperimentConfig(), args.out)
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
    # the flags of the commands that run a config: simulate and run
    config_run = argparse.ArgumentParser(add_help=False)
    config_run.add_argument("--config", default=None)
    config_run.add_argument("--seed", type=int, default=None)
    config_run.add_argument("--out", default=None)
    config_run.add_argument("--jobs", type=int, default=1)
    config_run.add_argument("--dump-rasters", action="store_true")

    p = sub.add_parser("gen-graph", help="sample a block graph and write its spectra")
    p.add_argument("--alpha", type=float, default=SbmConfig.alpha)
    p.add_argument("--n", type=int, default=SbmConfig.n, help="nodes per block")
    p.add_argument("--seed", type=int, default=SbmConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen_graph)

    p = sub.add_parser("simulate", parents=[config_run], help="run stimulated trials and write responses")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("embed", help="project a response CSV into coordinates")
    p.add_argument("--responses", required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dims", type=int, default=EmbeddingSection.dimensions)
    p.add_argument("--convention", choices=CONVENTIONS, default=EmbeddingSection.convention)
    p.add_argument("--block-map", default=None)
    p.add_argument("--graph", default=None, help="edge-list file (gft method)")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("classify", help="cross-validate a classifier on an embedding CSV")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lam", type=float, default=ClassifySection.lam)
    p.add_argument("--folds", type=int, default=ClassifySection.folds)
    p.add_argument("--seed", type=int, default=ClassifySection.seed)
    p.add_argument("--resamples", type=int, default=ClassifySection.resamples)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("stats", help="paired comparison of two correctness CSVs")
    p.add_argument("--correct-a", required=True)
    p.add_argument("--correct-b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=ClassifySection.seed)
    p.add_argument("--resamples", type=int, default=ClassifySection.resamples)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("run", parents=[config_run], help="full pipeline from a config file")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("default-config", help="write the documented default config")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_show_config)

    p = sub.add_parser("reproduce", help="canned experiment behind a shipped figure")
    p.add_argument("figure", choices=FIGURE_IDS)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=SbmConfig.seed)
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
    except (DataError, ParseError, ZeroResponseError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ParameterError, ContractError, SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

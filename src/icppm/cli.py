"""Command line front end.

Subcommands: stats, prepare, encode, bench, kernel-check. Exit codes:
0 success, 2 for configuration or input problems (bad flags, unparsable
logs, missing files, unusable output paths), 1 for runtime
failures (training divergence, one-class training labels, a failed kernel
self-check).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import bench as bench_mod
from .bench import DATA_DIR_ENV, ExperimentConfig
from .encoding import INTRA_ENCODERS, apply_scaler, fit_scaler, write_feature_csv
from .errors import ConfigError, IcppmError, ParseError
from .eventlog import _SLICE_RULES, log_statistics, write_csv
from .oracles import run_kernel_check
from .qsim import FEATURE_MAPS


CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


def _csv_tuple(text: str) -> tuple[str, ...]:
    return tuple(item for item in text.split(",") if item)


def _config(args, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """``base`` (default: the config defaults) with every config key given on
    the command line: a flag whose destination is a config key sets it, and a
    flag left out keeps the base's value."""
    given = {key: value for key, value in vars(args).items() if key in CONFIG_KEYS}
    return replace(base or ExperimentConfig(), **given)


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dataset", metavar="log",
                        help=f"event log path (.xes/.csv, optionally .gz); "
                             f"relative paths also resolve under ${DATA_DIR_ENV}")
    parser.add_argument("--format", dest="fmt", choices=("xes", "csv"),
                        help="override format detection")
    parser.add_argument("--filter-singletons", action="store_true",
                        help="drop cases whose activity sequence occurs only once")
    parser.add_argument("--date-start", help="keep cases from this day (YYYYMMDD)")
    parser.add_argument("--date-end", help="keep cases up to this day (YYYYMMDD)")
    parser.add_argument("--slice-rule", choices=_SLICE_RULES,
                        help="which events must fall in the date range "
                             f"(default: {ExperimentConfig.slice_rule})")


def _cmd_stats(args) -> int:
    stats = log_statistics(bench_mod.load_and_slice(_config(args)))
    if args.json:
        print(json.dumps(stats, sort_keys=True))
    else:
        for key in ("cases", "events", "activities", "variants", "median_case_time"):
            print(f"{key}: {stats[key]}")
    return 0


def _cmd_prepare(args) -> int:
    log = bench_mod.load_and_slice(_config(args))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as sink:
        write_csv(log, sink)
    print(f"wrote {len(log)} cases / {log.n_events} events to {out}")
    return 0


def _cmd_encode(args) -> int:
    cfg = _config(args)
    log, samples = bench_mod.prepare_samples(cfg)
    index = bench_mod.EventIndex(log) if cfg.inter_features else None
    block = bench_mod.fit_encoder(cfg, log, index)(samples)
    if args.scale:
        block = apply_scaler(block, fit_scaler(block, (cfg.scale_lo, cfg.scale_hi)))
    labels = samples.labels
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as sink:
        write_feature_csv(block, labels, sink)
    print(f"wrote {len(block)} samples x {len(block.schema)} features to {out}")
    return 0


def _cmd_bench(args) -> int:
    cfg = _config(args, ExperimentConfig.from_json(args.config))
    if args.exact:
        cfg = replace(cfg, shots=None)
    # An unusable output directory fails here, before any fold runs.
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    results = bench_mod.sweep(cfg)
    for r in results:
        folds = " ".join(f"{a:.4f}" for a in r.fold_accuracies)
        print(f"{r.classifier} {r.features}: mean accuracy {r.mean_accuracy:.4f} "
              f"(folds {folds}) fit {r.fit_time_s:.2f}s "
              f"kernel evals {r.kernel_evaluations}")
    csv_path, json_path = bench_mod.emit_results(results, args.out_dir)
    print(f"results written to {csv_path} and {json_path}")
    return 0


def _cmd_kernel_check(args) -> int:
    report = run_kernel_check(
        n_qubits=args.qubits,
        variant=args.feature_map,
        layers=args.layers,
        n_samples=args.samples,
        seed=args.seed,
        perturb=args.self_test_perturb,
    )
    dense = "on" if report["dense_oracle"] else "off (beyond dense-oracle cap)"
    print(f"kernel check: {args.qubits} qubits, map {args.feature_map} x{args.layers}, "
          f"{args.samples} samples, dense oracle {dense}")
    print(f"min Gram eigenvalue: {report['min_gram_eigenvalue']:.3e}")
    for failure in report["failures"]:
        print(f"FAIL: {failure}")
    if args.self_test_perturb:
        if report["passed"]:
            print("self-test: injected error was NOT detected")
            return 1
        print("self-test: injected error detected as expected")
        return 0
    print("PASS" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icppm",
        description="Next-activity prediction with quantum kernel methods",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags default to argparse.SUPPRESS, so only flags given on the command
    # line reach _config.
    config_parser = dict(argument_default=argparse.SUPPRESS)
    p_stats = sub.add_parser("stats", help="print summary statistics of a log", **config_parser)
    _add_io_flags(p_stats)
    p_stats.add_argument("--json", action="store_true", default=False,
                         help="machine-readable output")
    p_stats.set_defaults(func=_cmd_stats)

    p_prep = sub.add_parser("prepare", help="preprocess a log and write canonical CSV",
                            **config_parser)
    _add_io_flags(p_prep)
    p_prep.add_argument("--out", required=True, help="output CSV path")
    p_prep.set_defaults(func=_cmd_prepare)

    p_enc = sub.add_parser("encode", help="expand prefixes and write a feature CSV",
                           **config_parser)
    _add_io_flags(p_enc)
    p_enc.add_argument("--out", required=True, help="output CSV path")
    p_enc.add_argument("--encoder", choices=INTRA_ENCODERS)
    p_enc.add_argument("--k", type=int, help="index encoding prefix length")
    p_enc.add_argument("--static-attrs", type=_csv_tuple,
                       help="comma-separated case attributes for the static encoder")
    p_enc.add_argument("--inter", dest="inter_features", type=_csv_tuple,
                       help="comma-separated inter-case features (max 2)")
    p_enc.add_argument("--window-fraction", type=float)
    p_enc.add_argument("--window-base", type=float,
                       help="window base in seconds (default: median case duration)")
    p_enc.add_argument("--epsilon", type=float, help="batch detection window in seconds")
    p_enc.add_argument("--min-burst", type=int, help="distinct cases needed to mark a batch")
    p_enc.add_argument("--min-prefix", type=int)
    p_enc.add_argument("--max-prefix", type=int)
    p_enc.add_argument("--no-scale", dest="scale", action="store_false",
                       help="write raw feature values instead of [0, pi] scaled")
    p_enc.set_defaults(func=_cmd_encode, scale=True)

    p_bench = sub.add_parser("bench", help="run a cross-validated experiment", **config_parser)
    p_bench.add_argument("--config", required=True, help="experiment config JSON")
    p_bench.add_argument("--out-dir", default="results", help="output directory")
    p_bench.add_argument("--seed", type=int, help="override config seed")
    p_bench.add_argument("--shots", type=int, help="override shots per kernel estimate")
    p_bench.add_argument("--exact", action="store_true", default=False,
                         help="force exact simulation (overrides --shots)")
    p_bench.set_defaults(func=_cmd_bench)

    p_kc = sub.add_parser("kernel-check",
                          help="self-check the simulator against dense linear algebra")
    p_kc.add_argument("--qubits", type=int, default=4)
    p_kc.add_argument("--feature-map", default="zz", choices=FEATURE_MAPS)
    p_kc.add_argument("--layers", type=int, default=1)
    p_kc.add_argument("--samples", type=int, default=6)
    p_kc.add_argument("--seed", type=int, default=0)
    p_kc.add_argument("--self-test-perturb", action="store_true",
                      help="inject a gate error and confirm the check fails")
    p_kc.set_defaults(func=_cmd_kernel_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (ConfigError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IcppmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

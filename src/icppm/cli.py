"""Command line front end.

Subcommands: stats, prepare, encode, bench, kernel-check. Exit codes:
0 success, 2 for configuration or input problems (bad flags, unparsable
logs, missing files), 1 for runtime failures (training divergence, a
failed kernel self-check).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import bench as bench_mod
from .bench import DATA_DIR_ENV, ExperimentConfig
from .encoding import INTRA_ENCODERS, apply_scaler, fit_scaler, write_feature_csv
from .errors import ConfigError, IcppmError, ParseError
from .eventlog import log_statistics, write_csv
from .oracles import run_kernel_check
from .qsim import FEATURE_MAPS


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("log", help=f"event log path (.xes/.csv, optionally .gz); "
                                    f"relative paths also resolve under ${DATA_DIR_ENV}")
    parser.add_argument("--format", dest="fmt", choices=("xes", "csv"), default=None,
                        help="override format detection")
    parser.add_argument("--filter-singletons", action="store_true",
                        help="drop cases whose activity sequence occurs only once")
    parser.add_argument("--date-start", default=None, help="keep cases from this day (YYYYMMDD)")
    parser.add_argument("--date-end", default=None, help="keep cases up to this day (YYYYMMDD)")
    parser.add_argument("--slice-rule", choices=("first", "all", "any"), default="first",
                        help="which events must fall in the date range (default: first)")


def _io_config(args, **fields) -> ExperimentConfig:
    """Config of the log and preprocessing flags from ``_add_io_flags``."""
    return ExperimentConfig(
        dataset=args.log,
        fmt=args.fmt,
        filter_singletons=args.filter_singletons,
        date_start=args.date_start,
        date_end=args.date_end,
        slice_rule=args.slice_rule,
        **fields,
    )


def _cmd_stats(args) -> int:
    stats = log_statistics(bench_mod.load_and_slice(_io_config(args)))
    if args.json:
        print(json.dumps(stats, sort_keys=True))
    else:
        for key in ("cases", "events", "activities", "variants", "median_case_time"):
            print(f"{key}: {stats[key]}")
    return 0


def _cmd_prepare(args) -> int:
    log = bench_mod.load_and_slice(_io_config(args))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as sink:
        write_csv(log, sink)
    print(f"wrote {len(log)} cases / {log.n_events} events to {out}")
    return 0


def _cmd_encode(args) -> int:
    inter_features = tuple(f for f in (args.inter or "").split(",") if f)
    cfg = _io_config(
        args,
        min_prefix=args.min_prefix,
        max_prefix=args.max_prefix,
        encoder=args.encoder,
        k=args.k,
        static_attrs=tuple(args.static_attrs.split(",")) if args.static_attrs else (),
        inter_features=inter_features,
        window_fraction=args.window_fraction,
        window_base=args.window_base if args.window_base is not None else "train_median",
        epsilon=args.epsilon,
        min_burst=args.min_burst,
        seed=args.seed,
    )
    log, samples = bench_mod.prepare_samples(cfg)
    index = bench_mod.EventIndex(log) if inter_features else None
    block = bench_mod.fit_encoder(cfg, log, index)(samples)
    if args.scale:
        block = apply_scaler(block, fit_scaler(block, (cfg.scale_lo, cfg.scale_hi)))
    labels = [s.label for s in samples]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as sink:
        write_feature_csv(block, labels, sink)
    print(f"wrote {len(block)} samples x {len(block.schema)} features to {out}")
    return 0


def _cmd_bench(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.shots is not None:
        overrides["shots"] = args.shots
    if args.exact:
        overrides["shots"] = None
    if overrides:
        cfg = replace(cfg, **overrides)

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
    if args.qubits > 20:
        raise ConfigError(f"kernel check is capped at 20 qubits, got {args.qubits}")
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

    p_stats = sub.add_parser("stats", help="print summary statistics of a log")
    _add_io_flags(p_stats)
    p_stats.add_argument("--json", action="store_true", help="machine-readable output")
    p_stats.set_defaults(func=_cmd_stats)

    p_prep = sub.add_parser("prepare", help="preprocess a log and write canonical CSV")
    _add_io_flags(p_prep)
    p_prep.add_argument("--out", required=True, help="output CSV path")
    p_prep.set_defaults(func=_cmd_prepare)

    p_enc = sub.add_parser("encode", help="expand prefixes and write a feature CSV")
    _add_io_flags(p_enc)
    p_enc.add_argument("--out", required=True, help="output CSV path")
    p_enc.add_argument("--encoder", default="index_bsd", choices=INTRA_ENCODERS)
    p_enc.add_argument("--k", type=int, default=4, help="index encoding prefix length")
    p_enc.add_argument("--static-attrs", default="",
                       help="comma-separated case attributes for the static encoder")
    p_enc.add_argument("--inter", default="",
                       help="comma-separated inter-case features (max 2)")
    p_enc.add_argument("--window-fraction", type=float, default=0.3)
    p_enc.add_argument("--window-base", type=float, default=None,
                       help="window base in seconds (default: median case duration)")
    p_enc.add_argument("--epsilon", type=float, default=86400.0,
                       help="batch detection window in seconds")
    p_enc.add_argument("--min-burst", type=int, default=3,
                       help="distinct cases needed to mark a batch")
    p_enc.add_argument("--min-prefix", type=int, default=1)
    p_enc.add_argument("--max-prefix", type=int, default=None)
    p_enc.add_argument("--seed", type=int, default=0)
    p_enc.add_argument("--no-scale", dest="scale", action="store_false",
                       help="write raw feature values instead of [0, pi] scaled")
    p_enc.set_defaults(func=_cmd_encode, scale=True)

    p_bench = sub.add_parser("bench", help="run a cross-validated experiment")
    p_bench.add_argument("--config", required=True, help="experiment config JSON")
    p_bench.add_argument("--out-dir", default="results", help="output directory")
    p_bench.add_argument("--seed", type=int, default=None, help="override config seed")
    p_bench.add_argument("--threads", type=int, default=None,
                         help="accepted for existing scripts; has no effect")
    p_bench.add_argument("--shots", type=int, default=None,
                         help="override shots per kernel estimate")
    p_bench.add_argument("--exact", action="store_true",
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
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IcppmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

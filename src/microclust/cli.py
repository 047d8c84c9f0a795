"""Batch front-end: cluster | sweep | eval | bench subcommands."""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .data import DataError, Dataset, generate_synthetic, load_csv
from .linalg import NumericalError
from .metrics import metrics_report
from .pipeline import (
    ConfigError,
    RunConfig,
    aggregate_metrics,
    run_pipeline,
    run_repeated,
    shared_stages,
    write_json_atomic,
    write_labels_csv,
    write_similarity_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def load_dataset_spec(spec: str, labels_col=None) -> Dataset:
    """A dataset argument: either a CSV path or "synth:<kind>:<size>[:key=val...]".

    Recognized synth keys: noise (default 0.05), seed (default 0), components
    (blobs only, default 3).  Example: synth:blobs:4000:noise=0.05:components=8
    """
    if not spec.startswith("synth:"):
        return load_csv(spec, labels_col)
    parts = spec.split(":")
    if len(parts) < 3:
        raise ConfigError(f"bad synthetic spec {spec!r}")
    kind = parts[1]
    try:
        size = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad size in synthetic spec {spec!r}") from exc
    opts = {"noise": 0.05, "seed": 0, "components": 3}
    for token in parts[3:]:
        if "=" not in token:
            raise ConfigError(f"bad option {token!r} in synthetic spec {spec!r}")
        key, val = token.split("=", 1)
        if key not in opts:
            raise ConfigError(f"unknown option {key!r} in synthetic spec {spec!r}")
        try:
            opts[key] = float(val) if key == "noise" else int(val)
        except ValueError as exc:
            raise ConfigError(f"bad value {val!r} for {key} in synthetic spec {spec!r}") from exc
    return generate_synthetic(
        kind, size, opts["noise"], opts["seed"], components=opts["components"]
    )


def _pct(x: float) -> str:
    return f"{100.0 * x:6.2f}%"


def _print_metrics(tag: str, rep: dict) -> None:
    std = rep.get("std")
    extra = ""
    if std:
        extra = (
            f"  (± {100 * std['ari']:.2f} / {100 * std['nmi']:.2f} / {100 * std['acc']:.2f})"
        )
    print(
        f"{tag}: ARI {_pct(rep['ari'])}  NMI {_pct(rep['nmi'])}  ACC {_pct(rep['acc'])}{extra}"
    )


def _build_config(args) -> RunConfig:
    cfg = RunConfig.from_ini(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {
        "algorithm": getattr(args, "algo", None),
        "k": getattr(args, "k", None),
        "lam": getattr(args, "lambda_", None),
        "beta": getattr(args, "beta", None),
        "n_clusters": getattr(args, "clusters", None),
        "seed": getattr(args, "seed", None),
        "mode": getattr(args, "mode", None),
        "input": getattr(args, "input", None),
        "labels_col": getattr(args, "labels_col", None),
        "out_dir": getattr(args, "out_dir", None),
        "runs": getattr(args, "runs", None),
        "dump_micro": True if getattr(args, "dump_micro", False) else None,
    }
    if getattr(args, "no_normalize", False):
        overrides["normalization"] = "none"
    return cfg.with_overrides(**overrides)


def cmd_cluster(args) -> int:
    cfg = _build_config(args)
    if not cfg.input:
        raise ConfigError("cluster requires --input (or input= in the config file)")
    ds = load_dataset_spec(cfg.input, cfg.labels_col)
    os.makedirs(cfg.out_dir, exist_ok=True)

    results, reports = run_repeated(ds, cfg)
    primary = results[0]
    write_labels_csv(primary.point_labels, os.path.join(cfg.out_dir, "labels.csv"))
    print(f"{cfg.algorithm} on {ds.name or cfg.input}: n={ds.n} d={ds.d} "
          f"m={primary.meta['m']} C={cfg.n_clusters} runs={cfg.runs}")
    if reports[0] is not None:
        agg = aggregate_metrics(reports, cfg.seed, cfg.runs)
        write_json_atomic(agg, os.path.join(cfg.out_dir, "metrics.json"))
        _print_metrics("metrics", agg)
    if cfg.dump_micro:
        dump = primary.meta.get("micro_clusters", [])
        write_json_atomic(dump, os.path.join(cfg.out_dir, "micro_clusters.json"))
        write_json_atomic(
            primary.meta.get("split_records", []),
            os.path.join(cfg.out_dir, "split_log.json"),
        )
        if primary.similarity is not None:
            write_similarity_csv(primary.similarity, os.path.join(cfg.out_dir, "similarity.csv"))
        if "balls" in primary.meta:
            write_json_atomic(primary.meta["balls"], os.path.join(cfg.out_dir, "balls.json"))
    for w in primary.meta["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def _int(token: str, text: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise ConfigError(f"not an integer: {token!r} in {text!r}") from exc


def parse_k_range(text: str) -> list[int]:
    """"2:50" -> [2..50]; a single integer is a one-point range."""
    if ":" in text:
        lo, hi = (_int(tok, text) for tok in text.split(":", 1))
        if lo > hi:
            raise ConfigError(f"empty k range {text!r}")
        return list(range(lo, hi + 1))
    return [_int(text, text)]


def parse_int_set(text: str) -> list[int]:
    """"8,16" -> [8, 16]; empty items are skipped, but the set may not be empty."""
    values = [_int(tok, text) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ConfigError(f"empty set {text!r}")
    return values


def run_sweep(ds: Dataset, cfg: RunConfig, k_values: list[int], beta_values: list[int]) -> dict:
    """Evaluate every (k, beta) with a single seeded run each; pick best by ACC.

    The cells share their seed-free stages (see ``shared_stages``), so a
    cell's runtime_ms leaves out the stages an earlier cell computed.
    """
    if ds.labels is None:
        raise ConfigError("sweep requires ground-truth labels (--labels-col)")
    rows = []
    best = None
    with shared_stages(ds):
        for k in k_values:
            for beta in beta_values:
                run_cfg = replace(cfg, k=k, beta=beta, runs=1)
                t0 = time.perf_counter()
                try:
                    res = run_pipeline(ds, run_cfg)
                except (RuntimeError, ValueError) as exc:
                    rows.append({"k": k, "beta": beta, "failed": True, "reason": str(exc)})
                    continue
                elapsed = (time.perf_counter() - t0) * 1e3
                rep = metrics_report(res.point_labels, ds.labels, elapsed)
                row = {"k": k, "beta": beta, "failed": False, "m": res.meta["m"], **rep}
                rows.append(row)
                if best is None or row["acc"] > best["acc"]:
                    best = row
    if best is None:
        raise NumericalError("every sweep configuration failed")
    return {
        "dataset": ds.name,
        "algorithm": cfg.algorithm,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "k_values": k_values,
        "beta_values": beta_values,
        "rows": rows,
        "best": best,
    }


def cmd_sweep(args) -> int:
    cfg = _build_config(args)
    if not cfg.input:
        raise ConfigError("sweep requires --input")
    ds = load_dataset_spec(cfg.input, cfg.labels_col)
    report = run_sweep(ds, cfg, parse_k_range(args.k_range), parse_int_set(args.beta_set))
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_json_atomic(report, os.path.join(cfg.out_dir, "sweep.json"))
    print(f"sweep {cfg.algorithm} on {ds.name}: {len(report['rows'])} configs")
    for row in report["rows"]:
        if row["failed"]:
            print(f"  k={row['k']:3d} beta={row['beta']:3d}  failed: {row['reason']}")
        else:
            print(
                f"  k={row['k']:3d} beta={row['beta']:3d}  "
                f"ARI {_pct(row['ari'])}  NMI {_pct(row['nmi'])}  ACC {_pct(row['acc'])}"
            )
    best = report["best"]
    print(f"best by ACC: k={best['k']} beta={best['beta']}")
    _print_metrics("best", best)
    return EXIT_OK


def _read_labels_csv(path) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    if rows[0] and rows[0][0].strip().lower() == "label":
        rows = rows[1:]
    try:
        return np.array([int(float(r[0])) for r in rows], dtype=np.int64)
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric label: {exc}") from exc


def cmd_eval(args) -> int:
    ds = load_dataset_spec(args.input, args.labels_col)
    if ds.labels is None:
        raise ConfigError("eval requires ground-truth labels (--labels-col)")
    pred = _read_labels_csv(args.pred)
    if pred.shape[0] != ds.n:
        raise DataError(f"{args.pred}: {pred.shape[0]} labels for {ds.n} rows")
    rep = metrics_report(pred, ds.labels)
    os.makedirs(args.out_dir, exist_ok=True)
    write_json_atomic(rep, os.path.join(args.out_dir, "metrics.json"))
    _print_metrics("eval", rep)
    return EXIT_OK


def run_bench(dataset_specs, algorithms, cfg: RunConfig, labels_col=None) -> dict:
    """Stage timings + accuracy per (dataset, algorithm); failures isolated."""
    rows = []
    for spec in dataset_specs:
        try:
            ds = load_dataset_spec(spec, labels_col)
        except (DataError, ConfigError) as exc:
            rows.append({"dataset": spec, "failed": True, "reason": str(exc)})
            continue
        n_clusters = cfg.n_clusters
        if ds.labels is not None:
            n_clusters = max(2, int(np.unique(ds.labels).size))
        for algo in algorithms:
            run_cfg = replace(cfg, algorithm=algo, n_clusters=n_clusters)
            try:
                results, reports = run_repeated(ds, run_cfg)
            except (RuntimeError, ValueError) as exc:
                rows.append(
                    {"dataset": spec, "algorithm": algo, "failed": True, "reason": str(exc)}
                )
                continue
            stage_keys = ("construction", "splitting", "similarity", "spectral", "total")
            stage_ms = {
                key: float(np.mean([r.meta["timings_ms"][key] for r in results]))
                for key in stage_keys
            }
            meta = results[0].meta
            row = {
                "dataset": ds.name or spec,
                "algorithm": algo,
                "failed": False,
                "n": ds.n,
                "d": ds.d,
                "C": n_clusters,
                "m": meta["m"],
                "n_star": meta["n_star_initial"],
                "runs": run_cfg.runs,
                "stage_ms": {k: v for k, v in stage_ms.items() if k != "total"},
                "total_ms": stage_ms["total"],
                "acc": (
                    float(np.mean([r["acc"] for r in reports])) if reports[0] is not None else None
                ),
            }
            rows.append(row)
    return {"seed": cfg.seed, "rows": rows}


def cmd_bench(args) -> int:
    cfg = _build_config(args)
    specs = [s for s in args.datasets.split(",") if s.strip()]
    algos = [a for a in args.algos.split(",") if a.strip()]
    if not specs or not algos:
        raise ConfigError("bench requires --datasets and --algos")
    for algo in algos:
        replace(cfg, algorithm=algo)  # validate names up front
    report = run_bench(specs, algos, cfg, labels_col=getattr(args, "labels_col", None))
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_json_atomic(report, os.path.join(cfg.out_dir, "bench.json"))
    for row in report["rows"]:
        if row["failed"]:
            print(f"{row['dataset']}: FAILED ({row['reason']})")
        else:
            acc_txt = _pct(row["acc"]) if row["acc"] is not None else "   n/a"
            s = row["stage_ms"]
            print(
                f"{row['dataset']:>20} {row['algorithm']:>6}  n={row['n']:<6} m={row['m']:<5} "
                f"n*={row['n_star']:<5} ACC {acc_txt}  "
                f"[constr {s['construction']:.1f} | split {s['splitting']:.1f} | "
                f"sim {s['similarity']:.1f} | spec {s['spectral']:.1f}] ms"
            )
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algo", choices=["mdmsc", "gbsc", "sc"], help="clustering algorithm")
    p.add_argument("--k", type=int, help="neighbor count")
    p.add_argument("--lambda", dest="lambda_", type=float, help="curvature threshold")
    p.add_argument("--beta", type=int, help="minimum splittable cluster size")
    p.add_argument("--clusters", type=int, help="target cluster count C")
    p.add_argument("--seed", type=int, help="master random seed")
    p.add_argument(
        "--mode",
        choices=["full", "single-cluster", "no-split", "compactness-only"],
        help="ablation mode (a=single-cluster, b=no-split, c=compactness-only)",
    )
    p.add_argument("--runs", type=int, help="repeat runs with seeds seed..seed+R-1")
    p.add_argument("--out-dir", help="output directory")
    p.add_argument("--no-normalize", action="store_true", help="skip min-max normalization")
    p.add_argument("--config", help="INI config file; flags override its values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microclust",
        description="Micro-cluster spectral clustering toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="run one clustering configuration")
    p_cluster.add_argument("--input", help="CSV path or synth:<kind>:<size>[:key=val...]")
    p_cluster.add_argument("--labels-col", help="ground-truth column: index, name, or 'last'")
    p_cluster.add_argument("--dump-micro", action="store_true", help="write micro-cluster dump JSON")
    _add_common(p_cluster)
    p_cluster.set_defaults(func=cmd_cluster)

    p_sweep = sub.add_parser("sweep", help="grid search over k and beta")
    p_sweep.add_argument("--input", required=True)
    p_sweep.add_argument("--labels-col", help="ground-truth column (required unless synthetic)")
    p_sweep.add_argument("--k-range", default="2:50", help="inclusive range, e.g. 2:50")
    p_sweep.add_argument("--beta-set", default="8,16", help="comma-separated beta values")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_eval = sub.add_parser("eval", help="score a predicted-labels CSV against ground truth")
    p_eval.add_argument("--pred", required=True, help="labels CSV (header 'label')")
    p_eval.add_argument("--input", required=True)
    p_eval.add_argument("--labels-col", required=True)
    p_eval.add_argument("--out-dir", default="out")
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="stage timings across datasets and algorithms")
    p_bench.add_argument("--datasets", required=True, help="comma-separated dataset specs")
    p_bench.add_argument("--algos", default="mdmsc", help="comma-separated algorithms")
    p_bench.add_argument("--labels-col", help="ground-truth column for CSV datasets")
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

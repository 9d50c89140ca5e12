"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Every command is deterministic under a fixed --seed; artifacts
land under --out as JSON/CSV/SVG next to a human-readable summary on
stdout.
"""

import argparse
import dataclasses
import json
import os
import shutil
import sys
import tempfile

import numpy as np

from .errors import ConfigError, DataError, NumericalError, TrainingDiverged
from .bench import (degree_report, random_search, run_bench, split_by_id,
                    write_json_atomic, write_text_atomic)
from .graph import (Graph, _split_index, generate_split, generate_splits,
                    load_dataset, load_splits, save_dataset, save_splits)
from .heatmap import cm_to_csv, cm_to_svg
from .metrics import edge_homophily, node_homophily, observed_cm
from .records import decode, read_json
from .sparse import knn_feature_graph
from .synth import PATTERNS, generate_graph, make_synth_spec, verify_graph
from .training import RunConfig, RunResult, train_model


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a bad argument: exit 2, one line on stderr
        raise ConfigError(f"{self.prog}: {message}")


def positive_int(text):
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def _add_run_flags(p):
    p.add_argument("--seed", type=int, default=None,
                   help="base random seed (default: the config file's, else 0)")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file of run-config fields (CLI flags override)")
    p.add_argument("--out", type=str, default=None, help="artifact directory")
    p.add_argument("--model", type=str, default=None,
                   help="compatgnn, a preset name, or a model-spec JSON path")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--lambda", dest="lambda_", type=float, default=None,
                   help="discrimination loss weight")
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--nhidden", type=int, default=None)
    p.add_argument("--relu-variant", type=int, choices=(0, 1), default=None)
    p.add_argument("--structure-info", type=int, choices=(0, 1), default=None)
    p.add_argument("--max-epochs", type=int, default=None)


def _parse_split_ids(text):
    ids = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            try:
                lo, hi = int(lo), int(hi)
            except ValueError:
                raise ConfigError(f"bad split range {part!r}") from None
            if hi < lo:
                raise ConfigError(f"bad split range {part!r}")
            ids.extend(range(lo, hi + 1))
        else:
            try:
                ids.append(int(part))
            except ValueError:
                raise ConfigError(f"bad split id {part!r}") from None
    if not ids:
        raise ConfigError(f"no split ids in {text!r}")
    return ids


def _build_config(args):
    """The --config file's RunConfig with the command-line flags over it."""
    config = (RunConfig.from_dict(read_json(args.config, ConfigError),
                                  where=f"config {args.config}")
              if args.config else RunConfig())
    flags = {key: getattr(args, key, None) for key in (
        "model", "lr", "weight_decay", "patience", "dropout", "lambda_",
        "layers", "nhidden", "max_epochs", "seed")}
    for key in ("relu_variant", "structure_info"):
        if getattr(args, key, None) is not None:
            flags[key] = bool(getattr(args, key))
    if getattr(args, "data", None):
        flags["dataset"] = args.data
    if getattr(args, "splits", None):
        flags["split_ids"] = _parse_split_ids(args.splits)
    elif getattr(args, "split", None) is not None:
        flags["split_ids"] = [args.split]
    config = dataclasses.replace(
        config, **{k: v for k, v in flags.items() if v is not None})
    config.validate()
    # run_bench repeats a repeated id's identical run; a command trains each split once
    repeated = sorted({i for i in config.split_ids if config.split_ids.count(i) > 1})
    if repeated:
        raise ConfigError(f"split ids {repeated} repeat in {config.split_ids}")
    return config


def _load_graph_and_splits(config):
    """The dataset and its splits by id: the stored ones, or for a dataset
    without splits/ the configured ids' splits, each drawn alone."""
    if not config.dataset:
        raise ConfigError("no dataset given (--data or config 'dataset')")
    g = load_dataset(config.dataset)
    if os.path.isdir(os.path.join(config.dataset, "splits")):
        return g, load_splits(config.dataset, g.n_nodes)
    return g, {sid: generate_split(g, sid, config.seed) for sid in config.split_ids}


# ---------------------------------------------------------------------------
# commands

def cmd_dataset_inspect(args):
    g = load_dataset(args.path)
    deg = g.degrees
    info = {
        "name": g.name,
        "n_nodes": g.n_nodes,
        "n_edges": g.n_edges,
        "n_classes": g.n_classes,
        "d_f": g.d_f,
        "directed": g.directed,
        "degree_min": int(deg.min()),
        "degree_mean": float(deg.mean()),
        "degree_max": int(deg.max()),
        "isolated_nodes": int(np.sum(deg == 0)),
    }
    if np.all(g.labels >= 0) and len(g.indices):
        info["edge_homophily"] = edge_homophily(g)
        info["edge_homophily_basis"] = ("directed-entries" if g.directed
                                        else "undirected-edges")
        info["node_homophily"] = node_homophily(g)
    for k, v in info.items():
        print(f"{k:24s} {v}")
    if args.out:
        write_json_atomic(os.path.join(args.out, "inspect.json"), info)
    return 0


def cmd_dataset_split(args):
    g = load_dataset(args.path)
    splits = generate_splits(g, args.n_splits, args.seed or 0)
    out = args.out or os.path.join(args.path, "splits")
    if os.path.exists(out):
        if not os.path.isdir(out):
            raise DataError(f"{out} is not a splits directory")
        stray = [name for name in sorted(os.listdir(out)) if _split_index(name) is None
                 or not os.path.isfile(os.path.join(out, name))]
        if stray:
            raise DataError(f"{out} holds {stray[0]!r}, which is not a split file")
    _replace_dir(os.path.abspath(out), lambda new: save_splits(splits, new))
    s = splits[0]
    print(f"wrote {len(splits)} splits to {out} "
          f"(train/valid/test = {len(s.train)}/{len(s.valid)}/{len(s.test)})")
    return 0


def cmd_synth_gen(args):
    if not args.out:
        raise ConfigError("synth gen needs --out")
    out = os.path.abspath(args.out)
    if os.path.exists(out) and not (os.path.isdir(out) and (
            not os.listdir(out) or os.path.exists(os.path.join(out, "meta.json")))):
        raise ConfigError(f"--out {args.out} exists and is not a dataset directory")
    seed = args.seed or 0
    spec = make_synth_spec(args.nodes, args.classes, args.homophily,
                           args.pattern, args.degree, seed,
                           d_f=args.feature_dim,
                           mean_separation=args.mean_separation)
    g = generate_graph(spec)
    splits = generate_splits(g, args.n_splits, seed)
    report = verify_graph(g, spec)

    def fill(new):
        save_dataset(g, new)
        save_splits(splits, os.path.join(new, "splits"))
        write_json_atomic(os.path.join(new, "verify.json"), report)
    _replace_dir(out, fill)
    print(f"generated {g.n_nodes} nodes, {g.n_edges} edges "
          f"(mean degree {report['mean_degree']:.2f})")
    print(f"edge homophily {report['edge_homophily']:.3f} "
          f"(target {report['target_homophily']:.3f}); "
          f"max row TV {report['max_row_tv']:.3f}")
    return 0


def _replace_dir(out, fill):
    """Have fill(path) build a directory in a staging directory beside
    `out`, then rename it to `out`, replacing what is there. A failure at
    any step leaves `out` as it was and removes the staging directory; an
    OSError exits 3."""
    parent, name = os.path.split(out)
    try:
        os.makedirs(parent, exist_ok=True)
        stage = tempfile.mkdtemp(prefix=f".{name}.", dir=parent)
        new, old = os.path.join(stage, "new"), os.path.join(stage, "old")
        try:
            fill(new)
            if os.path.exists(out):
                os.rename(out, old)
            try:
                os.rename(new, out)
            except OSError:
                if os.path.exists(old):
                    os.rename(old, out)
                raise
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    except OSError as exc:
        raise DataError(f"could not write {out}: {exc}") from None


def cmd_train(args):
    config = _build_config(args)
    if len(config.split_ids) > 1:
        raise ConfigError(f"train runs one split, and the config names split ids "
                          f"{config.split_ids}: pick one with --split, or run bench")
    g, splits = _load_graph_and_splits(config)
    (sid,) = config.split_ids
    split = split_by_id(splits, sid)
    try:
        result = train_model(g, split, config, config.seed, split_id=sid)
    except TrainingDiverged as exc:
        if args.out and exc.partial_result is not None:
            write_json_atomic(os.path.join(args.out, "run.json"),
                              dataclasses.asdict(exc.partial_result))
        raise
    print(f"best epoch {result.best_epoch}  "
          f"val {100 * max(result.val_curve):.2f}  "
          f"test {100 * result.test_accuracy:.2f}")
    if args.out:
        write_json_atomic(os.path.join(args.out, "run.json"),
                          dataclasses.asdict(result))
    return 0


def cmd_bench(args):
    config = _build_config(args)
    g, splits = _load_graph_and_splits(config)
    report = run_bench(g, splits, config, out_dir=args.out)
    sys.stdout.write(report.text_table())
    if report.excluded_splits and not report.accuracies:
        raise NumericalError("every split diverged")
    return 0


def _read_run(path):
    """A RunResult from a JSON run record; a malformed one raises DataError."""
    return decode(RunResult, read_json(path, DataError), DataError,
                  f"run record {path}")


def cmd_degree_report(args):
    if os.path.isdir(args.runs):
        names = sorted(n for n in os.listdir(args.runs)
                       if n.startswith("run_split") and n.endswith(".json"))
        if not names:
            raise DataError(f"no run_split*.json under {args.runs}")
        runs = [_read_run(os.path.join(args.runs, n)) for n in names]
    else:
        runs = [_read_run(args.runs)]
    runs = [r for r in runs if not r.diverged]
    report = degree_report(runs, n_buckets=args.buckets)
    print("degree buckets (low -> high degree):")
    for i, (acc, size) in enumerate(zip(report["mean_accuracy"], report["sizes"])):
        print(f"  bucket {i}  size {size:5d}  acc {100 * acc:6.2f}")
    if args.out:
        write_json_atomic(os.path.join(args.out, "degree_report.json"), report)
    return 0


def cmd_search(args):
    config = _build_config(args)
    g, splits = _load_graph_and_splits(config)
    out_path = os.path.join(args.out, "leaderboard.jsonl") if args.out else None
    best, records = random_search(g, splits, config, args.budget, config.seed,
                                  out_path=out_path)
    scores = [r["mean_val_accuracy"] for r in records]
    print(f"{args.budget} trials; best mean val accuracy "
          f"{100 * max(scores):.2f}")
    print(json.dumps(best.to_dict(), indent=2))
    if args.out:
        write_json_atomic(os.path.join(args.out, "best_config.json"),
                          best.to_dict())
    return 0


def cmd_cm(args):
    if not args.out:
        raise ConfigError("cm needs --out for its CSV/SVG artifacts")
    g = load_dataset(args.data)

    def emit(name, matrix, title):
        write_text_atomic(os.path.join(args.out, f"{name}.csv"),
                          cm_to_csv(matrix))
        write_text_atomic(os.path.join(args.out, f"{name}.svg"),
                          cm_to_svg(matrix, title=title))

    if args.mode == "observed":
        m = observed_cm(g).m
        emit("cm_observed", m, f"{g.name}: observed compatibility")
        print(f"wrote cm_observed.csv/.svg (K={m.shape[0]})")
    elif args.mode == "knn":
        knn = knn_feature_graph(g, args.knn_k)
        g_knn = Graph.from_edges(g.n_nodes, np.stack(knn.nonzero(), axis=1),
                                 g.features, g.labels, g.n_classes,
                                 directed=True, name=g.name)
        m = observed_cm(g_knn).m
        emit("cm_knn", m, f"{g.name}: feature-kNN (k={args.knn_k}) compatibility")
        print(f"wrote cm_knn.csv/.svg (K={m.shape[0]})")
    else:  # estimated
        if not args.run:
            raise ConfigError("cm --mode estimated needs --run <run.json>")
        metadata = _read_run(args.run).metadata
        try:
            est = np.asarray(metadata.get("cm_estimate"), dtype=np.float64)
        except ValueError:   # ragged or non-numeric rows
            est = np.zeros(0)
        obs = observed_cm(g).m
        if est.shape != obs.shape:
            raise DataError(f"{args.run} has no {obs.shape} estimated "
                            "compatibility matrix")
        emit("cm_estimated", est, f"{g.name}: estimated compatibility")
        emit("cm_observed", obs, f"{g.name}: observed compatibility")
        diff = float(np.abs(est - obs).max())
        write_json_atomic(os.path.join(args.out, "cm_compare.json"),
                          {"max_abs_diff": diff})
        print(f"max |estimated - observed| = {diff:.4f}")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    top = _Parser(
        prog="compatgnn",
        description="compatibility-matrix-aware graph learning toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    p_ds = sub.add_parser("dataset", help="inspect or split dataset directories")
    ds_sub = p_ds.add_subparsers(dest="subcommand", required=True)
    p = ds_sub.add_parser("inspect", help="summary statistics of a dataset")
    p.add_argument("path")
    p.add_argument("--out", help="artifact directory")
    p.set_defaults(func=cmd_dataset_inspect)
    p = ds_sub.add_parser("split", help="generate 48/32/20 node splits")
    p.add_argument("path")
    p.add_argument("--n-splits", type=positive_int, default=10)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="splits directory (default: the dataset's splits/)")
    p.set_defaults(func=cmd_dataset_split)

    p_syn = sub.add_parser("synth", help="synthetic graph generation")
    syn_sub = p_syn.add_subparsers(dest="subcommand", required=True)
    p = syn_sub.add_parser("gen", help="generate a dataset directory "
                            "(replaces a dataset already at --out)")
    p.add_argument("--nodes", type=int, default=1000)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--homophily", type=float, default=0.5)
    p.add_argument("--pattern", choices=PATTERNS, default="hard")
    p.add_argument("--degree", type=float, default=18)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--mean-separation", type=float, default=1.9)
    p.add_argument("--n-splits", type=positive_int, default=10)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="dataset directory")
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("train", help="single training run")
    p.add_argument("--data", type=str, default=None)
    p.add_argument("--split", type=int, default=None)
    _add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", help="multi-split benchmark")
    p.add_argument("--data", type=str, default=None)
    p.add_argument("--splits", type=str, default=None,
                   help="split ids, e.g. '0-9' or '0,2,5'")
    _add_run_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("degree-report", help="accuracy by degree bucket")
    p.add_argument("--runs", type=str, required=True,
                   help="bench output directory or a single run.json")
    p.add_argument("--buckets", type=positive_int, default=5)
    p.add_argument("--out", help="artifact directory")
    p.set_defaults(func=cmd_degree_report)

    p = sub.add_parser("search", help="random hyperparameter search")
    p.add_argument("--data", type=str, default=None)
    p.add_argument("--splits", type=str, default=None)
    p.add_argument("--budget", type=positive_int, required=True)
    _add_run_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("cm", help="compatibility matrix artifacts (CSV + SVG)")
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--mode", choices=("observed", "estimated", "knn"),
                   default="observed")
    p.add_argument("--run", type=str, default=None,
                   help="run.json with an estimated matrix (estimated mode)")
    p.add_argument("--knn-k", type=positive_int, default=5)
    p.add_argument("--out", help="artifact directory")
    p.set_defaults(func=cmd_cm)
    return top


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, DataError, NumericalError) as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

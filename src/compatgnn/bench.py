"""Benchmark harness: multi-split runs, degree breakdowns and random
search. All artifacts are written atomically (temp file + rename)."""

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, TrainingDiverged
from .rng import derive_seed, make_rng
from .mp import MODEL_NAMES
from .training import PRESET_FIELDS, RunConfig, train_model

SEARCH_SPACE = {
    "lr": [0.001, 0.005, 0.01, 0.05],
    "weight_decay": [0.0, 1e-7, 5e-7, 1e-6, 5e-6, 5e-5, 5e-4],
    "patience": [200, 400],
    "dropout": ("uniform", 0.0, 0.9),
    "lambda": [0.0, 0.01, 0.1, 1.0, 10.0],
    "layers": [1, 2, 4, 8],
    "nhidden": [32, 64, 128, 256],
    "relu_variant": [True, False],
    "structure_info": [True, False],
}


def write_text_atomic(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path, obj):
    write_text_atomic(path, json.dumps(obj, indent=2) + "\n")


def format_mean_std(values):
    """Percent with two decimals: '45.70 ± 4.92' (population std)."""
    v = np.asarray(values, dtype=np.float64) * 100.0
    return f"{v.mean():.2f} ± {v.std():.2f}"


@dataclass
class BenchReport:
    config: dict
    split_ids: list
    accuracies: list                 # per completed split
    mean_accuracy: float
    std_accuracy: float
    formatted: str
    ms_per_epoch: float
    degree_buckets: dict
    excluded_splits: list = field(default_factory=list)
    runs: list = field(default_factory=list)   # RunResult dicts

    def to_dict(self):
        return dataclasses.asdict(self)

    def text_table(self):
        lines = [
            f"model        {self.config.get('model')}",
            f"dataset      {self.config.get('dataset')}",
            f"splits       {self.split_ids}",
            f"accuracy     {self.formatted}",
            f"ms/epoch     {self.ms_per_epoch:.2f}",
        ]
        if self.excluded_splits:
            lines.append(f"EXCLUDED     splits {self.excluded_splits} diverged")
        if self.degree_buckets:
            lines += degree_lines(self.degree_buckets)
        return "\n".join(lines) + "\n"


def degree_lines(buckets):
    """The text lines of a degree_report: a heading, then one line per
    bucket, lowest degree first."""
    return ["degree buckets (low -> high degree):"] + [
        f"  bucket {i}  size {size:5d}  acc {100 * acc:6.2f}"
        for i, (acc, size) in enumerate(zip(buckets["mean_accuracy"], buckets["sizes"]))]


def split_by_id(splits, sid):
    """The split of id sid from a {k: split} mapping; an id not among them
    is a ConfigError naming the ids there are."""
    if sid in splits:
        return splits[sid]
    raise ConfigError(f"split id {sid} is not among the available split ids "
                      f"{sorted(splits)}")


def run_bench(graph, splits, config, out_dir=None):
    """Train once per split id (seed derived from the split id, so repeating
    an id repeats the identical run) and aggregate. `splits` is a {k: split}
    mapping, as generate_splits and load_splits return.

    Diverged splits are excluded from the statistics and flagged, never
    silently dropped.
    """
    config.validate()
    splits = {sid: split_by_id(splits, sid) for sid in config.split_ids}
    results = []
    for sid in config.split_ids:
        seed = derive_seed(config.seed, "run", sid)
        try:
            results.append(train_model(graph, splits[sid], config, seed,
                                       split_id=sid))
        except TrainingDiverged as exc:
            results.append(exc.partial_result)

    ok = [r for r in results if not r.diverged]
    excluded = [r.split_id for r in results if r.diverged]
    accs = [r.test_accuracy for r in ok]
    if accs:
        mean = float(np.mean(accs))
        std = float(np.std(accs))
        formatted = format_mean_std(accs)
    else:
        mean = std = float("nan")
        formatted = "n/a (all splits diverged)"
    epoch_ms = [ms for r in ok for ms in r.epoch_ms]
    report = BenchReport(
        config=config.to_dict(),
        split_ids=list(config.split_ids),
        accuracies=accs,
        mean_accuracy=mean,
        std_accuracy=std,
        formatted=formatted,
        ms_per_epoch=float(np.mean(epoch_ms)) if epoch_ms else float("nan"),
        degree_buckets=degree_report(ok) if ok else {},
        excluded_splits=excluded,
        runs=[dataclasses.asdict(r) for r in results],
    )
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_json_atomic(os.path.join(out_dir, "bench.json"), report.to_dict())
        write_text_atomic(os.path.join(out_dir, "bench.txt"), report.text_table())
        for r in results:
            write_json_atomic(os.path.join(out_dir, f"run_split{r.split_id}.json"),
                              dataclasses.asdict(r))
    return report


def degree_report(results, n_buckets=5):
    """Equal-count degree buckets of the test nodes, lowest degree first.

    Nodes are ordered by (degree, node index) so ties resolve
    deterministically; bucket sizes differ by at most one. Per split the
    size-weighted bucket accuracies recombine exactly to the overall
    accuracy; the report averages bucket accuracies across splits.
    """
    if not results:
        raise ConfigError("degree report needs at least one completed run")
    per_split = []
    sizes = None
    for r in results:
        deg = np.asarray(r.test_degrees)
        idx = np.asarray(r.test_idx)
        pred = np.asarray(r.test_predictions)
        labels = np.asarray(r.test_labels)
        if not len(idx) == len(deg) == len(pred) == len(labels):
            raise DataError(f"run of split {r.split_id}: test_idx, test_degrees, "
                            "test_predictions and test_labels differ in length")
        if n_buckets > len(idx):
            raise ConfigError(f"{n_buckets} buckets for {len(idx)} test nodes")
        order = np.lexsort((idx, deg))
        correct = (pred == labels)[order]
        chunks = np.array_split(np.arange(len(idx)), n_buckets)
        accs = [float(correct[c].mean()) for c in chunks]
        these_sizes = [len(c) for c in chunks]
        if sizes is None:
            sizes = these_sizes
        per_split.append(accs)
    per_split_arr = np.asarray(per_split)
    return {
        "n_buckets": n_buckets,
        "sizes": sizes,
        "per_split": per_split_arr.tolist(),
        "mean_accuracy": per_split_arr.mean(axis=0).tolist(),
    }


def sample_search_config(rng, base):
    """One draw from the hyperparameter search space, on top of `base`.
    Only compatgnn reads lambda, and a model-spec file fixes the
    PRESET_FIELDS, so a model that reads no key keeps its base value."""
    d = base.to_dict()
    for key, domain in SEARCH_SPACE.items():
        if (key == "lambda" and base.model != "compatgnn") or (
                key in PRESET_FIELDS and base.model not in MODEL_NAMES):
            continue
        if isinstance(domain, tuple) and domain[0] == "uniform":
            d[key] = float(rng.uniform(domain[1], domain[2]))
        else:
            d[key] = domain[int(rng.integers(len(domain)))]
    return RunConfig.from_dict(d)


def random_search(graph, splits, base_config, budget, seed, out_path=None):
    """Random search over SEARCH_SPACE; score is mean best-epoch validation
    accuracy across the configured splits. With out_path, writes one JSONL
    record per trial to it, the whole file at once and atomically after
    the last trial; returns (best_config, records)."""
    if budget < 1:
        raise ConfigError("search budget must be >= 1")
    rng = make_rng(seed, "search")
    records = []
    best = None
    lines = []
    for trial in range(budget):
        cfg = sample_search_config(rng, base_config)
        report = run_bench(graph, splits, cfg)
        vals = [max(r["val_curve"]) for r in report.runs if not r["diverged"]]
        score = float(np.mean(vals)) if vals else float("nan")
        rec = {"trial": trial, "config": cfg.to_dict(), "mean_val_accuracy": score,
               "per_split_val": vals, "excluded_splits": report.excluded_splits}
        records.append(rec)
        lines.append(json.dumps(rec))
        if vals and (best is None or score > best[0]):
            best = (score, cfg)
    if out_path:
        write_text_atomic(out_path, "\n".join(lines) + "\n")
    if best is None:
        raise ConfigError("every search trial diverged; nothing to return")
    return best[1], records


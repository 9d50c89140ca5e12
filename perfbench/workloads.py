"""The benchmark's workloads: input preparation, set-up, the timed job and
the checks on its outputs.

Every workload uses the graph configuration of the ROADMAP re-anchor
(K=5 classes, homophily 0.2, mean degree 15, hidden width 64, 2 layers)
on inputs the seeded `synth` generator makes from the workload seed.

- compat-50k: the paper's model (`compatgnn`, lambda 0.1, dropout 0) on a
  50k-node `easy` graph read from a dataset directory; dense autodiff ops
  on 25 MB arrays dominate each epoch.
- h2gcn-5k: the `h2gcn` preset on a 5k-node `easy` graph; its weightless
  channels run over the 2-hop operator, so SpMM dominates each epoch and
  `khop_adjacency` dominates set-up.
- grid-2k: the easy-vs-hard comparison at real-dataset scale, driven
  through `compatgnn.cli.main`: `synth gen`, `bench` for compatgnn and
  acmgcn with dropout 0.5 and early stopping, `degree-report` and
  `cm --mode estimated`. Arrays fit in L2, so per-call overhead matters.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

import compatgnn as cg
from compatgnn import bench, cli, training
from compatgnn.errors import TrainingDiverged

CLASSES = 5
HOMOPHILY = 0.2
MEAN_DEGREE = 15
HIDDEN = 64
LAYERS = 2
WARMUP_EPOCHS = 2       # dropped from each run's epoch times


@dataclass
class Job:
    """One execution of a workload's fixed job and what it left behind."""
    job_s: float = 0.0
    setup_s: float = 0.0
    runs: list = field(default_factory=list)          # completed RunResults
    train_calls: list = field(default_factory=list)   # (outside s, sum(epoch_ms) s)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    state: dict = field(default_factory=dict)         # inputs kept for checks

    def fail(self, what, exc):
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def curves_digest(runs):
    """SHA-256 over every run's loss and validation curves, in run order."""
    h = hashlib.sha256()
    for r in runs:
        h.update(np.asarray(r.loss_curve, dtype=np.float64).tobytes())
        h.update(np.asarray(r.val_curve, dtype=np.float64).tobytes())
    return h.hexdigest()


def mean_row_tv(a, b):
    return float(np.mean(0.5 * np.abs(np.asarray(a) - np.asarray(b)).sum(axis=1)))


# ---------------------------------------------------------------------------
# compat-50k and h2gcn-5k: the public API on one split of a stored dataset

@dataclass(frozen=True)
class ApiWorkload:
    name: str
    model: str
    nodes: int
    d_f: int
    epochs: int
    lambda_: float = 0.0

    def config(self, seed):
        return cg.RunConfig(model=self.model, seed=seed, lambda_=self.lambda_,
                            dropout=0.0, layers=LAYERS, nhidden=HIDDEN,
                            max_epochs=self.epochs, patience=self.epochs + 1)

    def prepare(self, seed, cache_root):
        """Generate and store the seed's dataset once; returns
        (dataset dir, seconds the preparation took, whether it was cached)."""
        key = f"{self.name}-n{self.nodes}"
        ds = os.path.join(cache_root, key, f"seed{seed}")
        marker = os.path.join(ds, "prep.json")
        if os.path.exists(marker):
            with open(marker, encoding="utf-8") as fh:
                return ds, json.load(fh)["prep_s"], True
        # keep one seed per workload so repeated seeds hit and disk stays small
        shutil.rmtree(os.path.join(cache_root, key), ignore_errors=True)
        tmp = ds + ".tmp"
        t0 = time.perf_counter()
        spec = cg.make_synth_spec(self.nodes, CLASSES, HOMOPHILY, "easy",
                                  MEAN_DEGREE, seed, d_f=self.d_f)
        g = cg.generate_graph(spec)
        cg.save_dataset(g, tmp)
        cg.save_splits(cg.generate_splits(g, 1, seed), os.path.join(tmp, "splits"))
        prep_s = time.perf_counter() - t0
        with open(os.path.join(tmp, "prep.json"), "w", encoding="utf-8") as fh:
            json.dump({"prep_s": prep_s}, fh)
        os.replace(tmp, ds)
        return ds, prep_s, False

    def job(self, ds, seed, work_dir):
        job = Job(attempted=1)
        config = self.config(seed)
        t0 = time.perf_counter()
        try:
            g = cg.load_dataset(ds)
            splits = cg.load_splits(ds)
            model = cg.build_model(config, g, seed)
            job.setup_s = time.perf_counter() - t0
            t1 = time.perf_counter()
            result = cg.train_model(g, splits[0], config, seed, split_id=0,
                                    model=model)
            job.train_calls.append((time.perf_counter() - t1,
                                    sum(result.epoch_ms) / 1000.0))
            bench.write_json_atomic(os.path.join(work_dir, "run.json"),
                                    dataclasses.asdict(result))
            job.runs.append(result)
            job.state = {"graph": g}
        except TrainingDiverged as exc:
            job.fail("train", exc)
        except Exception as exc:   # recorded as a failed operation
            job.fail("job", exc)
        job.job_s = time.perf_counter() - t0
        job.state["run_json"] = os.path.join(work_dir, "run.json")
        return job

    def evaluate(self, job):
        """Quality and artifact checks on a finished job (untimed)."""
        if not job.runs:
            return {"artifacts_ok": False}
        r = job.runs[0]
        cm_tv = None            # only compatgnn estimates a compatibility matrix
        if self.model == "compatgnn":
            cm_tv = mean_row_tv(r.metadata["cm_estimate"],
                                cg.observed_cm(job.state["graph"]).m)
        with open(job.state["run_json"], encoding="utf-8") as fh:
            stored = json.load(fh)
        return {"test_acc": r.test_accuracy, "cm_tv": cm_tv,
                "artifacts_ok": stored["loss_curve"] == r.loss_curve}


# ---------------------------------------------------------------------------
# grid-2k: the CLI over both patterns, several splits, early stopping

@dataclass(frozen=True)
class GridWorkload:
    name: str
    nodes: int
    splits: int
    patience: int
    epochs: int             # the most a run trains; early stopping may end it sooner
    patterns: tuple = ("easy", "hard")
    models: tuple = ("compatgnn", "acmgcn")

    def prepare(self, seed, cache_root):
        return None, 0.0, False     # the job generates its own datasets

    def _bench_argv(self, ds, model, seed, out):
        argv = ["bench", "--data", ds, "--model", model,
                "--splits", f"0-{self.splits - 1}", "--dropout", "0.5",
                "--patience", str(self.patience),
                "--max-epochs", str(self.epochs),
                "--layers", str(LAYERS), "--nhidden", str(HIDDEN),
                "--seed", str(seed), "--out", out]
        if model == "compatgnn":
            argv += ["--lambda", "0.1"]
        return argv

    def _synth_argv(self, ds, pattern, seed):
        return ["synth", "gen", "--nodes", str(self.nodes),
                "--classes", str(CLASSES), "--homophily", str(HOMOPHILY),
                "--pattern", pattern, "--degree", str(MEAN_DEGREE),
                "--n-splits", str(self.splits), "--seed", str(seed), "--out", ds]

    def _command(self, job, argv, log):
        job.attempted += 1
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli.main(argv)
        except SystemExit as exc:       # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:        # recorded as a failed operation
            job.fail(" ".join(argv[:2]), exc)
            return
        if code != 0:
            job.failed += 1
            job.errors.append(f"{' '.join(argv[:2])}: exit {code}")

    def job(self, ds, seed, work_dir):
        job = Job()
        log = io.StringIO()
        setup = [0.0]

        def timed(original):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    setup[0] += time.perf_counter() - t0
            return wrapper

        def outside(original):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                result = original(*args, **kwargs)
                job.train_calls.append((time.perf_counter() - t0,
                                        sum(result.epoch_ms) / 1000.0))
                return result
            return wrapper

        t0 = time.perf_counter()
        with contextlib.ExitStack() as patches:
            for module, name, make in ((cli, "cmd_synth_gen", timed),
                                       (cli, "load_dataset", timed),
                                       (cli, "load_splits", timed),
                                       (training, "build_model", timed),
                                       (bench, "train_model", outside)):
                patches.enter_context(
                    mock.patch.object(module, name, make(getattr(module, name))))
            for pattern in self.patterns:
                data = os.path.join(work_dir, pattern)
                self._command(job, self._synth_argv(data, pattern, seed), log)
                for model in self.models:
                    out = os.path.join(work_dir, f"bench-{pattern}-{model}")
                    self._command(job, self._bench_argv(data, model, seed, out), log)
                    job.attempted += self.splits
                    job.runs.extend(self._completed(job, out))
                compat_out = os.path.join(work_dir, f"bench-{pattern}-compatgnn")
                self._command(job, ["degree-report", "--runs", compat_out, "--out",
                                    os.path.join(work_dir, f"degree-{pattern}")], log)
                self._command(job, ["cm", "--data", data, "--mode", "estimated",
                                    "--run", os.path.join(compat_out, "run_split0.json"),
                                    "--out", os.path.join(work_dir, f"cm-{pattern}")], log)
        job.job_s = time.perf_counter() - t0
        job.setup_s = setup[0]
        job.state = {"work_dir": work_dir}
        return job

    def _completed(self, job, out):
        """Completed RunResults of one bench command; missing ones count failed."""
        try:
            with open(os.path.join(out, "bench.json"), encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            job.failed += self.splits
            job.errors.append(f"{out}: no bench report ({exc})")
            return []
        done = [cg.RunResult(**r) for r in report["runs"] if not r["diverged"]]
        job.failed += self.splits - len(done)
        if report["excluded_splits"]:
            job.errors.append(f"{out}: diverged splits {report['excluded_splits']}")
        return done

    def evaluate(self, job):
        work = job.state["work_dir"]
        expected = []
        for pattern in self.patterns:
            expected += [f"{pattern}/verify.json", f"degree-{pattern}/degree_report.json",
                         f"cm-{pattern}/cm_estimated.svg", f"cm-{pattern}/cm_compare.json"]
            expected += [f"bench-{pattern}-{m}/{name}" for m in self.models
                         for name in ("bench.json", "bench.txt")]
        artifacts_ok = all(os.path.isfile(os.path.join(work, p)) for p in expected)
        if not job.runs:
            return {"artifacts_ok": False}
        observed = {p: cg.observed_cm(cg.load_dataset(os.path.join(work, p))).m
                    for p in self.patterns}
        tv = [mean_row_tv(r.metadata["cm_estimate"], observed[self._pattern(r)])
              for r in job.runs if r.config["model"] == "compatgnn"]
        return {"test_acc": float(np.mean([r.test_accuracy for r in job.runs])),
                "cm_tv": float(np.mean(tv)) if tv else float("nan"),
                "artifacts_ok": artifacts_ok}

    def _pattern(self, run):
        return os.path.basename(run.config["dataset"].rstrip("/"))


WORKLOADS = {
    "compat-50k": ApiWorkload("compat-50k", "compatgnn", nodes=50000, d_f=64,
                              epochs=14, lambda_=0.1),
    "h2gcn-5k": ApiWorkload("h2gcn-5k", "h2gcn", nodes=5000, d_f=64, epochs=32),
    "grid-2k": GridWorkload("grid-2k", nodes=2000, splits=2, patience=20,
                            epochs=40),
}

# the same jobs at toy size, for the smoke mode
TOY = {
    "compat-50k": dataclasses.replace(WORKLOADS["compat-50k"], nodes=400, epochs=4),
    "h2gcn-5k": dataclasses.replace(WORKLOADS["h2gcn-5k"], nodes=400, epochs=4),
    "grid-2k": dataclasses.replace(WORKLOADS["grid-2k"], nodes=300, splits=2,
                                   patience=2, epochs=5),
}

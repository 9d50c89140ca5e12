"""Outside-in span tracer for the traced benchmark run.

The tracer wraps compatgnn's public functions from outside the package:
each wrapper opens a span (name, start, end, parent) on entry and closes
it on exit, and a few wrappers also count work (flops, bytes, epochs).
Spans and counts stay in memory until the run ends. A span's self time
is its duration minus the time its child spans cover.

Two details matter for coverage:

- modules such as `mp`, `model` and `training` import functions by name,
  so a wrapper is installed in every compatgnn module that holds the
  original object, not only in its home module;
- ops that may return their input unchanged (`dropout` in eval mode)
  only get their backward closure wrapped when the result is fresh.
"""

import os
import time
from array import array
from collections import defaultdict

import numpy as np

import compatgnn
from compatgnn import autodiff, bench, cli, graph, heatmap, metrics, mp, model
from compatgnn import optim, sparse, synth, training

AUTODIFF_OPS = ("matmul", "spmm", "concat_cols", "slice_cols", "row_scale",
                "add", "add_bias", "scale", "relu", "sigmoid", "row_softmax",
                "dropout", "gather_rows", "cosine", "masked_cross_entropy")

# (home module, function name, span name) for plain functions
FUNCTIONS = (
    (cli, "main", "cli.main"),
    (bench, "run_bench", "bench.run_bench"),
    (bench, "degree_report", "bench.degree_report"),
    (bench, "write_text_atomic", "bench.write_atomic"),
    (training, "train_model", "training.train_model"),
    (training, "build_model", "training.build_model"),
    (model, "estimate_cm", "model.estimate_cm"),
    (mp, "realize_channel", "mp.realize_channel"),
    (mp, "aggregate", "mp.aggregate"),
    (mp, "ada_weights", "mp.ada_weights"),
    (mp, "ada_combine", "mp.ada_combine"),
    (autodiff, "backward", "autodiff.backward"),
    (sparse, "add_self_loops", "sparse.add_self_loops"),
    (sparse, "row_normalize", "sparse.row_normalize"),
    (sparse, "sym_normalize", "sparse.sym_normalize"),
    (sparse, "khop_adjacency", "sparse.khop_adjacency"),
    (graph, "load_dataset", "graph.load_dataset"),
    (graph, "load_splits", "graph.load_splits"),
    (graph, "save_dataset", "graph.save_dataset"),
    (graph, "save_splits", "graph.save_splits"),
    (synth, "generate_graph", "synth.generate_graph"),
    (synth, "verify_graph", "synth.verify_graph"),
    (metrics, "observed_cm", "metrics.observed_cm"),
    (heatmap, "cm_to_svg", "heatmap.cm_to_svg"),
) + tuple((autodiff, op, f"autodiff.{op}.fwd") for op in AUTODIFF_OPS)

# (class, method name, span name) for methods
METHODS = (
    (model.CompatGNN, "loss", "model.loss"),
    (model.CompatGNN, "discrimination_loss", "model.discrimination_loss"),
    (model.CompatGNN, "on_validation_improved", "model.refresh"),
    (mp.MessagePassingModel, "__init__", "mp.build"),
    (optim.Adam, "step", "optim.step"),
)

# forward(train=...) splits into a train span and an eval span
FORWARDS = ((model.CompatGNN, "model"), (mp.MessagePassingModel, "mp"))

SPARSE_FNS = ("add_self_loops", "row_normalize", "sym_normalize", "khop_adjacency")


def _package_modules():
    return [compatgnn] + [getattr(compatgnn, name) for name in dir(compatgnn)
                          if type(getattr(compatgnn, name)) is type(compatgnn)]


DATASET_FILES = ("meta.json", "edges.tsv", "labels.tsv", "features.f32",
                 "features.tsv")


def _dir_bytes(path, names=None):
    """Bytes of the regular files directly under `path` (only `names`, if given)."""
    if not os.path.isdir(path):
        return 0
    return sum(e.stat().st_size for e in os.scandir(path)
               if e.is_file() and (names is None or e.name in names))


class Tracer:
    """In-memory spans and counters; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = []            # [span index, seconds covered by children]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.root_seconds = 0.0
        self._patches = []          # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])

    def close(self):
        end = time.perf_counter()
        idx, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.root_seconds += dur

    def _wrap(self, fn, name, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Swap `original` for `replacement` in every compatgnn module that
        imported it by name."""
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_attr(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        hooks = self._after_hooks()
        for home, fname, span in FUNCTIONS:
            original = getattr(home, fname)
            self._replace_everywhere(original,
                                     self._wrap(original, span, hooks.get(span)))
        for cls, meth, span in METHODS:
            self._patch_attr(cls, meth,
                             self._wrap(vars(cls)[meth], span, hooks.get(span)))
        for cls, layer in FORWARDS:
            def pick(args, kwargs, layer=layer):
                train = kwargs.get("train", args[1] if len(args) > 1 else False)
                return f"{layer}.forward_train" if train else f"{layer}.forward_eval"
            self._patch_attr(cls, "forward", self._wrap(vars(cls)["forward"], pick))

        from_edges = vars(graph.Graph)["from_edges"].__func__
        self._patch_attr(graph.Graph, "from_edges",
                         classmethod(self._wrap(from_edges, "graph.from_edges")))

        tensor_init = vars(autodiff.Tensor)["__init__"]
        counts = self.counts

        def counting_init(t, *args, **kwargs):
            counts["tensors_created"] += 1
            tensor_init(t, *args, **kwargs)
        self._patch_attr(autodiff.Tensor, "__init__", counting_init)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counting hooks ------------------------------------------------------

    def _wrap_closure(self, result, op, flops=0.0, nbytes=0.0):
        """Time the backward closure of a fresh result tensor."""
        closure = result._backward
        if closure is None:
            return
        tracer = self
        counts = self.counts
        counts["closures_created"] += 1
        span = f"autodiff.{op}.bwd"

        def timed(g):
            tracer.open(span)
            try:
                closure(g)
            finally:
                tracer.close()
            counts["closures_run"] += 1
            if flops:
                counts[f"{op}.flop"] += flops
                counts[f"{op}.bytes"] += nbytes
        result._backward = timed

    def _after_hooks(self):
        counts = self.counts
        hooks = {}

        def op_hook(op):
            def after(args, kwargs, result):
                if all(result is not a for a in args):
                    self._wrap_closure(result, op)
            return after

        for op in AUTODIFF_OPS:
            hooks[f"autodiff.{op}.fwd"] = op_hook(op)

        def matmul_after(args, kwargs, result):
            (m, k), n = args[0].shape, args[1].shape[1]
            counts["matmul.flop"] += 2.0 * m * k * n
            counts["matmul.bytes"] += 8.0 * (m * k + k * n + m * n)
            # backward: g @ b.T and a.T @ g, each reading g and one operand
            self._wrap_closure(result, "matmul", 4.0 * m * k * n,
                               16.0 * (m * n + m * k + k * n))

        def spmm_after(args, kwargs, result):
            a, x = args
            (m, n), d, nnz = a.shape, x.shape[1], a.nnz
            once = 12.0 * nnz + 8.0 * (m + 1) + 8.0 * (n * d + m * d)
            counts["spmm.flop"] += 2.0 * nnz * d
            counts["spmm.bytes"] += once
            self._wrap_closure(result, "spmm", 2.0 * nnz * d, once)

        hooks["autodiff.matmul.fwd"] = matmul_after
        hooks["autodiff.spmm.fwd"] = spmm_after

        def train_after(args, kwargs, result):
            counts["epochs"] += len(result.epoch_ms)
            counts["useful_epochs"] += result.best_epoch + 1
            if result.config.get("model") == "compatgnn":
                counts["compat_epochs"] += len(result.epoch_ms)

        def run_bench_after(args, kwargs, report):
            counts["excluded_splits"] += len(report.excluded_splits)

        def write_after(args, kwargs, result):
            counts["write_atomic_bytes"] += len(args[1].encode("utf-8"))

        def cli_after(args, kwargs, code):
            counts["nonzero_exits"] += int(code != 0)

        def step_after(args, kwargs, result):
            counts["param_bytes_stepped"] += sum(
                p.value.nbytes for p in args[0].params.values())

        def load_after(args, kwargs, result):
            counts["bytes_read"] += _dir_bytes(args[0], DATASET_FILES)

        def load_splits_after(args, kwargs, result):
            counts["bytes_read"] += _dir_bytes(os.path.join(args[0], "splits"))

        def save_dataset_after(args, kwargs, result):
            counts["bytes_written"] += _dir_bytes(args[1], DATASET_FILES)

        def save_splits_after(args, kwargs, result):
            counts["bytes_written"] += _dir_bytes(args[1])

        def generate_after(args, kwargs, g):
            spec = args[0]
            counts["edges_realized"] += g.n_edges
            counts["stubs_requested"] += len(spec.labels) * spec.mean_degree / 2.0

        hooks.update({
            "training.train_model": train_after,
            "bench.run_bench": run_bench_after,
            "bench.write_atomic": write_after,
            "cli.main": cli_after,
            "optim.step": step_after,
            "graph.load_dataset": load_after,
            "graph.load_splits": load_splits_after,
            "graph.save_dataset": save_dataset_after,
            "graph.save_splits": save_splits_after,
            "synth.generate_graph": generate_after,
        })
        return hooks

    # -- results -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics by the names BENCHMARK.json lists (values only)."""
        tot, own, calls, c = self.total, self.self_time, self.calls, self.counts

        def ms(name):
            return 1000.0 * tot[name]

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "cli.self_s": own["cli.main"],
            "cli.commands": calls["cli.main"],
            "cli.nonzero_exits": c["nonzero_exits"],
            "bench.run_bench_s": tot["bench.run_bench"],
            "bench.run_bench_self_s": own["bench.run_bench"],
            "bench.degree_report_ms": ms("bench.degree_report"),
            "bench.write_atomic_ms": ms("bench.write_atomic"),
            "bench.write_atomic_bytes": c["write_atomic_bytes"],
            "bench.excluded_splits": c["excluded_splits"],
            "training.train_model_s": tot["training.train_model"],
            "training.train_model_self_ms": 1000.0 * own["training.train_model"],
            "training.build_model_s": tot["training.build_model"],
            "training.epochs": c["epochs"],
            "training.useful_epoch_ratio": ratio(c["useful_epochs"], c["epochs"]),
            "model.forward_train_ms": ms("model.forward_train"),
            "model.forward_eval_ms": ms("model.forward_eval"),
            "model.loss_ms": ms("model.loss"),
            "model.discrimination_loss_ms": ms("model.discrimination_loss"),
            "model.refresh_ms": ms("model.refresh"),
            "model.estimate_cm_ms": ms("model.estimate_cm"),
            "model.refreshes": calls["model.refresh"],
            "model.refresh_ratio": ratio(calls["model.refresh"], c["compat_epochs"]),
            "mp.build_s": tot["mp.build"],
            "mp.realize_channel_ms": ms("mp.realize_channel"),
            "mp.realize_channel_calls": calls["mp.realize_channel"],
            "mp.forward_train_ms": ms("mp.forward_train"),
            "mp.forward_eval_ms": ms("mp.forward_eval"),
            "mp.aggregate_ms": ms("mp.aggregate"),
            "mp.ada_weights_ms": ms("mp.ada_weights"),
            "mp.ada_combine_ms": ms("mp.ada_combine"),
        }
        for op in AUTODIFF_OPS:
            m[f"autodiff.{op}.fwd_ms"] = ms(f"autodiff.{op}.fwd")
            m[f"autodiff.{op}.bwd_ms"] = ms(f"autodiff.{op}.bwd")
            m[f"autodiff.{op}.calls"] = calls[f"autodiff.{op}.fwd"]
        m.update({
            "autodiff.backward_ms": ms("autodiff.backward"),
            "autodiff.backward_self_ms": 1000.0 * own["autodiff.backward"],
            "autodiff.tensors_created": c["tensors_created"],
            "autodiff.bwd_visit_ratio": ratio(c["closures_run"], c["closures_created"]),
            "autodiff.matmul.gflop": c["matmul.flop"] / 1e9,
            "autodiff.spmm.gflop": c["spmm.flop"] / 1e9,
            "autodiff.matmul.gb_computed": c["matmul.bytes"] / 1e9,
            "autodiff.spmm.gb_computed": c["spmm.bytes"] / 1e9,
            "optim.step_ms": ms("optim.step"),
            "optim.param_bytes": ratio(c["param_bytes_stepped"], calls["optim.step"]),
        })
        for fn in SPARSE_FNS:
            m[f"sparse.{fn}_ms"] = ms(f"sparse.{fn}")
        m["sparse.calls"] = sum(calls[f"sparse.{fn}"] for fn in SPARSE_FNS)
        m.update({
            "graph.load_dataset_s": tot["graph.load_dataset"],
            "graph.load_splits_s": tot["graph.load_splits"],
            "graph.save_dataset_s": tot["graph.save_dataset"],
            "graph.save_splits_s": tot["graph.save_splits"],
            "graph.from_edges_s": tot["graph.from_edges"],
            "graph.bytes_read": c["bytes_read"],
            "graph.bytes_written": c["bytes_written"],
            "synth.generate_graph_s": tot["synth.generate_graph"],
            "synth.verify_graph_ms": ms("synth.verify_graph"),
            "synth.edge_yield": ratio(c["edges_realized"], c["stubs_requested"]),
            "metrics.observed_cm_ms": ms("metrics.observed_cm"),
            "heatmap.cm_to_svg_ms": ms("heatmap.cm_to_svg"),
        })
        return m

    def op_seconds(self):
        """Forward plus backward seconds per autodiff op."""
        return {op: self.total[f"autodiff.{op}.fwd"] + self.total[f"autodiff.{op}.bwd"]
                for op in AUTODIFF_OPS}

    def save(self, path):
        """Write every span (name table plus parallel arrays) to an .npz file."""
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32))

import contextlib
import dataclasses
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from compatgnn import ConfigError, DataError, TrainingDiverged
from compatgnn import training
from compatgnn.autodiff import Tensor
from compatgnn.bench import run_bench, write_json_atomic
from compatgnn.cli import _read_run
from compatgnn.gradcheck import grad_check
from compatgnn.graph import Split, generate_splits
from compatgnn.model import CompatGNN
from compatgnn.mp import MODEL_NAMES, MessagePassingModel, build_preset
from compatgnn.rng import make_rng
from compatgnn.synth import generate_graph, make_synth_spec
from compatgnn.training import RunConfig, accuracy, build_model, train_model

from util import make_graph


def sbm_toy(n=60, seed=14, sep=2.0):
    """Two balanced communities with ~[[0.9, 0.1], [0.1, 0.9]] compatibility
    and class-separated features."""
    rng = make_rng(seed, "sbm")
    labels = np.array([i % 2 for i in range(n)])
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = 0.30 if labels[i] == labels[j] else 0.033
            if rng.random() < p:
                edges.append((i, j))
    feats = rng.normal(size=(n, 4))
    feats[labels == 1, :2] += sep
    return make_graph(n, edges, labels.tolist(), 2, features=feats)


def toy_split(g, seed=0):
    return generate_splits(g, 1, seed)[0]


# ---------------------------------------------------------------------------
# run configuration

def test_runconfig_json_uses_lambda_key():
    cfg = RunConfig(model="gcn", lr=0.02, lambda_=0.5)
    d = cfg.to_dict()
    assert "lambda" in d and "lambda_" not in d
    assert d["lambda"] == 0.5
    back = RunConfig.from_dict(d)
    assert back == cfg


def test_runconfig_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"model": "gcn", "learning_rate": 0.1})


def test_runconfig_validation():
    for bad in (dict(lr=-1), dict(weight_decay=-0.1), dict(lambda_=-2),
                dict(patience=0), dict(max_epochs=0), dict(dropout=1.0),
                dict(layers=-1), dict(nhidden=0), dict(split_ids=[]),
                dict(split_ids=[0, -1]), dict(layers=0)):
        with pytest.raises(ConfigError):
            RunConfig(**bad).validate()
    RunConfig().validate()
    RunConfig(model="mlp", layers=0).validate()


def test_build_model_paths(tmp_path):
    g = sbm_toy(20)
    cfg = RunConfig(model="compatgnn", nhidden=8, layers=2, lambda_=0.7)
    m = build_model(cfg, g, seed=0)
    assert isinstance(m, CompatGNN)
    assert m.spec.hidden_dim == 8 and m.dis_weight == 0.7

    cfg = RunConfig(model="gcn", nhidden=8)
    assert isinstance(build_model(cfg, g, seed=0), MessagePassingModel)

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(build_preset("mixhop", hidden_dim=8).to_dict()))
    m = build_model(RunConfig(model=str(spec_path)), g, seed=0)
    assert isinstance(m, MessagePassingModel)

    with pytest.raises(ConfigError, match="unknown model"):
        build_model(RunConfig(model="resnet"), g, seed=0)


# compatgnn's spec as built before it became a preset: nhidden=8, layers=2,
# dropout=0.5; structure_info picks the encoder, relu_variant the placement
COMPAT_CHANNEL_DICTS = [
    {"indicator": "identity", "guidance": "identity", "k": None, "weight": "own"},
    {"indicator": "raw", "guidance": "deg_avg_row", "k": None, "weight": "own"},
    {"indicator": "supplementary", "guidance": "constant", "k": None,
     "weight": "own"}]
COMPAT_LAYER_DICT = {"channels": COMPAT_CHANNEL_DICTS, "combine": "ada_add",
                     "ada_degree_column": True}


@pytest.mark.parametrize("structure_info, relu_variant, encoder, relu", [
    (False, None, "linear", False), (False, False, "linear", False),
    (False, True, "linear", True), (True, None, "structure", False),
    (True, False, "structure", False), (True, True, "structure", True)])
def test_compatgnn_spec_matches_the_recorded_dict(structure_info, relu_variant,
                                                  encoder, relu):
    cfg = RunConfig(model="compatgnn", nhidden=8, layers=2, dropout=0.5,
                    structure_info=structure_info, relu_variant=relu_variant)
    m = build_model(cfg, sbm_toy(20), seed=0)
    assert m.spec.to_dict() == {
        "layers": [COMPAT_LAYER_DICT, COMPAT_LAYER_DICT], "hidden_dim": 8,
        "dropout": 0.5, "relu_before_aggregate": relu, "fuse": "cat",
        "classifier": "mlp", "encoder": encoder}


@pytest.mark.parametrize("name", ["mlp", "gcn", "h2gcn", "gprgnn"])
def test_structure_info_reaches_presets(name):
    g = sbm_toy(20)
    m = build_model(RunConfig(model=name, nhidden=8, structure_info=True), g, seed=0)
    assert m.spec.encoder == "structure"
    assert m.params["encoder.w_a"].shape == (g.n_nodes, 8)
    assert "encoder.w_x" in m.params
    plain = build_model(RunConfig(model=name, nhidden=8), g, seed=0)
    assert plain.spec.encoder == "linear" and "encoder.w_a" not in plain.params


def test_accuracy_helper():
    logits = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
    labels = np.array([0, 1, 1])
    assert accuracy(logits, labels, [0, 1, 2]) == pytest.approx(2 / 3)
    assert accuracy(logits, labels, [0, 1]) == 1.0


# ---------------------------------------------------------------------------
# stopping and refresh protocol

def test_patience_counts_consecutive_flat_epochs_exactly():
    g = sbm_toy(30)
    split = toy_split(g)
    cfg = RunConfig(model="compatgnn", lr=0.0, patience=5, max_epochs=100,
                    nhidden=4)
    res = train_model(g, split, cfg, seed=1)
    # epoch 0 improves over -inf, then 5 flat epochs exhaust patience
    assert res.best_epoch == 0
    assert len(res.val_curve) == 6
    assert res.refresh_epochs == [0]


def test_refresh_epochs_are_the_strict_improvements():
    g = sbm_toy(40)
    split = toy_split(g)
    cfg = RunConfig(model="compatgnn", lr=0.05, patience=20, max_epochs=40,
                    nhidden=8, lambda_=0.2)
    res = train_model(g, split, cfg, seed=2)
    best = -np.inf
    improvements = []
    for e, v in enumerate(res.val_curve):
        if v > best:
            best = v
            improvements.append(e)
    assert res.refresh_epochs == improvements
    assert res.best_epoch == improvements[-1]


def test_preset_models_never_refresh():
    g = sbm_toy(30)
    cfg = RunConfig(model="gcn", lr=0.05, patience=5, max_epochs=10, nhidden=4)
    res = train_model(g, toy_split(g), cfg, seed=3)
    assert res.refresh_epochs == []


# ---------------------------------------------------------------------------
# determinism and divergence

def test_training_is_deterministic():
    g = sbm_toy(30)
    split = toy_split(g)
    cfg = RunConfig(model="compatgnn", lr=0.05, patience=10, max_epochs=15,
                    nhidden=4, lambda_=0.3, dropout=0.2)
    a = train_model(g, split, cfg, seed=4)
    b = train_model(g, split, cfg, seed=4)
    assert a.loss_curve == b.loss_curve
    assert a.val_curve == b.val_curve
    assert a.test_accuracy == b.test_accuracy
    assert a.metadata == b.metadata
    assert a.test_predictions == b.test_predictions


def run_probe(code, threads, cwd):
    """The JSON that `code` prints in a fresh interpreter started with
    OPENBLAS_NUM_THREADS=threads."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


# One process: the sha256 of a fresh acmgcn model's logits, the loss
# curve of a short compatgnn run on a seeded synthetic graph, and that of
# a short h2gcn run with its 2-hop channel at k = 3, whose 3-hop operator
# averages over a hundred nonzeros a row; with the BLAS thread count the
# process reads and the one each run records, and the Python thread count
# before and after the runs.
BLAS_THREADS_PROBE = """
import dataclasses, hashlib, json, threading
from compatgnn import (MessagePassingModel, RunConfig, build_preset,
                       generate_graph, generate_splits, make_synth_spec,
                       train_model)
from compatgnn.training import blas_threads
threads = threading.active_count()
g = generate_graph(make_synth_spec(2000, 5, 0.2, "easy", 10.0, seed=3))
logits = MessagePassingModel(build_preset("acmgcn"), g, seed=0).forward().logits.value
run = train_model(g, generate_splits(g, 1, 0)[0],
                  RunConfig(model="compatgnn", max_epochs=8, lambda_=0.1), seed=0)
g3 = generate_graph(make_synth_spec(600, 5, 0.2, "easy", 15, seed=3, d_f=64))
spec = build_preset("h2gcn")
for layer in spec.layers:
    layer.channels = [dataclasses.replace(ch, k=3) if ch.indicator == "khop" else ch
                      for ch in layer.channels]
model = MessagePassingModel(spec, g3, seed=3)
three_hop = model._operators[("khop", "deg_avg_sym", 3)]
dense = train_model(g3, generate_splits(g3, 1, 3)[0], RunConfig(model="h2gcn", max_epochs=6),
                    seed=3, model=model)
print(json.dumps({"logits": hashlib.sha256(logits.tobytes()).hexdigest(),
                  "loss": run.loss_curve, "dense_loss": dense.loss_curve,
                  "three_hop_row_nnz": three_hop.nnz / three_hop.shape[0],
                  "blas_threads": blas_threads(),
                  "recorded": [run.metadata["blas_threads"], dense.metadata["blas_threads"]],
                  "python_threads": [threads, threading.active_count()]}))
"""


def test_runs_agree_across_blas_thread_counts(tmp_path):
    """Runs are bit-identical per seed and BLAS thread count. Across thread
    counts the forward products stay bitwise equal, but OpenBLAS may split
    the reductions over nodes in the weight gradients differently, so the
    loss curves agree within 1e-10, also over a 3-hop operator. Every run
    records the count the process runs on, and the package starts no
    thread."""
    out = {threads: run_probe(BLAS_THREADS_PROBE, threads, tmp_path)
           for threads in ("1", "2")}
    assert out["1"]["logits"] == out["2"]["logits"]
    assert len(out["1"]["loss"]) == len(out["2"]["loss"]) == 8
    np.testing.assert_allclose(out["1"]["loss"], out["2"]["loss"], rtol=0, atol=1e-10)
    assert out["1"]["three_hop_row_nnz"] > 100
    assert len(out["1"]["dense_loss"]) == len(out["2"]["dense_loss"]) == 6
    np.testing.assert_allclose(out["1"]["dense_loss"], out["2"]["dense_loss"],
                               rtol=0, atol=1e-10)
    assert out["1"]["blas_threads"] == 1
    for probe in out.values():
        assert probe["recorded"] == [probe["blas_threads"]] * 2
        before, after = probe["python_threads"]
        assert after == before


def test_divergence_raises_with_partial_log():
    g = sbm_toy(30)
    split = toy_split(g)
    # Adam steps are gradient-normalized, so divergence needs a rate large
    # enough that the very first jump overflows the next forward pass
    cfg = RunConfig(model="compatgnn", lr=1e80, patience=50, max_epochs=50,
                    nhidden=4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="epoch 0") as exc:
            train_model(g, split, cfg, seed=5)
    partial = exc.value.partial_result
    assert partial.diverged
    assert np.isnan(partial.test_accuracy)
    assert partial.test_idx == split.test.tolist()
    assert partial.config["lr"] == 1e80


BLAS_COUNT_PROBE = """
import json, os
import numpy as np
from compatgnn import (RunConfig, TrainingDiverged, generate_graph, generate_splits,
                       make_synth_spec, train_model)
os.environ["OPENBLAS_NUM_THREADS"] = "3"   # after numpy's import: not in effect
g = generate_graph(make_synth_spec(60, 2, 0.8, "easy", 4.0, seed=1, d_f=4))
split = generate_splits(g, 1, 0)[0]
done = train_model(g, split, RunConfig(model="compatgnn", nhidden=4, max_epochs=2), seed=0)
with np.errstate(over="ignore", invalid="ignore"):
    try:
        train_model(g, split, RunConfig(model="gcn", lr=1e80, max_epochs=5, nhidden=4),
                    seed=5)
        diverged = None
    except TrainingDiverged as exc:
        diverged = exc.partial_result.metadata
print(json.dumps({"done": done.metadata, "diverged": diverged}))
"""


def test_runs_record_the_blas_thread_count(tmp_path):
    """The count in effect is the pool's size when numpy was imported, not
    what OPENBLAS_NUM_THREADS says when train_model runs."""
    out = run_probe(BLAS_COUNT_PROBE, "1", tmp_path)
    assert out["done"]["blas_threads"] == 1
    assert "cm_estimate" in out["done"]
    assert out["diverged"] == {"blas_threads": 1}


def test_blas_thread_count_falls_back_to_the_environment(monkeypatch):
    """Without numpy's bundled OpenBLAS: OPENBLAS_NUM_THREADS, else one per CPU."""
    monkeypatch.setattr(training.glob, "glob", lambda pattern: [])
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert training.blas_threads() == 3
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")
    assert training.blas_threads() == os.cpu_count()
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert training.blas_threads() == os.cpu_count()


# ---------------------------------------------------------------------------
# tape-free evaluation

def _tensors(out):
    for v in vars(out).values():
        yield from (v if isinstance(v, list) else [v])


def _train_recording_evals(name, seed=8, dropout=0.0):
    """train_model on a toy graph, keeping every eval forward's output and
    the parameters' requires_grad flags during that forward."""
    g = sbm_toy(30)
    cfg = RunConfig(model=name, lr=0.05, patience=10, max_epochs=6, nhidden=4,
                    lambda_=0.3, dropout=dropout)
    model = build_model(cfg, g, seed=seed)
    forward, evals = model.forward, []

    def recording(train=False, rng=None):
        out = forward(train=train, rng=rng)
        if not train:
            evals.append((out, [p.requires_grad for p in model.params.values()]))
        return out
    model.forward = recording
    res = train_model(g, toy_split(g), cfg, seed=seed, model=model)
    del model.forward
    return model, res, evals


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_eval_forwards_record_no_tape_and_change_no_number(name, monkeypatch):
    """With dropout > 0 every eval is tapeless. With dropout 0 the
    per-epoch evals keep their tape (the next epoch trains on them) and
    the final eval is tapeless."""
    for dropout in (0.0, 0.5):
        model, res, evals = _train_recording_evals(name, dropout=dropout)
        assert len(evals) == len(res.val_curve) + 1     # per epoch, then final
        for out, flags in (evals if dropout else evals[-1:]):
            assert not any(flags)
            for t in _tensors(out):
                assert not t.requires_grad and t.parents == () and t._backward is None
        if not dropout:
            for out, flags in evals[:-1]:
                assert all(flags) and out.logits.requires_grad
        assert all(p.requires_grad for p in model.params.values())

        # the final eval is bitwise the taped forward at the same parameters
        taped = model.forward(train=False)
        assert taped.logits.parents != ()
        np.testing.assert_array_equal(evals[-1][0].logits.value, taped.logits.value)

        # every eval and the whole record equal a run that recomputes every
        # train forward; with dropout > 0 its evals also keep their tape
        with monkeypatch.context() as m:
            m.setattr(training, "_reuses_eval", lambda model: False)
            if dropout:
                m.setattr(training, "frozen", lambda params: contextlib.nullcontext())
            _, res_ref, evals_ref = _train_recording_evals(name, dropout=dropout)
        for (out, _), (ref, _) in zip(evals, evals_ref, strict=True):
            assert np.array_equal(out.logits.value, ref.logits.value)
        res.epoch_ms = res_ref.epoch_ms = []
        assert dataclasses.asdict(res) == dataclasses.asdict(res_ref)


def test_forward_outside_train_model_keeps_its_tape():
    model, _, _ = _train_recording_evals("compatgnn")
    split = toy_split(model.real_graph)
    assert model.forward().logits.parents != ()
    report = grad_check(lambda: model.loss(model.forward(), split.train),
                        model.params)
    assert report.ok(1e-4), f"max rel err {report.max_rel_err:.3e}"


def test_params_require_grad_again_after_an_eval_forward_raises():
    g = sbm_toy(30)
    cfg = RunConfig(model="gcn", lr=0.05, patience=10, max_epochs=6, nhidden=4,
                    dropout=0.5)
    model = build_model(cfg, g, seed=9)
    forward, w = model.forward, model.params["encoder.w"]
    flags = []

    def nan_in_eval(train=False, rng=None):
        if not train:
            flags.extend(p.requires_grad for p in model.params.values())
            w.value = np.full_like(w.value, np.nan)
        return forward(train=train, rng=rng)
    model.forward = nan_in_eval
    with pytest.raises(TrainingDiverged,
                       match="epoch 0: encoder: non-finite value produced by matmul"):
        train_model(g, toy_split(g), cfg, seed=9, model=model)
    assert flags and not any(flags)     # the eval ran frozen
    assert all(p.requires_grad for p in model.params.values())


# ---------------------------------------------------------------------------
# with dropout 0 an epoch trains on the previous epoch's eval forward

def _train_recording_calls(name, max_epochs=8, seed=8):
    """train_model on a toy graph at dropout 0, recording each forward's
    (train, output), the output each loss reads, and the refresh epochs."""
    g = sbm_toy(30)
    cfg = RunConfig(model=name, lr=0.05, patience=20, max_epochs=max_epochs,
                    nhidden=4, lambda_=0.3)
    model = build_model(cfg, g, seed=seed)
    forward, loss, calls, losses = model.forward, model.loss, [], []

    def recording_forward(train=False, rng=None):
        out = forward(train=train, rng=rng)
        calls.append((train, out))
        return out

    def recording_loss(out, train_idx):
        losses.append(out)
        return loss(out, train_idx)
    model.forward, model.loss = recording_forward, recording_loss
    res = train_model(g, toy_split(g), cfg, seed=seed, model=model)
    return res, calls, losses


def test_an_h2gcn_run_runs_one_train_forward():
    res, calls, losses = _train_recording_calls("h2gcn")
    assert len(res.val_curve) == 8
    assert [train for train, _ in calls] == [True] + [False] * 9
    # epoch e >= 1 trains on epoch e-1's eval output, the very object
    evals = [out for train, out in calls if not train]
    assert losses[0] is calls[0][1]
    assert all(losses[e] is evals[e - 1] for e in range(1, 8))


def test_a_compatgnn_run_runs_a_train_forward_after_each_refresh():
    res, calls, losses = _train_recording_calls("compatgnn")
    n_epochs = len(res.val_curve)
    assert res.refresh_epochs and n_epochs == 8
    followed = [e for e in res.refresh_epochs if e < n_epochs - 1]
    assert len(followed) < n_epochs - 1, "the toy run must reuse some evals"
    assert sum(train for train, _ in calls) == 1 + len(followed)
    evals = [out for train, out in calls if not train]
    for e in range(1, n_epochs):
        assert (losses[e] is evals[e - 1]) == (e - 1 not in res.refresh_epochs)


def test_train_model_calls_the_same_hooks_on_every_model():
    g = sbm_toy(30)
    split = toy_split(g)
    cfg = RunConfig(model="gcn", lr=0.05, patience=20, max_epochs=6, nhidden=4)
    model = build_model(cfg, g, seed=8)
    assert model.on_training_start(split.train) is None
    assert model.on_validation_improved(None, split.train, 0) is False
    started, improved = [], []
    model.on_training_start = started.append

    def on_validation_improved(eval_out, train_idx, epoch):
        improved.append(epoch)
        return epoch == 0   # a refresh at epoch 0 only
    model.on_validation_improved = on_validation_improved
    res = train_model(g, split, cfg, seed=8, model=model)
    assert len(started) == 1 and started[0] is split.train
    best = np.maximum.accumulate(res.val_curve)
    assert improved == [0] + [e for e in range(1, len(best)) if best[e] > best[e - 1]]
    assert res.refresh_epochs == [0]


def test_a_refresh_frees_the_stale_eval_before_the_next_train_forward():
    g = sbm_toy(30)
    cfg = RunConfig(model="compatgnn", lr=0.05, patience=20, max_epochs=8,
                    nhidden=4, lambda_=0.3)
    model = build_model(cfg, g, seed=8)
    forward, refresh = model.forward, model.on_validation_improved
    last, stale, checked = [], [], []

    def intermediates(out):
        """weakrefs to the values of every tape node behind out"""
        seen, stack, refs = set(), list(_tensors(out)), []
        while stack:
            t = stack.pop()
            if id(t) in seen or not t.parents:
                continue
            seen.add(id(t))
            refs.append(weakref.ref(t.value))
            stack.extend(t.parents)
        return refs

    def recording_forward(train=False, rng=None):
        if train and stale:
            checked.append(all(ref() is None for ref in stale.pop()))
        out = forward(train=train, rng=rng)
        if not train:
            last[:] = [intermediates(out)]
        return out

    def recording_refresh(eval_out, train_idx, epoch):
        refreshed = refresh(eval_out, train_idx, epoch)
        stale.append(last[0])
        return refreshed
    model.forward, model.on_validation_improved = recording_forward, recording_refresh
    res = train_model(g, toy_split(g), cfg, seed=8, model=model)
    followed = [e for e in res.refresh_epochs if e < len(res.val_curve) - 1]
    assert followed and checked == [True] * len(followed)


def test_a_compatgnn_epoch_never_builds_the_fused_concat(monkeypatch):
    """The cat fuse reaches the classifier as column blocks: no tensor of
    one train_model epoch is as wide as the concatenated fuse over more
    than the K prototype rows."""
    g = generate_graph(make_synth_spec(3000, 5, 0.2, "easy", 6.0, seed=2))
    split = generate_splits(g, 1, seed=2)[0]
    config = RunConfig(model="compatgnn", lambda_=0.1, max_epochs=1)
    model = build_model(config, g, seed=0)
    shapes, init = set(), Tensor.__init__

    def recording_init(t, *args, **kwargs):
        init(t, *args, **kwargs)
        shapes.add(t.shape)
    monkeypatch.setattr(Tensor, "__init__", recording_init)
    train_model(g, split, config, seed=0, model=model)
    assert (g.n_nodes + g.n_classes, config.nhidden) in shapes
    assert not [s for s in shapes if s[0] > g.n_classes and s[1] == model.fused_width]


# ---------------------------------------------------------------------------
# loss-term ablation

def test_lambda_zero_matches_disabled_loss_bitwise():
    g = sbm_toy(30)
    split = toy_split(g)
    cfg = RunConfig(model="compatgnn", lr=0.05, patience=20, max_epochs=12,
                    nhidden=4, lambda_=0.0)

    res_zero = train_model(g, split, cfg, seed=6)

    model = build_model(cfg, g, seed=6)
    model.dis_enabled = False
    res_off = train_model(g, split, cfg, seed=6, model=model)

    assert res_zero.loss_curve == res_off.loss_curve
    assert res_zero.val_curve == res_off.val_curve
    assert res_zero.test_accuracy == res_off.test_accuracy
    assert res_zero.test_predictions == res_off.test_predictions


# ---------------------------------------------------------------------------
# learning on an easy graph

def test_toy_sbm_reaches_95_percent():
    g = sbm_toy(60, seed=15, sep=3.0)
    split = toy_split(g, seed=1)
    cfg = RunConfig(model="compatgnn", lr=0.05, patience=200, max_epochs=200,
                    nhidden=16, lambda_=0.5)
    res = train_model(g, split, cfg, seed=7)
    assert res.test_accuracy >= 0.95
    assert not res.diverged
    assert res.metadata["cm_estimate"][0][0] > 0.5  # homophily was learned


# ---------------------------------------------------------------------------
# results

def test_runresult_json_roundtrip(tmp_path):
    g = sbm_toy(30)
    cfg = RunConfig(model="gcn", lr=0.05, patience=5, max_epochs=5, nhidden=4)
    res = train_model(g, toy_split(g), cfg, seed=8)
    path = str(tmp_path / "run.json")
    write_json_atomic(path, dataclasses.asdict(res))
    back = _read_run(path)
    assert back == res
    assert back.test_accuracy == res.test_accuracy
    assert back.val_curve == res.val_curve
    assert back.config == res.config
    assert back.test_idx == res.test_idx


def test_split_overlap_rejected():
    with pytest.raises(Exception, match="overlap"):
        Split(train=[0, 1], valid=[1, 2], test=[3])


@pytest.mark.parametrize("entry", ["train_model", "run_bench"])
def test_a_split_naming_a_node_outside_the_graph_or_unlabelled_is_refused(entry,
                                                                         monkeypatch):
    """On a 60-node graph whose nodes 0-4 are unlabelled, a split that
    names node 60, node -1 or node 2 is a DataError naming the split,
    raised by train_model, and so by run_bench, before a model is built."""
    rng = make_rng(5, "split-check")
    labels = rng.integers(0, 3, size=60)
    labels[:5] = -1
    g = make_graph(60, [(i, i + 1) for i in range(59)], labels, 3)
    cfg = RunConfig(model="gcn", split_ids=[3], max_epochs=2, nhidden=4)
    monkeypatch.setattr(training, "build_model", lambda *a: pytest.fail("built a model"))
    for part, node, text in (("train", 60, r"names a node outside \[0, 60\)"),
                             ("valid", -1, r"names a node outside \[0, 60\)"),
                             ("test", 2, "names node 2, which is unlabelled")):
        ids = {"train": [10, 11], "valid": [12, 13], "test": [14, 15]}
        ids[part].append(node)
        split = Split(**ids)
        with pytest.raises(DataError, match=f"^split 3: {text}$"):
            if entry == "train_model":
                train_model(g, split, cfg, seed=0, split_id=3)
            else:
                run_bench(g, {3: split}, cfg)

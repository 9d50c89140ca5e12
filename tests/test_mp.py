import dataclasses
import itertools
import json
import tracemalloc
from pathlib import Path
from typing import get_args

import numpy as np
import pytest
import scipy.sparse as sp

from compatgnn import (ConfigError, Graph, NumericalError, generate_splits, mp,
                       permute_graph)
from compatgnn import autodiff as ad
from compatgnn.autodiff import backward, constant, tensor, zero_grads
from compatgnn.mp import (ChannelSpec, LayerSpec, MessagePassingModel,
                          ModelSpec, PRESETS, aggregate, ada_weights,
                          build_preset, init_ada_params, realize_channel,
                          realize_guidance, realize_indicator)
from compatgnn.rng import make_rng
from compatgnn.optim import Adam
from compatgnn.sparse import (add_self_loops, khop_adjacency, knn_feature_graph,
                              row_normalize, sym_normalize)
from compatgnn.model import CompatGNN
from compatgnn.synth import generate_graph, make_synth_spec
from compatgnn.training import RunConfig, build_model, train_model

from util import (cubic12, make_graph, mixed, path3_forest, product, quartic12,
                  random_graph, total)


def dyadicize(model):
    """Round every parameter to a multiple of 1/64 (in place)."""
    for p in model.params.values():
        p.value = np.round(p.value * 64.0) / 64.0


# ---------------------------------------------------------------------------
# spec validation and serialization

def test_channel_spec_validation():
    with pytest.raises(ConfigError, match="indicator"):
        ChannelSpec("bogus", "deg_avg_row").validate()
    with pytest.raises(ConfigError, match="guidance"):
        ChannelSpec("raw", "bogus").validate()
    with pytest.raises(ConfigError, match="k >= 2"):
        ChannelSpec("khop", "deg_avg_sym").validate()
    spec = ModelSpec(layers=[LayerSpec(
        channels=[ChannelSpec("supplementary", "constant")])])
    with pytest.raises(ConfigError, match="prototype"):
        MessagePassingModel(spec, quartic12())


@pytest.mark.parametrize("indicator, guidance, k, problem", [
    ("raw", "identity", None, "pairs only with"),
    ("identity", "deg_avg_row", None, "pairs only with"),
    ("raw", "constant", None, "pairs only with"),
    ("supplementary", "deg_avg_row", None, "pairs only with"),
    ("khop", "deg_avg_sym", 1, "k >= 2"),
    ("feature_knn", "deg_avg_row", 0, "k >= 1"),
    ("raw", "deg_avg_sym", 2, "takes no k"),
])
def test_channel_pairing_and_k_rules(indicator, guidance, k, problem):
    with pytest.raises(ConfigError, match=problem):
        ChannelSpec(indicator, guidance, k=k).validate()


def test_ada_add_fuse_over_unequal_widths_fails_validate():
    cat = LayerSpec(channels=[ChannelSpec("raw", "deg_avg_row"),
                              ChannelSpec("identity", "identity")], combine="cat")
    spec = ModelSpec(layers=[cat], hidden_dim=4, fuse="ada_add")
    with pytest.raises(ConfigError, match=r"equal layer widths, got \[4, 8\]"):
        spec.validate()


def test_layer_spec_validation():
    with pytest.raises(ConfigError, match="at least one"):
        LayerSpec(channels=[]).validate()
    with pytest.raises(ConfigError, match="unknown weight 'g'"):
        LayerSpec(channels=[ChannelSpec("raw", "deg_avg_row", weight="g")]
                  ).validate()
    with pytest.raises(ConfigError, match="combine"):
        LayerSpec(channels=[ChannelSpec("raw", "deg_avg_row")],
                  combine="bogus").validate()


def test_model_spec_validation():
    ok = [LayerSpec(channels=[ChannelSpec("raw", "deg_avg_row")])]
    with pytest.raises(ConfigError, match="dropout"):
        ModelSpec(layers=ok, dropout=1.0).validate()
    with pytest.raises(ConfigError, match="fuse"):
        ModelSpec(layers=ok, fuse="bogus").validate()
    with pytest.raises(ConfigError, match="classifier"):
        ModelSpec(layers=ok, classifier="bogus").validate()


def test_model_spec_json_round_trip():
    spec = build_preset("mixhop", n_layers=2, hidden_dim=32, dropout=0.25)
    again = ModelSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again.to_dict() == spec.to_dict()
    with pytest.raises(ConfigError, match="malformed"):
        ModelSpec.from_dict({"hidden_dim": 4})


@pytest.mark.parametrize("path", [(), ("layers", 0), ("layers", 0, "channels", 0)])
def test_model_spec_rejects_unknown_keys(path):
    d = build_preset("gcn", hidden_dim=8).to_dict()
    node = d
    for key in path:
        node = node[key]
    node["hiden_dim"] = 4
    with pytest.raises(ConfigError, match="unknown .* keys: \\['hiden_dim'\\]"):
        ModelSpec.from_dict(d)


def test_model_spec_omitted_keys_take_field_defaults():
    spec = ModelSpec.from_dict({"layers": [{"channels": [
        {"indicator": "raw", "guidance": "deg_avg_sym"}]}]})
    assert spec == ModelSpec(layers=[LayerSpec(channels=[
        ChannelSpec("raw", "deg_avg_sym")])])


# ---------------------------------------------------------------------------
# realization

def test_realize_indicator_kinds():
    g = quartic12()
    assert realize_indicator(g, "identity") is None
    np.testing.assert_array_equal(realize_indicator(g, "raw").toarray(),
                                  g.adjacency().toarray())
    np.testing.assert_array_equal(realize_indicator(g, "raw_self_loop").toarray(),
                                  add_self_loops(g).toarray())
    np.testing.assert_array_equal(realize_indicator(g, "khop", k=2).toarray(),
                                  khop_adjacency(g, 2).toarray())
    with pytest.raises(ConfigError, match="prototype"):
        realize_indicator(g, "supplementary")


def _accepted_channels():
    """Every (indicator, guidance, k) ChannelSpec.validate accepts, for k
    up to 3, bar the supplementary/constant channel only CompatGNN binds."""
    indicator, guidance = dataclasses.fields(ChannelSpec)[:2]
    for ind, guid, k in itertools.product(get_args(indicator.type),
                                          get_args(guidance.type), (None, 1, 2, 3)):
        try:
            ChannelSpec(ind, guid, k).validate()
        except ConfigError:
            continue
        if ind != "supplementary":
            yield ind, guid, k


COMPOSED_INDICATOR = {"raw": lambda g, k: g.adjacency(),
                      "raw_self_loop": lambda g, k: add_self_loops(g),
                      "khop": khop_adjacency, "feature_knn": knn_feature_graph}
COMPOSED_GUIDANCE = {"deg_avg_row": row_normalize, "deg_avg_sym": sym_normalize,
                     "high_pass": lambda a: sp.eye(a.shape[0]) - sym_normalize(a)}


@pytest.mark.parametrize("indicator, guidance, k", list(_accepted_channels()))
def test_every_accepted_channel_realizes_and_trains(indicator, guidance, k):
    g = random_graph(make_rng(6, "channels"), 12, p=0.3)
    ch = ChannelSpec(indicator, guidance, k)
    op = realize_channel(g, ch)
    if indicator == "identity":
        assert op is None
    else:
        a = COMPOSED_INDICATOR[indicator](g, k)
        want = COMPOSED_GUIDANCE[guidance](a)
        np.testing.assert_array_equal(op.scipy.toarray(), want.toarray())
    # layer 1 reads ÂX, layer 2 aggregates over the operator
    spec = ModelSpec([LayerSpec([ch]), LayerSpec([ch])], hidden_dim=4)
    model = MessagePassingModel(spec, g)
    out = model.forward(train=True)
    backward(model.loss(out, np.arange(6)))
    assert out.logits.shape == (12, g.n_classes)
    for li in (1, 2):
        grad = model.params[f"layer{li}.ch0.w"].grad
        assert grad is not None and np.all(np.isfinite(grad)) and np.any(grad)


def test_realize_guidance_rules():
    g = quartic12()
    a = realize_indicator(g, "raw")
    assert realize_guidance(None, "identity", 12) is None
    row = realize_guidance(a, "deg_avg_row", 12)
    np.testing.assert_allclose(np.asarray(row.sum(axis=1)).ravel(), 1.0)
    hp = realize_guidance(a, "high_pass", 12).toarray()
    np.testing.assert_allclose(hp, np.eye(12) - sym_normalize(a).toarray(),
                               atol=1e-15)


@pytest.mark.parametrize("name, n_operators",
                         [("h2gcn", 2), ("acmgcn", 3), ("compatgnn", 2)])
def test_each_operator_is_realized_once(name, n_operators, monkeypatch):
    """Every channel naming an operator shares its one realization. A
    layer-1 channel over a sparse operator reaches aggregate as None over
    ÂX, a constant cached per operator; acmgcn's relu before aggregating
    keeps its operators there."""
    realized, used = [], []
    realize, aggregate_ = mp.realize_channel, mp.aggregate
    monkeypatch.setattr(mp, "realize_channel",
                        lambda *a: realized.append(a) or realize(*a))
    monkeypatch.setattr(mp, "aggregate",
                        lambda op, z, w=None: used.append((op, z)) or aggregate_(op, z, w))
    g = random_graph(make_rng(5, "once"), 40, p=0.15)
    cfg = RunConfig(model=name, layers=2, nhidden=8, max_epochs=1)
    model = build_model(cfg, g, seed=0)
    train_model(g, generate_splits(g, 1, seed=0)[0], cfg, seed=0, model=model)
    assert len(realized) == n_operators
    # the train forward aggregates each channel of layer 1, then of layer 2
    n_ch = len(realized) + (name == "compatgnn")
    layer1, layer2 = used[:n_ch], [op for op, _ in used[n_ch:2 * n_ch]]
    assert len({id(op) for op in layer2}) == n_ch
    cached = {id(c) for c in model._propagated.values()}
    assert len(cached) == (0 if name == "acmgcn" else
                           sum(isinstance(op, ad.SparseMatrix) for op in layer2))
    for (op1, z1), op2 in zip(layer1, layer2):
        if name != "acmgcn" and isinstance(op2, ad.SparseMatrix):
            assert op1 is None and id(z1) in cached
        else:
            assert op1 is op2
    # the eval forward reads the same operators and constants
    train, evals = used[:2 * n_ch], used[2 * n_ch:4 * n_ch]
    assert all(a is b for (a, _), (b, _) in zip(train, evals))
    assert ([id(z) for _, z in train if id(z) in cached]
            == [id(z) for _, z in evals if id(z) in cached])


def test_identity_channel_short_circuits():
    g = quartic12()
    ch = realize_channel(g, ChannelSpec("identity", "identity"))
    assert ch is None
    z = tensor(np.ones((12, 2)))
    x, w = aggregate(ch, z)
    assert x is z and w is None


def test_aggregate_matches_dense_oracle_on_triangle():
    # ego + both neighbors, all degree 3 with self-loops: entries 1/3
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)], [0, 1, 1], 2,
                   features=np.eye(3))
    ch = realize_channel(g, ChannelSpec("raw_self_loop", "deg_avg_sym"))
    z = tensor(np.eye(3))
    got = product(aggregate(ch, z)).value
    s = sym_normalize(add_self_loops(g)).toarray()
    np.testing.assert_allclose(got, s @ np.eye(3), atol=1e-14)
    np.testing.assert_allclose(got, np.full((3, 3), 1.0 / 3.0), atol=1e-14)


def test_high_pass_annihilates_constant_signal():
    # complete graph K4 is 3-regular; I - sym(A) kills constant columns
    g = make_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)],
                   [0, 0, 1, 1], 2)
    ch = realize_channel(g, ChannelSpec("raw", "high_pass"))
    z = tensor(np.full((4, 2), 3.7))
    np.testing.assert_allclose(product(aggregate(ch, z)).value, 0.0, atol=1e-14)


def test_deg_avg_row_output_is_convex_combination():
    for trial in range(5):
        g = random_graph(make_rng(trial, "convex"), 40, p=0.1)
        ch = realize_channel(g, ChannelSpec("raw", "deg_avg_row"))
        z = make_rng(trial, "convex-z").normal(size=(40, 3))
        out = product(aggregate(ch, tensor(z))).value
        for i in range(40):
            nb = g.neighbors(i)
            if nb.size == 0:
                np.testing.assert_array_equal(out[i], 0.0)
                continue
            assert np.all(out[i] >= z[nb].min(axis=0) - 1e-12)
            assert np.all(out[i] <= z[nb].max(axis=0) + 1e-12)


# ---------------------------------------------------------------------------
# adaptive combine

def test_ada_weights_are_row_stochastic_positive():
    rng = make_rng(0, "ada")
    p = init_ada_params(rng, 3, 5, degree_column=True)
    pairs = [(tensor(rng.normal(size=(8, 5))), None) for _ in range(3)]
    deg = constant(rng.integers(1, 9, size=(8, 1)).astype(float))
    alpha = ada_weights(pairs, [deg], p).value
    assert alpha.shape == (8, 3)
    assert np.all(alpha > 0)
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
    # only a gate reads extra columns
    for mix in ("add", "cat", constant(alpha)):
        with pytest.raises(ValueError, match="extra columns only into a gate"):
            mp.ada_combine(pairs, mix, [deg])


def test_one_compatgnn_forward_records_no_slices_or_row_scales(monkeypatch):
    g = random_graph(make_rng(6, "ada-ops"), 40, p=0.15)
    # a lambda above 0, so that the loss builds its discrimination term
    model = build_model(RunConfig(model="compatgnn", layers=2, nhidden=8, lambda_=0.1),
                        g, seed=0)
    train = generate_splits(g, 1, seed=0)[0].train
    model.on_training_start(train)
    nodes, result = [], ad._result
    monkeypatch.setattr(ad, "_result", lambda value, parents, bw, op:
                        nodes.append((op, value.shape))
                        or result(value, parents, bw, op))
    out = model.forward(train=True)
    ops = [op for op, _ in nodes]
    assert "slice_cols" not in ops and "row_scale" not in ops
    # per layer one adaptive node (gate, mix and relu), and the MLP
    # classifier as two combine nodes over the cat fuse's blocks
    assert ops.count("ada_mix") == 2 + 2 and "add_bias" not in ops
    assert "row_mix" not in ops
    assert "concat_cols" not in ops
    # the only concat is the loss's: the prototype rows of the fuse's blocks
    nodes.clear()
    model.loss(out, train)
    assert [shape for op, shape in nodes if op == "concat_cols"] == [
        (g.n_classes, model.fused_width)]


def _kept_arrays(*tensors):
    """id -> array of every ndarray the tensors' tapes keep alive: each
    tensor's value, what its backward closure holds and, recursively, what
    its parents keep."""
    kept, seen, stack = {}, set(), list(tensors)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            kept[id(obj)] = obj
            stack.append(obj.base)
        elif isinstance(obj, ad.Tensor):
            stack += [obj.value, obj._backward, *obj.parents]
        elif isinstance(obj, (tuple, list)):
            stack += obj
        elif isinstance(obj, dict):
            stack += obj.values()
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack += [c.cell_contents for c in obj.__closure__]
    return kept


def test_ada_layer_keeps_no_wide_intermediate_on_the_tape(monkeypatch):
    g = random_graph(make_rng(6, "ada-tape"), 40, p=0.15)
    model = build_model(RunConfig(model="compatgnn", layers=2, nhidden=8), g, seed=0)
    train = generate_splits(g, 1, seed=0)[0].train
    model.on_training_start(train)
    calls, combine = [], mp.ada_combine

    def recorded(pairs, weights, extra_cols=(), relu=False):
        out = combine(pairs, weights, extra_cols, relu)
        calls.append((pairs, weights, extra_cols, relu, out))
        return out
    monkeypatch.setattr(mp, "ada_combine", recorded)
    out = model.forward(train=True)
    # one call per ada_add layer, then two for the MLP head: the first over
    # the cat fuse's three blocks and the bias, the second over its output
    assert len(calls) == 2 + 2
    (*blocks, bias1), mix1, _, relu1, h = calls[2]
    assert [x for x, _ in blocks] == out.blocks and mix1 == "add" and relu1
    (x2, _), bias2 = calls[3][0]
    assert x2 is h and calls[3][1:4] == ("add", (), False)
    assert all(np.all(x.value == 1.0) for x, _ in (bias1, bias2))
    n_rows = g.n_nodes + g.n_classes    # the graph's nodes and K prototypes
    for (pairs, weights, extra, relu, z), rep in zip(calls[:2], out.blocks[1:],
                                                     strict=True):
        assert z is rep and relu
        # the prototype channel as its (N+K) x K block times a K x d weight
        assert [t.shape for t in pairs[2]] == [(n_rows, g.n_classes), (g.n_classes, 8)]
        # the memory the layer keeps: arrays its output keeps and its inputs
        # do not, views left out
        kept = _kept_arrays(z)
        inputs = _kept_arrays(*(t for pair in pairs for t in pair), *extra,
                              *weights.values())
        inside = [a for i, a in kept.items() if i not in inputs and a.base is None]
        assert any(a is z.value for a in inside)
        # besides the output only alpha and the gate's sigmoid, N x 3 each:
        # no channel product
        assert sorted(a.shape for a in inside if a is not z.value) == [
            (n_rows, 3), (n_rows, 3)]
        # the node mixed by its gate's alpha, which ada_weights computes
        alpha = mp.ada_weights(pairs, extra, weights)
        assert z.parents[-1].value.tobytes() == alpha.value.tobytes()
        np.testing.assert_array_equal(
            z.value, np.maximum(mixed(alpha.value, [product(p) for p in pairs]), 0.0))


# On a 3000-node graph (d_f 8, hidden 16), each model's train-forward tape
# holds `wide` arrays of (N+K) x hidden, and one epoch (train forward,
# backward, Adam step, taped eval forward) peaks at `peak` such arrays of
# numpy memory at most. compatgnn's 5 are the encoder output, Z1, ÂZ1, Z2
# and the classifier head's relu output; 13 and about 19.7 arrays of peak
# while its tape held every channel product X_r W_r, 7 and 14.3 since the
# ada node computes them block by block, 5 and 14.0 since the head is one
# node too. acmgcn: 15 and 22.0, then 9 and 18.3. While only ada_add
# layers were one node, the others multiplied their pairs out and kept
# each product, sum, concatenation and relu: mlp 5 and 7.6, gcn 5 and
# 8.2, gprgnn 10 and 14.3, h2gcn 3 and 40.2, mixhop 7 and 45.2; as one
# node each, 3 and 7.0, 3 and 7.0, 9 and 13.3, 1 and 36.2, 1 and 39.2.
# With the classifier as combine nodes (the MLP head two) every count
# stays; compatgnn's peak is 14.3, since its backward now writes the
# head's relu output a gradient of its own, and no other peak moves.
# gprgnn's fuse as one combine node keeps no scaled rep and no partial
# sum: 5 and 10.8, where its chain of scalar_scale and add held 9 and 13.3.
# With the gate a node of its own, compatgnn peaks at 12.3 and acmgcn at
# 15.9, and no count moves.
TAPE_BUDGET = {"compatgnn": (5, 15.0), "acmgcn": (9, 20.0), "mlp": (3, 7.5),
               "gcn": (3, 7.5), "gprgnn": (5, 11.5), "h2gcn": (1, 37.0),
               "mixhop": (1, 40.0)}


@pytest.fixture(scope="module")
def graph_3000():
    return generate_graph(make_synth_spec(3000, 5, 0.2, "easy", 15, 0, d_f=8))


@pytest.mark.parametrize("name", list(TAPE_BUDGET))
def test_tape_budget_of_one_train_forward_and_epoch(name, graph_3000):
    wide, peak = TAPE_BUDGET[name]
    train = generate_splits(graph_3000, 1, seed=0)[0].train
    model = build_model(RunConfig(model=name, layers=2, nhidden=16), graph_3000, seed=0)
    model.on_training_start(train)
    shape = (model.graph.n_nodes, 16)
    out = model.forward(train=True)
    loss = model.loss(out, train)
    kept = _kept_arrays(out.logits, *out.blocks, loss)
    assert sum(a.shape == shape for a in kept.values()) == wide
    del out, loss, kept
    opt = Adam(model.params, lr=0.01)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = model.forward(train=True)
        backward(model.loss(out, train))
        opt.step()
        model.forward(train=False)
        used = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert used <= peak * np.prod(shape) * 8


def test_nan_reaching_the_ada_node_names_layer_and_op(monkeypatch):
    g = random_graph(make_rng(6, "ada-nan"), 40, p=0.15)
    model = build_model(RunConfig(model="compatgnn", layers=2, nhidden=8), g, seed=0)
    model.on_training_start(generate_splits(g, 1, seed=0)[0].train)
    channel = MessagePassingModel._channel

    def poisoned(self, li, cj, ch, zin, propagated):
        x, w = channel(self, li, cj, ch, zin, propagated)
        if li == 2 and cj == 1:
            x = tensor(np.where(np.arange(x.shape[0])[:, None] == 3, np.nan, x.value))
        return x, w
    monkeypatch.setattr(MessagePassingModel, "_channel", poisoned)
    # the gate reads the channels first
    with pytest.raises(NumericalError, match="layer 2: .*ada_gate"):
        model.forward(train=True)


@pytest.mark.parametrize("combine", ["add", "ada_add"])
def test_a_channel_sum_overflowing_under_the_relu_names_layer_and_op(combine,
                                                                    monkeypatch):
    """Two weightless channels of one finite encoder output whose sum is
    -inf in one row: an add layer, and an ada_add layer under fixed
    weights, raise rather than relu the row to 0."""
    g = random_graph(make_rng(6, "sum-inf"), 20, p=0.2)
    self_ch = ChannelSpec("identity", "identity", weight="identity")
    model = MessagePassingModel(
        ModelSpec([LayerSpec([self_ch, self_ch], combine=combine)], hidden_dim=3), g)
    if combine == "ada_add":
        model.force_alpha = (1.0, 1.0)
    z = np.ones((20, 3))
    z[4] = -1e308
    monkeypatch.setattr(MessagePassingModel, "_encode", lambda self: tensor(z))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="^layer 1: .*ada_mix"):
            model.forward(train=True)


def test_a_non_finite_value_names_the_encoder_fuse_or_classifier():
    g = random_graph(make_rng(6, "stages"), 30, p=0.2)
    spec = build_preset("gprgnn", n_layers=1, hidden_dim=4)
    for param, stage in (("encoder.w", "encoder"), ("fuse.gamma", "fuse"),
                         ("cla.w", "classifier")):
        model = MessagePassingModel(spec, g)
        model.params[param].value[0] = np.nan
        with pytest.raises(NumericalError, match=f"^{stage}: non-finite value"):
            model.forward()


# ---------------------------------------------------------------------------
# layer 1 over ÂX: Â (X W_e) W = (ÂX)(W_e W)

def ready(model, train):
    """model after its training-start hook over `train`, which binds a
    CompatGNN's prototypes and estimate."""
    model.on_training_start(train)
    return model


def preset_model(name, d_f=4, **overrides):
    g = random_graph(make_rng(7, "ax", name), 40, p=0.15, d_f=d_f)
    cfg = RunConfig(**{"model": name, "layers": 2, "nhidden": 8, **overrides})
    return ready(build_model(cfg, g, seed=0), generate_splits(g, 1, seed=0)[0].train)


def forward_and_grads(model, train):
    zero_grads(model.params)
    out = model.forward(train=train, rng=make_rng(0, "dropout"))
    backward(total(out.logits))
    return out.logits.value, {k: p.grad.copy() for k, p in model.params.items()
                              if p.grad is not None}


@pytest.mark.parametrize("name", ["gcn", "h2gcn", "compatgnn"])
def test_layer1_over_propagated_features_keeps_logits_and_grads(name, monkeypatch):
    model = preset_model(name)
    assert model._reads_propagated()
    logits, grads = forward_and_grads(model, train=True)
    assert model._propagated
    monkeypatch.setattr(MessagePassingModel, "_reads_propagated", lambda self: False)
    want_logits, want_grads = forward_and_grads(model, train=True)
    np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-12)
    assert grads.keys() == want_grads.keys()
    for k in grads:
        np.testing.assert_allclose(grads[k], want_grads[k], rtol=0, atol=1e-12)


@pytest.mark.parametrize("name, d_f, overrides", [
    ("gcn", 4, {"dropout": 0.5}),               # X W_e is dropped out
    ("acmgcn", 4, {}),                          # relu before aggregating
    ("compatgnn", 4, {"structure_info": True}),  # not a linear encoder
    ("gcn", 12, {}),                            # ÂX wider than X W_e
], ids=["dropout", "acmgcn", "structure", "wide_features"])
def test_layer1_aggregates_the_operator_otherwise(name, d_f, overrides, monkeypatch):
    model = preset_model(name, d_f=d_f, **overrides)
    used, aggregate_ = [], mp.aggregate
    monkeypatch.setattr(mp, "aggregate",
                        lambda op, z, w=None: used.append(op) or aggregate_(op, z, w))
    logits = model.forward(train=True, rng=make_rng(0, "dropout")).logits.value
    n_ch = len(model.spec.layers[0].channels)
    assert any(isinstance(op, ad.SparseMatrix) for op in used[:n_ch])
    assert not model._propagated
    monkeypatch.setattr(MessagePassingModel, "_reads_propagated", lambda self: False)
    np.testing.assert_array_equal(
        logits, model.forward(train=True, rng=make_rng(0, "dropout")).logits.value)


def test_rebound_prototypes_drop_the_cached_propagated_features():
    # a raw_self_loop operator's ÂX reads the prototype rows of the features
    g = random_graph(make_rng(8, "ax-protos"), 40, p=0.15)
    spec = build_preset("compatgnn", n_layers=2, hidden_dim=8)
    spec.layers[0].channels[1] = ChannelSpec("raw_self_loop", "deg_avg_row")
    first, second = (s.train for s in generate_splits(g, 2, seed=0).values())
    model = ready(CompatGNN(spec, g, seed=0), first)
    stale = model.forward().logits.value
    ready(model, second)
    want = ready(CompatGNN(spec, g, seed=0), second).forward().logits.value
    assert not np.array_equal(stale, want)
    np.testing.assert_array_equal(model.forward().logits.value, want)


@pytest.mark.parametrize("name, n_spmm", [("compatgnn", 1), ("h2gcn", 2)])
def test_one_train_forward_runs_spmm_only_past_layer1(name, n_spmm, monkeypatch):
    model = preset_model(name)
    ops, result = [], ad._result
    monkeypatch.setattr(ad, "_result", lambda value, parents, bw, op:
                        ops.append(op) or result(value, parents, bw, op))
    model.forward(train=True)
    assert ops.count("spmm") == n_spmm


def test_h2gcn_trains_bitwise_the_same_with_column_slabs(monkeypatch):
    """Five epochs of h2gcn, once with one product per SpMM and once with
    a budget so small that every 2-hop product runs in slabs."""
    spec = make_synth_spec(600, 5, 0.2, "easy", 15, seed=3, d_f=64)
    g = generate_graph(spec)
    split = generate_splits(g, 1, seed=3)[0]
    cfg = RunConfig(model="h2gcn", nhidden=64, layers=2, dropout=0.0,
                    max_epochs=5, patience=6)

    def run():
        model = build_model(cfg, g, seed=3)
        res = train_model(g, split, cfg, seed=3, model=model)
        return res, {k: p.value.copy() for k, p in model.params.items()}

    whole, whole_params = run()
    decisions, rule = [], ad._slab_bounds

    def spy(m, x):
        decisions.append(rule(m, x))
        return decisions[-1]
    monkeypatch.setattr(ad, "_L2_BYTES", 600 * 16 * 8)
    monkeypatch.setattr(ad, "_slab_bounds", spy)
    slabs, slab_params = run()
    assert sum(b is not None for b in decisions) >= 10   # 2-hop forwards and backwards
    bits = lambda a: np.asarray(a, dtype=np.float64).view(np.uint64)
    np.testing.assert_array_equal(bits(slabs.loss_curve), bits(whole.loss_curve))
    np.testing.assert_array_equal(bits(slabs.val_curve), bits(whole.val_curve))
    assert slab_params.keys() == whole_params.keys()
    for k in whole_params:
        np.testing.assert_array_equal(bits(slab_params[k]), bits(whole_params[k]), err_msg=k)


# ---------------------------------------------------------------------------
# presets: structure

def test_mlp_preset_structure():
    spec = build_preset("mlp", n_layers=2)
    assert spec.fuse == "last"
    for layer in spec.layers:
        assert len(layer.channels) == 1
        assert layer.channels[0].indicator == "identity"


def test_preset_rejects_unknown_and_bad_args():
    with pytest.raises(ConfigError, match="unknown preset"):
        build_preset("gat")
    with pytest.raises(ConfigError, match="n_layers"):
        build_preset("gcn", n_layers=0)


PRESET_SPECS = json.loads((Path(__file__).parent / "data" / "preset_specs.json")
                          .read_text(encoding="utf-8"))


def test_model_names_are_the_recorded_presets_in_order():
    assert mp.MODEL_NAMES == tuple(PRESET_SPECS)
    assert mp.MODEL_NAMES == ("compatgnn",) + mp.PRESETS


@pytest.mark.parametrize("name", list(PRESET_SPECS))
def test_preset_is_its_recorded_layer_repeated(name):
    """The default spec is the recorded one; n_layers repeats its layer,
    and each override changes its own field only."""
    recorded = PRESET_SPECS[name]
    assert build_preset(name).to_dict() == recorded
    layer = recorded["layers"][0]
    assert recorded["layers"] == [layer, layer]
    for n_layers in ((0, 1, 3) if name == "mlp" else (1, 3)):
        spec = build_preset(name, n_layers=n_layers, hidden_dim=4, dropout=0.5)
        assert spec.to_dict() == {**recorded, "layers": [layer] * n_layers,
                                  "hidden_dim": 4, "dropout": 0.5}
    relu = not recorded["relu_before_aggregate"]
    assert (build_preset(name, relu_before_aggregate=relu).to_dict()
            == {**recorded, "relu_before_aggregate": relu})
    for classifier in ("linear", "mlp"):
        assert (build_preset(name, classifier=classifier).to_dict()
                == {**recorded, "classifier": classifier})
    # every spec owns its layers: editing one changes no other
    spec = build_preset(name)
    spec.layers[0].channels.append(ChannelSpec("identity", "identity"))
    spec.layers[1].combine = "cat"
    assert build_preset(name).to_dict() == recorded


@pytest.mark.parametrize("args, kwargs, message", [
    (("gat",), {}, "unknown preset 'gat'; choose from ('compatgnn', 'mlp', 'gcn', "
                   "'mixhop', 'h2gcn', 'gprgnn', 'acmgcn')"),
    (("gcn", 0), {}, "preset 'gcn' needs n_layers >= 1"),
    (("mlp", -1), {}, "preset 'mlp' needs n_layers >= 1"),
    (("compatgnn", 10**4 + 1), {}, "preset 'compatgnn' takes at most 10000 layers, "
                                    "got 10001"),
    (("acmgcn",), {"hidden_dim": 0}, "hidden_dim must be positive"),
    (("h2gcn",), {"dropout": 1.0}, "dropout must be in [0, 1), got 1.0"),
    (("mixhop",), {"classifier": "svm"},
     "unknown classifier 'svm'; choose from ('linear', 'mlp')"),
])
def test_preset_errors_keep_their_text(args, kwargs, message):
    with pytest.raises(ConfigError) as exc:
        build_preset(*args, **kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("name, n_layers", [("h2gcn", 2), ("h2gcn", 3),
                                             ("compatgnn", 2), ("compatgnn", 3)])
def test_presets_over_large_graphs_pass_the_size_check(name, n_layers):
    reps, fused = build_preset(name, n_layers=n_layers).widths()
    for n_nodes in (100_000, 169_343, 1_000_000):
        mp.check_model_size(reps + [fused], n_nodes)


def test_absurd_models_are_refused_before_anything_is_built():
    with pytest.raises(ConfigError, match="projects past the limit"):
        mp.check_model_size([2**64, 2**64], 60)
    # an h2gcn's widths double per layer; its widths stay Python ints
    reps, fused = build_preset("h2gcn", n_layers=mp.MAX_LAYERS).widths()
    with pytest.raises(ConfigError, match="projects past the limit"):
        mp.check_model_size(reps + [fused], 60)
    with pytest.raises(ConfigError, match=f"at most {mp.MAX_LAYERS} layers"):
        build_preset("gcn", n_layers=mp.MAX_LAYERS + 1)


def test_h2gcn_is_weightless_and_widths_double():
    g = quartic12()
    m = MessagePassingModel(build_preset("h2gcn", n_layers=2, hidden_dim=4), g)
    assert set(m.params) == {"encoder.w", "cla.w", "cla.b"}
    # widths: 4, then cat of two weightless copies each layer: 8, 16
    assert m.spec.widths() == ([4, 8, 16], 4 + 8 + 16)
    assert m.fused_width == 4 + 8 + 16


def test_cat_fuse_width_law():
    g = quartic12()
    spec = build_preset("gcn", n_layers=3, hidden_dim=5)
    spec.fuse = "cat"
    m = MessagePassingModel(spec, g)
    assert m.fused_width == (3 + 1) * 5
    assert m.params["cla.w"].shape == ((3 + 1) * 5, g.n_classes)


def test_unequal_add_widths_rejected():
    layers = [
        LayerSpec(channels=[ChannelSpec("raw", "deg_avg_row"),
                            ChannelSpec("identity", "identity")],
                  combine="cat"),
        LayerSpec(channels=[ChannelSpec("raw", "deg_avg_row"),
                            ChannelSpec("identity", "identity",
                                        weight="identity")],
                  combine="add"),
    ]
    spec = ModelSpec(layers=layers, hidden_dim=4)
    with pytest.raises(ConfigError, match="equal channel widths"):
        MessagePassingModel(spec, quartic12())


# ---------------------------------------------------------------------------
# presets: dense forward oracles

def test_gcn_preset_matches_dense_oracle():
    g = random_graph(make_rng(2, "gcnd"), 9, p=0.4)
    m = MessagePassingModel(build_preset("gcn", n_layers=2, hidden_dim=6), g)
    out = m.forward()
    s = sym_normalize(add_self_loops(g)).toarray()
    z0 = g.features @ m.params["encoder.w"].value
    h1 = np.maximum(s @ z0 @ m.params["layer1.ch0.w"].value, 0.0)
    h2 = np.maximum(s @ h1 @ m.params["layer2.ch0.w"].value, 0.0)
    logits = h2 @ m.params["cla.w"].value + m.params["cla.b"].value
    np.testing.assert_allclose(out.logits.value, logits, atol=1e-10)


def test_mlp_preset_matches_dense_oracle_and_ignores_edges():
    g1 = random_graph(make_rng(3, "mlpd"), 10, p=0.3)
    g2 = Graph(np.zeros(11, dtype=np.int64), np.zeros(0, dtype=np.int64),
               g1.features, g1.labels, g1.n_classes)
    m1 = MessagePassingModel(build_preset("mlp", n_layers=2, hidden_dim=5), g1, seed=4)
    m2 = MessagePassingModel(build_preset("mlp", n_layers=2, hidden_dim=5), g2, seed=4)
    o1, o2 = m1.forward(), m2.forward()
    np.testing.assert_array_equal(o1.logits.value, o2.logits.value)
    z0 = g1.features @ m1.params["encoder.w"].value
    h1 = np.maximum(z0 @ m1.params["layer1.ch0.w"].value, 0.0)
    h2 = np.maximum(h1 @ m1.params["layer2.ch0.w"].value, 0.0)
    logits = h2 @ m1.params["cla.w"].value + m1.params["cla.b"].value
    np.testing.assert_allclose(o1.logits.value, logits, atol=1e-10)


def test_mixhop_preset_matches_dense_oracle():
    g = quartic12(seed=5)
    m = MessagePassingModel(build_preset("mixhop", n_layers=1, hidden_dim=4), g)
    out = m.forward()
    s1 = sym_normalize(g.adjacency()).toarray()
    s2 = sym_normalize(khop_adjacency(g, 2)).toarray()
    z0 = g.features @ m.params["encoder.w"].value
    cat = np.concatenate([
        z0 @ m.params["layer1.ch0.w"].value,
        s1 @ z0 @ m.params["layer1.ch1.w"].value,
        s2 @ z0 @ m.params["layer1.ch2.w"].value,
    ], axis=1)
    h1 = np.maximum(cat, 0.0)
    logits = h1 @ m.params["cla.w"].value + m.params["cla.b"].value
    np.testing.assert_allclose(out.logits.value, logits, atol=1e-10)


def test_h2gcn_preset_matches_dense_oracle():
    g = quartic12(seed=6)
    m = MessagePassingModel(build_preset("h2gcn", n_layers=1, hidden_dim=4), g)
    out = m.forward()
    s1 = sym_normalize(g.adjacency()).toarray()
    s2 = sym_normalize(khop_adjacency(g, 2)).toarray()
    z0 = g.features @ m.params["encoder.w"].value
    h1 = np.maximum(np.concatenate([s1 @ z0, s2 @ z0], axis=1), 0.0)
    fused = np.concatenate([z0, h1], axis=1)
    logits = fused @ m.params["cla.w"].value + m.params["cla.b"].value
    np.testing.assert_allclose(out.logits.value, logits, atol=1e-10)


def test_gprgnn_preset_matches_dense_oracle():
    g = cubic12(seed=7)
    m = MessagePassingModel(build_preset("gprgnn", n_layers=2, hidden_dim=4), g)
    out = m.forward()
    s = sym_normalize(add_self_loops(g)).toarray()
    z0 = g.features @ m.params["encoder.w"].value
    z1 = np.maximum(s @ z0, 0.0)
    z2 = np.maximum(s @ z1, 0.0)
    gamma = m.params["fuse.gamma"].value.ravel()
    np.testing.assert_allclose(gamma, [1 / 3, 1 / 3, 1 / 3])
    fused = gamma[0] * z0 + gamma[1] * z1 + gamma[2] * z2
    logits = fused @ m.params["cla.w"].value + m.params["cla.b"].value
    np.testing.assert_allclose(out.logits.value, logits, atol=1e-10)


def test_fuse_ada_with_onehot_gamma_returns_z0():
    g = cubic12(seed=8)
    m = MessagePassingModel(build_preset("gprgnn", n_layers=2, hidden_dim=4), g)
    m.params["fuse.gamma"].value = np.array([[1.0, 0.0, 0.0]])
    out = m.forward()
    z0 = g.features @ m.params["encoder.w"].value
    np.testing.assert_array_equal(out.blocks[0].value, z0)


# ---------------------------------------------------------------------------
# limiting-case equivalences

def copy_params(src, dst, mapping):
    for a, b in mapping.items():
        dst.params[b].value = src.params[a].value.copy()


def test_acmgcn_alpha_100_equals_mlp():
    g = cubic12(seed=9)
    acm = MessagePassingModel(
        build_preset("acmgcn", n_layers=2, hidden_dim=4,
                     relu_before_aggregate=False), g, seed=1)
    mlp = MessagePassingModel(build_preset("mlp", n_layers=2, hidden_dim=4),
                              g, seed=2)
    copy_params(acm, mlp, {
        "encoder.w": "encoder.w",
        "layer1.ch0.w": "layer1.ch0.w",
        "layer2.ch0.w": "layer2.ch0.w",
        "cla.w": "cla.w", "cla.b": "cla.b",
    })
    acm.force_alpha = (1.0, 0.0, 0.0)
    np.testing.assert_allclose(acm.forward().logits.value,
                               mlp.forward().logits.value, atol=1e-10)


def test_acmgcn_alpha_010_equals_gcn():
    g = cubic12(seed=10)
    acm = MessagePassingModel(
        build_preset("acmgcn", n_layers=2, hidden_dim=4,
                     relu_before_aggregate=False), g, seed=1)
    gcn = MessagePassingModel(build_preset("gcn", n_layers=2, hidden_dim=4),
                              g, seed=2)
    copy_params(acm, gcn, {
        "encoder.w": "encoder.w",
        "layer1.ch1.w": "layer1.ch0.w",
        "layer2.ch1.w": "layer2.ch0.w",
        "cla.w": "cla.w", "cla.b": "cla.b",
    })
    acm.force_alpha = (0.0, 1.0, 0.0)
    np.testing.assert_array_equal(acm.forward().logits.value,
                                  gcn.forward().logits.value)


def _forced_model(name):
    """A two-layer compatgnn or acmgcn whose ada_add layers relu their mix."""
    g = random_graph(make_rng(7, "forced"), 30, p=0.2)
    if name == "compatgnn":
        model = build_model(RunConfig(model=name, layers=2, nhidden=6), g, seed=0)
        model.on_training_start(generate_splits(g, 1, seed=0)[0].train)
        return model
    return MessagePassingModel(build_preset(name, n_layers=2, hidden_dim=6,
                                            relu_before_aggregate=False), g, seed=0)


@pytest.mark.parametrize("name", mp.MODEL_NAMES)
def test_every_layer_is_one_combine_node(name, monkeypatch):
    g = random_graph(make_rng(8, "one-node"), 40, p=0.15)
    model = build_model(RunConfig(model=name, layers=2, nhidden=6), g, seed=0)
    model.on_training_start(generate_splits(g, 1, seed=0)[0].train)
    ops, result = [], ad._result
    monkeypatch.setattr(ad, "_result", lambda value, parents, bw, op:
                        ops.append(op) or result(value, parents, bw, op))
    combines, combine = [], MessagePassingModel._combine

    def recorded(self, *args):
        start = len(ops)
        z = combine(self, *args)
        combines.append(ops[start:])
        return z
    monkeypatch.setattr(MessagePassingModel, "_combine", recorded)
    model.forward(train=True)
    # a gated layer is its gate's node and the combine node
    layer = ["ada_gate", "ada_mix"] if model.spec.layers[0].combine == "ada_add" else [
        "ada_mix"]
    assert combines == [layer, layer]
    # an ada_add fuse (gprgnn's) is one combine node; and the classifier:
    # one combine node, or two for an MLP head
    fuse = 1 if model.spec.fuse == "ada_add" else 0
    head = 2 if model.spec.classifier == "mlp" else 1
    assert ops.count("ada_mix") == 2 + fuse + head
    assert ops[-head - fuse:] == ["ada_mix"] * (head + fuse)
    assert not any(op in ops for op in (
        "concat_cols", "scale", "gather_rows", "add", "add_bias"))
    # the only relu left is the one before aggregating
    assert ops.count("relu") == (2 if model.spec.relu_before_aggregate else 0)
    assert not any(hasattr(m, name) for m, name in (
        (mp, "product"), (ad, "mlp_head"), (ad, "concat_matmul"), (ad, "ada_alpha")))


@pytest.mark.parametrize("name", ["compatgnn", "acmgcn"])
def test_forced_alpha_layer_is_an_add_of_scaled_channels(name, monkeypatch):
    model = _forced_model(name)
    model.force_alpha = (0.2, 0.5, 0.3)
    ops, result = [], ad._result
    monkeypatch.setattr(ad, "_result", lambda value, parents, bw, op:
                        ops.append(op) or result(value, parents, bw, op))
    calls, combine = [], MessagePassingModel._combine

    def recorded(self, li, layer, pairs, post_relu):
        z = combine(self, li, layer, pairs, post_relu)
        calls.append((pairs, post_relu, z))
        return z
    monkeypatch.setattr(MessagePassingModel, "_combine", recorded)
    model.forward(train=True)
    # one combine node per layer, which sums the scaled channels itself,
    # and one per classifier layer
    head = 2 if model.spec.classifier == "mlp" else 1
    assert ops.count("ada_mix") == 2 + head and "scale" not in ops and "add" not in ops
    assert len(calls) == 2
    for pairs, post_relu, z in calls:
        assert post_relu and len(pairs) == 3
        np.testing.assert_array_equal(
            z.value, np.maximum(mixed(model.force_alpha, [product(p) for p in pairs]),
                                0.0))


def test_forced_alpha_of_the_wrong_length_is_refused():
    model = _forced_model("acmgcn")
    for alpha in ((0.5, 0.5), (0.25, 0.25, 0.25, 0.25)):
        model.force_alpha = alpha
        with pytest.raises(ValueError, match=f"^force_alpha holds {len(alpha)} weights, "
                                             "but layer 1 has 3 channels$"):
            model.forward()


# ---------------------------------------------------------------------------
# permutation equivariance

EQUIVARIANCE_GRAPHS = {
    "mlp": lambda: random_graph(make_rng(20, "eqg"), 12, p=0.3),
    "gcn": cubic12,
    "mixhop": path3_forest,
    "h2gcn": path3_forest,
    "gprgnn": cubic12,
    "acmgcn": cubic12,
}


@pytest.mark.parametrize("name", PRESETS)
def test_preset_equivariance_bitwise_on_dyadic_graphs(name):
    # graphs chosen so every SpMM row sum is exactly order-independent:
    # either all guidance entries are dyadic rationals with dyadic
    # parameters (cubic circulant with self-loops has degree 4), or every
    # row has at most two stored entries (path forest), so reordering the
    # neighbor accumulation cannot change a single bit
    g = EQUIVARIANCE_GRAPHS[name]()
    n_layers = 1 if name == "acmgcn" else 2
    spec = build_preset(name, n_layers=n_layers, hidden_dim=4)
    perm = make_rng(21, "eqperm", name).permutation(g.n_nodes)
    gp = permute_graph(g, perm)
    m = MessagePassingModel(spec, g, seed=3)
    mp_ = MessagePassingModel(spec, gp, seed=3)
    dyadicize(m)
    dyadicize(mp_)
    out = m.forward().logits.value
    out_p = mp_.forward().logits.value
    np.testing.assert_array_equal(out_p[perm], out)


@pytest.mark.parametrize("name", PRESETS)
def test_preset_equivariance_random_graph(name):
    g = random_graph(make_rng(22, "eqr", name), 20, p=0.25)
    spec = build_preset(name, n_layers=2, hidden_dim=6)
    perm = make_rng(23, "eqrp", name).permutation(20)
    gp = permute_graph(g, perm)
    m = MessagePassingModel(spec, g, seed=5)
    mp_ = MessagePassingModel(spec, gp, seed=5)
    out = m.forward().logits.value
    out_p = mp_.forward().logits.value
    np.testing.assert_allclose(out_p[perm], out, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# forward behaviors

def test_nan_in_layer_reports_layer_index():
    g = quartic12(seed=13)
    m = MessagePassingModel(build_preset("gcn", n_layers=2, hidden_dim=4), g)
    m.params["layer2.ch0.w"].value = np.full((4, 4), np.nan)
    with pytest.raises(NumericalError, match="layer 2"):
        m.forward()


def test_zero_layer_mlp_is_logistic_regression_and_loss_monotone():
    rng = make_rng(30, "blob")
    n = 40
    x = np.concatenate([rng.normal(size=(n // 2, 3)) + 3.0,
                        rng.normal(size=(n // 2, 3)) - 3.0])
    labels = [0] * (n // 2) + [1] * (n // 2)
    g = make_graph(n, [(0, 1)], labels, 2, features=x)
    m = MessagePassingModel(build_preset("mlp", n_layers=0, hidden_dim=4), g)
    idx = np.arange(n)
    losses = []
    for _ in range(60):
        zero_grads(m.params)
        loss = m.loss(m.forward(), idx)
        backward(loss)
        losses.append(loss.item())
        for p in m.params.values():
            if p.grad is not None:
                p.value = p.value - 0.05 * p.grad
    diffs = np.diff(losses)
    assert np.all(diffs < 1e-12), f"loss not monotone: worst rise {diffs.max()}"
    assert losses[-1] < 0.1 * losses[0]


def test_forward_requires_graph():
    with pytest.raises(ConfigError, match="Graph"):
        MessagePassingModel(build_preset("mlp", n_layers=1), graph="nope")

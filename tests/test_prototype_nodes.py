"""CompatGNN as a spec over N real nodes plus K prototype nodes: the row
slice, the prototype operator, the one augmented graph, the structure
encoder and the ban on prototype channels outside the model."""

import json

import numpy as np

import pytest

from compatgnn import ConfigError, DataError, Graph
from compatgnn import autodiff as ad
from compatgnn.cli import main
from compatgnn.gradcheck import grad_check
from compatgnn.model import CompatGNN, with_prototype_nodes
from compatgnn.mp import (ChannelSpec, LayerSpec, MessagePassingModel,
                          ModelSpec, PrototypeOperator, aggregate, build_preset)
from compatgnn.rng import make_rng
from compatgnn.sparse import row_normalize

from util import make_graph, product, random_graph


def test_slice_rows_is_a_view_with_exact_gradient():
    rng = make_rng(70, "slice")
    a = ad.tensor(rng.normal(size=(5, 3)), requires_grad=True)
    s = ad.slice_rows(a, 1, 4)
    assert s.shape == (3, 3) and np.shares_memory(s.value, a.value)
    np.testing.assert_array_equal(s.value, a.value[1:4])
    w = ad.constant(rng.normal(size=(3, 3)))
    # two consumers of a: the slice gradient adds into the other one's
    report = grad_check(lambda: ad.tsum(ad.add(
        ad.hadamard(ad.slice_rows(a, 1, 4), w), ad.slice_rows(a, 0, 3))),
        {"a": a})
    assert report.ok(1e-6)
    frozen = ad.slice_rows(ad.constant(np.ones((4, 2))), 0, 2)
    assert not frozen.requires_grad and frozen.parents == ()


def test_prototype_operator_reads_only_prototype_rows():
    rng = make_rng(71, "protoop")
    n, k, d = 6, 2, 3
    op = PrototypeOperator(first=n)
    block = rng.random((n + k, k))
    op.block = ad.constant(block)
    z = ad.tensor(rng.normal(size=(n + k, d)), requires_grad=True)
    w = ad.tensor(rng.normal(size=(d, d)), requires_grad=True)
    dense = np.zeros((n + k, n + k))
    dense[:, n:] = block
    x, zw = aggregate(op, z, w)
    assert x is op.block and zw.shape == (k, d)   # never an (N+K) x d product
    np.testing.assert_allclose(product((x, zw)).value,
                               dense @ z.value @ w.value, atol=1e-12)
    ad.backward(ad.tsum(product(aggregate(op, z, w))))
    np.testing.assert_array_equal(z.grad[:n], 0.0)


def test_augmented_graph_appends_isolated_prototypes():
    rng = make_rng(72, "aug")
    g = random_graph(rng, 9, p=0.3, n_classes=3, d_f=4)
    protos = rng.normal(size=(3, 4))
    a = with_prototype_nodes(g, protos)
    assert a.n_nodes == 12
    np.testing.assert_array_equal(a.degrees, np.r_[g.degrees, [0, 0, 0]])
    np.testing.assert_array_equal(a.features[9:], protos)
    np.testing.assert_array_equal(a.adjacency()[:9, :9].toarray(),
                                  g.adjacency().toarray())


def test_compat_gnn_builds_one_augmented_graph(monkeypatch):
    g = random_graph(make_rng(73, "once"), 10, p=0.3, n_classes=2, d_f=3)
    sizes = []
    init = Graph.__init__

    def counting_init(self, indptr, *args, **kw):
        sizes.append(len(indptr) - 1)
        init(self, indptr, *args, **kw)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    m = CompatGNN(build_preset("compatgnn", hidden_dim=4), g, seed=0)
    m.bind_prototypes(np.arange(10))
    m.prototypes = m.prototypes.copy()
    assert sizes.count(g.n_nodes + g.n_classes) == 1


def test_prototypes_are_the_encoder_input_of_prototype_rows():
    rng = make_rng(74, "rows")
    g = random_graph(rng, 10, p=0.3, n_classes=3, d_f=4)
    m = CompatGNN(build_preset("compatgnn", hidden_dim=4), g, seed=0)
    p = rng.normal(size=(3, 4))
    m.prototypes = p
    np.testing.assert_array_equal(m.features[:10], g.features)
    np.testing.assert_array_equal(m.features[10:], p)
    np.testing.assert_allclose(m._encode().value[10:],
                               p @ m.params["encoder.w"].value, atol=1e-12)
    with pytest.raises(DataError, match="prototypes shape"):
        m.prototypes = p[:2]


def test_compatgnn_holds_one_feature_array_of_n_plus_k_rows():
    g = random_graph(make_rng(75, "feat"), 10, p=0.3, n_classes=3, d_f=4)
    m = CompatGNN(build_preset("compatgnn", hidden_dim=4), g, seed=0)
    m.bind_prototypes(np.arange(10))
    arrays = [v for obj in (m, m.graph, m.real_graph) for v in vars(obj).values()
              if isinstance(v, np.ndarray) and v.shape == (13, 4)]
    assert arrays and all(np.shares_memory(a, m.features) for a in arrays)
    np.testing.assert_array_equal(m.graph.features[10:], m.prototypes)
    assert not m.graph.features.flags.writeable


def test_compatgnn_preset_needs_the_prototype_model():
    g = random_graph(make_rng(76, "plain"), 10, p=0.3, n_classes=2, d_f=3)
    with pytest.raises(ConfigError, match="prototype context"):
        MessagePassingModel(build_preset("compatgnn", hidden_dim=4), g)


def test_compatgnn_preset_round_trips_as_json():
    spec = build_preset("compatgnn", hidden_dim=8)
    spec.encoder = "structure"
    again = ModelSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again.to_dict() == spec.to_dict()
    assert again.encoder == "structure"
    assert [c.indicator for c in again.layers[0].channels] == [
        "identity", "raw", "supplementary"]


def test_structure_encoder_on_a_preset_stack():
    g = make_graph(5, [(0, 1), (1, 2), (3, 4)], [0, 1, 0, 1, 0], 2, d_f=3)
    # a cat fuse's first block is the encoder output
    spec = ModelSpec(layers=[LayerSpec(channels=[ChannelSpec("raw", "deg_avg_row")])],
                     hidden_dim=4, encoder="structure", fuse="cat")
    m = MessagePassingModel(spec, g, seed=1)
    p = {k: v.value for k, v in m.params.items()}
    assert p["encoder.w_a"].shape == (5, 4)
    want = np.hstack([g.features @ p["encoder.w_x"],
                      row_normalize(g).toarray() @ p["encoder.w_a"]]) @ p["encoder.w"]
    np.testing.assert_allclose(m.forward().blocks[0].value, want, atol=1e-12)


def test_compat_layers_run_in_the_generic_forward():
    g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
                   [0, 0, 0, 1, 1, 1], 2, d_f=3)
    m = CompatGNN(build_preset("compatgnn", hidden_dim=4), g, seed=0)
    m.on_training_start([0, 1, 3, 4])
    full = MessagePassingModel.forward(m)
    out = m.forward()
    assert full.logits.shape == (8, 2)
    np.testing.assert_array_equal(full.logits.value[:6], out.logits.value)
    # the blocks keep the prototype rows
    assert len(out.blocks) == 3 and all(b.shape == (8, 4) for b in out.blocks)
    for whole, kept in zip(full.blocks, out.blocks):
        np.testing.assert_array_equal(whole.value, kept.value)


def test_cli_rejects_prototype_channel_in_a_user_spec(tmp_path, capsys):
    ds = str(tmp_path / "ds")
    assert main(["synth", "gen", "--nodes", "40", "--classes", "2",
                 "--degree", "4", "--n-splits", "1", "--out", ds]) == 0
    spec = {"layers": [{"channels": [{"indicator": "supplementary",
                                      "guidance": "constant"}]}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["train", "--data", ds, "--model", str(path),
                 "--max-epochs", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "prototype" in err and "Traceback" not in err


def test_cli_rejects_full_indicator(tmp_path, capsys):
    ds = str(tmp_path / "ds")
    assert main(["synth", "gen", "--nodes", "40", "--classes", "2",
                 "--degree", "4", "--n-splits", "1", "--out", ds]) == 0
    spec = {"layers": [{"channels": [{"indicator": "full",
                                      "guidance": "deg_avg_row"}]}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["train", "--data", ds, "--model", str(path),
                 "--max-epochs", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown indicator 'full'" in err and "Traceback" not in err

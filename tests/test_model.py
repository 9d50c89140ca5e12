import weakref

import numpy as np
import pytest

from compatgnn import ConfigError, DataError, NumericalError, permute_graph
from compatgnn import autodiff as ad
from compatgnn.metrics import CompatibilityMatrix, observed_cm
from compatgnn.model import (CMEstimate, CompatGNN, build_prototypes,
                             confidence, degree_weight, estimate_cm,
                             supplementary_guidance)
from compatgnn.gradcheck import grad_check
from compatgnn.mp import (ChannelSpec, ForwardOutput, LayerSpec, MessagePassingModel,
                          ModelSpec, build_preset)
from compatgnn.rng import make_rng
from compatgnn.sparse import row_normalize
from compatgnn.synth import generate_graph, make_synth_spec

from util import make_graph, path3_forest, random_graph


def two_triangles():
    """Two disconnected single-class triangles: perfectly homophilous."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    return make_graph(6, edges, [0, 0, 0, 1, 1, 1], 2, d_f=3, seed=11)


def compat(hidden_dim=4, n_layers=2, structure_info=False):
    spec = build_preset("compatgnn", n_layers=n_layers, hidden_dim=hidden_dim)
    spec.encoder = "structure" if structure_info else "linear"
    return spec


def ready_model(g, train_idx, seed=0, dis_weight=0.0, **spec_kw):
    m = CompatGNN(compat(**spec_kw), g, seed=seed, dis_weight=dis_weight)
    m.on_training_start(train_idx)
    return m


def fake_output(m, zp):
    """A forward output whose one block holds zp in the prototype rows."""
    zp = np.asarray(zp, dtype=np.float64)
    rows = np.zeros((m.real_graph.n_nodes, zp.shape[1]))
    return ForwardOutput(logits=None, blocks=[ad.tensor(np.vstack([rows, zp]))])


# ---------------------------------------------------------------------------
# prototypes

def test_prototypes_mean_then_l1_oracle():
    rng = make_rng(40, "proto")
    g = random_graph(rng, 20, p=0.2, n_classes=3, d_f=5)
    train = np.arange(0, 20, 2)
    protos = build_prototypes(g, train)
    for c in range(3):
        rows = g.features[train[g.labels[train] == c]]
        mean = rows.mean(axis=0)
        np.testing.assert_allclose(protos[c], mean / np.abs(mean).sum(),
                                   atol=1e-15)
    assert protos.shape == (3, 5)


def test_prototype_single_node_class():
    g = make_graph(3, [(0, 1), (1, 2)], [0, 1, 1], 2,
                   features=np.array([[2.0, -2.0], [1.0, 0.0], [3.0, 1.0]]))
    protos = build_prototypes(g, [0, 1])
    np.testing.assert_array_equal(protos[0], [0.5, -0.5])
    np.testing.assert_array_equal(protos[1], [1.0, 0.0])


def test_prototypes_missing_class_error():
    g = two_triangles()
    with pytest.raises(DataError, match=r"classes \[1\]"):
        build_prototypes(g, [0, 1, 2])


# ---------------------------------------------------------------------------
# confidence

def test_confidence_hand_values():
    rows = np.array([
        [0.25, 0.25, 0.25, 0.25],
        [1.0, 0.0, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
    ])
    got = confidence(rows)
    assert got[0] == pytest.approx(0.0, abs=1e-12)
    assert got[1] == pytest.approx(np.log(4), abs=1e-12)
    assert got[2] == pytest.approx(np.log(2), abs=1e-12)


def test_confidence_row_errors():
    with pytest.raises(DataError, match="row 1 has negative mass"):
        confidence(np.array([[0.5, 0.5], [-0.2, 1.2]]))
    with pytest.raises(DataError, match="row 0 sums to"):
        confidence(np.array([[0.7, 0.7], [0.5, 0.5]]))


def test_confidence_class_permutation_invariant():
    rng = make_rng(41, "conf")
    c = rng.random((30, 5))
    c /= c.sum(axis=1, keepdims=True)
    perm = rng.permutation(5)
    np.testing.assert_allclose(confidence(c[:, perm]), confidence(c),
                               atol=1e-12)


def test_confidence_range():
    rng = make_rng(42, "confr")
    c = rng.random((200, 7))
    c /= c.sum(axis=1, keepdims=True)
    got = confidence(c)
    assert np.all(got >= 0.0) and np.all(got <= np.log(7))


# ---------------------------------------------------------------------------
# degree weight

def test_degree_weight_hand_values():
    got = degree_weight([2, 5, 8, 15], k=5)
    np.testing.assert_allclose(got, [0.2, 0.5, 0.65, 1.0], atol=1e-15)


def test_degree_weight_knees_and_monotone():
    for k in (2, 3, 5, 9):
        d = np.arange(0, 6 * k + 1)
        w = degree_weight(d, k)
        assert np.all(np.diff(w) >= 0)
        assert np.all((w >= 0) & (w <= 1))
        # both branch formulas agree at the knees
        assert w[k] == pytest.approx(0.5, abs=1e-15)
        assert w[3 * k] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ConfigError, match="k >= 1"):
        degree_weight([1, 2], 0)


# ---------------------------------------------------------------------------
# estimator

def test_estimate_matches_observed_on_onehot():
    worst = 0.0
    for i in range(20):
        rng = make_rng(43, "estcm", i)
        g = random_graph(rng, int(rng.integers(8, 30)), p=0.2, n_classes=3)
        est = estimate_cm(g, g.onehot_labels(),
                          degree_weights=np.ones(g.n_nodes))
        obs = observed_cm(g)
        worst = max(worst, np.abs(est.matrix.m - obs.m).max())
        np.testing.assert_array_equal(est.matrix.uniform_rows, obs.uniform_rows)
    assert worst <= 1e-12


def test_estimate_homophilous_graph_gives_identity():
    g = two_triangles()
    est = estimate_cm(g, g.onehot_labels())
    np.testing.assert_allclose(est.matrix.m, np.eye(2), atol=1e-12)
    assert not est.matrix.uniform_rows.any()


def test_estimate_all_uniform_rejected():
    g = two_triangles()
    soft = np.full((6, 2), 0.5)
    with pytest.raises(DataError, match="train longer"):
        estimate_cm(g, soft)


def test_estimate_shape_error():
    g = two_triangles()
    with pytest.raises(DataError, match="soft labels must be"):
        estimate_cm(g, np.full((6, 3), 1 / 3))


def test_estimate_confidence_scaling_is_exact_noop(monkeypatch):
    # doubling every confidence rescales votes and neighborhoods by a power
    # of two, which cancels bitwise in the L1 normalizations
    rng = make_rng(44, "estsc")
    g = random_graph(rng, 15, p=0.25, n_classes=3)
    soft = rng.random((15, 3))
    soft /= soft.sum(axis=1, keepdims=True)
    base = estimate_cm(g, soft)
    import compatgnn.model as model_mod
    orig = model_mod.confidence
    monkeypatch.setattr(model_mod, "confidence", lambda c: 2.0 * orig(c))
    scaled = estimate_cm(g, soft)
    np.testing.assert_array_equal(scaled.matrix.m, base.matrix.m)


def test_estimate_isolated_nodes_do_not_vote():
    # node 4 is isolated: it has no neighborhood evidence, so its (confident)
    # wrong prediction must not pull row 0 away from the graph's signal
    g = make_graph(5, [(0, 1), (1, 2), (2, 3)], [0, 0, 0, 0, 0], 2, d_f=3)
    soft = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]])
    est = estimate_cm(g, soft)
    np.testing.assert_allclose(est.matrix.m[0], [1.0, 0.0], atol=1e-12)
    assert est.matrix.uniform_rows[1]


# ---------------------------------------------------------------------------
# supplementary guidance

def test_supplementary_guidance_routes_rows():
    m = np.array([[0.9, 0.1], [0.2, 0.8]])
    cm = CompatibilityMatrix(m=m)
    soft = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    b = supplementary_guidance(soft, cm)
    np.testing.assert_allclose(b, [[0.9, 0.1], [0.2, 0.8], [0.55, 0.45]],
                               atol=1e-15)
    # identity matrix routes soft labels through unchanged
    np.testing.assert_array_equal(
        supplementary_guidance(soft, CompatibilityMatrix(m=np.eye(2))), soft)


def test_supplementary_guidance_stochastic_closure():
    rng = make_rng(45, "bsup")
    soft = rng.random((40, 4))
    soft /= soft.sum(axis=1, keepdims=True)
    m = rng.random((4, 4))
    m /= m.sum(axis=1, keepdims=True)
    b = supplementary_guidance(soft, CompatibilityMatrix(m=m))
    np.testing.assert_allclose(b.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(b >= 0)


def test_supplementary_guidance_shape_error():
    with pytest.raises(DataError, match="classes, matrix"):
        supplementary_guidance(np.ones((3, 3)) / 3,
                               CompatibilityMatrix(m=np.eye(2)))


# ---------------------------------------------------------------------------
# model construction and state

def test_config_validation():
    with pytest.raises(ConfigError, match="positive"):
        compat(hidden_dim=0)
    with pytest.raises(ConfigError, match="n_layers"):
        compat(n_layers=0)
    with pytest.raises(ConfigError, match="dropout"):
        build_preset("compatgnn", dropout=1.0)
    with pytest.raises(ConfigError, match="dis_weight"):
        CompatGNN(compat(), two_triangles(), dis_weight=-0.5)
    g = make_graph(3, [(0, 1), (1, 2)], [0, 0, 0], 1, d_f=2)
    with pytest.raises(ConfigError, match="2 classes"):
        CompatGNN(compat(), g)


def test_a_feature_knn_channel_is_refused_over_prototypes_only():
    """The prototype rows are placeholders when operators are realized, so
    a kNN operator over the N+K graph would rank zero rows."""
    g = random_graph(make_rng(3, "knn"), 30, p=0.2)
    knn = ChannelSpec("feature_knn", "deg_avg_row", k=5)
    spec = compat()
    spec.layers[1].channels.append(knn)
    with pytest.raises(ConfigError,
                       match=r"layer 2 channel 3: .*feature_knn channel \(k=5\)"):
        CompatGNN(spec, g)
    plain = ModelSpec([LayerSpec([ChannelSpec("identity", "identity"), knn],
                                 combine="ada_add")], hidden_dim=4)
    m = MessagePassingModel(plain, g)
    assert m.forward().logits.shape == (30, g.n_classes)


def test_forward_requires_state():
    m = CompatGNN(compat(), two_triangles())
    with pytest.raises(ConfigError, match="state not initialized"):
        m.forward()


def test_param_inventory_and_fused_width():
    g = two_triangles()
    m = ready_model(g, [0, 1, 3, 4], hidden_dim=4, n_layers=2)
    assert m.params["cla.w1"].shape == (12, 4)
    out = m.forward()
    # the cat fuse's blocks, one per rep, over the 6 real and 2 prototype rows
    assert [b.shape for b in out.blocks] == [(8, 4)] * 3
    assert out.logits.shape == (6, 2)

    ms = ready_model(g, [0, 1, 3, 4], structure_info=True, hidden_dim=4)
    assert ms.params["encoder.w_x"].shape == (3, 4)
    assert ms.params["encoder.w_a"].shape == (6, 4)
    assert ms.params["encoder.w"].shape == (8, 4)
    assert [b.shape for b in ms.forward().blocks] == [(8, 4)] * 3


def test_bootstrap_soft_labels():
    g = two_triangles()
    m = CompatGNN(compat(), g)
    soft = m.bootstrap_soft_labels([0, 4])
    np.testing.assert_array_equal(soft[0], [1.0, 0.0])
    np.testing.assert_array_equal(soft[4], [0.0, 1.0])
    np.testing.assert_array_equal(soft[[1, 2, 3, 5]], np.full((4, 2), 0.5))


# ---------------------------------------------------------------------------
# input encoding

def test_encoding_dense_oracle_with_structure_info():
    g = two_triangles()
    m = ready_model(g, [0, 1, 3, 4], structure_info=True, hidden_dim=4, seed=2)
    z0 = m.forward().blocks[0].value[:6]   # the cat fuse's encoder block
    a_hat = row_normalize(g).toarray()
    zx = g.features @ m.params["encoder.w_x"].value
    za = a_hat @ m.params["encoder.w_a"].value
    want = np.hstack([zx, za]) @ m.params["encoder.w"].value
    np.testing.assert_allclose(z0, want, atol=1e-12)


def test_encoding_edgeless_structure_half_is_zero():
    g = make_graph(4, [], [0, 1, 0, 1], 2, d_f=3, seed=9)
    m = CompatGNN(compat(structure_info=True), g, seed=2)
    m.bind_prototypes([0, 1, 2, 3])
    est = CMEstimate(matrix=CompatibilityMatrix(m=np.eye(2)),
                     confidence=np.ones(4), degree_weights=np.ones(4))
    m.set_estimate(est, m.bootstrap_soft_labels([0, 1, 2, 3]))
    z0 = m.forward().blocks[0].value[:4]
    d_r = 4
    want = np.hstack([g.features @ m.params["encoder.w_x"].value,
                      np.zeros((4, d_r))]) @ m.params["encoder.w"].value
    np.testing.assert_allclose(z0, want, atol=1e-12)


# ---------------------------------------------------------------------------
# forward limiting cases

def test_alpha_100_matches_mlp_preset():
    rng = make_rng(46, "mlpg")
    g = random_graph(rng, 10, p=0.3, n_classes=2, d_f=3)
    cg = ready_model(g, [0, 1, 4, 7], hidden_dim=4, n_layers=2, seed=3)
    cg.force_alpha = (1.0, 0.0, 0.0)

    spec = build_preset("mlp", n_layers=2, hidden_dim=4, classifier="mlp")
    spec.fuse = "cat"
    mlp = MessagePassingModel(spec, g, seed=3)
    mlp.params["encoder.w"].value = cg.params["encoder.w"].value.copy()
    for li in (1, 2):
        mlp.params[f"layer{li}.ch0.w"].value = \
            cg.params[f"layer{li}.ch0.w"].value.copy()
    for key in ("cla.w1", "cla.b1", "cla.w2", "cla.b2"):
        mlp.params[key].value = cg.params[key].value.copy()

    np.testing.assert_allclose(cg.forward().logits.value,
                               mlp.forward().logits.value, atol=1e-10)


def test_alpha_010_matches_row_normalized_gcn_oracle():
    rng = make_rng(47, "gcng")
    g = random_graph(rng, 9, p=0.35, n_classes=2, d_f=3)
    m = ready_model(g, [0, 1, 4, 7], hidden_dim=4, n_layers=1, seed=5)
    m.force_alpha = (0.0, 1.0, 0.0)
    m.spec.fuse = "last"
    # the classifier was sized for cat fuse; re-seat it for the single layer
    m.params["cla.w1"].value = make_rng(5, "w1").normal(size=(4, 4)) * 0.3

    a_hat = row_normalize(g).toarray()
    z0 = g.features @ m.params["encoder.w"].value
    z1 = np.maximum(a_hat @ (z0 @ m.params["layer1.ch1.w"].value), 0.0)
    h = np.maximum(z1 @ m.params["cla.w1"].value + m.params["cla.b1"].value, 0.0)
    want = h @ m.params["cla.w2"].value + m.params["cla.b2"].value
    np.testing.assert_allclose(m.forward().logits.value, want, atol=1e-10)


def test_layer_nan_error_names_layer():
    g = two_triangles()
    m = ready_model(g, [0, 1, 3, 4])
    m.params["layer2.ch0.w"].value = np.full((4, 4), np.nan)
    with pytest.raises(NumericalError, match="layer 2"):
        m.forward()


def test_forward_equivariant_bitwise_on_bounded_degree_graph():
    # degrees on a path forest are 1 or 2: every SpMM row sum has at most two
    # addends, and two-term IEEE sums are exactly order-independent, so node
    # relabeling must reproduce the logits bit for bit (prototypes and the
    # compatibility estimate held fixed)
    g = path3_forest(4, seed=1)
    train = [0, 1, 3, 4, 6, 7]
    perm = make_rng(48, "perm").permutation(g.n_nodes)
    gp = permute_graph(g, perm)

    m = CompatGNN(compat(), g, seed=6)
    mp_ = CompatGNN(compat(), gp, seed=6)
    est = CMEstimate(matrix=CompatibilityMatrix(m=np.array([[0.75, 0.25],
                                                            [0.25, 0.75]])),
                     confidence=np.ones(g.n_nodes),
                     degree_weights=np.ones(g.n_nodes))
    m.bind_prototypes(train)
    mp_.prototypes = m.prototypes.copy()
    soft = m.bootstrap_soft_labels(train)
    soft_p = np.empty_like(soft)
    soft_p[perm] = soft
    m.set_estimate(est, soft)
    mp_.set_estimate(est, soft_p)

    out = m.forward().logits.value
    out_p = mp_.forward().logits.value
    np.testing.assert_array_equal(out_p[perm], out)


def test_forward_equivariant_on_random_graph():
    rng = make_rng(49, "eqr")
    g = random_graph(rng, 12, p=0.3, n_classes=3, d_f=4)
    train = [0, 1, 2, 3, 4, 5]
    perm = rng.permutation(12)
    gp = permute_graph(g, perm)

    m = ready_model(g, train, hidden_dim=5, seed=7)
    mp_ = CompatGNN(compat(hidden_dim=5), gp, seed=7)
    mp_.prototypes = m.prototypes.copy()
    soft_p = np.empty((12, 3))
    soft_p[perm] = m.bootstrap_soft_labels(train)
    mp_.set_estimate(estimate_cm(gp, soft_p), soft_p)

    np.testing.assert_allclose(mp_.forward().logits.value[perm],
                               m.forward().logits.value, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# discrimination loss

def test_dis_loss_orthogonal_messages_zero():
    g = two_triangles()
    m = ready_model(g, [0, 1, 3, 4])
    m.cm = CMEstimate(matrix=CompatibilityMatrix(m=np.eye(2)),
                      confidence=np.ones(6), degree_weights=np.ones(6))
    out = fake_output(m, [[1.0, 0.0], [0.0, 2.0]])
    assert m.discrimination_loss(out).item() == 0.0


def test_dis_loss_identical_messages_saturates():
    rng = make_rng(50, "dis")
    g = random_graph(rng, 8, p=0.4, n_classes=3)
    m = ready_model(g, [0, 1, 2, 3, 4, 5])
    # uniform compatibility rows collapse every desired message to the mean
    m.cm = CMEstimate(matrix=CompatibilityMatrix(m=np.full((3, 3), 1 / 3)),
                      confidence=np.ones(8), degree_weights=np.ones(8))
    out = fake_output(m, rng.normal(size=(3, 4)))
    k = 3
    assert m.discrimination_loss(out).item() == pytest.approx(k * (k - 1),
                                                              abs=1e-12)


def test_dis_loss_two_class_hand_case():
    g = two_triangles()
    m = ready_model(g, [0, 1, 3, 4])
    m.cm = CMEstimate(matrix=CompatibilityMatrix(m=np.eye(2)),
                      confidence=np.ones(6), degree_weights=np.ones(6))
    out = fake_output(m, [[1.0, 1.0], [0.0, 1.0]])
    # cos = 1/sqrt(2), doubled for the ordered pair
    assert m.discrimination_loss(out).item() == pytest.approx(np.sqrt(2),
                                                              abs=1e-12)


def test_dis_loss_zero_norm_row_contributes_nothing():
    g = two_triangles()
    m = ready_model(g, [0, 1, 3, 4])
    m.cm = CMEstimate(matrix=CompatibilityMatrix(m=np.eye(2)),
                      confidence=np.ones(6), degree_weights=np.ones(6))
    out = fake_output(m, [[0.0, 0.0], [1.0, 2.0]])
    assert m.discrimination_loss(out).item() == 0.0


def test_dis_loss_backpropagates_to_prototype_path():
    g = two_triangles()
    m = ready_model(g, [0, 1, 3, 4], dis_weight=1.0)
    out = m.forward()
    ad.backward(m.discrimination_loss(out))
    assert m.params["layer1.ch2.w"].grad is not None


# ---------------------------------------------------------------------------
# loss composition

def test_loss_weight_zero_equals_pure_ce():
    g = two_triangles()
    train = [0, 1, 3, 4]
    m = ready_model(g, train, dis_weight=0.0, seed=8)
    out = m.forward()
    ce = ad.masked_cross_entropy(out.logits, g.labels, train)
    assert m.loss(out, train).item() == ce.item()

    m.dis_enabled = False
    assert m.loss(out, train).item() == ce.item()


def test_loss_weight_zero_builds_no_discrimination_loss(monkeypatch):
    g = two_triangles()
    train = [0, 1, 3, 4]
    m = ready_model(g, train, dis_weight=0.0, seed=8)
    out = m.forward(train=True)
    ops, result = [], ad._result
    monkeypatch.setattr(ad, "_result", lambda value, parents, bw, op:
                        ops.append(op) or result(value, parents, bw, op))
    m.loss(out, train)
    assert ops == ["masked_cross_entropy"]


@pytest.mark.parametrize("k", [2, 18])
def test_loss_weight_positive_builds_one_cosine_node(k, monkeypatch):
    """At lambda > 0 the loss is the cross-entropy plus lambda times one
    cosine node over M P: the same six nodes at K 2 and at K 18."""
    g = make_graph(3 * k, [(i, (i + 1) % (3 * k)) for i in range(3 * k)],
                   [i % k for i in range(3 * k)], k, d_f=5, seed=k)
    train = list(range(2 * k))
    m = ready_model(g, train, dis_weight=0.1, seed=8)
    out = m.forward(train=True)
    ops, result = [], ad._result
    monkeypatch.setattr(ad, "_result", lambda value, parents, bw, op:
                        ops.append(op) or result(value, parents, bw, op))
    m.loss(out, train)
    assert ops == ["masked_cross_entropy", "concat_cols", "matmul", "cosine",
                   "scale", "add"]


def test_loss_weight_one_adds_dis_exactly():
    g = two_triangles()
    train = [0, 1, 3, 4]
    m = ready_model(g, train, dis_weight=1.0, seed=8)
    out = m.forward()
    ce = ad.masked_cross_entropy(out.logits, g.labels, train)
    dis = m.discrimination_loss(out)
    assert m.loss(out, train).item() == ce.item() + dis.item()


def test_loss_perfect_predictions_near_zero():
    g = two_triangles()
    train = [0, 1, 3, 4]
    m = ready_model(g, train, dis_weight=0.0)
    m.dis_enabled = False
    out = m.forward()
    out.logits = ad.tensor(40.0 * g.onehot_labels())
    assert m.loss(out, train).item() < 1e-9


# ---------------------------------------------------------------------------
# refresh protocol plumbing

def test_validation_refresh_pins_truth_on_train_rows():
    rng = make_rng(51, "refresh")
    g = random_graph(rng, 10, p=0.3, n_classes=2)
    train = [0, 1, 2, 3]
    m = ready_model(g, train, seed=9)
    out = m.forward()
    m.on_validation_improved(out, train, epoch=7)
    assert m.cm.epoch == 7
    np.testing.assert_allclose(m.cm.matrix.m.sum(axis=1), 1.0, atol=1e-9)
    # training rows route their true class's compatibility row
    want = m.cm.matrix.m[g.labels[train]]
    np.testing.assert_array_equal(m._supplementary.block.value[train], want)


def test_a_refresh_records_no_tape_node(monkeypatch):
    """A refresh reads the eval logits' softmax as a value: on an output
    that carries its tape (the dropout-0 eval) it adds no node to it."""
    rng = make_rng(52, "refresh")
    g = random_graph(rng, 10, p=0.3, n_classes=2)
    train = [0, 1, 2, 3]
    m = ready_model(g, train, seed=9)
    out = m.forward(train=False)
    assert out.logits.requires_grad
    ops, result = [], ad._result
    monkeypatch.setattr(ad, "_result", lambda value, parents, bw, op:
                        ops.append(op) or result(value, parents, bw, op))
    m.on_validation_improved(out, train, epoch=3)
    assert ops == []


def test_run_metadata_shape():
    g = two_triangles()
    m = ready_model(g, [0, 1, 3, 4])
    meta = m.run_metadata()
    assert np.asarray(meta["cm_estimate"]).shape == (2, 2)
    assert len(meta["cm_uniform_rows"]) == 2
    stats = meta["confidence_stats"]
    assert 0.0 <= stats["min"] <= stats["mean"] <= stats["max"] <= np.log(2)


# ---------------------------------------------------------------------------
# full-loss gradient fidelity

@pytest.mark.parametrize("structure_info", [False, True])
def test_full_loss_gradient_check(structure_info):
    g = make_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6),
                       (6, 7), (2, 5)], [0, 0, 1, 1, 0, 1, 0, 1], 2,
                   d_f=3, seed=13)
    train = [0, 2, 4, 5]
    m = ready_model(g, train, hidden_dim=3, n_layers=2, dis_weight=0.7,
                    structure_info=structure_info, seed=10)
    report = grad_check(lambda: m.loss(m.forward(), train), m.params)
    assert report.ok(1e-4), f"max rel err {report.max_rel_err:.3e}"


def test_forced_alpha_gradient_check():
    g = make_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6),
                       (6, 7), (2, 5)], [0, 0, 1, 1, 0, 1, 0, 1], 2,
                   d_f=3, seed=13)
    train = [0, 2, 4, 5]
    m = ready_model(g, train, hidden_dim=3, n_layers=2, dis_weight=0.7, seed=10)
    m.force_alpha = (0.2, 0.5, 0.3)
    report = grad_check(lambda: m.loss(m.forward(), train), m.params)
    assert report.ok(1e-4), f"max rel err {report.max_rel_err:.3e}"
    # a fixed alpha is no function of the gate: its parameters get no gradient
    gate = [k for k in m.params if ".ada." in k]
    assert len(gate) == 8 and all(m.params[k].grad is None for k in gate)


# ---------------------------------------------------------------------------
# the tape of a train forward

def test_backward_frees_the_train_tape_and_keeps_its_gradients():
    g = generate_graph(make_synth_spec(3000, 5, 0.2, "easy", 10, 1, d_f=16))
    train = np.arange(0, g.n_nodes, 2)
    kept, m = (ready_model(g, train, hidden_dim=16, dis_weight=0.1, seed=4)
               for _ in range(2))

    # the backward that keeps its tape: the same node order, nothing cleared
    kept_loss = kept.loss(kept.forward(train=True), train)
    kept_loss.grad = np.ones_like(kept_loss.value)
    for node in reversed(ad._toposort(kept_loss)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None

    out = m.forward(train=True)
    loss = m.loss(out, train)
    held = {id(a) for t in (loss, out.logits, *out.blocks)
            for a in (t.value, t.value.base)}
    interior = [weakref.ref(t.value) for t in ad._toposort(loss)
                if t._backward is not None and id(t.value) not in held]
    # 21 nodes: the forward's and the loss's, the discrimination loss one
    # cosine node at any K
    assert len(interior) >= 20 and all(r() is not None for r in interior)
    ad.backward(loss)
    assert [r for r in interior if r() is not None] == []   # out and loss still held
    for name, p in m.params.items():
        assert ad.grad_of(p).tobytes() == ad.grad_of(kept.params[name]).tobytes(), name

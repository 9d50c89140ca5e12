"""Compatibility-guided message passing with class prototypes.

The model estimates a class-to-class compatibility matrix from its own
predictions during training and uses it to route messages from K virtual
prototype nodes into every real node (the "supplementary" channel). The
estimator weighs each node's vote by prediction confidence and by a
degree-based reliability score, so sparse or uncertain neighborhoods
don't poison the estimate.

The network is a point in the message-passing algebra of mp.py: the
compatgnn preset (mp.build_preset) over the N real nodes followed by the
K prototypes as isolated extra nodes. This module holds what the algebra
does not: the prototypes, the estimator that rebinds the supplementary
operator and the discrimination loss. Its forward returns the N real
rows' logits and the fuse's blocks over all N+K rows, the prototypes last.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .graph import Graph
from .metrics import (CompatibilityMatrix, l1_normalize_rows,
                      semantic_neighborhood)
from .autodiff import (_softmax_value, add, concat_cols, constant, cosine, matmul,
                       scale, slice_rows)
from .mp import MessagePassingModel, PrototypeOperator


# ---------------------------------------------------------------------------
# prototypes

def build_prototypes(g, train_idx):
    """K x d_f prototype features: L1-normalized mean of each class's
    training feature rows. Every class must be represented."""
    train_idx = np.asarray(train_idx, dtype=np.int64)
    k = g.n_classes
    protos = np.zeros((k, g.d_f))
    labels = g.labels[train_idx]
    missing = []
    for c in range(k):
        rows = g.features[train_idx[labels == c]]
        if len(rows) == 0:
            missing.append(c)
            continue
        protos[c] = rows.mean(axis=0)
    if missing:
        raise DataError(f"classes {missing} have no training nodes; "
                        "prototypes need at least one per class")
    protos, _ = l1_normalize_rows(protos)
    return protos


def with_prototype_nodes(g, prototypes):
    """g followed by K isolated nodes, node N + c holding class c's
    prototype as its features. The graph holds a read-only view of a fresh
    feature array, whose writable base is `features.base`."""
    k = g.n_classes
    indptr = np.concatenate([g.indptr, np.full(k, g.indptr[-1])])
    return Graph(indptr, g.indices, np.vstack([g.features, prototypes]).view(),
                 np.concatenate([g.labels, np.arange(k)]), k,
                 directed=g.directed, name=g.name)


# ---------------------------------------------------------------------------
# estimator ingredients

def confidence(soft_labels, tol=1e-6):
    """Prediction confidence per node: log K minus the row entropy
    (natural log), clamped into [0, log K]. Uniform rows score 0,
    one-hot rows score log K."""
    c = np.asarray(soft_labels, dtype=np.float64)
    k = c.shape[1]
    if np.any(c < -tol):
        bad = int(np.argwhere(c < -tol)[0][0])
        raise DataError(f"soft label row {bad} has negative mass")
    sums = c.sum(axis=1)
    off = np.abs(sums - 1.0)
    if np.any(off > tol):
        bad = int(np.argmax(off))
        raise DataError(f"soft label row {bad} sums to {sums[bad]}, expected 1")
    safe = np.where(c > 0, c, 1.0)
    entropy = -(np.where(c > 0, c, 0.0) * np.log(safe)).sum(axis=1)
    return np.clip(np.log(k) - entropy, 0.0, np.log(k))


def degree_weight(degrees, k):
    """Reliability of a node's neighborhood evidence as a function of its
    degree d and the class count K: d/2K up to K, 1/4 + d/4K up to 3K,
    then 1. Continuous and non-decreasing, with values in [0, 1]."""
    if k < 1:
        raise ConfigError("degree_weight needs k >= 1")
    d = np.asarray(degrees, dtype=np.float64)
    low = d / (2.0 * k)
    mid = 0.25 + d / (4.0 * k)
    return np.where(d <= k, low, np.where(d <= 3 * k, mid, 1.0))


@dataclass
class CMEstimate:
    """A compatibility estimate plus the evidence weights behind it."""
    matrix: CompatibilityMatrix
    confidence: np.ndarray
    degree_weights: np.ndarray
    epoch: int = -1


def estimate_cm(g, soft_labels, degree_weights=None, epoch=-1):
    """Estimate the compatibility matrix from soft predictions.

    Semantic neighborhoods are built from confidence-scaled predictions;
    class rows are convex combinations of those neighborhoods, weighted by
    confidence times degree reliability. Nodes with no evidence (isolated,
    or no confident neighbor) are excluded so rows stay stochastic; rows
    with no mass at all fall back to uniform and are flagged.
    """
    c_hat = np.asarray(soft_labels, dtype=np.float64)
    if c_hat.shape != (g.n_nodes, g.n_classes):
        raise DataError(f"soft labels must be ({g.n_nodes}, {g.n_classes}), "
                        f"got {c_hat.shape}")
    g_conf = confidence(c_hat)
    if degree_weights is None:
        w_deg = degree_weight(g.degrees, g.n_classes)
    else:
        w_deg = np.asarray(degree_weights, dtype=np.float64)

    scaled = g_conf[:, None] * c_hat
    c_nb = semantic_neighborhood(g, scaled)

    votes = w_deg[:, None] * scaled
    # no neighborhood evidence => no vote (keeps rows stochastic)
    votes = votes * (c_nb.sum(axis=1) > 0)[:, None]
    if not np.any(votes):
        raise DataError("all estimator weights are zero (uniform predictions "
                        "everywhere?); train longer or seed with ground truth rows")
    norm_votes, _ = l1_normalize_rows(votes.T)
    cm = CompatibilityMatrix.from_unnormalized(norm_votes @ c_nb)
    return CMEstimate(matrix=cm, confidence=g_conf, degree_weights=w_deg, epoch=epoch)


def supplementary_guidance(soft_labels, cm):
    """Per-node desired neighborhood profile: soft labels routed through the
    CompatibilityMatrix cm (N x K, row-stochastic when inputs are)."""
    c_hat = np.asarray(soft_labels, dtype=np.float64)
    m = cm.m
    if c_hat.shape[1] != m.shape[0]:
        raise DataError(f"soft labels have {c_hat.shape[1]} classes, matrix {m.shape}")
    return c_hat @ m


# ---------------------------------------------------------------------------
# the model

class CompatGNN(MessagePassingModel):
    """A spec with a supplementary/constant channel (build_preset
    "compatgnn") over the graph plus its K prototypes as isolated nodes.
    A prototype's supplementary guidance is its own compatibility row, a
    real node's is its soft label routed through the matrix, so prototype
    representations live in the same space as node representations.

    `graph` is the augmented N+K-node graph the layers run over;
    `real_graph` is the graph the model was built for. dis_weight weighs
    the discrimination loss; dis_enabled = False (ablation) drops it."""

    def __init__(self, spec, graph, seed=0, dis_weight=0.0):
        if dis_weight < 0:
            raise ConfigError("dis_weight must be non-negative")
        if graph.n_classes < 2:
            raise ConfigError("model needs at least 2 classes")
        for li, layer in enumerate(spec.layers, start=1):
            for cj, ch in enumerate(layer.channels):
                if ch.indicator == "feature_knn":
                    raise ConfigError(f"layer {li} channel {cj}: CompatGNN takes no "
                                      f"feature_knn channel (k={ch.k}); its operator "
                                      "is realized over placeholder prototype rows")
        self.dis_weight = dis_weight
        self.dis_enabled = True
        self.real_graph = graph
        self._supplementary = PrototypeOperator(graph.n_nodes)
        # prototype nodes are isolated: the one N+K graph does not depend on
        # their features, which start as zero rows
        placeholder = np.zeros((graph.n_classes, graph.d_f))
        super().__init__(spec, with_prototype_nodes(graph, placeholder),
                         seed=seed, prototypes=self._supplementary)
        # the encoder input and the N+K graph's features are one array
        self.features = self.graph.features.base

        # estimator state, refreshed by the training protocol
        self.prototypes = None      # K x d_f ndarray
        self.cm = None              # CMEstimate

    # -- estimator state ----------------------------------------------------

    @property
    def prototypes(self):
        """K x d_f prototype features, None until bound. Setting them
        writes them into the encoder input rows of the K prototype nodes,
        which a raw_self_loop operator's ÂX reads, so it drops every ÂX."""
        return self._prototypes

    @prototypes.setter
    def prototypes(self, protos):
        if protos is not None:
            protos = np.asarray(protos, dtype=np.float64)
            g = self.real_graph
            if protos.shape != (self.n_classes, g.d_f):
                raise DataError(f"prototypes shape {protos.shape}, expected "
                                f"({self.n_classes}, {g.d_f})")
            self.features[g.n_nodes:] = protos
        self._propagated.clear()
        self._prototypes = protos

    def bind_prototypes(self, train_idx):
        self.prototypes = build_prototypes(self.real_graph, train_idx)

    def set_estimate(self, est, soft_labels):
        self.cm = est
        self._supplementary.block = constant(np.vstack([
            supplementary_guidance(soft_labels, est.matrix), est.matrix.m]))

    def _pin_train_rows(self, soft, train_idx):
        """soft with its training rows set to their one-hot labels, in place."""
        train_idx = np.asarray(train_idx, dtype=np.int64)
        soft[train_idx] = 0.0
        soft[train_idx, self.real_graph.labels[train_idx]] = 1.0
        return soft

    def bootstrap_soft_labels(self, train_idx):
        """Uniform rows everywhere except ground-truth one-hot training rows."""
        n, k = self.real_graph.n_nodes, self.n_classes
        return self._pin_train_rows(np.full((n, k), 1.0 / k), train_idx)

    # -- forward ------------------------------------------------------------

    def forward(self, train=False, rng=None):
        """The real rows' logits; the blocks keep all N+K rows."""
        if self.prototypes is None or self._supplementary.block is None:
            raise ConfigError("model state not initialized: call bind_prototypes() "
                              "and set_estimate() first")
        out = super().forward(train=train, rng=rng)
        out.logits = slice_rows(out.logits, 0, self.real_graph.n_nodes)
        return out

    # -- losses ---------------------------------------------------------------

    def discrimination_loss(self, out):
        """Sum of the cosine similarities between the prototypes' desired
        messages V = M P over the ordered pairs i != j, as one cosine node:
        the off-diagonal sum of U U^T, U V with each nonzero row scaled to
        unit length. A zero row of V adds nothing and gets zero gradient.
        Lower means the compatibility rows route distinguishable signals."""
        n, k = self.real_graph.n_nodes, self.n_classes
        protos = concat_cols([slice_rows(b, n, n + k) for b in out.blocks])
        return cosine(matmul(constant(self.cm.matrix.m), protos))

    def loss(self, out, train_idx):
        # the N+K graph's labels index the same training rows
        ce = super().loss(out, train_idx)
        if not self.dis_enabled or self.dis_weight == 0:
            return ce
        return add(ce, scale(self.discrimination_loss(out), self.dis_weight))

    def on_training_start(self, train_idx):
        """Bind the prototypes and the bootstrap estimate."""
        self.bind_prototypes(train_idx)
        c0 = self.bootstrap_soft_labels(train_idx)
        self.set_estimate(estimate_cm(self.real_graph, c0, epoch=-1), c0)

    def on_validation_improved(self, eval_out, train_idx, epoch):
        """Refresh soft labels, the estimate, and the guidance matrices."""
        soft = self._pin_train_rows(_softmax_value(eval_out.logits.value), train_idx)
        est = estimate_cm(self.real_graph, soft, epoch=epoch)
        self.set_estimate(est, soft)
        return True

    def run_metadata(self):
        g = self.cm.confidence
        return {
            "cm_estimate": self.cm.matrix.m.tolist(),
            "cm_uniform_rows": self.cm.matrix.uniform_rows.tolist(),
            "confidence_stats": {"min": float(g.min()), "mean": float(g.mean()),
                                 "max": float(g.max())},
        }


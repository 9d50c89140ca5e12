"""Unified message-passing algebra.

One layer computes, per channel r,

    Z_r = (A_r (.) B_r) Z W_r

where A_r is a neighborhood indicator (who may send messages), B_r an
aggregation guidance (how much each message counts), and W_r an optional
channel weight. Channels are merged by COMBINE, layer outputs by FUSE.
Each architecture in MODEL_NAMES is a single point in this space: a row
of one table, the one-layer ModelSpec that build_preset repeats n_layers
deep. compatgnn's (build_preset("compatgnn")) is a spec that
model.CompatGNN runs over N nodes plus K prototype nodes, binding its
supplementary/constant channel (PrototypeOperator) in the training
hooks on_training_start and on_validation_improved.

aggregate realizes a channel as a pair (X_r, W_r) whose product is Z_r,
X_r = (A_r (.) B_r) Z. Every layer is one combine node (ada_combine),
which multiplies, mixes and relus the pairs, keeping no Z_r: add sums
the Z_r, cat sets them side by side, and ada_add weights them per node
by alpha = row_softmax(sigmoid([Z_1 .. Z_R, deg] W_att + b_att) W_mix +
b_mix), the value of the gate's own node (ada_weights). A fixed alpha
(MessagePassingModel.force_alpha) is a 1 x R constant, and gprgnn's
fuse mixes the reps by its learned 1 x (L+1) gamma the same way. The
classifier and the structure encoder are combine nodes too: [blocks] W
+ b adds the pairs (block_r, its rows of W) and (a column of ones, b)
(_linear), so every product sum of a forward is one ada_combine.

Layer 1 reads ÂX when the encoder output reaches it as it is: a channel
over a sparse operator Â computes Â (X W_e) W as (ÂX)(W_e W), with ÂX a
constant cached per operator (_reads_propagated, _channel).

A sparse operator is a SparseMatrix, or for a khop k = 2 channel (the
2-hop of h2gcn and mixhop) a TwoHopOperator: the indicator's 1-hop
factors, A, the overlap correction C and diag(A + A A) (_two_hop).
A khop channel with k >= 3 runs over a SparseMatrix of the indicator
khop_adjacency builds.

A ModelSpec is declarative data: json.dumps(spec.to_dict()) writes a
spec file, and `--model spec.json` runs it (training.build_model reads
it with records.read_json and ModelSpec.from_dict). Its field types
declare the allowed values and validate() checks every rule.
"""

import contextlib
import copy
import dataclasses
from dataclasses import dataclass
from typing import Literal, get_args, get_origin

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericalError
from .graph import Graph
from .records import decode
from .rng import make_rng
from . import autodiff as ad
from .autodiff import (SparseMatrix, TwoHopOperator, constant, dropout, glorot,
                       matmul, relu, slice_rows, spmm)
from .sparse import (add_self_loops, inverse_degree, khop_adjacency,
                     knn_feature_graph, row_normalize, sym_normalize,
                     two_hop_factors)

# the guidance each indicator pairs with; any other pairs with AVERAGING
PAIRINGS = {"identity": ("identity",), "supplementary": ("constant",)}
AVERAGING = ("deg_avg_row", "deg_avg_sym", "high_pass")
MIN_K = {"khop": 2, "feature_knn": 1}   # the least k; no other indicator takes k

# Bounds that refuse sizes no machine could build, before anything is
# built; neither is a memory estimate. A preset takes at most MAX_LAYERS
# layers (deep GNNs run about a thousand), so a layer count of 2^64 never
# becomes a list. A model is refused past MODEL_MAX_SIZE float64 values,
# projected from its own widths (the encoder's, each layer's and the
# fused one): an N x width output and at most width x width of weights
# each. 10^12 values are 8 TB, over 5000 times a compatgnn (6.5e7) or an
# h2gcn (1.5e8) over 169k nodes at hidden 64 and 2 layers.
MAX_LAYERS = 10**4
MODEL_MAX_SIZE = 10**12


def check_model_size(widths, n_nodes):
    """Refuse a model of these output widths over n_nodes nodes if it
    projects past MODEL_MAX_SIZE values."""
    size = (n_nodes + max(widths)) * sum(widths)
    if size > MODEL_MAX_SIZE:
        raise ConfigError(f"the model over {n_nodes} nodes projects past the "
                          f"limit of {MODEL_MAX_SIZE:.0e} values")


def check_allowed(spec):
    """Each Literal field of the dataclass `spec` holds an allowed value."""
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if get_origin(f.type) is Literal and value not in get_args(f.type):
            raise ConfigError(f"unknown {f.name} {value!r}; choose from "
                              f"{get_args(f.type)}")


@dataclass(frozen=True)
class ChannelSpec:
    """One (indicator, guidance, weight) triple; validate() holds the
    pairing (PAIRINGS) and k (MIN_K) rules.

    weight: "own" for a fresh matrix W_r, "identity" for none (Z_r =
    (A_r (.) B_r) Z). A supplementary/constant channel is realized only
    by a model over prototype nodes, which binds it.
    """
    indicator: Literal["identity", "raw", "raw_self_loop", "khop", "feature_knn",
                       "supplementary"]
    guidance: Literal["identity", "deg_avg_row", "deg_avg_sym", "high_pass",
                      "constant"]
    k: int | None = None
    weight: Literal["own", "identity"] = "own"

    def validate(self):
        check_allowed(self)
        paired = PAIRINGS.get(self.indicator, AVERAGING)
        if self.guidance not in paired:
            raise ConfigError(f"indicator {self.indicator!r} pairs only with "
                              f"guidance {paired}, got {self.guidance!r}")
        min_k = MIN_K.get(self.indicator)
        if min_k is None and self.k is not None:
            raise ConfigError(f"indicator {self.indicator!r} takes no k, got {self.k}")
        if min_k is not None and (self.k is None or self.k < min_k):
            raise ConfigError(f"indicator {self.indicator!r} needs k >= {min_k}, "
                              f"got {self.k}")


@dataclass
class LayerSpec:
    channels: list[ChannelSpec]
    combine: Literal["add", "ada_add", "cat"] = "add"
    ada_degree_column: bool = False

    def validate(self):
        check_allowed(self)
        if not self.channels:
            raise ConfigError("layer needs at least one channel")
        for ch in self.channels:
            ch.validate()


@dataclass
class ModelSpec:
    """encoder: "linear" projects the features, X W; "structure" (LINKX
    style) also embeds each node's row-normalized adjacency row,
    [X W_x, A_hat W_a] W."""
    layers: list[LayerSpec]
    hidden_dim: int = 64
    dropout: float = 0.0
    relu_before_aggregate: bool = False
    fuse: Literal["last", "cat", "ada_add"] = "last"
    classifier: Literal["linear", "mlp"] = "linear"
    encoder: Literal["linear", "structure"] = "linear"

    def validate(self):
        check_allowed(self)
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        for layer in self.layers:
            layer.validate()
        self.widths()

    def widths(self):
        """(reps, fused): the encoder's and each layer's output width, and
        the classifier's input width. Channels that are added (add,
        ada_add) and reps fused by ada_add must be equally wide."""
        reps = [self.hidden_dim]
        for li, layer in enumerate(self.layers, start=1):
            ch = [self.hidden_dim if c.weight == "own" else reps[-1]
                  for c in layer.channels]
            if layer.combine != "cat" and len(set(ch)) > 1:
                raise ConfigError(f"layer {li}: combine {layer.combine!r} needs "
                                  f"equal channel widths, got {ch}")
            reps.append(sum(ch) if layer.combine == "cat" else ch[0])
        if self.fuse == "ada_add" and len(set(reps)) > 1:
            raise ConfigError(f"ada_add fuse needs equal layer widths, got {reps}")
        return reps, sum(reps) if self.fuse == "cat" else reps[-1]

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d, where="model spec"):
        """Inverse of to_dict; omitted keys take the field defaults and a
        malformed spec is a ConfigError naming `where`."""
        spec = decode(cls, d, ConfigError, where)
        try:
            spec.validate()
        except ConfigError as exc:
            raise ConfigError(f"malformed {where}: {exc}") from None
        return spec


# ---------------------------------------------------------------------------
# channel realization

def realize_indicator(g, kind, k=None):
    """Indicator support as scipy CSR; identity returns None (short-circuit)."""
    if kind == "identity":
        return None
    if kind == "raw":
        return g.adjacency()
    if kind == "raw_self_loop":
        return add_self_loops(g)
    if kind == "khop":
        return khop_adjacency(g, k)
    if kind == "feature_knn":
        return knn_feature_graph(g, k)
    raise ConfigError("a supplementary channel needs prototype context: only a "
                      "model over prototype nodes (model.CompatGNN) binds it")


def realize_guidance(indicator, kind, n_nodes):
    """Guidance over the support of a pairing ChannelSpec accepts, bar
    constant; returns the fused product, None for identity."""
    if kind == "identity":
        return None
    if kind == "deg_avg_row":
        return row_normalize(indicator)
    if kind == "deg_avg_sym":
        return sym_normalize(indicator)
    # high_pass
    return (sp.eye(n_nodes, format="csr") - sym_normalize(indicator)).tocsr()


class PrototypeOperator:
    """The supplementary operator of a graph whose nodes from `first` on
    are the K class prototypes. It is nonzero only in the prototype
    columns, so it is held as that (N+K) x K block; the model that owns
    it rebinds `block` whenever the guidance changes."""

    def __init__(self, first):
        self.first = first
        self.block = None   # constant (N+K) x K tensor


def realize_channel(g, ch):
    """(indicator, guidance) -> None | SparseMatrix | TwoHopOperator, ready
    for aggregate(). A khop k = 2 channel is realized by _two_hop."""
    if ch.indicator == "khop" and ch.k == 2:
        return _two_hop(g, ch.guidance)
    ind = realize_indicator(g, ch.indicator, ch.k)
    fused = realize_guidance(ind, ch.guidance, g.n_nodes)
    return None if fused is None else SparseMatrix(fused)


def _two_hop(g, guidance):
    """The guided within-2-hop operator as a TwoHopOperator over the
    factors of sparse.two_hop_factors. The guidance scales I2 by its
    degrees D2 (sparse.inverse_degree), as realize_guidance does:
    deg_avg_row as D2^-1 I2, deg_avg_sym as D2^-1/2 I2 D2^-1/2, and
    high_pass as I minus the deg_avg_sym operator."""
    a, c, diag, deg = two_hop_factors(g)
    sym = {"deg_avg_row": False, "deg_avg_sym": True, "high_pass": True}[guidance]
    inv = inverse_degree(deg, sqrt=sym)
    return TwoHopOperator(a, c, diag, inv, inv if sym else None,
                          guidance == "high_pass")


def aggregate(realized, z, w=None):
    """(A (.) B) Z W as a pair (X, W) whose product X W it is: X is Z for an
    identity channel and the SpMM (A (.) B) Z for a sparse one, and W None
    for a weightless channel. A PrototypeOperator reads only the prototype
    rows: (block, Z_proto W), so the product costs O((N+K) K d) and no
    dense (N+K) x (N+K) operator is built. The layer hands the pairs to
    its one combine node (ada_combine)."""
    if isinstance(realized, PrototypeOperator):
        t = slice_rows(z, realized.first, z.shape[0])
        return realized.block, (t if w is None else matmul(t, w))
    return (z if realized is None else spmm(realized, z)), w


# ---------------------------------------------------------------------------
# adaptive channel weighting

def init_ada_params(rng, n_channels, width, degree_column):
    in_dim = n_channels * width + (1 if degree_column else 0)
    return {
        "w_att": ad.tensor(glorot(rng, (in_dim, n_channels)), requires_grad=True),
        "b_att": ad.tensor(np.zeros((1, n_channels)), requires_grad=True),
        "w_mix": ad.tensor(glorot(rng, (n_channels, n_channels)), requires_grad=True),
        "b_mix": ad.tensor(np.zeros((1, n_channels)), requires_grad=True),
    }


ADA_PARAMS = ("w_att", "b_att", "w_mix", "b_mix")


def ada_weights(pairs, extra_cols, p):
    """The gate node (autodiff.ada_gate) under the gate parameters p: its
    value is the row-wise softmax channel weights alpha, N x R, that
    ada_combine mixes the pairs' products by."""
    return ad.ada_gate(pairs, extra_cols, *(p[k] for k in ADA_PARAMS))


def ada_combine(pairs, mix, extra_cols=(), relu=False):
    """A layer's channels, given as aggregate's pairs, combined, then their
    relu if `relu`, as one tape node (autodiff.ada_mix). mix is "add",
    "cat", a weight tensor (N x R, or 1 x R), or the gate parameters (a
    dict of ADA_PARAMS), whose alpha (ada_weights) also reads extra_cols."""
    if isinstance(mix, dict):
        mix = ada_weights(pairs, extra_cols, mix)
    elif extra_cols:
        raise ValueError("ada_combine reads extra columns only into a gate")
    return ad.ada_mix(pairs, mix, relu=relu)


def _linear(blocks, w, b=None, relu=False):
    """[blocks] W (+ b), then its relu if `relu`, as one ada_combine that
    adds: each block is a pair with its own rows of W, a slice_rows view
    of the one parameter, and a bias is one more pair, (an N x 1 column
    of ones, b)."""
    pairs, lo = [], 0
    for t in blocks:
        pairs.append((t, slice_rows(w, lo, lo + t.shape[1])))
        lo += t.shape[1]
    if b is not None:
        pairs.append((constant(np.ones((blocks[0].shape[0], 1))), b))
    return ada_combine(pairs, "add", relu=relu)


@contextlib.contextmanager
def _stage(name):
    """A NumericalError raised in the block, prefixed with the forward's
    stage it was raised in."""
    try:
        yield
    except NumericalError as exc:
        raise NumericalError(f"{name}: {exc}") from exc


# ---------------------------------------------------------------------------
# the generic model

@dataclass
class ForwardOutput:
    """logits, and `blocks`: the fuse's output as column blocks, which the
    classifier multiplies block by block. A cat fuse's blocks are the
    layer reps, the encoder output first."""
    logits: object
    blocks: list


class MessagePassingModel:
    """A ModelSpec bound to a graph: parameters plus one operator per
    distinct (indicator, guidance, k), shared by every channel naming it.

    prototypes: a PrototypeOperator when the graph's last K nodes are class
    prototypes (see model.CompatGNN). It is the supplementary/constant
    operator, and the structure encoder leaves the prototypes out.
    features: the encoder input, graph.features until the owner of the
    prototypes replaces their rows.
    force_alpha (debug): fixed channel weights, one per channel, for every
    ada_add layer, which then mixes its channels by them as a 1 x R
    constant, with no gate.
    """

    def __init__(self, spec, graph, seed=0, prototypes=None):
        spec.validate()
        if not isinstance(graph, Graph):
            raise ConfigError("MessagePassingModel needs a Graph")
        reps, self.fused_width = spec.widths()
        check_model_size(reps + [self.fused_width], graph.n_nodes)
        self.spec = spec
        self.graph = graph
        self.features = graph.features
        self.n_classes = graph.n_classes
        self.force_alpha = None
        rng = make_rng(seed, "params")
        d_r = spec.hidden_dim

        self._operators = {}
        if prototypes is not None:
            self._operators[("supplementary", "constant", None)] = prototypes
        self.params = {}

        self._structure = None
        enc_in = graph.d_f
        if spec.encoder == "structure":
            # prototype nodes have no adjacency row to embed
            n_struct = graph.n_nodes if prototypes is None else prototypes.first
            self._structure = SparseMatrix(row_normalize(graph)[:, :n_struct])
            self.params["encoder.w_x"] = ad.tensor(
                glorot(rng, (graph.d_f, d_r)), requires_grad=True)
            self.params["encoder.w_a"] = ad.tensor(
                glorot(rng, (n_struct, d_r)), requires_grad=True)
            enc_in = 2 * d_r
        self.params["encoder.w"] = ad.tensor(
            glorot(rng, (enc_in, d_r)), requires_grad=True)
        for li, layer in enumerate(spec.layers, start=1):
            for cj, ch in enumerate(layer.channels):
                key = (ch.indicator, ch.guidance, ch.k)
                if key not in self._operators:
                    self._operators[key] = realize_channel(graph, ch)
                if ch.weight == "own":
                    self.params[f"layer{li}.ch{cj}.w"] = ad.tensor(
                        glorot(rng, (reps[li - 1], d_r)), requires_grad=True)
            if layer.combine == "ada_add":
                p = init_ada_params(rng, len(layer.channels), reps[li],
                                    layer.ada_degree_column)
                for k, v in p.items():
                    self.params[f"layer{li}.ada.{k}"] = v
        if spec.fuse == "ada_add":
            self.params["fuse.gamma"] = ad.tensor(
                np.full((1, len(reps)), 1.0 / len(reps)), requires_grad=True)

        k = self.n_classes
        if spec.classifier == "linear":
            self.params["cla.w"] = ad.tensor(glorot(rng, (self.fused_width, k)),
                                             requires_grad=True)
            self.params["cla.b"] = ad.tensor(np.zeros((1, k)), requires_grad=True)
        else:
            self.params["cla.w1"] = ad.tensor(glorot(rng, (self.fused_width, d_r)),
                                              requires_grad=True)
            self.params["cla.b1"] = ad.tensor(np.zeros((1, d_r)), requires_grad=True)
            self.params["cla.w2"] = ad.tensor(glorot(rng, (d_r, k)), requires_grad=True)
            self.params["cla.b2"] = ad.tensor(np.zeros((1, k)), requires_grad=True)

        self._deg_col = constant(graph.degrees.astype(np.float64).reshape(-1, 1))
        self._propagated = {}   # operator key -> constant ÂX, see _channel

    def _combine(self, li, layer, pairs, post_relu):
        """The layer's channels, given as aggregate's pairs, combined, then
        their relu if post_relu, in one node (ada_combine). ada_add mixes
        by its gate, or by force_alpha when set."""
        mix, extra = layer.combine, []
        if mix == "ada_add" and self.force_alpha is not None:
            if len(self.force_alpha) != len(pairs):
                raise ValueError(f"force_alpha holds {len(self.force_alpha)} weights, "
                                 f"but layer {li} has {len(pairs)} channels")
            mix = constant(np.array([self.force_alpha], dtype=np.float64))
        elif mix == "ada_add":
            mix = {k: self.params[f"layer{li}.ada.{k}"] for k in ADA_PARAMS}
            extra = [self._deg_col] if layer.ada_degree_column else []
        return ada_combine(pairs, mix, extra, post_relu)

    def _fuse(self, reps):
        """The fused representation as column blocks: cat keeps every rep
        as its own block, so nothing concatenates them; ada_add mixes the
        reps by the learned 1 x (L+1) gamma in one combine node."""
        if self.spec.fuse == "last":
            return [reps[-1]]
        if self.spec.fuse == "cat":
            return list(reps)
        return [ada_combine([(rep, None) for rep in reps], self.params["fuse.gamma"])]

    def _encode(self):
        p = self.params
        x = constant(self.features)
        if self._structure is None:
            return matmul(x, p["encoder.w"])
        zx = matmul(x, p["encoder.w_x"])
        za = spmm(self._structure, p["encoder.w_a"])
        return _linear([zx, za], p["encoder.w"])

    def _classify(self, blocks):
        p = self.params
        if self.spec.classifier == "linear":
            return _linear(blocks, p["cla.w"], p["cla.b"])
        h = _linear(blocks, p["cla.w1"], p["cla.b1"], relu=True)
        return _linear([h], p["cla.w2"], p["cla.b2"])

    def _reads_propagated(self):
        """Whether layer 1's sparse channels read ÂX (module docstring).
        The features must be no wider than X W_e: then ÂX is no larger
        than the Â (X W_e) it stands for, and (ÂX)(W_e W) multiplies no
        wider a matrix than (Â X W_e) W, on any graph. Wider features
        trade the SpMM for a wider product and an N x d_f constant,
        which pays on some graphs and not on others."""
        s = self.spec
        return (s.encoder == "linear" and s.dropout == 0
                and not s.relu_before_aggregate
                and self.features.shape[1] <= s.hidden_dim)

    def _channel(self, li, cj, ch, zin, propagated):
        key = (ch.indicator, ch.guidance, ch.k)
        op = self._operators[key]
        w = self.params[f"layer{li}.ch{cj}.w"] if ch.weight == "own" else None
        if propagated and isinstance(op, (SparseMatrix, TwoHopOperator)):
            # Â and X are constants: ÂX is computed once, on first use
            if key not in self._propagated:
                self._propagated[key] = constant(op.apply(self.features))
            w_e = self.params["encoder.w"]
            return aggregate(None, self._propagated[key],
                             w_e if w is None else matmul(w_e, w))
        return aggregate(op, zin, w)

    def forward(self, train=False, rng=None):
        """The logits and fused blocks. A non-finite value is a
        NumericalError naming the stage it was born in: the encoder, a
        layer, the fuse or the classifier."""
        spec = self.spec
        with _stage("encoder"):
            z = dropout(self._encode(), spec.dropout, rng, train)
        reps = [z]
        propagated = self._reads_propagated()
        for li, layer in enumerate(spec.layers, start=1):
            with _stage(f"layer {li}"):
                zin = relu(z) if spec.relu_before_aggregate else z
                pairs = [self._channel(li, cj, ch, zin, propagated and li == 1)
                         for cj, ch in enumerate(layer.channels)]
                zl = self._combine(li, layer, pairs, not spec.relu_before_aggregate)
                zl = dropout(zl, spec.dropout, rng, train)
            reps.append(zl)
            z = zl
        with _stage("fuse"):
            blocks = self._fuse(reps)
        with _stage("classifier"):
            logits = self._classify(blocks)
        return ForwardOutput(logits=logits, blocks=blocks)

    def loss(self, out, train_idx):
        return ad.masked_cross_entropy(out.logits, self.graph.labels, train_idx)

    def on_training_start(self, train_idx):
        """Runs before the first epoch (training.train_model)."""

    def on_validation_improved(self, eval_out, train_idx, epoch):
        """Runs on each validation improvement; True if it refreshed
        the model, which makes eval_out stale."""
        return False

    def run_metadata(self):
        return {}


# ---------------------------------------------------------------------------
# presets

# each architecture as its one-layer model; build_preset repeats the layer
_ARCHITECTURES = {
    # self, degree-averaged neighborhood and prototype channels, weighted
    # per node with the degree column; every depth feeds an MLP
    "compatgnn": ModelSpec([LayerSpec([ChannelSpec("identity", "identity"),
                                       ChannelSpec("raw", "deg_avg_row"),
                                       ChannelSpec("supplementary", "constant")],
                                      combine="ada_add", ada_degree_column=True)],
                           fuse="cat", classifier="mlp"),
    "mlp": ModelSpec([LayerSpec([ChannelSpec("identity", "identity")])]),
    "gcn": ModelSpec([LayerSpec([ChannelSpec("raw_self_loop", "deg_avg_sym")])]),
    # adjacency powers 0, 1 and 2, as MixHop (arXiv 1905.00067) mixes
    "mixhop": ModelSpec([LayerSpec([ChannelSpec("identity", "identity"),
                                    ChannelSpec("raw", "deg_avg_sym"),
                                    ChannelSpec("khop", "deg_avg_sym", k=2)],
                                   combine="cat")]),
    "h2gcn": ModelSpec([LayerSpec([ChannelSpec("raw", "deg_avg_sym", weight="identity"),
                                   ChannelSpec("khop", "deg_avg_sym", k=2,
                                               weight="identity")],
                                  combine="cat")], fuse="cat"),
    "gprgnn": ModelSpec([LayerSpec([ChannelSpec("raw_self_loop", "deg_avg_sym",
                                                weight="identity")])], fuse="ada_add"),
    "acmgcn": ModelSpec([LayerSpec([ChannelSpec("identity", "identity"),
                                    ChannelSpec("raw_self_loop", "deg_avg_sym"),
                                    ChannelSpec("raw_self_loop", "high_pass")],
                                   combine="ada_add")], relu_before_aggregate=True),
}
MODEL_NAMES = tuple(_ARCHITECTURES)
PRESETS = MODEL_NAMES[1:]


def build_preset(name, n_layers=2, hidden_dim=64, dropout=0.0,
                 relu_before_aggregate=None, classifier=None):
    """ModelSpec for a named architecture: a classic preset, or compatgnn,
    whose supplementary channel only a model.CompatGNN can bind. None
    takes the architecture's own relu placement and classifier."""
    if name not in MODEL_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {MODEL_NAMES}")
    if n_layers < 0 or (n_layers == 0 and name != "mlp"):
        raise ConfigError(f"preset {name!r} needs n_layers >= 1")
    if n_layers > MAX_LAYERS:
        raise ConfigError(f"preset {name!r} takes at most {MAX_LAYERS} layers, "
                          f"got {n_layers}")
    row = _ARCHITECTURES[name]
    spec = dataclasses.replace(
        row, layers=[copy.deepcopy(row.layers[0]) for _ in range(n_layers)],
        hidden_dim=hidden_dim, dropout=dropout,
        relu_before_aggregate=(row.relu_before_aggregate if relu_before_aggregate
                               is None else relu_before_aggregate),
        classifier=row.classifier if classifier is None else classifier)
    spec.validate()
    return spec

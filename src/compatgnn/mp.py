"""Unified message-passing algebra.

One layer computes, per channel r,

    Z_r = (A_r (.) B_r) Z W_r

where A_r is a neighborhood indicator (who may send messages), B_r an
aggregation guidance (how much each message counts), and W_r an optional
channel weight. Channels are merged by COMBINE, layer outputs by FUSE.
Classic architectures are single points in this space; see PRESETS. So
is compatgnn (build_preset("compatgnn")): a spec that model.CompatGNN
runs over N nodes plus K prototype nodes, binding its
supplementary/constant channel (PrototypeOperator).

A ModelSpec is declarative data: json.dumps(spec.to_dict()) writes a
spec file, and `--model spec.json` runs it (training.build_model reads
it with records.read_json and ModelSpec.from_dict).
"""

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericalError
from .graph import Graph
from .records import decode
from .rng import make_rng
from . import autodiff as ad
from .autodiff import (SparseMatrix, add, add_bias, concat_cols, constant,
                       dropout, glorot, matmul, relu, row_scale, row_softmax,
                       scalar_scale, sigmoid, slice_cols, slice_rows, spmm)
from .sparse import (add_self_loops, khop_adjacency, knn_feature_graph,
                     row_normalize, sym_normalize)

INDICATOR_KINDS = ("identity", "raw", "raw_self_loop", "khop", "feature_knn",
                   "supplementary")
GUIDANCE_KINDS = ("identity", "deg_avg_row", "deg_avg_sym", "high_pass", "constant")
COMBINE_KINDS = ("add", "ada_add", "cat")
WEIGHT_KINDS = ("own", "identity")
FUSE_KINDS = ("last", "cat", "ada_add")
ENCODER_KINDS = ("linear", "structure")
PRESETS = ("mlp", "gcn", "mixhop", "h2gcn", "gprgnn", "acmgcn")
MODEL_NAMES = ("compatgnn",) + PRESETS


@dataclass(frozen=True)
class ChannelSpec:
    """One (indicator, guidance, weight) triple.

    weight: "own" for a fresh matrix W_r, "identity" for none (Z_r =
    (A_r (.) B_r) Z). A supplementary/constant channel
    is realized only by a model over prototype nodes, which binds it; any
    other realization fails with a ConfigError.
    """
    indicator: str
    guidance: str
    k: int | None = None
    weight: str = "own"

    def validate(self):
        if self.indicator not in INDICATOR_KINDS:
            raise ConfigError(f"unknown indicator {self.indicator!r}")
        if self.guidance not in GUIDANCE_KINDS:
            raise ConfigError(f"unknown guidance {self.guidance!r}")
        if self.indicator in ("khop", "feature_knn") and (self.k is None or self.k < 1):
            raise ConfigError(f"indicator {self.indicator!r} needs a positive k")
        if self.weight not in WEIGHT_KINDS:
            raise ConfigError(f"unknown channel weight {self.weight!r}; "
                              f"choose from {WEIGHT_KINDS}")


@dataclass
class LayerSpec:
    channels: list[ChannelSpec]
    combine: str = "add"
    ada_degree_column: bool = False

    def validate(self):
        if not self.channels:
            raise ConfigError("layer needs at least one channel")
        for ch in self.channels:
            ch.validate()
        if self.combine not in COMBINE_KINDS:
            raise ConfigError(f"unknown combine {self.combine!r}")


@dataclass
class ModelSpec:
    """encoder: "linear" projects the features, X W; "structure" (LINKX
    style) also embeds each node's row-normalized adjacency row,
    [X W_x, A_hat W_a] W."""
    layers: list[LayerSpec]
    hidden_dim: int = 64
    dropout: float = 0.0
    relu_before_aggregate: bool = False
    fuse: str = "last"
    classifier: str = "linear"
    encoder: str = "linear"

    def validate(self):
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.fuse not in FUSE_KINDS:
            raise ConfigError(f"unknown fuse {self.fuse!r}")
        if self.classifier not in ("linear", "mlp"):
            raise ConfigError(f"unknown classifier {self.classifier!r}")
        if self.encoder not in ENCODER_KINDS:
            raise ConfigError(f"unknown encoder {self.encoder!r}")
        for layer in self.layers:
            layer.validate()

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
    raise ConfigError(f"indicator {kind!r} cannot be realized without prototype context")


def realize_guidance(indicator, kind, n_nodes):
    """Apply guidance over the indicator support; returns the fused product."""
    if kind == "identity":
        if indicator is not None:
            raise ConfigError("identity guidance pairs only with the identity indicator")
        return None
    if indicator is None:
        raise ConfigError(f"guidance {kind!r} needs a non-identity indicator")
    if kind == "deg_avg_row":
        return row_normalize(indicator)
    if kind == "deg_avg_sym":
        return sym_normalize(indicator)
    if kind == "high_pass":
        return (sp.eye(n_nodes, format="csr") - sym_normalize(indicator)).tocsr()
    raise ConfigError(f"guidance {kind!r} cannot be realized without prototype context")


class PrototypeOperator:
    """The supplementary operator of a graph whose nodes from `first` on
    are the K class prototypes. It is nonzero only in the prototype
    columns, so it is held as that (N+K) x K block; the model that owns
    it rebinds `block` whenever the guidance changes."""

    def __init__(self, first):
        self.first = first
        self.block = None   # constant (N+K) x K tensor


def realize_channel(g, ch):
    """(indicator, guidance) -> None | SparseMatrix, ready for aggregate()."""
    ind = realize_indicator(g, ch.indicator, ch.k)
    fused = realize_guidance(ind, ch.guidance, g.n_nodes)
    return None if fused is None else SparseMatrix(fused)


def aggregate(realized, z, w=None):
    """(A (.) B) Z W as SpMM; identity channel short-circuits to Z W. A
    PrototypeOperator reads only the prototype rows: block (Z_proto W),
    O((N+K) K d) instead of a dense (N+K) x (N+K) product."""
    if isinstance(realized, PrototypeOperator):
        t = slice_rows(z, realized.first, z.shape[0])
        return matmul(realized.block, t if w is None else matmul(t, w))
    t = z if realized is None else spmm(realized, z)
    return t if w is None else matmul(t, w)


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


def ada_weights(channel_outs, extra_cols, p):
    """Row-wise softmax channel weights from the concatenated channel outputs."""
    att_in = concat_cols(list(channel_outs) + list(extra_cols))
    h = sigmoid(add_bias(matmul(att_in, p["w_att"]), p["b_att"]))
    return row_softmax(add_bias(matmul(h, p["w_mix"]), p["b_mix"]))


def ada_combine(channel_outs, alpha):
    out = None
    for r, z in enumerate(channel_outs):
        term = row_scale(slice_cols(alpha, r, r + 1), z)
        out = term if out is None else add(out, term)
    return out


def forced_alpha_tensor(force_alpha, n_rows):
    alpha = np.asarray(force_alpha, dtype=np.float64).reshape(1, -1)
    return constant(np.repeat(alpha, n_rows, axis=0))


# ---------------------------------------------------------------------------
# the generic model

@dataclass
class ForwardOutput:
    logits: object
    fused: object
    reps: list


class MessagePassingModel:
    """A ModelSpec bound to a graph: parameters plus one operator per
    distinct (indicator, guidance, k), shared by every channel naming it.

    prototypes: a PrototypeOperator when the graph's last K nodes are class
    prototypes (see model.CompatGNN). It is the supplementary/constant
    operator, and the structure encoder leaves the prototypes out.
    features: the encoder input, graph.features until the owner of the
    prototypes replaces their rows.
    force_alpha (debug): overrides every ada_add combine with fixed channel
    weights.
    """

    def __init__(self, spec, graph, seed=0, prototypes=None):
        spec.validate()
        if not isinstance(graph, Graph):
            raise ConfigError("MessagePassingModel needs a Graph")
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
        width = d_r
        self._widths = [width]
        for li, layer in enumerate(spec.layers, start=1):
            ch_widths = []
            for cj, ch in enumerate(layer.channels):
                key = (ch.indicator, ch.guidance, ch.k)
                if key not in self._operators:
                    self._operators[key] = realize_channel(graph, ch)
                if ch.weight == "own":
                    self.params[f"layer{li}.ch{cj}.w"] = ad.tensor(
                        glorot(rng, (width, d_r)), requires_grad=True)
                    ch_widths.append(d_r)
                else:  # identity
                    ch_widths.append(width)
            if layer.combine == "cat":
                width = sum(ch_widths)
            else:
                if len(set(ch_widths)) > 1:
                    raise ConfigError(
                        f"combine {layer.combine!r} needs equal channel widths, "
                        f"got {ch_widths}")
                width = ch_widths[0]
                if layer.combine == "ada_add":
                    p = init_ada_params(rng, len(layer.channels), width,
                                        layer.ada_degree_column)
                    for k, v in p.items():
                        self.params[f"layer{li}.ada.{k}"] = v
            self._widths.append(width)

        if spec.fuse == "cat":
            fused_width = sum(self._widths)
        elif spec.fuse == "last":
            fused_width = self._widths[-1]
        else:  # ada_add over layer outputs
            if len(set(self._widths)) > 1:
                raise ConfigError("ada_add fuse needs equal layer widths")
            fused_width = self._widths[0]
            n_reps = len(self._widths)
            self.params["fuse.gamma"] = ad.tensor(
                np.full((n_reps, 1), 1.0 / n_reps), requires_grad=True)
        self.fused_width = fused_width

        k = self.n_classes
        if spec.classifier == "linear":
            self.params["cla.w"] = ad.tensor(glorot(rng, (fused_width, k)),
                                             requires_grad=True)
            self.params["cla.b"] = ad.tensor(np.zeros((1, k)), requires_grad=True)
        else:
            self.params["cla.w1"] = ad.tensor(glorot(rng, (fused_width, d_r)),
                                              requires_grad=True)
            self.params["cla.b1"] = ad.tensor(np.zeros((1, d_r)), requires_grad=True)
            self.params["cla.w2"] = ad.tensor(glorot(rng, (d_r, k)), requires_grad=True)
            self.params["cla.b2"] = ad.tensor(np.zeros((1, k)), requires_grad=True)

        self._deg_col = constant(graph.degrees.astype(np.float64).reshape(-1, 1))

    def _channel_weight(self, li, cj, ch):
        return self.params[f"layer{li}.ch{cj}.w"] if ch.weight == "own" else None

    def _combine(self, li, layer, outs):
        if layer.combine == "add":
            z = outs[0]
            for t in outs[1:]:
                z = add(z, t)
            return z
        if layer.combine == "cat":
            return concat_cols(outs)
        # ada_add
        if self.force_alpha is not None:
            alpha = forced_alpha_tensor(self.force_alpha, outs[0].shape[0])
        else:
            extra = [self._deg_col] if layer.ada_degree_column else []
            p = {k: self.params[f"layer{li}.ada.{k}"]
                 for k in ("w_att", "b_att", "w_mix", "b_mix")}
            alpha = ada_weights(outs, extra, p)
        return ada_combine(outs, alpha)

    def _fuse(self, reps):
        if self.spec.fuse == "last":
            return reps[-1]
        if self.spec.fuse == "cat":
            return concat_cols(reps)
        gamma = self.params["fuse.gamma"]
        z = None
        for l, rep in enumerate(reps):
            term = scalar_scale(rep, ad.gather_rows(gamma, [l]))
            z = term if z is None else add(z, term)
        return z

    def _encode(self):
        p = self.params
        x = constant(self.features)
        if self._structure is None:
            return matmul(x, p["encoder.w"])
        zx = matmul(x, p["encoder.w_x"])
        za = spmm(self._structure, p["encoder.w_a"])
        return matmul(concat_cols([zx, za]), p["encoder.w"])

    def _classify(self, zf):
        p = self.params
        if self.spec.classifier == "linear":
            return add_bias(matmul(zf, p["cla.w"]), p["cla.b"])
        h = relu(add_bias(matmul(zf, p["cla.w1"]), p["cla.b1"]))
        return add_bias(matmul(h, p["cla.w2"]), p["cla.b2"])

    def forward(self, train=False, rng=None):
        spec = self.spec
        z = dropout(self._encode(), spec.dropout, rng, train)
        reps = [z]
        for li, layer in enumerate(spec.layers, start=1):
            try:
                zin = relu(z) if spec.relu_before_aggregate else z
                outs = [aggregate(self._operators[ch.indicator, ch.guidance, ch.k], zin,
                                  self._channel_weight(li, cj, ch))
                        for cj, ch in enumerate(layer.channels)]
                zl = self._combine(li, layer, outs)
                if not spec.relu_before_aggregate:
                    zl = relu(zl)
                zl = dropout(zl, spec.dropout, rng, train)
            except NumericalError as exc:
                raise NumericalError(f"layer {li}: {exc}") from exc
            reps.append(zl)
            z = zl
        zf = self._fuse(reps)
        return ForwardOutput(logits=self._classify(zf), fused=zf, reps=reps)

    def loss(self, out, train_idx):
        return ad.masked_cross_entropy(out.logits, self.graph.labels, train_idx)

    def run_metadata(self):
        return {}


# ---------------------------------------------------------------------------
# presets

def build_preset(name, n_layers=2, hidden_dim=64, dropout=0.0,
                 relu_before_aggregate=None, max_hop=2, classifier=None):
    """ModelSpec for a named architecture: a classic preset, or compatgnn,
    whose supplementary channel only a model.CompatGNN can bind. None
    takes the architecture's own relu placement and classifier."""
    if name not in MODEL_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {MODEL_NAMES}")
    if n_layers < 0 or (n_layers == 0 and name != "mlp"):
        raise ConfigError(f"preset {name!r} needs n_layers >= 1")

    def layer(channels, **kw):
        return LayerSpec(channels=channels, **kw)

    relu_default = False
    classifier_default = "linear"
    if name == "mlp":
        layers = [layer([ChannelSpec("identity", "identity")])
                  for _ in range(n_layers)]
        fuse = "last"
    elif name == "gcn":
        layers = [layer([ChannelSpec("raw_self_loop", "deg_avg_sym")])
                  for _ in range(n_layers)]
        fuse = "last"
    elif name == "mixhop":
        if max_hop < 2:
            raise ConfigError("mixhop needs max_hop >= 2")
        chans = [ChannelSpec("identity", "identity"),
                 ChannelSpec("raw", "deg_avg_sym")]
        chans += [ChannelSpec("khop", "deg_avg_sym", k=j)
                  for j in range(2, max_hop + 1)]
        layers = [layer(list(chans), combine="cat") for _ in range(n_layers)]
        fuse = "last"
    elif name == "h2gcn":
        chans = [ChannelSpec("raw", "deg_avg_sym", weight="identity"),
                 ChannelSpec("khop", "deg_avg_sym", k=2, weight="identity")]
        layers = [layer(list(chans), combine="cat") for _ in range(n_layers)]
        fuse = "cat"
    elif name == "gprgnn":
        layers = [layer([ChannelSpec("raw_self_loop", "deg_avg_sym",
                                     weight="identity")])
                  for _ in range(n_layers)]
        fuse = "ada_add"
    elif name == "compatgnn":
        # self, degree-averaged neighborhood and prototype channels,
        # weighted per node with the degree column; every depth feeds an MLP
        chans = [ChannelSpec("identity", "identity"),
                 ChannelSpec("raw", "deg_avg_row"),
                 ChannelSpec("supplementary", "constant")]
        layers = [layer(list(chans), combine="ada_add", ada_degree_column=True)
                  for _ in range(n_layers)]
        fuse = "cat"
        classifier_default = "mlp"
    else:  # acmgcn
        chans = [ChannelSpec("identity", "identity"),
                 ChannelSpec("raw_self_loop", "deg_avg_sym"),
                 ChannelSpec("raw_self_loop", "high_pass")]
        layers = [layer(list(chans), combine="ada_add") for _ in range(n_layers)]
        fuse = "last"
        relu_default = True

    spec = ModelSpec(layers=layers, hidden_dim=hidden_dim, dropout=dropout,
                     relu_before_aggregate=(relu_default if relu_before_aggregate is None
                                            else relu_before_aggregate),
                     fuse=fuse, classifier=(classifier_default if classifier is None
                                            else classifier))
    spec.validate()
    return spec

"""Run configuration and the shared training protocol.

One protocol serves every model: train on the train split, track
validation accuracy each epoch, snapshot parameters on strict
improvement, stop after `patience` non-improving epochs, report test
accuracy at the best snapshot. Every model's on_training_start runs
before the first epoch and its on_validation_improved on each
improvement, so the compatibility-guided model's estimate in play
always corresponds to the best parameters seen so far.

Evaluation is tapeless with dropout > 0. With dropout 0 an epoch's eval
forward is the next epoch's train forward, so it keeps its tape and is
trained on, unless a refresh intervened (see train_model).
"""

import ctypes
import dataclasses
import glob
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, TrainingDiverged
from .autodiff import backward, frozen, zero_grads
from .graph import check_split
from .model import CompatGNN
from .mp import MODEL_NAMES, MessagePassingModel, ModelSpec, build_preset
from .optim import Adam
from .records import decode, read_json
from .rng import make_rng


@dataclass
class RunConfig:
    model: str = "compatgnn"
    dataset: str = ""
    split_ids: list[int] = field(default_factory=lambda: [0])
    seed: int = 0
    lr: float = 0.01
    weight_decay: float = 0.0
    patience: int = 200
    dropout: float = 0.0
    lambda_: float = 0.0
    layers: int = 2
    nhidden: int = 64
    relu_variant: bool | None = None
    structure_info: bool = False
    max_epochs: int = 1000

    def validate(self):
        for name, value in (("lr", self.lr), ("weight_decay", self.weight_decay),
                            ("lambda", self.lambda_)):
            if not math.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        if self.patience < 1 or self.max_epochs < 1:
            raise ConfigError("patience and max_epochs must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.layers < 0 or self.nhidden < 1:
            raise ConfigError("layers must be >= 0 and nhidden >= 1")
        if self.layers == 0 and self.model != "mlp":
            raise ConfigError(f"model {self.model!r} needs layers >= 1")
        if not self.split_ids:
            raise ConfigError("split_ids must not be empty")
        if min(self.split_ids) < 0:
            raise ConfigError(f"split ids must be non-negative, got {self.split_ids}")

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["lambda"] = d.pop("lambda_")
        return d

    @classmethod
    def from_dict(cls, d, where="config"):
        """Inverse of to_dict; a malformed config is a ConfigError naming
        `where`. Callers validate once every override is applied."""
        if isinstance(d, dict) and "lambda" in d:
            d = dict(d)
            d["lambda_"] = d.pop("lambda")
        return decode(cls, d, ConfigError, where)


# the RunConfig fields a preset is built from; a model-spec file fixes them
PRESET_FIELDS = ("layers", "nhidden", "dropout", "relu_variant", "structure_info")


def build_model(config, graph, seed):
    """Instantiate the model a RunConfig names: compatgnn or a classic
    preset, or a model-spec JSON path."""
    name = config.model
    if name in MODEL_NAMES:
        spec = build_preset(name, n_layers=config.layers,
                            hidden_dim=config.nhidden, dropout=config.dropout,
                            relu_before_aggregate=config.relu_variant)
        spec.encoder = "structure" if config.structure_info else "linear"
        if name == "compatgnn":
            return CompatGNN(spec, graph, seed=seed, dis_weight=config.lambda_)
        return MessagePassingModel(spec, graph, seed=seed)
    if name.endswith(".json") and os.path.exists(name):
        ignored = [k for k in PRESET_FIELDS
                   if getattr(config, k) != getattr(RunConfig(), k)]
        if ignored:
            raise ConfigError(f"model spec {name} fixes the model; it would "
                              f"ignore {', '.join(ignored)}")
        spec = ModelSpec.from_dict(read_json(name, ConfigError),
                                   where=f"model spec {name}")
        try:
            return MessagePassingModel(spec, graph, seed=seed)
        except ConfigError as exc:
            raise ConfigError(f"model spec {name}: {exc}") from None
    raise ConfigError(f"unknown model {name!r}: expected one of {MODEL_NAMES} "
                      "or a model-spec JSON path")


def accuracy(logits_value, labels, idx):
    idx = np.asarray(idx, dtype=np.int64)
    pred = np.argmax(logits_value[idx], axis=1)
    return float(np.mean(pred == labels[idx]))


@dataclass
class RunResult:
    config: dict
    seed: int
    split_id: int
    best_epoch: int
    val_curve: list[float]
    loss_curve: list[float]
    test_accuracy: float
    epoch_ms: list[float]
    refresh_epochs: list[int]
    test_idx: list[int]
    test_predictions: list[int]
    test_degrees: list[int]
    test_labels: list[int] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    diverged: bool = False


def _openblas():
    """The thread count getter of the OpenBLAS numpy bundles, or None
    without that library."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        return get
    return None


def blas_threads():
    """The size of the OpenBLAS pool numpy runs on, read from the library
    numpy bundles (_openblas): OpenBLAS fixes it when numpy is imported,
    so a later change to OPENBLAS_NUM_THREADS has no effect. Without that
    library, OPENBLAS_NUM_THREADS when it holds a count, else one per
    CPU."""
    get = _openblas()
    if get is not None:
        return get()
    value = os.environ.get("OPENBLAS_NUM_THREADS", "")
    return int(value) if value.isdigit() and int(value) > 0 else os.cpu_count()


def _reuses_eval(model):
    """Whether an epoch's eval forward keeps its tape for the next epoch
    to train on. With dropout 0 the train forward is the eval forward:
    the same operations, no random draws. The model's own spec decides,
    since a model-spec file fixes its dropout."""
    return model.spec.dropout == 0


@np.errstate(over="ignore", invalid="ignore")
def train_model(graph, split, config, seed, split_id=0, model=None):
    """Run the full protocol once; returns a RunResult.

    A pre-built model may be passed in (ablation studies); by default the
    model is built from the config. Raises TrainingDiverged (with the
    partial log attached) if any forward, gradient or Adam step turns
    non-finite; that check, not a numpy overflow warning, reports it.

    Each epoch's eval forward runs at the parameters the next epoch
    trains at. With dropout > 0 it runs under `frozen` and records no
    tape. With dropout 0 it records its tape, and the next epoch trains
    on its output instead of running a train forward, unless
    on_validation_improved returned True (a refresh): that eval output is
    stale and is dropped there. The final forward is frozen. A split
    naming a node the graph has no label for is a DataError (check_split).
    The run starts no thread: its products run in the caller's, beside
    the OpenBLAS pool numpy brings, whose size the metadata records
    (blas_threads).
    """
    config.validate()
    check_split(split, graph.labels, f"split {split_id}")
    if model is None:
        model = build_model(config, graph, seed)
    return _protocol(graph, split, config, seed, split_id, model)


def _protocol(graph, split, config, seed, split_id, model):
    """train_model's protocol on a built model."""
    drop_rng = make_rng(seed, "dropout")
    model.on_training_start(split.train)

    opt = Adam(model.params, lr=config.lr, weight_decay=config.weight_decay)
    best_val = -np.inf
    best_epoch = -1
    best_state = None
    wait = 0
    val_curve, loss_curve, epoch_ms, refresh_epochs = [], [], [], []

    def result(test_accuracy, test_predictions, metadata, diverged):
        return RunResult(config=config.to_dict(), seed=seed, split_id=split_id,
                         best_epoch=best_epoch, val_curve=list(val_curve),
                         loss_curve=list(loss_curve), test_accuracy=test_accuracy,
                         epoch_ms=list(epoch_ms), refresh_epochs=list(refresh_epochs),
                         test_idx=split.test.tolist(), test_predictions=test_predictions,
                         test_degrees=graph.degrees[split.test].tolist(),
                         test_labels=graph.labels[split.test].tolist(),
                         metadata={**metadata, "blas_threads": blas_threads()},
                         diverged=diverged)

    reuse = _reuses_eval(model)
    eval_out = None
    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        try:
            zero_grads(model.params)
            if reuse and eval_out is not None:
                out = eval_out      # the last eval ran at these parameters
            else:
                out = model.forward(train=True, rng=drop_rng)
            loss = model.loss(out, split.train)
            backward(loss)
            opt.step()
            if reuse:
                eval_out = model.forward(train=False)
            else:
                with frozen(model.params):
                    eval_out = model.forward(train=False)
        except NumericalError as exc:
            raise TrainingDiverged(f"epoch {epoch}: {exc}",
                                   result(float("nan"), [], {}, True)) from None
        loss_curve.append(loss.item())
        val_acc = accuracy(eval_out.logits.value, graph.labels, split.valid)
        val_curve.append(val_acc)
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            wait = 0
            best_state = {k: p.value.copy() for k, p in model.params.items()}
            if model.on_validation_improved(eval_out, split.train, epoch):
                refresh_epochs.append(epoch)
                eval_out = None     # stale under the new state: free its tape now
        else:
            wait += 1
        epoch_ms.append((time.perf_counter() - t0) * 1000.0)
        if wait >= config.patience:
            break

    if best_state is not None:
        for k, p in model.params.items():
            p.value = best_state[k]
    with frozen(model.params):
        final_out = model.forward(train=False)
    test_acc = accuracy(final_out.logits.value, graph.labels, split.test)
    preds = np.argmax(final_out.logits.value[split.test], axis=1)

    return result(test_acc, preds.tolist(), model.run_metadata(), False)

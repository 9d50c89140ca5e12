"""The typed JSON decoder: round trips of every record type the package
reads, and the path each rejection names."""

import dataclasses
import json
import re
from dataclasses import asdict

import pytest

from compatgnn import ConfigError, DataError
from compatgnn.graph import DatasetMeta, generate_splits
from compatgnn.mp import PRESETS, ChannelSpec, LayerSpec, ModelSpec, build_preset
from compatgnn.records import decode
from compatgnn.synth import generate_graph, make_synth_spec
from compatgnn.training import RunConfig, RunResult, train_model


def round_trip(x, error=ConfigError):
    return decode(type(x), json.loads(json.dumps(asdict(x))), error, "record")


def test_run_config_round_trip():
    cfg = RunConfig(model="gcn", dataset="data/x", split_ids=[1, 3], seed=7,
                    lr=0.05, weight_decay=5e-4, patience=30, dropout=0.5,
                    lambda_=0.1, layers=3, nhidden=16, relu_variant=True,
                    structure_info=True, max_epochs=20)
    assert round_trip(cfg) == cfg


@pytest.mark.parametrize("spec", [
    build_preset(name, n_layers=2, hidden_dim=8, dropout=0.25)
    for name in PRESETS] + [
    dataclasses.replace(build_preset("compatgnn", hidden_dim=8), encoder=e)
    for e in ("linear", "structure")], ids=list(PRESETS) + ["compat", "compat-structure"])
def test_model_spec_round_trip(spec):
    assert round_trip(spec) == spec


def test_run_result_and_meta_round_trip():
    g = generate_graph(make_synth_spec(60, 3, 0.3, "hard", 6.0, seed=2))
    cfg = RunConfig(model="compatgnn", nhidden=8, max_epochs=3, lambda_=0.1)
    result = train_model(g, generate_splits(g, 1, 0)[0], cfg, seed=0)
    assert result.metadata and not result.diverged
    assert round_trip(result, DataError) == result
    meta = DatasetMeta(name="toy", n_nodes=60, n_classes=3, d_f=16, directed=True)
    assert round_trip(meta, DataError) == meta


RAW = {"indicator": "raw", "guidance": "deg_avg_sym"}


@pytest.mark.parametrize("obj, problem", [
    (5, "expected a JSON object, got int"),
    ({"layers": {}}, "layers: expected list, got dict"),
    ({"layers": [], "dropout": True}, "dropout: expected float, got bool"),
    ({"layers": [{"channels": [RAW, dict(RAW, k=True)]}]},
     "layers[0].channels[1].k: expected int, got bool"),
    ({"layers": [{"channels": [RAW]}, 5]}, "layers[1]: expected a JSON object, got int"),
    ({"layers": [{"channels": [{"indicator": "raw"}]}]},
     "layers[0].channels[0]: missing key 'guidance'"),
    ({"layers": [{"channels": [RAW], "combine": None}]},
     "layers[0].combine: expected str, got NoneType"),
])
def test_decode_names_the_offending_value(obj, problem):
    with pytest.raises(ConfigError, match=re.escape(f"malformed spec: {problem}")):
        decode(ModelSpec, obj, ConfigError, "spec")


def test_decode_names_a_list_element():
    for ids, got in (([1, "a"], "str"), ([1, True], "bool"), ([1, 2.5], "float")):
        with pytest.raises(ConfigError, match=re.escape(
                f"malformed config: split_ids[1]: expected int, got {got}")):
            decode(RunConfig, {"split_ids": ids}, ConfigError, "config")


def test_decode_accepts_ints_as_floats_and_null_optionals():
    spec = decode(ModelSpec, {"layers": [{"channels": [dict(RAW, k=None)]}],
                              "dropout": 0}, ConfigError, "spec")
    assert spec == ModelSpec(layers=[LayerSpec(
        channels=[ChannelSpec("raw", "deg_avg_sym")])], dropout=0)
    record = dict(config={}, seed=0, split_id=0, best_epoch=0, val_curve=[1, 0.5],
                  loss_curve=[], test_accuracy=1, epoch_ms=[], refresh_epochs=[],
                  test_idx=[], test_predictions=[], test_degrees=[])
    assert decode(RunResult, record, DataError, "run").val_curve == [1, 0.5]
    record["val_curve"] = [1, 2]
    assert decode(RunResult, record, DataError, "run").val_curve == [1, 2]

"""Golden training curves of the compatibility-guided model.

The fixture `data/compat_golden.json` holds the loss curve, validation
curve, refresh epochs and test accuracy of three short compatgnn runs,
recorded at commit 030ed92 (030ed92aee81e27c9fa738a679c7198a28ef5611),
before CompatGNN ran through MessagePassingModel. A refactor of the
forward path may change the order of floating-point sums, not the model:
loss curves must agree within 1e-10 and everything else exactly.

Record the fixture again only when the numerics are meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os

import pytest

from compatgnn.graph import generate_splits
from compatgnn.synth import generate_graph, make_synth_spec
from compatgnn.training import RunConfig, train_model

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "compat_golden.json")

CONFIGS = {
    "dropout0": {"dropout": 0.0},
    "dropout05": {"dropout": 0.5},
    "structure_info": {"structure_info": True},
}


def _run(overrides):
    spec = make_synth_spec(400, 5, 0.2, "easy", 10, seed=0, d_f=16)
    g = generate_graph(spec)
    split = generate_splits(g, 1, seed=0)[0]
    cfg = RunConfig(model="compatgnn", nhidden=16, lambda_=0.1, max_epochs=40,
                    patience=40, **overrides)
    res = train_model(g, split, cfg, seed=1)
    return {"loss_curve": res.loss_curve, "val_curve": res.val_curve,
            "refresh_epochs": res.refresh_epochs,
            "test_accuracy": res.test_accuracy}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_compat_curves_match_golden(name):
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        want = json.load(fh)[name]
    got = _run(CONFIGS[name])
    assert len(got["loss_curve"]) == len(want["loss_curve"]) == 40
    worst = max(abs(a - b) for a, b in zip(got["loss_curve"], want["loss_curve"]))
    assert worst <= 1e-10, f"loss curve deviates by {worst:.3e}"
    assert got["val_curve"] == want["val_curve"]
    assert got["refresh_epochs"] == want["refresh_epochs"]
    assert got["test_accuracy"] == want["test_accuracy"]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump({name: _run(kw) for name, kw in CONFIGS.items()}, fh, indent=1)
        fh.write("\n")

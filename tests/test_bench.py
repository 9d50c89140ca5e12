import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from compatgnn import ConfigError
from compatgnn.bench import (SEARCH_SPACE, BenchReport, degree_report,
                             format_mean_std, random_search, run_bench,
                             sample_search_config, split_by_id,
                             write_json_atomic, write_text_atomic)
from compatgnn.graph import generate_splits
from compatgnn.heatmap import cm_to_csv, cm_to_svg
from compatgnn.rng import make_rng
from compatgnn.synth import generate_graph, make_synth_spec
from compatgnn.training import RunConfig, RunResult


@pytest.fixture(scope="module")
def toy():
    """Small learnable synthetic graph plus splits."""
    spec = make_synth_spec(80, 3, 0.7, "hard", 8, seed=20, d_f=8,
                           mean_separation=3.0)
    g = generate_graph(spec)
    return g, generate_splits(g, 5, seed=0)


def quick_cfg(**kw):
    kw.setdefault("model", "gcn")
    kw.setdefault("lr", 0.05)
    kw.setdefault("patience", 10)
    kw.setdefault("max_epochs", 6)
    kw.setdefault("nhidden", 8)
    kw.setdefault("layers", 2)
    return RunConfig(**kw)


def fake_run(split_id, degrees, predictions, labels):
    n = len(degrees)
    return RunResult(config={}, seed=0, split_id=split_id, best_epoch=0,
                     val_curve=[1.0], loss_curve=[0.0],
                     test_accuracy=float(np.mean(np.asarray(predictions)
                                                 == np.asarray(labels))),
                     epoch_ms=[1.0], refresh_epochs=[],
                     test_idx=list(range(n)), test_predictions=list(predictions),
                     test_degrees=list(degrees), test_labels=list(labels))


# ---------------------------------------------------------------------------
# formatting and atomic IO

def test_format_mean_std_cell():
    assert format_mean_std([0.40, 0.50]) == "45.00 ± 5.00"
    assert format_mean_std([0.457, 0.457]) == "45.70 ± 0.00"
    assert re.fullmatch(r"\d+\.\d\d ± \d+\.\d\d",
                        format_mean_std([0.3141, 0.6535, 0.8979]))


def test_atomic_writers(tmp_path):
    p = tmp_path / "deep" / "obj.json"
    write_json_atomic(str(p), {"a": 1})
    assert json.loads(p.read_text()) == {"a": 1}
    write_text_atomic(str(p), "replaced")
    assert p.read_text() == "replaced"
    assert not [n for n in os.listdir(tmp_path / "deep")
                if n.startswith(".tmp-")]


# ---------------------------------------------------------------------------
# bench runs

def test_bench_identical_split_ids_zero_std(toy):
    g, splits = toy
    cfg = quick_cfg(split_ids=[0] * 10)
    report = run_bench(g, splits, cfg)
    assert report.std_accuracy == 0.0
    assert report.formatted.endswith("± 0.00")
    assert len(report.accuracies) == 10
    assert len(set(report.accuracies)) == 1


def test_bench_report_recomputable_and_persisted(toy, tmp_path):
    g, splits = toy
    cfg = quick_cfg(model="compatgnn", lambda_=0.1, split_ids=[0, 1, 2])
    report = run_bench(g, splits, cfg, out_dir=str(tmp_path))
    assert report.mean_accuracy == pytest.approx(np.mean(report.accuracies))
    assert report.std_accuracy == pytest.approx(np.std(report.accuracies))
    assert report.ms_per_epoch > 0
    assert report.excluded_splits == []
    sizes = report.degree_buckets["sizes"]
    assert sum(sizes) == len(splits[0].test)

    on_disk = json.loads((tmp_path / "bench.json").read_text())
    assert on_disk["accuracies"] == report.accuracies
    table = (tmp_path / "bench.txt").read_text()
    assert report.formatted in table
    for sid in (0, 1, 2):
        run = json.loads((tmp_path / f"run_split{sid}.json").read_text())
        assert run["split_id"] == sid


def test_bench_rejects_missing_split_id(toy):
    g, splits = toy
    with pytest.raises(ConfigError, match="split id 7"):
        run_bench(g, splits, quick_cfg(split_ids=[7]))


def test_split_by_id_reads_the_mapping_and_names_its_ids(toy):
    _, splits = toy
    assert split_by_id(splits, 3) is splits[3]
    with pytest.raises(ConfigError) as exc:
        split_by_id(splits, 7)
    assert str(exc.value) == ("split id 7 is not among the available split ids "
                              "[0, 1, 2, 3, 4]")


def test_bench_all_diverged_flagged(toy):
    g, splits = toy
    cfg = quick_cfg(model="compatgnn", lr=1e80, split_ids=[0, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_bench(g, splits, cfg)
    assert report.accuracies == []
    assert report.excluded_splits == [0, 1]
    assert report.formatted == "n/a (all splits diverged)"
    assert np.isnan(report.mean_accuracy)


# ---------------------------------------------------------------------------
# degree buckets

def test_degree_buckets_sizes_and_order():
    degrees = np.arange(23)[::-1]       # distinct, descending by node index
    labels = np.zeros(23, dtype=int)
    preds = np.zeros(23, dtype=int)
    preds[degrees <= 3] = 1             # the four lowest-degree nodes wrong
    rep = degree_report([fake_run(0, degrees, preds, labels)])
    assert rep["sizes"] == [5, 5, 5, 4, 4]
    assert rep["mean_accuracy"][0] == pytest.approx(1 / 5)
    assert rep["mean_accuracy"][1:] == [1.0, 1.0, 1.0, 1.0]


def test_degree_buckets_tie_break_by_node_index():
    degrees = np.full(10, 4)
    labels = np.zeros(10, dtype=int)
    preds = np.zeros(10, dtype=int)
    preds[:2] = 1                       # lowest node ids wrong
    rep = degree_report([fake_run(0, degrees, preds, labels)], n_buckets=5)
    assert rep["mean_accuracy"] == [0.0, 1.0, 1.0, 1.0, 1.0]


def test_degree_buckets_recombine_to_overall():
    rng = make_rng(22, "buckets")
    runs = []
    for sid in range(4):
        n = 37
        degrees = rng.integers(0, 12, size=n)
        labels = rng.integers(0, 3, size=n)
        preds = np.where(rng.random(n) < 0.6, labels, (labels + 1) % 3)
        runs.append(fake_run(sid, degrees, preds, labels))
    rep = degree_report(runs)
    sizes = np.asarray(rep["sizes"], dtype=float)
    for r, accs in zip(runs, rep["per_split"]):
        overall = (np.asarray(accs) * sizes).sum() / sizes.sum()
        assert abs(overall - r.test_accuracy) <= 1e-9


def test_degree_report_errors():
    with pytest.raises(ConfigError, match="at least one"):
        degree_report([])
    run = fake_run(0, [1, 2, 3], [0, 0, 0], [0, 0, 0])
    with pytest.raises(ConfigError, match="buckets for"):
        degree_report([run], n_buckets=5)


# ---------------------------------------------------------------------------
# random search

def test_search_samples_stay_in_domains():
    rng = make_rng(23, "space")
    base = quick_cfg(model="compatgnn", split_ids=[0])
    seen = {k: set() for k in SEARCH_SPACE}
    for _ in range(1000):
        cfg = sample_search_config(rng, base)
        d = cfg.to_dict()
        for key, domain in SEARCH_SPACE.items():
            if isinstance(domain, tuple):
                assert domain[1] <= d[key] <= domain[2]
            else:
                assert d[key] in domain
                seen[key].add(d[key])
    # every categorical value shows up across 1000 draws
    for key, domain in SEARCH_SPACE.items():
        if not isinstance(domain, tuple):
            assert seen[key] == set(domain)


def test_search_keeps_preset_lambda():
    # only compatgnn reads lambda; a preset search must not vary it
    rng = make_rng(24, "space")
    base = quick_cfg(model="gcn", split_ids=[0], lambda_=0.3)
    draws = [sample_search_config(rng, base).to_dict() for _ in range(50)]
    assert {d["lambda"] for d in draws} == {0.3}
    assert len({d["lr"] for d in draws}) > 1


def test_search_sampling_deterministic():
    base = quick_cfg(split_ids=[0])

    def draws(seed):
        rng = make_rng(seed, "s")
        return [sample_search_config(rng, base).to_dict() for _ in range(5)]

    assert draws(25) == draws(25)
    assert draws(25) != draws(26)


def test_random_search_runs_and_persists(toy, tmp_path):
    g, splits = toy
    base = quick_cfg(model="gcn", split_ids=[0], max_epochs=3, patience=3)
    out = tmp_path / "leaderboard.jsonl"
    best, records = random_search(g, splits, base, budget=2, seed=9,
                                  out_path=str(out))
    assert len(records) == 2
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    rec0 = json.loads(lines[0])
    assert rec0["trial"] == 0 and "mean_val_accuracy" in rec0
    scores = [r["mean_val_accuracy"] for r in records]
    assert best.to_dict() in [r["config"] for r in records]
    best_rec = max((r for r in records if not np.isnan(r["mean_val_accuracy"])),
                   key=lambda r: r["mean_val_accuracy"])
    assert best.to_dict() == best_rec["config"]
    assert max(scores) == best_rec["mean_val_accuracy"]

    _, records_again = random_search(g, splits, base, budget=2, seed=9)
    assert [r["config"] for r in records_again] == [r["config"] for r in records]


def test_random_search_budget_and_all_diverged(toy, monkeypatch):
    g, splits = toy
    base = quick_cfg(split_ids=[0])
    with pytest.raises(ConfigError, match="budget"):
        random_search(g, splits, base, budget=0, seed=1)

    import compatgnn.bench as bench_mod

    def all_diverged(*a, **kw):
        return BenchReport(config={}, split_ids=[0], accuracies=[],
                           mean_accuracy=float("nan"), std_accuracy=float("nan"),
                           formatted="n/a", ms_per_epoch=float("nan"),
                           degree_buckets={}, excluded_splits=[0],
                           runs=[{"val_curve": [], "diverged": True}])

    monkeypatch.setattr(bench_mod, "run_bench", all_diverged)
    with pytest.raises(ConfigError, match="every search trial diverged"):
        random_search(g, splits, base, budget=2, seed=1)


# ---------------------------------------------------------------------------
# heatmap artifacts

def test_cm_to_csv_six_decimals():
    got = cm_to_csv(np.array([[1.0, 0.0], [0.123456789, 1.0]]))
    assert got == "1.000000,0.000000\n0.123457,1.000000\n"


def test_cm_to_svg_structure():
    m = np.array([[1.0, 0.0], [0.25, 0.75]])
    svg = cm_to_svg(m, title="toy")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert svg == cm_to_svg(m, title="toy")
    assert ">1.000<" in svg and ">0.250<" in svg
    assert 'fill="rgb(255,255,255)"' in svg   # zero cell is white
    assert 'fill="rgb(30,80,170)"' in svg     # unit cell is the ramp end
    assert "toy" in svg


def test_cm_to_svg_escapes_title():
    title = "a<b & c"
    root = ET.fromstring(cm_to_svg(np.eye(2), title=title))
    assert title in [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]


def test_cm_to_svg_skips_annotations_for_large_k():
    m = np.full((13, 13), 1 / 13)
    svg = cm_to_svg(m)
    assert ">0.077<" not in svg
    rects = svg.count("<rect")
    assert rects == 13 * 13 + 1   # cells + background


# ---------------------------------------------------------------------------
# the traced benchmark wraps package functions by name

def test_perfbench_tracer_targets_exist():
    """Every function and method perfbench/spans.py wraps still exists, so
    a rename cannot break only the traced benchmark run."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{home.__name__}.{name}" for home, name, _ in spans.FUNCTIONS
               if not callable(getattr(home, name, None))]
    missing += [f"{cls.__name__}.{name}" for cls, name, _ in spans.METHODS
                if not callable(vars(cls).get(name))]
    missing += [f"{cls.__name__}.forward" for cls, _ in spans.FORWARDS
                if not callable(vars(cls).get("forward"))]
    assert not missing, f"perfbench/spans.py wraps missing targets: {missing}"


def test_perfbench_smoke_runs_every_workload(tmp_path):
    """`perfbench/run.py --smoke` runs each workload at toy size, traced and
    untraced, and checks its outputs. It runs in a copy of the tree, so its
    report does not replace the repository's .perfbench/out."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("src", "perfbench"):
        shutil.copytree(os.path.join(root, name), tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("smoke ")]
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
    assert len(lines) == 6 and all(l.endswith(" ok") for l in lines), proc.stdout

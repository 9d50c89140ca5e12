import json
import os
import shutil
import struct

import numpy as np
import pytest

from compatgnn import (ConfigError, DataError, NumericalError, TrainingDiverged,
                       knn_feature_graph, load_dataset, save_splits)
from compatgnn import cli, graph, mp
from compatgnn.cli import _build_config, _parse_split_ids, build_parser, main
from compatgnn.rng import make_rng


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A generated dataset directory with splits, via the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    path = str(root / "ds")
    code = main(["synth", "gen", "--nodes", "60", "--classes", "3",
                 "--homophily", "0.7", "--degree", "6", "--pattern", "hard",
                 "--mean-separation", "3.0", "--n-splits", "3",
                 "--seed", "1", "--out", path])
    assert code == 0
    return path


def run_quick(extra):
    """Common fast hyperparameters for train-ish commands."""
    return ["--model", "gcn", "--lr", "0.05", "--max-epochs", "4",
            "--patience", "4", "--nhidden", "8"] + extra


# ---------------------------------------------------------------------------
# argument plumbing

def test_parse_split_ids():
    assert _parse_split_ids("0-9") == list(range(10))
    assert _parse_split_ids("0,2,5") == [0, 2, 5]
    assert _parse_split_ids("3") == [3]
    with pytest.raises(ConfigError, match="bad split"):
        _parse_split_ids("a-b")
    with pytest.raises(ConfigError, match="bad split range '3-1'"):
        _parse_split_ids("0,3-1")
    with pytest.raises(ConfigError, match="no split ids"):
        _parse_split_ids(",")
    assert _parse_split_ids("0-2,1") == [0, 1, 2, 1]
    for text, repeated in (("0,0", r"\[0\]"), ("0-2,1", r"\[1\]"), ("3,1-3,1", r"\[1, 3\]")):
        args = build_parser().parse_args(["bench", "--splits", text])
        with pytest.raises(ConfigError, match=rf"split ids {repeated} repeat"):
            _build_config(args)


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "mixhop", "lr": 0.001,
                                    "lambda": 0.5, "seed": 42}))
    args = build_parser().parse_args(
        ["train", "--config", str(cfg_path), "--lr", "0.05"])
    cfg = _build_config(args)
    assert cfg.model == "mixhop"
    assert cfg.lr == 0.05          # flag wins over file
    assert cfg.lambda_ == 0.5
    assert cfg.seed == 42          # file seed kept when --seed left at default


def test_config_unknown_key_exit_code(tmp_path, dataset):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"learning_rate": 0.1}))
    code = main(["train", "--data", dataset, "--config", str(cfg_path)])
    assert code == 2


# ---------------------------------------------------------------------------
# dataset commands

def test_synth_gen_artifacts(dataset):
    for name in ("meta.json", "edges.tsv", "labels.tsv", "features.f32",
                 "verify.json", "splits/split_0.json", "splits/split_2.json"):
        assert os.path.exists(os.path.join(dataset, name)), name
    verify = json.load(open(os.path.join(dataset, "verify.json")))
    assert verify["n_nodes"] == 60
    assert abs(verify["mean_degree"] - 6) <= 1.0


def test_dataset_inspect(dataset, capsys, tmp_path):
    out = str(tmp_path / "ins")
    assert main(["dataset", "inspect", dataset, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "n_nodes" in printed and "60" in printed
    info = json.load(open(os.path.join(out, "inspect.json")))
    assert info["n_nodes"] == 60
    assert info["n_classes"] == 3
    assert 0.0 <= info["edge_homophily"] <= 1.0


def test_dataset_inspect_missing_path_is_data_error(tmp_path):
    assert main(["dataset", "inspect", str(tmp_path / "nope")]) == 3


def test_dataset_split_sizes(dataset, tmp_path, capsys):
    out = str(tmp_path / "sp")
    assert main(["dataset", "split", dataset, "--n-splits", "2",
                 "--seed", "5", "--out", out]) == 0
    payload = json.load(open(os.path.join(out, "split_0.json")))
    # 60 nodes: round(.48*60)=29 train, round(.32*60)=19 valid, 12 test
    assert (len(payload["train"]), len(payload["valid"]),
            len(payload["test"])) == (29, 19, 12)
    assert "29/19/12" in capsys.readouterr().out


def test_synth_gen_requires_out():
    assert main(["synth", "gen", "--nodes", "20"]) == 2


def test_failed_synth_gen_writes_nothing(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["synth", "gen", "--nodes", "5", "--out", str(out)]) == 3
    assert "10 nodes" in capsys.readouterr().err
    assert not out.exists()


def test_synth_gen_refuses_features_beyond_float32(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["synth", "gen", "--nodes", "20", "--out", str(out)]) == 0
    before = _tree(out)
    capsys.readouterr()
    assert main(["synth", "gen", "--nodes", "20", "--mean-separation", "1e39",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "not a finite float32 feature" in err[0]
    assert _tree(out) == before
    assert sorted(os.listdir(tmp_path)) == ["d"]     # no staging directory


def _tree(path):
    """Every file under path with its bytes."""
    return {os.path.relpath(os.path.join(d, f), path): open(os.path.join(d, f), "rb").read()
            for d, _, files in os.walk(path) for f in files}


@pytest.mark.parametrize("writer", ["compatgnn.graph.write_features_f32",
                                    "compatgnn.cli.save_splits"])
def test_failed_dataset_write_leaves_out_as_it_was(writer, tmp_path, monkeypatch, capsys):
    def gen(out, nodes):
        return main(["synth", "gen", "--nodes", nodes, "--degree", "4",
                     "--n-splits", "2", "--out", str(out)])

    def fail(*args, **kwargs):
        raise OSError("disk full")

    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    assert gen(kept, "30") == 0
    before = _tree(kept)
    monkeypatch.setattr(writer, fail)
    for out in (fresh, kept):
        assert gen(out, "40") == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "disk full" in err[0]
    assert sorted(os.listdir(tmp_path)) == ["kept"]     # no staging directory
    assert _tree(kept) == before


def _split_set(ds, n_splits, seed):
    return main(["dataset", "split", str(ds), "--n-splits", str(n_splits),
                 "--seed", str(seed)])


def test_dataset_split_replaces_the_whole_set(dataset, tmp_path):
    ds = tmp_path / "ds"
    shutil.copytree(dataset, ds)
    assert _split_set(ds, 10, 3) == 0
    assert _split_set(ds, 5, 7) == 0
    assert sorted(os.listdir(ds / "splits")) == [f"split_{i}.json" for i in range(5)]
    assert sorted(os.listdir(ds)) == sorted(os.listdir(dataset))


def _split_2_a_directory(ds, monkeypatch):
    os.remove(ds / "splits" / "split_2.json")
    (ds / "splits" / "split_2.json").mkdir()
    (ds / "splits" / "split_2.json" / "note").write_text("kept")


def _fail_after_writing(ds, monkeypatch):
    def save_then_fail(splits, path):
        save_splits({k: splits[k] for k in (0, 1)}, path)
        raise OSError("disk full")
    monkeypatch.setattr("compatgnn.cli.save_splits", save_then_fail)


def _fail_rename_into_place(ds, monkeypatch):
    rename = os.rename

    def refuse_new(src, dst):
        if os.path.basename(src) == "new":
            raise OSError("rename refused")
        rename(src, dst)
    monkeypatch.setattr(os, "rename", refuse_new)


@pytest.mark.parametrize("break_it", [_split_2_a_directory, _fail_after_writing,
                                      _fail_rename_into_place])
def test_failed_dataset_split_leaves_the_old_set(break_it, dataset, tmp_path,
                                                 monkeypatch, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(dataset, ds)
    assert _split_set(ds, 10, 3) == 0
    break_it(ds, monkeypatch)
    before, entries = _tree(ds), sorted(os.listdir(ds))
    capsys.readouterr()
    assert _split_set(ds, 5, 7) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    assert _tree(ds) == before
    assert sorted(os.listdir(ds)) == entries     # no staging directory


# ---------------------------------------------------------------------------
# training commands

def test_train_writes_run_json(dataset, tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["train", "--data", dataset, "--split", "0", "--out", out]
                + run_quick(["--model", "compatgnn", "--lambda", "0.1"]))
    assert code == 0
    assert "test" in capsys.readouterr().out
    run = json.load(open(os.path.join(out, "run.json")))
    assert run["split_id"] == 0
    assert np.asarray(run["metadata"]["cm_estimate"]).shape == (3, 3)
    assert len(run["val_curve"]) >= 1


@pytest.fixture
def counted_split_draws(dataset, tmp_path, monkeypatch):
    """A copy of the dataset without splits/, and the split ids drawn for
    it: every split stream make_rng opens in graph."""
    copy = tmp_path / "nosplits"
    shutil.copytree(dataset, copy)
    shutil.rmtree(copy / "splits")
    drawn = []

    def counting(seed, *tags):
        if tags[:1] == ("split",):
            drawn.append(tags[1])
        return make_rng(seed, *tags)
    monkeypatch.setattr(graph, "make_rng", counting)
    return str(copy), drawn


def test_train_without_splits_draws_only_the_requested_split(counted_split_draws,
                                                             monkeypatch):
    ds, drawn = counted_split_draws
    trained, train_model = [], cli.train_model
    monkeypatch.setattr(cli, "train_model", lambda g, split, *a, **k:
                        trained.append(split) or train_model(g, split, *a, **k))
    assert main(["train", "--data", ds, "--split", "100000", "--seed", "3"]
                + run_quick([])) == 0
    assert drawn == [100000] and len(trained) == 1
    s = trained[0]
    np.testing.assert_array_equal(np.concatenate([s.train, s.valid, s.test]),
                                  make_rng(3, "split", 100000).permutation(60))


def test_bench_without_splits_draws_each_requested_split_once(counted_split_draws):
    ds, drawn = counted_split_draws
    assert main(["bench", "--data", ds, "--splits", "0,7"] + run_quick([])) == 0
    assert sorted(drawn) == [0, 7]


@pytest.fixture
def gapped_splits(dataset, tmp_path):
    """A copy of the 3-split dataset without splits/split_1.json."""
    copy = tmp_path / "gapped"
    shutil.copytree(dataset, copy)
    os.remove(copy / "splits" / "split_1.json")
    return str(copy)


def test_train_reads_a_split_by_the_id_in_its_file_name(gapped_splits, tmp_path,
                                                        capsys):
    out = str(tmp_path / "run")
    assert main(["train", "--data", gapped_splits, "--split", "2", "--out", out]
                + run_quick([])) == 0
    run = json.load(open(os.path.join(out, "run.json")))
    stored = json.load(open(os.path.join(gapped_splits, "splits", "split_2.json")))
    assert run["split_id"] == 2 and run["test_idx"] == stored["test"]
    capsys.readouterr()
    assert main(["train", "--data", gapped_splits, "--split", "1"]
                + run_quick([])) == 2
    assert capsys.readouterr().err == (
        "config error: split id 1 is not among the available split ids [0, 2]\n")


def test_train_refuses_several_configured_split_ids_unless_split_picks_one(
        dataset, tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", json.dumps({"split_ids": [0, 1, 2]}))
    argv = ["train", "--data", dataset, "--config", cfg] + run_quick([])
    assert main(argv + ["--out", str(tmp_path / "all")]) == 2
    err = capsys.readouterr().err
    assert "[0, 1, 2]" in err and "--split" in err and "bench" in err
    assert not (tmp_path / "all").exists()
    assert main(argv + ["--split", "2", "--out", str(tmp_path / "run")]) == 0
    assert json.load(open(tmp_path / "run" / "run.json"))["split_id"] == 2


def test_train_unknown_model_exit_code(dataset):
    assert main(["train", "--data", dataset, "--model", "resnet"]) == 2


def test_train_divergence_exit_code(dataset, tmp_path):
    out = str(tmp_path / "div")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--data", dataset, "--model", "compatgnn",
                     "--lr", "1e80", "--max-epochs", "5", "--nhidden", "4",
                     "--out", out])
    assert code == 4
    partial = json.load(open(os.path.join(out, "run.json")))
    assert partial["diverged"] is True


@pytest.mark.parametrize("error, code, label", [
    (ConfigError, 2, "config error"), (DataError, 3, "data error"),
    (NumericalError, 4, "numerical failure"),
    (TrainingDiverged, 4, "numerical failure")])
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, error, code, label):
    def fail(args):
        raise error("boom")
    monkeypatch.setattr("compatgnn.cli.cmd_train", fail)
    assert main(["train"]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"{label}: boom\n"


def test_bench_and_degree_report(dataset, tmp_path, capsys):
    out = str(tmp_path / "bench")
    code = main(["bench", "--data", dataset, "--splits", "0-2", "--out", out]
                + run_quick([]))
    assert code == 0
    table = capsys.readouterr().out
    assert "accuracy" in table and "±" in table
    report = json.load(open(os.path.join(out, "bench.json")))
    assert report["split_ids"] == [0, 1, 2]
    assert len(report["accuracies"]) == 3

    rout = str(tmp_path / "deg")
    code = main(["degree-report", "--runs", out, "--buckets", "3",
                 "--out", rout])
    assert code == 0
    printed = capsys.readouterr().out
    assert "bucket 0" in printed
    deg = json.load(open(os.path.join(rout, "degree_report.json")))
    assert deg["n_buckets"] == 3
    assert sum(deg["sizes"]) == 12


def test_degree_report_missing_runs_dir_exit_code(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["degree-report", "--runs", str(empty)]) == 3


def test_search_cli(dataset, tmp_path, capsys):
    out = str(tmp_path / "search")
    code = main(["search", "--data", dataset, "--splits", "0",
                 "--budget", "2", "--seed", "3", "--out", out]
                + ["--max-epochs", "3", "--patience", "3"])
    assert code == 0
    assert "best mean val accuracy" in capsys.readouterr().out
    lines = open(os.path.join(out, "leaderboard.jsonl")).read().strip().split("\n")
    assert len(lines) == 2
    best = json.load(open(os.path.join(out, "best_config.json")))
    assert best["lr"] in (0.001, 0.005, 0.01, 0.05)


def _read_csv(path):
    return np.array([[float(v) for v in row.split(",")]
                     for row in open(path).read().strip().split("\n")])


def test_cm_observed_and_knn(dataset, tmp_path, capsys):
    out = str(tmp_path / "cm")
    assert main(["cm", "--data", dataset, "--mode", "observed",
                 "--out", out]) == 0
    m = _read_csv(os.path.join(out, "cm_observed.csv"))
    assert m.shape == (3, 3)
    np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-5)
    assert os.path.exists(os.path.join(out, "cm_observed.svg"))

    assert main(["cm", "--data", dataset, "--mode", "knn", "--knn-k", "4",
                 "--out", out]) == 0
    # dense oracle over the kNN indicator A and one-hot labels C:
    # rownorm(C^T rownorm(A C))
    g = load_dataset(dataset)
    a = knn_feature_graph(g, 4).toarray()
    c = g.onehot_labels()
    nb = a @ c
    nb /= nb.sum(axis=1, keepdims=True)
    expect = c.T @ nb
    expect /= expect.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(_read_csv(os.path.join(out, "cm_knn.csv")),
                               expect, rtol=0, atol=5e-7)
    assert os.path.exists(os.path.join(out, "cm_knn.svg"))
    capsys.readouterr()


def test_cm_estimated_mode(dataset, tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert main(["train", "--data", dataset, "--split", "0", "--out", run_dir]
                + run_quick(["--model", "compatgnn"])) == 0
    out = str(tmp_path / "cm")
    code = main(["cm", "--data", dataset, "--mode", "estimated",
                 "--run", os.path.join(run_dir, "run.json"), "--out", out])
    assert code == 0
    assert "max |estimated - observed|" in capsys.readouterr().out
    for name in ("cm_estimated.csv", "cm_estimated.svg", "cm_observed.csv",
                 "cm_compare.json"):
        assert os.path.exists(os.path.join(out, name)), name
    cmp_ = json.load(open(os.path.join(out, "cm_compare.json")))
    assert 0.0 <= cmp_["max_abs_diff"] <= 1.0


def test_cm_estimated_requires_run(dataset, tmp_path):
    assert main(["cm", "--data", dataset, "--mode", "estimated",
                 "--out", str(tmp_path / "x")]) == 2


def test_cm_requires_out(dataset):
    assert main(["cm", "--data", dataset]) == 2


def test_all_splits_diverged_bench_exit_code(dataset):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["bench", "--data", dataset, "--splits", "0,1",
                     "--model", "compatgnn", "--lr", "1e80",
                     "--max-epochs", "4", "--nhidden", "4"])
    assert code == 4


# ---------------------------------------------------------------------------
# bad inputs end in their exit codes, with one line on stderr

def _dir_without_edges(tmp, ds):
    bad = tmp / "no_edges"
    bad.mkdir()
    (bad / "meta.json").write_text(open(os.path.join(ds, "meta.json")).read())
    return ["dataset", "inspect", str(bad)]


def _write(tmp, name, text):
    path = tmp / name
    path.write_text(text)
    return str(path)


def _run_record(**fields):
    record = dict(config={}, seed=0, split_id=0, best_epoch=0, val_curve=[],
                  loss_curve=[], test_accuracy=0.0, epoch_ms=[],
                  refresh_epochs=[], test_idx=[], test_predictions=[],
                  test_degrees=[])
    record.update(fields)
    return record


def _train_with_spec_text(text):
    return lambda tmp, ds: ["train", "--data", ds, "--model",
                            _write(tmp, "spec.json", text)]


def _train_with_spec(channel, **fields):
    return _train_with_spec_text(json.dumps(
        dict({"layers": [{"channels": [channel]}]}, **fields)))


def _train_with_layer(**fields):
    channel = {"indicator": "raw", "guidance": "deg_avg_sym"}
    return _train_with_spec_text(json.dumps(
        {"layers": [dict({"channels": [channel]}, **fields)]}))


def _train_with_config(config):
    return lambda tmp, ds: ["train", "--data", ds, "--model", "gcn",
                            "--max-epochs", "1", "--config",
                            _write(tmp, "cfg.json", json.dumps(config))]


def _inspect_with_meta(**fields):
    def make_argv(tmp, ds):
        copy = tmp / "ds"
        shutil.copytree(ds, copy)
        meta = json.loads((copy / "meta.json").read_text())
        (copy / "meta.json").write_text(json.dumps(dict(meta, **fields)))
        return ["dataset", "inspect", str(copy)]
    return make_argv


def _degree_report_on(**fields):
    return lambda tmp, ds: ["degree-report", "--runs", _write(
        tmp, "run.json", json.dumps(_run_record(**fields)))]


def _split_out_of_range(tmp, ds):
    copy = tmp / "ds"
    shutil.copytree(ds, copy)
    (copy / "splits" / "split_0.json").write_text(json.dumps(
        {"train": [0, 60], "valid": [1], "test": [2]}))
    return ["train", "--data", str(copy), "--split", "0"] + run_quick([])


def _train_on_split_file(payload):
    def make_argv(tmp, ds):
        copy = tmp / "ds"
        shutil.copytree(ds, copy)
        (copy / "splits" / "split_0.json").write_text(json.dumps(payload))
        return ["train", "--data", str(copy), "--split", "0"] + run_quick([])
    return make_argv


def _bench_after_regenerating_with_fewer_splits(tmp, ds):
    out = str(tmp / "regen")
    for nodes, n_splits in (("50", "4"), ("20", "2")):
        assert main(["synth", "gen", "--nodes", nodes, "--degree", "4",
                     "--n-splits", n_splits, "--out", out]) == 0
    assert sorted(os.listdir(os.path.join(out, "splits"))) == [
        "split_0.json", "split_1.json"]
    return ["bench", "--data", out, "--splits", "0-3"] + run_quick([])


def _inspect_with_line(name, line_no, text):
    """dataset inspect on a copy whose `name` has line `line_no` replaced."""
    def make_argv(tmp, ds):
        copy = tmp / "ds"
        shutil.copytree(ds, copy)
        lines = (copy / name).read_text().splitlines()
        lines[line_no - 1] = text
        (copy / name).write_text("\n".join(lines) + "\n")
        return ["dataset", "inspect", str(copy)]
    return make_argv


def _inspect_with_f32_header(rows, cols):
    """dataset inspect on a copy whose features.f32 header is rewritten."""
    def make_argv(tmp, ds):
        copy = tmp / "ds"
        shutil.copytree(ds, copy)
        raw = (copy / "features.f32").read_bytes()
        (copy / "features.f32").write_bytes(
            raw[:4] + struct.pack("<QQ", rows, cols) + raw[20:])
        return ["dataset", "inspect", str(copy)]
    return make_argv


def _synth_gen_over_other_files(tmp, ds):
    _write(tmp, "notes.txt", "keep")
    return ["synth", "gen", "--nodes", "20", "--out", str(tmp)]


def _seed_flag_over_config(tmp, ds):
    cfg = _write(tmp, "cfg.json", json.dumps({"seed": 5}))
    return (["train", "--data", ds, "--config", cfg, "--seed", "0",
             "--out", str(tmp / "run")] + run_quick(["--max-epochs", "1"]))


def _train_missing_data_with(flag, value):
    """compatgnn training on a missing dataset: a bad value exits before the read."""
    return lambda tmp, ds: (["train", "--data", str(tmp / "missing")]
                            + run_quick(["--model", "compatgnn", flag, value]))


def _synth_gen_with(flag, value):
    return lambda tmp, ds: ["synth", "gen", "--nodes", "20", flag, value,
                            "--out", str(tmp / "d")]


def _f32_feature_set(node, col, value):
    """A change for _on_copy: features.f32 with one entry set to value."""
    def change(copy):
        raw = bytearray((copy / "features.f32").read_bytes())
        rows, cols = struct.unpack("<QQ", raw[4:20])
        offset = 20 + 4 * (node * cols + col)
        raw[offset:offset + 4] = struct.pack("<f", value)
        (copy / "features.f32").write_bytes(bytes(raw))
    return change


def _features_as_tsv_with(node, col, text):
    """A change for _on_copy: the features as features.tsv, one entry
    replaced by text."""
    def change(copy):
        x = graph.read_features_f32(copy / "features.f32").astype(str)
        x[node, col] = text
        (copy / "features.f32").unlink()
        (copy / "features.tsv").write_text("".join("\t".join(r) + "\n" for r in x))
    return change


def _on_copy(change, command="train"):
    """`dataset inspect`, `train` or `bench` on a copy of the dataset that
    change(copy) edited."""
    def make_argv(tmp, ds):
        copy = tmp / "ds"
        shutil.copytree(ds, copy)
        change(copy)
        if command == "inspect":
            return ["dataset", "inspect", str(copy)]
        if command == "bench":
            return ["bench", "--data", str(copy), "--splits", "0"] + run_quick([])
        return ["train", "--data", str(copy), "--split", "0"] + run_quick([])
    return make_argv


def _append_non_utf8(name):
    def change(copy):
        with open(copy / name, "ab") as fh:
            fh.write(b"\xff")
    return change


def _into_directory(name):
    def change(copy):
        (copy / name).unlink()
        (copy / name).mkdir()
    return change


def _degree_report_on_a_directory(tmp, ds):
    (tmp / "bench" / "run_split0.json").mkdir(parents=True)
    return ["degree-report", "--runs", str(tmp / "bench")]


def _config_directory(tmp, ds):
    (tmp / "cfg.json").mkdir()
    return ["train", "--data", ds, "--config", str(tmp / "cfg.json")] + run_quick([])


def _spec_directory(tmp, ds):
    (tmp / "spec.json").mkdir()
    return ["train", "--data", ds, "--model", str(tmp / "spec.json")]


def _config_non_utf8(tmp, ds):
    (tmp / "cfg.json").write_bytes(b'{"lr": 0.01\xff}')
    return ["train", "--data", ds, "--config", str(tmp / "cfg.json")] + run_quick([])


def _empty_f32_of_header(rows, cols):
    def change(copy):
        raw = (copy / "features.f32").read_bytes()
        (copy / "features.f32").write_bytes(raw[:4] + struct.pack("<QQ", rows, cols))
    return change


def _split_part(part, ids):
    def change(copy):
        path = copy / "splits" / "split_0.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), **{part: ids})))
    return change


BAD_INPUTS = [
    ("inspect_without_edges", _dir_without_edges, 3),
    ("degree_report_bad_json", lambda tmp, ds: [
        "degree-report", "--runs", _write(tmp, "run.json", "{not json")], 3),
    ("degree_report_unknown_keys", lambda tmp, ds: [
        "degree-report", "--runs",
        _write(tmp, "run.json", json.dumps({"bogus": 1}))], 3),
    ("cm_estimated_missing_run", lambda tmp, ds: [
        "cm", "--data", ds, "--mode", "estimated",
        "--run", str(tmp / "missing.json"), "--out", str(tmp / "cm")], 3),
    ("cm_estimated_ragged_matrix", lambda tmp, ds: [
        "cm", "--data", ds, "--mode", "estimated", "--out", str(tmp / "cm"),
        "--run", _write(tmp, "run.json", json.dumps(_run_record(
            metadata={"cm_estimate": [[1.0, 0.0, 0.0], [0.0, 1.0]]})))], 3),
    ("cm_estimated_metadata_not_object", lambda tmp, ds: [
        "cm", "--data", ds, "--mode", "estimated", "--out", str(tmp / "cm"),
        "--run", _write(tmp, "run.json", json.dumps(_run_record(metadata=[])))], 3),
    ("degree_report_test_idx_not_list", _degree_report_on(test_idx=5), 3),
    ("degree_report_predictions_not_list",
     _degree_report_on(test_predictions="abc"), 3),
    ("degree_report_diverged_not_bool", _degree_report_on(diverged="no"), 3),
    ("split_names_node_outside_graph", _split_out_of_range, 3),
    ("split_not_object", _train_on_split_file(5), 3),
    ("split_part_not_list", _train_on_split_file(
        {"train": 5, "valid": [1], "test": [2]}), 3),
    ("split_non_integer_entry", _train_on_split_file(
        {"train": ["a"], "valid": [1], "test": [2]}), 3),
    ("split_fractional_entry", _train_on_split_file(
        {"train": [0.5], "valid": [1], "test": [2]}), 3),
    ("split_boolean_entry", _train_on_split_file(
        {"train": [True], "valid": [1], "test": [2]}), 3),
    ("split_unknown_key", _train_on_split_file(
        {"train": [0], "valid": [1], "test": [2], "extra": [3]}), 3),
    ("degree_report_ragged_record", lambda tmp, ds: _degree_report_on(
        test_idx=[0, 1, 2], test_degrees=[1, 2, 3], test_labels=[0, 1, 0],
        test_predictions=[0])(tmp, ds) + ["--buckets", "1"], 3),
    ("bench_split_ids_beyond_regenerated_splits",
     _bench_after_regenerating_with_fewer_splits, 2),
    ("spec_unknown_key", _train_with_spec(
        {"indicator": "raw", "guidance": "deg_avg_sym"}, hidden_dims=8), 2),
    ("spec_hidden_dim_string", _train_with_spec(
        {"indicator": "raw", "guidance": "deg_avg_sym"}, hidden_dim="64"), 2),
    ("spec_channel_k_string", _train_with_spec(
        {"indicator": "khop", "guidance": "deg_avg_sym", "k": "2"}), 2),
    ("spec_not_json", _train_with_spec_text("{nope"), 2),
    ("spec_weight_group", _train_with_spec(
        {"indicator": "raw", "guidance": "deg_avg_sym", "weight": "g"}), 2),
    ("spec_weighted_add", _train_with_layer(combine="weighted_add"), 2),
    ("spec_combine_weights_key", _train_with_layer(combine_weights=[1.0]), 2),
    ("config_lr_string", _train_with_config({"lr": "x"}), 2),
    ("config_split_ids_not_list", _train_with_config({"split_ids": 5}), 2),
    ("train_several_config_split_ids", _train_with_config({"split_ids": [0, 1, 2]}), 2),
    ("meta_n_nodes_string", _inspect_with_meta(n_nodes="sixty"), 3),
    ("meta_directed_string", _inspect_with_meta(directed="false"), 3),
    ("train_negative_split", lambda tmp, ds: [
        "train", "--data", ds, "--split", "-1"] + run_quick([]), 2),
    ("train_zero_layers_before_the_data", lambda tmp, ds: [
        "train", "--data", str(tmp / "missing")] + run_quick(["--layers", "0"]), 2),
    ("labels_int64_overflow",
     _inspect_with_line("labels.tsv", 4, "99999999999999999999"), 3),
    ("edges_int64_overflow",
     _inspect_with_line("edges.tsv", 2, "0\t-99999999999999999999"), 3),
    ("features_f32_header_past_ssize_t", _inspect_with_f32_header(2**40, 2**40), 3),
    ("features_f32_cols_past_ssize_t", _inspect_with_f32_header(40, 2**60), 3),
    ("synth_gen_out_not_a_dataset", _synth_gen_over_other_files, 2),
    ("seed_zero_overrides_config", _seed_flag_over_config, 0),
    ("split_zero_splits", lambda tmp, ds: [
        "dataset", "split", ds, "--n-splits", "0", "--out", str(tmp / "sp")], 2),
    ("split_negative_splits", lambda tmp, ds: [
        "dataset", "split", ds, "--n-splits", "-3", "--out", str(tmp / "sp")], 2),
    ("synth_gen_zero_splits", lambda tmp, ds: [
        "synth", "gen", "--nodes", "20", "--n-splits", "0", "--out", str(tmp / "d")], 2),
    ("degree_report_zero_buckets", lambda tmp, ds: _degree_report_on()(tmp, ds)
     + ["--buckets", "0"], 2),
    ("cm_knn_zero_k", lambda tmp, ds: [
        "cm", "--data", ds, "--mode", "knn", "--knn-k", "0", "--out", str(tmp / "cm")], 2),
    ("search_zero_budget", lambda tmp, ds: [
        "search", "--data", ds, "--budget", "0"] + run_quick([]), 2),
    *[(f"train_{flag[2:]}_{value}_before_the_data", _train_missing_data_with(flag, value), 2)
      for flag, value in (("--lr", "nan"), ("--lr", "inf"), ("--weight-decay", "nan"),
                          ("--lambda", "nan"), ("--lambda", "inf"))],
    ("synth_gen_zero_nodes", _synth_gen_with("--nodes", "0"), 2),
    ("synth_gen_degree_nan", _synth_gen_with("--degree", "nan"), 2),
    ("synth_gen_degree_inf", _synth_gen_with("--degree", "inf"), 2),
    ("synth_gen_negative_feature_dim", _synth_gen_with("--feature-dim", "-3"), 2),
    ("synth_gen_zero_classes", _synth_gen_with("--classes", "0"), 2),
    ("synth_gen_mean_separation_nan", _synth_gen_with("--mean-separation", "nan"), 2),
    ("synth_gen_mean_separation_inf", _synth_gen_with("--mean-separation", "inf"), 2),
    ("synth_gen_features_beyond_float32", _synth_gen_with("--mean-separation", "1e39"), 3),
    ("features_f32_nan_train", _on_copy(_f32_feature_set(3, 1, np.nan)), 3),
    ("features_tsv_inf_inspect", _on_copy(_features_as_tsv_with(2, 0, "-inf"), "inspect"), 3),
    ("bench_reversed_split_range", lambda tmp, ds: [
        "bench", "--data", ds, "--splits", "0,3-1"] + run_quick([]), 2),
    ("bench_repeated_split_id", lambda tmp, ds: [
        "bench", "--data", ds, "--splits", "0,0"] + run_quick([]), 2),
    ("bench_overlapping_split_ranges", lambda tmp, ds: [
        "bench", "--data", ds, "--splits", "0-2,1"] + run_quick([]), 2),
    ("bench_split_ids_repeated_in_config_file", lambda tmp, ds: [
        "bench", "--data", ds, "--config",
        _write(tmp, "cfg.json", json.dumps({"split_ids": [1, 0, 1]}))] + run_quick([]), 2),
    # unreadable files: a byte that is not UTF-8, a directory in a file's place
    *[(f"{name.split('.')[0]}_non_utf8_{command}",
       _on_copy(_append_non_utf8(name), command), 3)
      for name in ("edges.tsv", "labels.tsv", "meta.json")
      for command in ("inspect", "train")],
    ("split_non_utf8", _on_copy(_append_non_utf8("splits/split_0.json")), 3),
    *[(f"{name.split('/')[-1].split('.')[0]}_is_a_directory",
       _on_copy(_into_directory(name)), 3)
      for name in ("edges.tsv", "meta.json", "features.f32", "splits/split_0.json")],
    ("degree_report_run_is_a_directory", _degree_report_on_a_directory, 3),
    ("config_is_a_directory", _config_directory, 2),
    ("config_non_utf8", _config_non_utf8, 2),
    ("config_nested_past_the_recursion_limit", lambda tmp, ds: [
        "train", "--data", ds, "--config", _write(tmp, "cfg.json", "[" * 100000)], 2),
    ("spec_is_a_directory", _spec_directory, 2),
    ("features_f32_empty_past_numpy_dimensions",
     _on_copy(_empty_f32_of_header(2**64 - 1, 0), "inspect"), 3),
    ("meta_more_classes_than_nodes", _inspect_with_meta(n_classes=2**64), 3),
    # split files that cannot drive the protocol
    ("split_id_past_int64", _on_copy(_split_part("train", [0, 2**64])), 3),
    *[(f"split_{part}_empty", _on_copy(_split_part(part, [])), 3)
      for part in ("train", "valid", "test")],
    ("split_test_empty_bench", _on_copy(_split_part("test", []), "bench"), 3),
    # models too large to build
    ("train_nhidden_2_64", lambda tmp, ds: [
        "train", "--data", ds] + run_quick(["--nhidden", str(2**64)]), 2),
    ("oversized_nhidden_in_config", lambda tmp, ds: _train_with_config(
        {"nhidden": 2**64})(tmp, ds), 2),
    ("spec_hidden_dim_2_64", _train_with_spec(
        {"indicator": "raw", "guidance": "deg_avg_sym"}, hidden_dim=2**64), 2),
]


@pytest.mark.parametrize("name, make_argv, code", BAD_INPUTS,
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_inputs_exit_codes(name, make_argv, code, dataset, tmp_path, capsys):
    assert main(make_argv(tmp_path, dataset)) == code
    err = capsys.readouterr().err
    if code:
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        if name.startswith(("spec_", "config_")):
            file = "spec.json" if name.startswith("spec_") else "cfg.json"
            assert str(tmp_path / file) in err
    else:
        assert json.load(open(tmp_path / "run" / "run.json"))["seed"] == 0


@pytest.mark.parametrize("source", ["flag", "config"])
def test_layers_2_64_exit_2_before_a_layer_is_built(source, dataset, tmp_path,
                                                      monkeypatch, capsys):
    # without the layer bound, build_preset would build a 2**64-element list
    def layer_spec(*args, **kwargs):
        raise AssertionError("a layer was built")
    monkeypatch.setattr(mp, "LayerSpec", layer_spec)
    argv = (run_quick(["--layers", str(2**64)]) if source == "flag" else
            ["--config", _write(tmp_path, "cfg.json", json.dumps({"layers": 2**64}))])
    assert main(["train", "--data", dataset] + argv) == 2
    assert f"at most {mp.MAX_LAYERS} layers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dataset", "inspect", "DS", "--seed", "1"],
    ["dataset", "inspect", "DS", "--config", "cfg.json"],
    ["dataset", "split", "DS", "--config", "cfg.json"],
    ["synth", "gen", "--config", "cfg.json"],
    ["degree-report", "--runs", "DS", "--seed", "1"],
    ["degree-report", "--runs", "DS", "--config", "cfg.json"],
    ["cm", "--data", "DS", "--seed", "1"],
    ["cm", "--data", "DS", "--config", "cfg.json"],
], ids=lambda argv: "-".join(a for a in argv if a not in ("DS", "1", "cfg.json")))
def test_subcommands_reject_flags_they_do_not_read(argv, dataset, tmp_path, capsys):
    argv = [dataset if a == "DS" else a for a in argv] + ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "unrecognized arguments" in err[0]
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# model-spec files: every rule ends in exit 2 with one line naming the file

RAW = {"indicator": "raw", "guidance": "deg_avg_row"}
SELF = {"indicator": "identity", "guidance": "identity"}
CAT = {"channels": [RAW, SELF], "combine": "cat"}


def _spec(*layers, **fields):
    return dict({"layers": list(layers)}, hidden_dim=8, **fields)


SPEC_RULES = [
    ("unknown_indicator", _spec({"channels": [dict(RAW, indicator="full")]}), [],
     "unknown indicator 'full'"),
    ("unknown_weight", _spec({"channels": [dict(RAW, weight="shared")]}), [],
     "unknown weight 'shared'"),
    ("raw_identity", _spec({"channels": [dict(RAW, guidance="identity")]}), [],
     "indicator 'raw' pairs only with"),
    ("identity_deg_avg_row", _spec({"channels": [dict(SELF, guidance="deg_avg_row")]}),
     [], "indicator 'identity' pairs only with"),
    ("raw_constant", _spec({"channels": [dict(RAW, guidance="constant")]}), [],
     "indicator 'raw' pairs only with"),
    ("supplementary_in_plain_model", _spec({"channels": [
        {"indicator": "supplementary", "guidance": "constant"}]}), [], "prototype"),
    ("khop_k1", _spec({"channels": [dict(RAW, indicator="khop", k=1)]}), [],
     "needs k >= 2"),
    ("unequal_add_widths", _spec(CAT, {"channels": [RAW, dict(SELF, weight="identity")]}),
     [], "equal channel widths, got [8, 16]"),
    ("ada_add_fuse_unequal_widths", _spec(CAT, fuse="ada_add"), [],
     "equal layer widths, got [8, 16]"),
    ("preset_flags", _spec({"channels": [RAW]}),
     ["--dropout", "0.5", "--layers", "7", "--nhidden", "3", "--relu-variant", "1",
      "--structure-info", "1"],
     "ignore layers, nhidden, dropout, relu_variant, structure_info"),
]


@pytest.mark.parametrize("spec, flags, problem", [rule[1:] for rule in SPEC_RULES],
                         ids=[rule[0] for rule in SPEC_RULES])
def test_spec_file_rule_exits_2_naming_the_file(spec, flags, problem, dataset,
                                                tmp_path, capsys):
    path = _write(tmp_path, "f.json", json.dumps(spec))
    out = tmp_path / "run"
    argv = ["train", "--data", dataset, "--model", path, "--max-epochs", "2",
            "--out", str(out)]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and path in err[0] and problem in err[0], err
    assert not out.exists()


def test_exploding_khop_spec_exits_2_naming_the_file(dataset, tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr("compatgnn.sparse.KHOP_MAX_NNZ", 10)
    spec = _spec({"channels": [dict(RAW, indicator="khop", guidance="deg_avg_sym", k=3)]})
    path = _write(tmp_path, "f.json", json.dumps(spec))
    out = tmp_path / "run"
    assert main(["train", "--data", dataset, "--model", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and path in err[0] and "khop k=3: hop 2 projects to" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("preset", ["h2gcn", "mixhop"])
def test_exploding_khop_preset_exits_2_naming_the_graph(preset, dataset, tmp_path,
                                                        capsys, monkeypatch):
    # the preset fixes k = 2, the least k: the graph, not k, is too large
    monkeypatch.setattr("compatgnn.sparse.KHOP_MAX_NNZ", 10)
    out = tmp_path / "run"
    assert main(["train", "--data", dataset, "--model", preset, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "khop k=2: hop 2 projects to" in err[0], err
    assert "a graph of 60 nodes and" in err[0] and "too large for any k-hop" in err[0]
    assert "smaller k" not in err[0] and "use k" not in err[0]
    assert not out.exists()


def test_search_over_a_spec_file_keeps_its_model(dataset, tmp_path, capsys):
    path = _write(tmp_path, "f.json", json.dumps(_spec({"channels": [RAW]})))
    out = tmp_path / "search"
    assert main(["search", "--data", dataset, "--model", path, "--budget", "2",
                 "--max-epochs", "3", "--patience", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    for line in (out / "leaderboard.jsonl").read_text().splitlines():
        config = json.loads(line)["config"]
        assert (config["layers"], config["nhidden"], config["dropout"],
                config["relu_variant"], config["structure_info"]) == (
                    2, 64, 0.0, None, False)

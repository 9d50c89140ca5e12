import json
import os
import shutil
import warnings

import numpy as np
import pytest

from compatgnn import (DataError, Graph, generate_splits, load_dataset,
                       load_split, load_splits, permute_graph, save_dataset,
                       save_splits)
from compatgnn.graph import (_edges_to_csr, _read_tsv_ints, generate_split,
                             read_features_f32, write_features_f32)

from util import make_graph, path4, random_graph
from compatgnn.rng import make_rng


def write_dataset(tmp_path, n=3, edges="0\t1\n1\t2\n", labels="0\n0\n1\n",
                  features="1.0\t0.0\n0.0\t1.0\n1.0\t1.0\n", n_classes=2,
                  d_f=2, directed=False, meta_extra=None):
    meta = {"name": "toy", "n_nodes": n, "n_classes": n_classes, "d_f": d_f,
            "directed": directed}
    if meta_extra:
        meta.update(meta_extra)
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    (tmp_path / "edges.tsv").write_text(edges)
    (tmp_path / "labels.tsv").write_text(labels)
    (tmp_path / "features.tsv").write_text(features)
    return tmp_path


def test_load_path_graph(tmp_path):
    g = load_dataset(write_dataset(tmp_path))
    assert g.n_nodes == 3
    assert g.n_edges == 2
    assert g.n_classes == 2
    assert not g.directed
    # symmetrized storage: node 1 sees both endpoints
    assert sorted(g.neighbors(1).tolist()) == [0, 2]
    np.testing.assert_allclose(g.features[2], [1.0, 1.0])


def test_load_rejects_malformed_edge_line(tmp_path):
    path = write_dataset(tmp_path, edges="0\t1\nbroken\n")
    with pytest.raises(DataError, match="edges.tsv:2"):
        load_dataset(path)


def test_load_reads_blank_lines_and_space_separated_fields(tmp_path):
    path = write_dataset(tmp_path, edges="\n0 1\n\n1\t2\n  \n",
                         labels="0\n\n0\n1\n")
    g = load_dataset(path)
    assert g.n_edges == 2 and g.labels.tolist() == [0, 0, 1]
    assert sorted(g.neighbors(1).tolist()) == [0, 2]


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_read_tsv_ints_empty_file_is_zero_rows(tmp_path, text):
    path = tmp_path / "edges.tsv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _read_tsv_ints(str(path), 2)
    assert rows.shape == (0, 2) and rows.dtype == np.int64


@pytest.mark.parametrize("bad, problem", [
    ("7\t8\t9", "expected 2 fields, got 3"), ("7", "expected 2 fields, got 1"),
    ("7\tx", "non-integer field"), ("7\t1.5", "non-integer field")])
def test_read_tsv_ints_names_a_bad_line_deep_in_a_long_file(tmp_path, bad,
                                                            problem):
    lines = [f"{i}\t{i + 1}" for i in range(5000)]
    lines[4321] = bad
    path = tmp_path / "edges.tsv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"edges.tsv:4322: {problem}"):
        _read_tsv_ints(str(path), 2)
    lines[4321] = "7\t8"
    path.write_text("\n".join(lines) + "\n")
    assert _read_tsv_ints(str(path), 2)[4321].tolist() == [7, 8]


def test_load_rejects_label_out_of_range(tmp_path):
    path = write_dataset(tmp_path, labels="0\n0\n5\n")
    with pytest.raises(DataError, match="label 5"):
        load_dataset(path)


def test_load_rejects_feature_shape_mismatch(tmp_path):
    path = write_dataset(tmp_path, features="1.0\t0.0\n0.0\t1.0\n")
    with pytest.raises(DataError, match="features shape"):
        load_dataset(path)


def test_load_rejects_edge_endpoint_out_of_range(tmp_path):
    path = write_dataset(tmp_path, edges="0\t9\n")
    with pytest.raises(DataError, match="endpoint"):
        load_dataset(path)


def test_features_f32_round_trip(tmp_path):
    x = make_rng(0, "x").normal(size=(5, 3)).astype(np.float32).astype(np.float64)
    p = tmp_path / "features.f32"
    write_features_f32(p, x)
    np.testing.assert_array_equal(read_features_f32(p), x)
    raw = p.read_bytes()
    assert raw[:4] == b"GF32"
    assert int.from_bytes(raw[4:12], "little") == 5
    assert int.from_bytes(raw[12:20], "little") == 3


def test_save_dataset_refuses_features_float32_cannot_hold(tmp_path):
    x = make_rng(3, "x").normal(size=(30, 4))
    top = float(np.finfo(np.float32).max)
    x[2, 1], x[4, 0] = top, -top
    save_dataset(make_graph(30, [(0, 1)], [0] * 30, 2, features=x.copy()),
                 tmp_path / "ds")
    got = load_dataset(tmp_path / "ds").features
    assert (got[2, 1], got[4, 0]) == (top, -top)
    x[5, 3] = 1e39
    with pytest.raises(DataError, match=r"^node 5 column 3 holds 1e\+39, not a finite"):
        save_dataset(make_graph(30, [(0, 1)], [0] * 30, 2, features=x), tmp_path / "new")
    assert not (tmp_path / "new").exists()


def test_features_f32_bad_magic(tmp_path):
    p = tmp_path / "features.f32"
    p.write_bytes(b"XXXX" + b"\0" * 16)
    with pytest.raises(DataError, match="magic"):
        read_features_f32(p)


def test_save_load_round_trip(tmp_path):
    g = random_graph(make_rng(3, "rt"), 30, n_classes=4, d_f=6)
    save_dataset(g, tmp_path / "ds")
    g2 = load_dataset(tmp_path / "ds")
    assert g2.n_nodes == g.n_nodes
    assert g2.n_edges == g.n_edges
    np.testing.assert_array_equal(g2.labels, g.labels)
    np.testing.assert_array_equal(g2.indptr, g.indptr)
    np.testing.assert_array_equal(g2.indices, g.indices)
    # f32 storage quantizes features
    np.testing.assert_allclose(g2.features, g.features, atol=1e-6)


def _write_per_line(g, path):
    """edges.tsv and labels.tsv as a reference writer: one write per line."""
    src = np.repeat(np.arange(g.n_nodes), np.diff(g.indptr))
    with open(path / "edges.tsv", "w", encoding="utf-8") as fh:
        for u, v in zip(src, g.indices):
            if g.directed or u < v:
                fh.write(f"{u}\t{v}\n")
    with open(path / "labels.tsv", "w", encoding="utf-8") as fh:
        for y in g.labels:
            fh.write(f"{y}\n")


@pytest.mark.parametrize("directed", [False, True])
def test_save_dataset_bytes_match_per_line_writer(tmp_path, directed):
    g = random_graph(make_rng(5, "bytes"), 30, n_classes=4, d_f=3,
                     directed=directed)
    labels = np.r_[-1, g.labels[1:]]
    empty = Graph(np.zeros(3, dtype=np.int64), [], np.zeros((2, 1)), [0, 1], 2)
    for name, graph in (("ds", Graph(g.indptr, g.indices, g.features, labels, 4,
                                     directed=directed)), ("empty", empty)):
        save_dataset(graph, tmp_path / name)
        (tmp_path / "ref").mkdir()
        _write_per_line(graph, tmp_path / "ref")
        for f in ("edges.tsv", "labels.tsv"):
            assert ((tmp_path / name / f).read_bytes()
                    == (tmp_path / "ref" / f).read_bytes()), (name, f)
        shutil.rmtree(tmp_path / "ref")


def test_directed_graph_keeps_orientation(tmp_path):
    path = write_dataset(tmp_path, edges="0\t1\n1\t2\n", directed=True)
    g = load_dataset(path)
    assert g.directed
    assert g.n_edges == 2
    assert g.neighbors(1).tolist() == [2]
    assert g.neighbors(2).tolist() == []


def test_from_edges_dedups_and_drops_self_loops():
    g = make_graph(3, [(0, 1), (1, 0), (0, 1), (1, 1)], [0, 1, 0], 2)
    assert g.n_edges == 1
    assert g.neighbors(2).tolist() == []
    assert not np.any(g.indices == np.repeat(np.arange(3), np.diff(g.indptr)))


def test_edges_to_csr_matches_sorted_unique_pairs():
    e = make_rng(5, "csr").integers(0, 30, size=(400, 2))
    indptr, indices = _edges_to_csr(31, e)
    pairs = sorted(set(map(tuple, e.tolist())))
    assert indices.tolist() == [v for _, v in pairs]
    assert np.diff(indptr).tolist() == [sum(u == i for u, _ in pairs) for i in range(31)]


@pytest.mark.parametrize("directed", [False, True])
def test_from_edges_array_matches_list(directed):
    pairs = [(2, 0), (0, 1), (1, 0), (2, 0), (1, 1), (3, 2)]
    x, labels = np.zeros((4, 1)), [0, 1, 0, 1]
    a = Graph.from_edges(4, pairs, x, labels, 2, directed=directed)
    b = Graph.from_edges(4, np.array(pairs), x, labels, 2, directed=directed)
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    empty = Graph.from_edges(4, np.zeros((0, 2), dtype=np.int64), x, labels, 2)
    assert empty.indptr.tolist() == [0] * 5 and empty.indices.size == 0


def test_graph_arrays_are_immutable():
    g = path4()
    with pytest.raises(ValueError):
        g.labels[0] = 1


def test_undirected_must_be_symmetric():
    # hand-build an asymmetric CSR and claim it is undirected
    with pytest.raises(DataError, match="asymmetric"):
        Graph(indptr=[0, 1, 1], indices=[1], features=np.zeros((2, 1)),
              labels=[0, 0], n_classes=1)


def directed_csr(indptr, indices):
    n = len(indptr) - 1
    return Graph(indptr=indptr, indices=indices, features=np.zeros((n, 1)),
                 labels=[0] * n, n_classes=1, directed=True)


@pytest.mark.parametrize("indptr, indices, message", [
    ([0, 0, 2, 2, 2], [3, 0], "row 1 has duplicate or unsorted neighbors"),
    ([0, 0, 0, 2, 2], [1, 1], "row 2 has duplicate or unsorted neighbors"),
    ([0, 1, 1, 1, 1], [0], "self-loop stored at node 0"),
    # the first offending row is named, whichever fault it has
    ([0, 1, 2, 4, 5], [1, 1, 1, 0, 3], "self-loop stored at node 1"),
    ([0, 1, 3, 3, 4], [1, 3, 2, 3], "row 1 has duplicate or unsorted neighbors"),
    # a row with both a duplicate and a self-loop reports the duplicate
    ([0, 0, 0, 3, 3], [0, 2, 2], "row 2 has duplicate or unsorted neighbors"),
])
def test_row_validation_messages(indptr, indices, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        directed_csr(indptr, indices)


def test_onehot_labels_with_unlabeled():
    g = make_graph(3, [(0, 1)], [0, -1, 1], 2)
    c = g.onehot_labels()
    np.testing.assert_array_equal(c, [[1, 0], [0, 0], [0, 1]])


def test_permute_graph_relabels_consistently():
    rng = make_rng(11, "perm")
    g = random_graph(rng, 20, n_classes=3)
    perm = rng.permutation(20)
    gp = permute_graph(g, perm)
    assert gp.n_edges == g.n_edges
    for i in range(20):
        assert gp.labels[perm[i]] == g.labels[i]
        np.testing.assert_array_equal(gp.features[perm[i]], g.features[i])
        assert sorted(gp.neighbors(perm[i]).tolist()) == \
            sorted(perm[g.neighbors(i)].tolist())


# ---------------------------------------------------------------------------
# splits

def test_split_proportions_100_nodes():
    g = random_graph(make_rng(1, "s"), 100)
    (s,) = generate_splits(g, 1, seed=0).values()
    assert (len(s.train), len(s.valid), len(s.test)) == (48, 32, 20)
    joined = np.sort(np.concatenate([s.train, s.valid, s.test]))
    np.testing.assert_array_equal(joined, np.arange(100))


def test_split_proportions_7600_nodes():
    g = make_graph(7600, [(0, 1)], [0] * 7600, 2, features=np.zeros((7600, 1)))
    (s,) = generate_splits(g, 1, seed=5).values()
    assert (len(s.train), len(s.valid), len(s.test)) == (3648, 2432, 1520)


@pytest.mark.parametrize("n", [10, 53, 997])
def test_split_proportions_within_one_node(n):
    g = make_graph(n, [(0, 1)], [0] * n, 2, features=np.zeros((n, 1)))
    (s,) = generate_splits(g, 1, seed=2).values()
    assert abs(len(s.train) - 0.48 * n) <= 1
    assert abs(len(s.valid) - 0.32 * n) <= 1
    assert abs(len(s.test) - 0.20 * n) <= 1
    assert len(s.train) + len(s.valid) + len(s.test) == n


def test_splits_deterministic_per_seed_and_id():
    g = random_graph(make_rng(2, "s"), 60)
    a = generate_splits(g, 3, seed=9)
    b = generate_splits(g, 3, seed=9)
    for sa, sb in zip(a.values(), b.values()):
        np.testing.assert_array_equal(sa.train, sb.train)
        np.testing.assert_array_equal(sa.test, sb.test)
    # different ids differ
    assert not np.array_equal(a[0].train, a[1].train)


def test_generate_splits_maps_each_id_to_its_own_draw():
    g = random_graph(make_rng(2, "s"), 60)
    splits = generate_splits(g, 4, seed=9)
    assert list(splits) == list(range(4))
    for k, s in splits.items():
        want = generate_split(g, k, seed=9)
        for part in ("train", "valid", "test"):
            np.testing.assert_array_equal(getattr(s, part), getattr(want, part))


def test_split_rejects_tiny_graph():
    g = make_graph(5, [(0, 1)], [0] * 5, 2, features=np.zeros((5, 1)))
    with pytest.raises(DataError, match="at least 10"):
        generate_splits(g, 1, seed=0)


def test_split_files_round_trip(tmp_path):
    g = random_graph(make_rng(4, "s"), 40)
    splits = generate_splits(g, 2, seed=1)
    save_splits(splits, tmp_path / "splits")
    s0 = load_split(tmp_path / "splits" / "split_0.json")
    np.testing.assert_array_equal(s0.train, splits[0].train)
    save_dataset(g, tmp_path / "ds")
    save_splits(splits, tmp_path / "ds" / "splits")
    loaded = load_splits(tmp_path / "ds")
    assert len(loaded) == 2
    np.testing.assert_array_equal(loaded[1].test, splits[1].test)


def test_load_splits_keys_each_split_by_its_file_name(tmp_path):
    g = random_graph(make_rng(4, "s"), 40)
    splits = generate_splits(g, 4, seed=1)
    save_splits(splits, tmp_path / "splits")
    for k in (0, 2):
        os.remove(tmp_path / "splits" / f"split_{k}.json")
    loaded = load_splits(tmp_path, g.labels)
    assert list(loaded) == [1, 3]
    for k in (1, 3):
        np.testing.assert_array_equal(loaded[k].test, splits[k].test)
    # two files naming one id are refused, not read in either order
    shutil.copy(tmp_path / "splits" / "split_1.json", tmp_path / "splits" / "split_01.json")
    with pytest.raises(DataError, match="split_01.json and split_1.json both name split 1"):
        load_splits(tmp_path)


def test_save_splits_writes_back_what_load_splits_read(tmp_path):
    g = random_graph(make_rng(4, "s"), 40)
    save_splits({k: generate_split(g, k, seed=1) for k in (1, 3)}, tmp_path / "d" / "splits")
    save_splits(load_splits(tmp_path / "d", g.labels), tmp_path / "out")
    files = sorted(os.listdir(tmp_path / "out"))
    assert files == sorted(os.listdir(tmp_path / "d" / "splits")) == [
        "split_1.json", "split_3.json"]
    for name in files:
        assert ((tmp_path / "out" / name).read_bytes()
                == (tmp_path / "d" / "splits" / name).read_bytes())


def test_save_splits_removes_splits_it_did_not_write(tmp_path):
    g = random_graph(make_rng(4, "s"), 40)
    path = tmp_path / "splits"
    save_splits(generate_splits(g, 4, seed=1), path)
    (path / "notes.txt").write_text("kept")
    save_splits(generate_splits(g, 2, seed=1), path)
    assert sorted(os.listdir(path)) == ["notes.txt", "split_0.json", "split_1.json"]


def test_split_naming_node_outside_graph_is_data_error(tmp_path):
    g = random_graph(make_rng(4, "s"), 40)
    save_splits(generate_splits(g, 1, seed=1), tmp_path / "splits")
    assert len(load_splits(tmp_path, g.labels)) == 1
    with pytest.raises(DataError, match=r"outside \[0, 39\)"):
        load_splits(tmp_path, g.labels[:-1])
    (tmp_path / "splits" / "split_0.json").write_text(json.dumps(
        {"train": [-1], "valid": [1], "test": [2]}))
    with pytest.raises(DataError, match="outside"):
        load_split(tmp_path / "splits" / "split_0.json", g.labels)


def _partly_labelled(n, unlabelled, seed=4):
    g = random_graph(make_rng(seed, "s"), n)
    labels = g.labels.copy()
    labels[list(unlabelled)] = -1
    return Graph(g.indptr, g.indices, g.features, labels, g.n_classes)


def test_split_naming_an_unlabelled_node_is_data_error(tmp_path):
    g = random_graph(make_rng(4, "s"), 40)
    save_splits(generate_splits(g, 1, seed=1), tmp_path / "splits")
    split = load_splits(tmp_path, g.labels)[0]
    node = int(split.test[3])
    partly = _partly_labelled(40, [node])
    # read without the labels, the file is a split; against them it is refused
    assert len(load_splits(tmp_path)) == 1
    with pytest.raises(DataError, match=f"split_0.json: names node {node}, "
                                        "which is unlabelled"):
        load_splits(tmp_path, partly.labels)


def test_generated_splits_leave_unlabelled_nodes_out():
    unlabelled = range(0, 60, 3)
    g = _partly_labelled(60, unlabelled)
    labelled = np.setdiff1d(np.arange(60), unlabelled)
    for s in generate_splits(g, 3, seed=9).values():
        parts = [s.train, s.valid, s.test]
        assert [len(p) for p in parts] == [19, 13, 8]
        np.testing.assert_array_equal(np.sort(np.concatenate(parts)), labelled)
    with pytest.raises(DataError, match="at least 10 nodes to split, got 9 with a label"):
        generate_split(_partly_labelled(40, range(31)), 0, seed=0)


def test_splits_of_a_fully_labelled_graph_are_one_permutation():
    g = random_graph(make_rng(2, "s"), 60)
    for k in range(3):
        s = generate_split(g, k, seed=9)
        perm = make_rng(9, "split", k).permutation(60)
        np.testing.assert_array_equal(np.concatenate([s.train, s.valid, s.test]), perm)


def test_split_parts_must_be_disjoint():
    from compatgnn.graph import Split
    with pytest.raises(DataError, match="overlap"):
        Split(train=[0, 1], valid=[1], test=[2])

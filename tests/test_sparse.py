import numpy as np
import pytest
import scipy.sparse as sp

from compatgnn import (ConfigError, DataError, add_self_loops, khop_adjacency,
                       knn_feature_graph, row_normalize, sym_normalize)
from compatgnn import sparse
from compatgnn.sparse import as_csr

from util import bfs_within_k, cycle, make_graph, random_graph, triangle
from compatgnn.rng import make_rng


def test_as_csr_rejects_non_square():
    with pytest.raises(DataError, match="square"):
        as_csr(np.ones((2, 3)))


def test_row_normalize_two_cycle():
    g = make_graph(2, [(0, 1)], [0, 1], 2)
    a = row_normalize(g).toarray()
    np.testing.assert_allclose(a, [[0.0, 1.0], [1.0, 0.0]])


def test_row_normalize_rows_sum_to_one_or_zero():
    g = random_graph(make_rng(0, "rn"), 30)
    a = row_normalize(g)
    sums = np.asarray(a.sum(axis=1)).ravel()
    deg = g.degrees
    np.testing.assert_allclose(sums[deg > 0], 1.0, atol=1e-12)
    np.testing.assert_array_equal(sums[deg == 0], 0.0)


def test_sym_normalize_triangle():
    a = sym_normalize(triangle()).toarray()
    expect = np.full((3, 3), 0.5)
    np.fill_diagonal(expect, 0.0)
    np.testing.assert_allclose(a, expect, atol=1e-12)


def test_sym_normalize_rejects_negative():
    m = sp.csr_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(DataError, match="non-negative"):
        sym_normalize(m)


def test_sym_normalize_matches_dense_formula():
    g = random_graph(make_rng(1, "sn"), 25)
    a = g.adjacency().toarray()
    deg = a.sum(axis=1)
    inv = np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg), where=deg > 0)
    expect = np.diag(inv) @ a @ np.diag(inv)
    np.testing.assert_allclose(sym_normalize(g).toarray(), expect, atol=1e-12)


def test_add_self_loops_empty_graph_is_identity():
    g = make_graph(4, [], [0, 0, 1, 1], 2)
    np.testing.assert_array_equal(add_self_loops(g).toarray(), np.eye(4))


def test_add_self_loops_does_not_double_existing_diagonal():
    m = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    out = add_self_loops(m).toarray()
    np.testing.assert_array_equal(out, [[1.0, 1.0], [0.0, 1.0]])


def test_khop_requires_k_at_least_two():
    with pytest.raises(DataError, match="k >= 2"):
        khop_adjacency(triangle(), 1)


def test_khop_within_includes_one_hop():
    g = cycle(6)
    got = khop_adjacency(g, 2).toarray()
    expect = np.zeros((6, 6))
    for i in range(6):
        for d in (1, 2):
            expect[i, (i + d) % 6] = 1.0
            expect[i, (i - d) % 6] = 1.0
    np.testing.assert_array_equal(got, expect)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_khop_matches_bfs_oracle(k):
    for trial in range(4):
        g = random_graph(make_rng(trial, "khop", k), 24, p=0.08)
        dense = g.adjacency().toarray()
        got = khop_adjacency(g, k).toarray().astype(bool)
        np.testing.assert_array_equal(got, bfs_within_k(dense, k))


def test_khop_never_includes_self():
    g = random_graph(make_rng(6, "khs"), 20, p=0.2)
    for k in (2, 3):
        a = khop_adjacency(g, k)
        assert a.diagonal().sum() == 0


def test_khop_refuses_a_hop_projected_past_the_limit(monkeypatch):
    # on the 6-cycle (out-degree 2) hop 2 projects 6 * 2 * 2 = 24 nonzeros;
    # hop 3 projects from 3 reached nodes a row (i, i +- 2): 6 * 3 * 2 = 36
    monkeypatch.setattr(sparse, "KHOP_MAX_NNZ", 30)
    assert khop_adjacency(cycle(6), 2).nnz == 24
    with pytest.raises(ConfigError, match=r"khop k=4: hop 3 projects to 36 "
                                          r"nonzeros .*; use k <= 2$"):
        khop_adjacency(cycle(6), 4)
    # refused at hop 2, no k fits: the message names the graph instead
    monkeypatch.setattr(sparse, "KHOP_MAX_NNZ", 20)
    with pytest.raises(ConfigError, match=r"khop k=2: hop 2 projects to 24 nonzeros "
                                          r".*; a graph of 6 nodes and 12 adjacency "
                                          r"nonzeros is too large for any k-hop operator$"):
        khop_adjacency(cycle(6), 2)


@pytest.mark.parametrize("directed", [False, True])
def test_two_hop_factors_sum_to_the_two_hop_indicator(directed):
    g = random_graph(make_rng(3, "two-hop", directed), 30, p=0.12, directed=directed)
    a, c, diag, deg = sparse.two_hop_factors(g)
    want = khop_adjacency(g, 2).toarray()
    a_ = a.toarray()
    s = a_ + a_ @ a_
    np.testing.assert_array_equal(diag, np.diag(s))
    np.testing.assert_array_equal(a_ + a_ @ a_ - np.diag(diag) - c.toarray(), want)
    np.testing.assert_array_equal(deg, want.sum(axis=1))
    assert c.data.min() >= 1


def test_two_hop_factors_refuse_as_hop_2_does(monkeypatch):
    monkeypatch.setattr(sparse, "KHOP_MAX_NNZ", 20)
    with pytest.raises(ConfigError, match=r"khop k=2: hop 2 projects to 24 nonzeros "
                                          r".*too large for any k-hop operator$"):
        sparse.two_hop_factors(cycle(6))


def test_khop_ends_at_the_first_hop_that_adds_no_nonzero(monkeypatch):
    # on the 6-cycle hops 2 and 3 reach new nodes and hop 4 none, so any
    # larger k runs those three hops and gives the k=3 operator
    want = khop_adjacency(cycle(6), 3)
    calls, binary = [], sparse._binary
    monkeypatch.setattr(sparse, "_binary", lambda a: calls.append(a) or binary(a))
    got = khop_adjacency(cycle(6), 2**64)
    assert len(calls) == 1 + 2 * 3      # a1, then reach and union per hop
    for attr in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))


def test_knn_orthogonal_features_pick_identical_partner():
    # rows 0 and 2 identical, row 1 orthogonal to both
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    a = knn_feature_graph(x, 1).toarray()
    assert a[0, 2] == 1.0 and a[2, 0] == 1.0
    # node 1 scores 0 against both; tie breaks to the lower index
    assert a[1, 0] == 1.0 and a[1, 2] == 0.0


def test_knn_tie_breaks_to_lower_index():
    x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    a = knn_feature_graph(x, 2).toarray()
    np.testing.assert_array_equal(a[3], [1.0, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(a[0], [0.0, 1.0, 1.0, 0.0])


def test_knn_zero_norm_rows_score_zero():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    a = knn_feature_graph(x, 1).toarray()
    # node 1 prefers node 0 (sim 0) over node 2 (sim -1)
    assert a[1, 0] == 1.0
    assert a[2, 0] == 1.0


def test_knn_matches_exhaustive_oracle():
    rng = make_rng(3, "knn")
    x = rng.normal(size=(15, 4))
    k = 3
    got = knn_feature_graph(x, k).toarray()
    xn = x / np.linalg.norm(x, axis=1, keepdims=True)
    sim = xn @ xn.T
    for i in range(15):
        s = sim[i].copy()
        s[i] = -np.inf
        top = set(np.argsort(-s, kind="stable")[:k].tolist())
        assert set(np.where(got[i] == 1.0)[0].tolist()) == top
        assert got[i].sum() == k


@pytest.mark.parametrize("block_rows", [1, 3, 7, 40])
def test_knn_row_blocks_match_dense_reference(monkeypatch, block_rows):
    # integer features tie often, so the lower-index tie-break is exercised
    x = make_rng(4, "knn-blocks").integers(-2, 3, size=(40, 3)).astype(float)
    x[5] = 0.0
    monkeypatch.setattr(sparse, "KNN_BLOCK_BYTES", 8 * 40 * block_rows)
    k = 4
    norms = np.linalg.norm(x, axis=1)
    xn = x / np.where(norms == 0, 1.0, norms)[:, None]
    sim = xn @ xn.T
    np.fill_diagonal(sim, -np.inf)
    cols = np.argsort(-sim, axis=1, kind="stable")[:, :k]
    want = np.zeros((40, 40))
    want[np.repeat(np.arange(40), k), cols.ravel()] = 1.0
    np.testing.assert_array_equal(knn_feature_graph(x, k).toarray(), want)


def test_knn_rejects_bad_k():
    x = np.zeros((3, 2))
    with pytest.raises(DataError, match="k >= 1"):
        knn_feature_graph(x, 0)
    with pytest.raises(DataError, match="smaller than"):
        knn_feature_graph(x, 3)

"""Shared toy-graph builders and brute-force oracles for the tests."""

import numpy as np

from compatgnn import Graph
from compatgnn.autodiff import add, matmul, slice_rows
from compatgnn.rng import make_rng


def make_graph(n, edges, labels, n_classes, features=None, directed=False,
               d_f=3, seed=7):
    if features is None:
        features = make_rng(seed, "feat").normal(size=(n, d_f))
    return Graph.from_edges(n, edges, features, labels, n_classes,
                            directed=directed)


def path4():
    """Path 0-1-2-3 with labels [0,0,1,1]."""
    return make_graph(4, [(0, 1), (1, 2), (2, 3)], [0, 0, 1, 1], 2)


def triangle(labels=(0, 1, 1)):
    return make_graph(3, [(0, 1), (1, 2), (0, 2)], list(labels), 2)


def star(center_label=0, leaf_label=1, n_leaves=3):
    edges = [(0, i + 1) for i in range(n_leaves)]
    labels = [center_label] + [leaf_label] * n_leaves
    return make_graph(n_leaves + 1, edges, labels, 2)


def cycle(n, labels=None, n_classes=2):
    edges = [(i, (i + 1) % n) for i in range(n)]
    if labels is None:
        labels = [i % n_classes for i in range(n)]
    return make_graph(n, edges, labels, n_classes)


def random_graph(rng, n, p=0.15, n_classes=3, d_f=4, directed=False,
                 ensure_edge=True):
    """Erdos-Renyi-ish labeled graph for property tests."""
    mask = rng.random((n, n)) < p
    edges = [(i, j) for i in range(n) for j in range(n)
             if i != j and mask[i, j] and (directed or i < j)]
    if ensure_edge and not edges:
        edges = [(0, 1 % n)] if n > 1 else []
    labels = rng.integers(0, n_classes, size=n)
    features = rng.normal(size=(n, d_f))
    return Graph.from_edges(n, edges, features, labels, n_classes,
                            directed=directed)


def circulant(n, offsets, d_f=3, seed=0, n_classes=2):
    """Undirected circulant graph with small-integer features."""
    edges = [(i, (i + o) % n) for i in range(n) for o in offsets]
    feats = make_rng(seed, "circ-feat").integers(0, 8, size=(n, d_f)).astype(float)
    labels = [i % n_classes for i in range(n)]
    return make_graph(n, edges, labels, n_classes, features=feats)


def cubic12(seed=0):
    """3-regular: degree+1 = 4, so sym-normalized self-loop entries are dyadic."""
    return circulant(12, (1, 6), seed=seed)


def quartic12(seed=0):
    """4-regular with a 4-regular exact-2-hop ring."""
    return circulant(12, (1, 2), seed=seed)


def path3_forest(n_paths=4, seed=0, d_f=3):
    """Disjoint 3-node paths: every 1- and 2-hop row has <= 2 entries, so
    SpMM row sums are 2-term and therefore exactly order-independent."""
    n = 3 * n_paths
    edges = []
    for k in range(n_paths):
        edges += [(3 * k, 3 * k + 1), (3 * k + 1, 3 * k + 2)]
    feats = make_rng(seed, "p3-feat").integers(0, 8, size=(n, d_f)).astype(float)
    return make_graph(n, edges, [i % 2 for i in range(n)], 2, features=feats)


def bfs_within_k(adj_dense, k):
    """Oracle: reachability in 1..k hops by repeated boolean squaring-free
    BFS from each node (dense, slow, obviously correct)."""
    n = adj_dense.shape[0]
    out = np.zeros((n, n), dtype=bool)
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        for d in range(1, k + 1):
            nxt = []
            for u in frontier:
                for v in np.where(adj_dense[u] != 0)[0]:
                    if v not in dist:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        for v, d in dist.items():
            if v != s and d <= k:
                out[s, v] = True
    return out


def mixed(alpha, zs):
    """sum_r alpha[:, r] * Z_r in numpy for tensors Z_r, summed in channel
    order, as autodiff sums it; alpha is N x R, or one weight per channel."""
    alpha = np.broadcast_to(np.asarray(alpha, dtype=np.float64),
                            (zs[0].shape[0], len(zs)))
    out = alpha[:, 0:1] * zs[0].value
    for r, z in enumerate(zs[1:], start=1):
        out = out + alpha[:, r:r + 1] * z.value
    return out


def product(pair):
    """X W of a pair (X, W) from mp.aggregate, as a matmul node; X itself
    when W is None: the channel output the combine node computes."""
    x, w = pair
    return x if w is None else matmul(x, w)


def concat_matmul(tensors, w):
    """concat_cols(tensors) @ w as a chain of nodes: each tensor times its
    rows of w (a slice_rows view), the products added in tensor order, as
    the combine node sums its pairs. The gate's and the heads' references."""
    out, lo = None, 0
    for t in tensors:
        z = matmul(t, slice_rows(w, lo, lo + t.shape[1]))
        out = z if out is None else add(out, z)
        lo += t.shape[1]
    return out

"""Structural operators on sparse adjacencies.

All functions accept either a Graph or a scipy CSR matrix. They return
scipy CSR, bar two_hop_factors, which returns the 1-hop factors of the
within-2-hop indicator: mp.realize_channel runs a khop k = 2 channel
from those factors, and only k >= 3 from the indicator khop_adjacency
builds.
Normalizations leave zero-degree rows untouched rather than dividing by
zero (inverse_degree)."""

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .graph import Graph

# Similarity rows knn_feature_graph holds at once, in bytes: memory stays
# O(n) per block instead of the dense N x N matrix.
KNN_BLOCK_BYTES = 32 << 20

# The most nonzeros one hop of khop_adjacency may project: at 12 bytes
# each (float64 value, int32 column index) about 1.2 GB, where the run
# would otherwise die of memory instead of failing as a config error.
KHOP_MAX_NNZ = 10**8


def as_csr(g_or_a):
    if isinstance(g_or_a, Graph):
        return g_or_a.adjacency()
    a = sp.csr_matrix(g_or_a, dtype=np.float64)
    if a.shape[0] != a.shape[1]:
        raise DataError(f"adjacency must be square, got {a.shape}")
    return a


def add_self_loops(g_or_a):
    """A + I, forcing unit diagonal (existing diagonal entries are overwritten)."""
    a = _drop_diagonal(as_csr(g_or_a))
    return a + sp.eye(a.shape[0], format="csr")


def inverse_degree(deg, sqrt=False):
    """D^-1 as a vector, or D^-1/2 with sqrt; a zero degree stays zero."""
    d = np.sqrt(deg) if sqrt else deg
    return np.divide(1.0, d, out=np.zeros_like(d), where=d != 0)


def row_normalize(g_or_a):
    """D^-1 A; zero rows pass through unchanged."""
    a = as_csr(g_or_a)
    deg = np.asarray(a.sum(axis=1)).ravel()
    return sp.diags(inverse_degree(deg)).dot(a).tocsr()


def sym_normalize(g_or_a):
    """D^-1/2 A D^-1/2 with D from row sums; requires non-negative entries."""
    a = as_csr(g_or_a)
    if a.nnz and a.data.min() < 0:
        raise DataError("symmetric normalization requires non-negative entries")
    deg = np.asarray(a.sum(axis=1)).ravel()
    d = sp.diags(inverse_degree(deg, sqrt=True))
    return d.dot(a).dot(d).tocsr()


def _binary(a):
    """Copy with every stored nonzero set to 1.0."""
    b = sp.csr_matrix(a, dtype=np.float64, copy=True)
    b.eliminate_zeros()
    b.data = np.ones_like(b.data)
    return b


def _drop_diagonal(a):
    out = (a - sp.diags(a.diagonal())).tocsr()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def _check_projection(reach, a1, k, hop):
    """Refuse hop `hop` of a k-hop operator if reach @ a1 may hold more
    than KHOP_MAX_NNZ nonzeros: row i of it holds at most the out-degrees
    of the nodes i reaches, summed. Refused at hop 2, the least k, the
    graph itself is too large; past it, a smaller k fits."""
    projected = int((reach @ np.diff(a1.indptr).astype(np.float64)).sum())
    if projected > KHOP_MAX_NNZ:
        remedy = (f"use k <= {hop - 1}" if hop > 2 else
                  f"a graph of {a1.shape[0]} nodes and {a1.nnz} adjacency "
                  "nonzeros is too large for any k-hop operator")
        raise ConfigError(
            f"khop k={k}: hop {hop} projects to {projected:.3g} nonzeros "
            f"(~{projected * 12 / 1e9:.1f} GB), over the limit of "
            f"{KHOP_MAX_NNZ:.0e}; {remedy}")


def khop_adjacency(g_or_a, k):
    """Binary indicator of nodes within k hops, excluding self.

    Hop distance is BFS distance along stored edge direction. A hop
    whose product may hold more than KHOP_MAX_NNZ nonzeros is refused
    before it runs (_check_projection). The hops end at the first that
    adds no nonzero: a union that stops growing never grows again, so a
    k past the graph's reach costs no more hops.
    """
    if k < 2:
        raise DataError(f"k-hop neighborhood needs k >= 2, got {k}")
    a1 = _binary(as_csr(g_or_a))
    acc = a1
    reach = a1
    for hop in range(2, k + 1):
        _check_projection(reach, a1, k, hop)
        reach = _binary(reach @ a1)
        grown = _binary(acc + reach)
        done = grown.nnz == acc.nnz
        acc = grown
        if done:
            break
    return _drop_diagonal(acc)


def two_hop_factors(g_or_a):
    """The within-2-hop indicator I2 = khop_adjacency(A, 2) of the binary
    adjacency A, as its 1-hop factors. S = A + A A counts the walks of
    length 1 or 2 from i to j, so I2 is the support of offdiag(S) and

        I2 = A + A A - diag(S) - C,

    C = offdiag(S) less 1 on its support: the extra walks of the pairs
    joined by more than one. Returns (A, C, diag(S), D2), D2 the row
    counts of offdiag(S), which are I2's degrees; S is refused as
    khop_adjacency's hop 2 is, before it is built."""
    a1 = _binary(as_csr(g_or_a))
    _check_projection(a1, a1, 2, 2)
    s = (a1 + a1 @ a1).tocsr()
    c = _drop_diagonal(s)
    deg = np.diff(c.indptr).astype(np.float64)
    c.data -= 1.0
    c.eliminate_zeros()
    return a1, c, s.diagonal(), deg


def knn_feature_graph(g_or_x, k):
    """Directed k-nearest-neighbor indicator under cosine feature similarity.

    Row i holds ones at i's k most similar other nodes. Ties break toward
    the lower node index; zero-norm feature rows score 0 against everything.
    """
    x = g_or_x.features if isinstance(g_or_x, Graph) else np.asarray(g_or_x, dtype=np.float64)
    n = x.shape[0]
    if k < 1:
        raise DataError(f"knn graph needs k >= 1, got {k}")
    if k >= n:
        raise DataError(f"k={k} must be smaller than n_nodes={n}")
    norms = np.linalg.norm(x, axis=1)
    safe = np.where(norms == 0, 1.0, norms)
    xn = x / safe[:, None]
    cols = np.empty((n, k), dtype=np.int64)
    step = max(1, KNN_BLOCK_BYTES // (8 * n))
    for lo in range(0, n, step):
        sim = xn[lo:lo + step] @ xn.T
        sim[np.arange(len(sim)), np.arange(lo, lo + len(sim))] = -np.inf
        # stable argsort on -sim => equal similarities resolve to the lower index
        cols[lo:lo + step] = np.argsort(-sim, axis=1, kind="stable")[:, :k]
    rows = np.repeat(np.arange(n), k)
    data = np.ones(n * k)
    out = sp.csr_matrix((data, (rows, cols.ravel())), shape=(n, n))
    out.sort_indices()
    return out

"""Label-structure metrics: homophily ratios and compatibility matrices.

The compatibility matrix M (K x K, row-stochastic) gives the probability
that a neighbor of a class-i node carries class j. The homophily ratio
compresses M to a scalar and misses cross-class structure; M itself is
the object the rest of the package is built around.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

ROW_SUM_TOL = 1e-9


def _require_labeled(g):
    if np.any(g.labels < 0):
        raise DataError("metric requires all nodes labeled")


def edge_homophily(g):
    """Fraction of edges joining same-label endpoints.

    Undirected graphs count each edge once; directed graphs count stored
    directed entries (one per adjacency entry).
    """
    _require_labeled(g)
    if len(g.indices) == 0:
        raise DataError("edge homophily undefined on a graph with no edges")
    src = np.repeat(np.arange(g.n_nodes), np.diff(g.indptr))
    dst = g.indices
    if not g.directed:
        keep = src < dst
        src, dst = src[keep], dst[keep]
    same = g.labels[src] == g.labels[dst]
    return float(np.mean(same))


def node_homophily(g):
    """Mean over non-isolated nodes of the same-label neighbor fraction."""
    _require_labeled(g)
    deg = g.degrees
    if np.all(deg == 0):
        raise DataError("node homophily undefined: every node is isolated")
    src = np.repeat(np.arange(g.n_nodes), deg)
    same = (g.labels[src] == g.labels[g.indices]).astype(np.float64)
    per_node = np.zeros(g.n_nodes)
    np.add.at(per_node, src, same)
    mask = deg > 0
    return float(np.mean(per_node[mask] / deg[mask]))


def l1_normalize_rows(x, fallback=None):
    """Rows scaled to unit L1 mass; zero-mass rows become `fallback` (or stay zero).

    Returns (normalized, zero_mask).
    """
    x = np.asarray(x, dtype=np.float64)
    mass = np.abs(x).sum(axis=1)
    zero = mass == 0
    out = np.divide(x, np.where(zero, 1.0, mass)[:, None])
    if fallback is not None and np.any(zero):
        out[zero] = fallback
    return out, zero


def semantic_neighborhood(g, soft_labels):
    """Neighborhood label profile: row i is the L1-normalized sum of i's
    neighbors' soft label rows (A @ soft, scipy's CSR product).
    Zero-degree nodes keep a zero row."""
    soft = np.asarray(soft_labels, dtype=np.float64)
    if soft.shape[0] != g.n_nodes:
        raise DataError(f"soft labels have {soft.shape[0]} rows for {g.n_nodes} nodes")
    agg = g.adjacency() @ soft
    out, _ = l1_normalize_rows(agg)
    return out


@dataclass
class CompatibilityMatrix:
    """Row-stochastic K x K class-to-class neighbor distribution.

    Rows with no supporting mass fall back to uniform and are flagged in
    uniform_rows so downstream consumers can tell signal from fallback.
    """
    m: np.ndarray
    uniform_rows: np.ndarray = field(default=None)

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.float64)
        k = self.m.shape[0]
        if self.m.shape != (k, k) or k < 2:
            raise DataError(f"compatibility matrix must be K x K with K >= 2, got {self.m.shape}")
        if self.uniform_rows is None:
            self.uniform_rows = np.zeros(k, dtype=bool)
        self.uniform_rows = np.asarray(self.uniform_rows, dtype=bool)
        if np.any(self.m < -ROW_SUM_TOL):
            raise DataError("compatibility matrix has negative entries")
        sums = self.m.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise DataError(f"row {bad} sums to {sums[bad]}, expected 1")

    @property
    def k(self):
        return self.m.shape[0]

    @classmethod
    def from_unnormalized(cls, raw):
        """Normalize row mass to 1; zero rows become uniform and are flagged."""
        raw = np.asarray(raw, dtype=np.float64)
        k = raw.shape[0]
        out, zero = l1_normalize_rows(raw, fallback=np.full(k, 1.0 / k))
        return cls(m=out, uniform_rows=zero)


def observed_cm(g):
    """Empirical compatibility matrix from ground-truth labels.

    Row k aggregates the semantic neighborhoods of class-k nodes and is
    L1-normalized; isolated nodes contribute nothing.
    """
    _require_labeled(g)
    if g.n_classes < 2:
        raise DataError("compatibility matrix needs at least 2 classes")
    c = g.onehot_labels()
    c_nb = semantic_neighborhood(g, c)
    return CompatibilityMatrix.from_unnormalized(c.T @ c_nb)

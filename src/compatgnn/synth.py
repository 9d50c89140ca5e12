"""Synthetic graphs with a prescribed compatibility matrix.

Two off-diagonal patterns at a given homophily level h:

  hard  off-diagonal mass spread uniformly: rows differ only on the
        diagonal, so neighbor class histograms are maximally confusable
        (at h = 1/K the matrix is exactly uniform and carries no signal).
  easy  off-diagonal mass on the +/-1 circulant band: rows are pairwise
        far apart in total variation, so the neighbor histogram alone
        identifies the class.

The easy band is symmetric by construction. Undirected generation pushes
any target toward Norm(M + M^T), so an asymmetric target could never be
realized; for K < 4 no symmetric constant-diagonal pattern other than
hard exists and easy degenerates to it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .graph import Graph
from .metrics import CompatibilityMatrix, edge_homophily, observed_cm
from .rng import make_rng

PATTERNS = ("easy", "hard")
MAX_RETRIES = 50   # draws per edge stub before generate_graph drops it

# The most float64 values make_synth_spec lets one array hold (the N x d_f
# features, the K x K target). numpy refuses an array past 2^63 bytes with
# a ValueError, not the MemoryError cli.main reports as exit 2, so a size
# past this bound, 8e18 bytes, is a ConfigError before anything is built.
MAX_ARRAY_VALUES = 10**18


def pairwise_tv(m):
    """Minimum total-variation distance over distinct row pairs."""
    k = m.shape[0]
    best = np.inf
    for i in range(k):
        for j in range(i + 1, k):
            best = min(best, 0.5 * np.abs(m[i] - m[j]).sum())
    return float(best)


def build_target_cm(k, h, pattern):
    """Row-stochastic K x K target with diagonal h and the given pattern.

    For K >= 4 the easy pattern's rows are strictly farther apart than the
    hard pattern's (asserted); below that the band covers all off-diagonal
    slots and the patterns coincide.
    """
    if k < 2:
        raise ConfigError(f"target compatibility matrix needs K >= 2, got {k}")
    if not 0.0 < h < 1.0:
        raise ConfigError(f"homophily must be in (0, 1), got {h}")
    if pattern not in PATTERNS:
        raise ConfigError(f"unknown pattern {pattern!r}; choose from {PATTERNS}")
    m = np.full((k, k), (1.0 - h) / (k - 1))
    np.fill_diagonal(m, h)
    if pattern == "easy":
        m = np.zeros((k, k))
        np.fill_diagonal(m, h)
        band = [1, -1] if k > 2 else [1]
        share = (1.0 - h) / len(band)
        for i in range(k):
            for off in band:
                m[i, (i + off) % k] += share
        if k >= 4:
            hard = build_target_cm(k, h, "hard")
            assert pairwise_tv(m) > pairwise_tv(hard.m), \
                "easy rows must be strictly farther apart than hard rows"
    return CompatibilityMatrix(m=m)


@dataclass
class SynthSpec:
    """Everything generate_graph needs: target structure plus node content."""
    target_cm: CompatibilityMatrix
    labels: np.ndarray
    features: np.ndarray
    mean_degree: float
    seed: int = 0
    name: str = "synthetic"

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float64)
        k = self.target_cm.k
        if self.labels.size == 0:
            raise ConfigError("a synthetic graph needs at least one node")
        if self.labels.min() < 0 or self.labels.max() >= k:
            raise ConfigError(f"labels must lie in [0, {k})")
        if len(self.features) != len(self.labels):
            raise ConfigError("features and labels disagree on node count")
        if not math.isfinite(self.mean_degree) or self.mean_degree <= 0:
            raise ConfigError(f"mean_degree must be finite and positive, "
                              f"got {self.mean_degree}")
        if self.mean_degree > 2 * (self.labels.size - 1):
            # a node's mean_degree / 2 stubs past its n - 1 partners never land
            raise ConfigError(f"mean_degree {self.mean_degree:g} exceeds 2 (n - 1) = "
                              f"{2 * (self.labels.size - 1)} for {self.labels.size} nodes")


def gaussian_features(labels, k, d_f, mean_separation, seed):
    """Class-conditional spherical Gaussians; class means are random
    directions scaled to `mean_separation`."""
    rng = make_rng(seed, "features")
    dirs = rng.normal(size=(k, d_f))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = mean_separation * dirs
    return means[labels] + rng.normal(size=(len(labels), d_f))


def balanced_labels(n, k):
    """Classes 0..K-1 as evenly as possible, in index order."""
    return np.arange(n) % k


def make_synth_spec(n_nodes, k, h, pattern, mean_degree, seed,
                    d_f=16, mean_separation=1.9, name=None):
    """Balanced labels + Gaussian features + target matrix in one bundle.

    The default separation is calibrated so a feature-only MLP lands in the
    low-to-mid 70s (percent) at 1000 nodes / K=5, keeping graph-structure
    effects visible in both directions."""
    if k > n_nodes:   # before the K x K target is built
        raise ConfigError(f"{k} classes need at least {k} nodes, got {n_nodes}")
    for what, size in ((f"{k} x {k} target", k * k),
                       (f"{n_nodes} x {d_f} features", n_nodes * d_f)):
        if size > MAX_ARRAY_VALUES:
            raise ConfigError(f"the {what} would hold past the limit of "
                              f"{MAX_ARRAY_VALUES:.0e} values")
    cm = build_target_cm(k, h, pattern)   # refuses K < 2 before labels are drawn
    if d_f < 1:
        raise ConfigError(f"feature dimension must be positive, got {d_f}")
    if not math.isfinite(mean_separation):
        raise ConfigError(f"mean_separation must be finite, got {mean_separation}")
    labels = balanced_labels(n_nodes, k)
    feats = gaussian_features(labels, k, d_f, mean_separation, seed)
    if name is None:
        name = f"synth-{pattern}-h{h:g}-d{mean_degree:g}"
    return SynthSpec(target_cm=cm, labels=labels, features=feats,
                     mean_degree=mean_degree, seed=seed, name=name)


def generate_graph(spec):
    """Sample an undirected graph whose observed compatibility matrix
    approaches the target.

    Each node draws mean_degree/2 stubs; each stub samples a partner class
    from the node's target row, then a partner node uniformly within that
    class. Duplicate edges and self-loops are rejected and resampled up to
    MAX_RETRIES, after which the stub is dropped (keeps generation total).

    A class is drawn by inverting its row's CDF at one uniform draw, as
    Generator.choice(k, p=row) does with the same draw, so the graphs
    are those the choice calls drew; the CDFs are built once per class.
    """
    rng = make_rng(spec.seed, "edges")
    n = len(spec.labels)
    k = spec.target_cm.k
    m = spec.target_cm.m
    by_class = [np.where(spec.labels == c)[0] for c in range(k)]
    for c in range(k):
        needs = m[:, c].sum() > 0
        if needs and len(by_class[c]) == 0:
            raise DataError(f"target matrix routes mass to empty class {c}")
    cdfs = m.cumsum(axis=1)
    cdfs /= cdfs[:, -1:]

    half = spec.mean_degree / 2.0
    base = int(np.floor(half))
    frac = half - base
    edges = set()
    for u in range(n):
        stubs = base + (1 if frac > 0 and rng.random() < frac else 0)
        if stubs == 0:
            continue
        cdf = cdfs[spec.labels[u]]
        classes = cdf.searchsorted(rng.random(stubs), side="right")
        for s in range(stubs):
            c = int(classes[s])
            for attempt in range(MAX_RETRIES):
                if attempt > 0:
                    # resample the whole stub
                    c = int(cdf.searchsorted(rng.random(), side="right"))
                pool = by_class[c]
                v = int(pool[rng.integers(len(pool))])
                if v == u:
                    continue
                key = (u, v) if u < v else (v, u)
                if key in edges:
                    continue
                edges.add(key)
                break

    return Graph.from_edges(n, sorted(edges), spec.features, spec.labels, k,
                            directed=False, name=spec.name)


def verify_graph(g, spec):
    """Measured structure statistics against the generation targets."""
    obs = observed_cm(g)
    tv = 0.5 * np.abs(obs.m - spec.target_cm.m).sum(axis=1)
    return {
        "n_nodes": g.n_nodes,
        "n_edges": g.n_edges,
        "mean_degree": float(g.degrees.mean()),
        "target_mean_degree": float(spec.mean_degree),
        "edge_homophily": edge_homophily(g),
        "target_homophily": float(np.diag(spec.target_cm.m).mean()),
        "observed_cm": obs.m.tolist(),
        "target_cm": spec.target_cm.m.tolist(),
        "row_tv": tv.tolist(),
        "max_row_tv": float(tv.max()),
    }

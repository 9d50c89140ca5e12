"""Graph container and dataset directory IO.

A Graph is an immutable node-classified graph in CSR form. The base
structure never carries self-loops or duplicate entries; operations that
need self-loops add them explicitly. Undirected graphs store both (u,v)
and (v,u).

Dataset directory layout:

    meta.json        {"name": str, "n_nodes": int, "n_classes": int,
                      "d_f": int, "directed": bool}, no other keys
    edges.tsv        u<TAB>v per line, 0-indexed, one line per edge
    labels.tsv       one integer per line (-1 = unlabeled)
    features.tsv     n_nodes lines of d_f floats, or
    features.f32     magic b"GF32", u64-LE rows, u64-LE cols, row-major f32-LE
    splits/split_<k>.json   {"train": [...], "valid": [...], "test": [...]}
"""

import json
import os
import re
import struct
import warnings
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .records import decode, read_json, reading
from .rng import make_rng

FEATURES_MAGIC = b"GF32"

SPLIT_FRACTIONS = (0.48, 0.32, 0.20)
INT64 = np.iinfo(np.int64)


class Graph:
    """Immutable CSR graph with per-node features and class labels."""

    def __init__(self, indptr, indices, features, labels, n_classes,
                 directed=False, name="graph"):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.features = np.ascontiguousarray(features, dtype=np.float64)
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)
        self.n_classes = int(n_classes)
        self.directed = bool(directed)
        self.name = str(name)
        self.n_nodes = len(self.indptr) - 1
        for arr in (self.indptr, self.indices, self.features, self.labels):
            arr.setflags(write=False)
        self._adj = None
        self._validate()

    def _validate(self):
        n = self.n_nodes
        if n < 0 or self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise DataError("malformed CSR index pointers")
        if np.any(np.diff(self.indptr) < 0):
            raise DataError("CSR row offsets must be non-decreasing")
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= n):
            raise DataError("edge endpoint out of range")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise DataError(f"features shape {self.features.shape} does not match {n} nodes")
        if self.labels.shape != (n,):
            raise DataError(f"expected {n} labels, got {self.labels.shape}")
        if self.n_classes < 1:
            raise DataError("n_classes must be >= 1")
        if self.n_classes > n:
            # a class count past the node count is corrupt, and K x K is dense
            raise DataError(f"{self.n_classes} classes for {n} nodes")
        bad = (self.labels < -1) | (self.labels >= self.n_classes)
        if np.any(bad):
            i = int(np.where(bad)[0][0])
            raise DataError(
                f"label {self.labels[i]} at node {i} outside [0, {self.n_classes})")
        # per row: strictly increasing columns => sorted, no duplicates. The
        # first offending row is named; within a row the order fault wins.
        src = np.repeat(np.arange(n), np.diff(self.indptr))
        unsorted = src[1:][(src[1:] == src[:-1]) & (np.diff(self.indices) <= 0)]
        loops = src[self.indices == src]
        if unsorted.size and (not loops.size or unsorted[0] <= loops[0]):
            raise DataError(f"row {unsorted[0]} has duplicate or unsorted neighbors")
        if loops.size:
            raise DataError(f"self-loop stored at node {loops[0]}")
        if not self.directed:
            a = self.adjacency()
            if (a != a.T).nnz != 0:
                raise DataError("undirected graph has asymmetric adjacency")

    @property
    def degrees(self):
        """Out-degree per node (== degree for undirected graphs)."""
        return np.diff(self.indptr)

    @property
    def n_edges(self):
        """Edge count as reported: undirected pairs once, directed entries as stored."""
        nnz = len(self.indices)
        return nnz if self.directed else nnz // 2

    @property
    def d_f(self):
        return self.features.shape[1]

    def adjacency(self):
        """Binary adjacency as scipy CSR (cached)."""
        if self._adj is None:
            data = np.ones(len(self.indices), dtype=np.float64)
            self._adj = sp.csr_matrix(
                (data, self.indices.copy(), self.indptr.copy()),
                shape=(self.n_nodes, self.n_nodes))
        return self._adj

    def neighbors(self, i):
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def onehot_labels(self):
        """N x K one-hot label matrix; unlabeled nodes get zero rows."""
        c = np.zeros((self.n_nodes, self.n_classes))
        mask = self.labels >= 0
        c[np.where(mask)[0], self.labels[mask]] = 1.0
        return c

    @classmethod
    def from_edges(cls, n_nodes, edges, features, labels, n_classes,
                   directed=False, name="graph"):
        """Build from an array-like of (u, v) pairs: a list of pairs or an
        E x 2 integer array.

        Self-loops are dropped and duplicates collapsed; undirected input is
        symmetrized regardless of which orientation each pair arrives in.
        """
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if e.size and (e.min() < 0 or e.max() >= n_nodes):
            bad = e[(e < 0).any(axis=1) | (e >= n_nodes).any(axis=1)][0]
            raise DataError(f"edge {tuple(bad)} endpoint outside [0, {n_nodes})")
        e = e[e[:, 0] != e[:, 1]]
        if not directed and len(e):
            e = np.concatenate([e, e[:, ::-1]], axis=0)
        indptr, indices = _edges_to_csr(n_nodes, e)
        return cls(indptr, indices, features, labels, n_classes,
                   directed=directed, name=name)

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return (f"Graph({self.name!r}, n={self.n_nodes}, edges={self.n_edges}, "
                f"K={self.n_classes}, d_f={self.d_f}, {kind})")


def _edges_to_csr(n_nodes, e):
    """Dedup an edge array into sorted CSR (indptr, indices)."""
    if len(e) == 0:
        return np.zeros(n_nodes + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    key = np.sort(e[:, 0] * n_nodes + e[:, 1])   # one int64 per (u, v), row-major
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n_nodes, minlength=n_nodes), out=indptr[1:])
    return indptr, key % n_nodes


def permute_graph(g, perm):
    """Relabel nodes: new node perm[i] is old node i. Returns a new Graph."""
    perm = np.asarray(perm, dtype=np.int64)
    n = g.n_nodes
    if sorted(perm.tolist()) != list(range(n)):
        raise DataError("perm must be a permutation of range(n_nodes)")
    src = np.repeat(np.arange(n), np.diff(g.indptr))
    e = np.stack([perm[src], perm[g.indices]], axis=1)
    indptr, indices = _edges_to_csr(n, e)
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    return Graph(indptr, indices, g.features[inv], g.labels[inv], g.n_classes,
                 directed=g.directed, name=g.name)


# ---------------------------------------------------------------------------
# dataset directory IO

def _read_tsv_ints(path, n_cols):
    """Rows of n_cols tab- or space-separated integers, blank lines
    skipped, parsed in one loadtxt call. A file it rejects is scanned line
    by line, so the error names the first bad line as path:line."""
    with reading(path, DataError):
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(path, dtype=np.int64, ndmin=2, comments=None)
            if rows.size == 0 or rows.shape[1] == n_cols:
                return rows.reshape(-1, n_cols)
        except ValueError:
            pass
        return _scan_tsv_ints(path, n_cols)


def _scan_tsv_ints(path, n_cols):
    rows = []
    with reading(path, DataError), open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t") if "\t" in line else line.split()
            if len(parts) != n_cols:
                raise DataError(f"{path}:{ln}: expected {n_cols} fields, got {len(parts)}")
            try:
                row = [int(p) for p in parts]
            except ValueError:
                raise DataError(f"{path}:{ln}: non-integer field in {line!r}") from None
            if not all(INT64.min <= v <= INT64.max for v in row):
                raise DataError(f"{path}:{ln}: integer outside int64 in {line!r}")
            rows.append(row)
    return np.asarray(rows, dtype=np.int64).reshape(-1, n_cols)


def _read_features_tsv(path):
    with reading(path, DataError):
        try:
            return np.loadtxt(path, dtype=np.float64, delimiter="\t", ndmin=2)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None


def read_features_f32(path):
    with reading(path, DataError), open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FEATURES_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {FEATURES_MAGIC!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise DataError(f"{path}: truncated header")
        rows, cols = struct.unpack("<QQ", header)
        # checked before the read: a header product past ssize_t would
        # overflow np.fromfile's count
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if rows * cols * 4 != left:
            raise DataError(f"{path}: header says {rows} x {cols} float32 values, "
                            f"the file holds {left} bytes of data")
        x = np.fromfile(fh, dtype="<f4", count=rows * cols)
        try:
            return x.reshape(rows, cols).astype(np.float64)
        except ValueError:  # an empty array of a dimension past numpy's
            raise DataError(f"{path}: header says {rows} x {cols}, "
                            "not an array shape") from None


def write_features_f32(path, x):
    x = np.asarray(x)
    with open(path, "wb") as fh:
        fh.write(FEATURES_MAGIC)
        fh.write(struct.pack("<QQ", x.shape[0], x.shape[1]))
        fh.write(np.ascontiguousarray(x, dtype="<f4").tobytes())


def _write_tsv_ints(path, rows):
    """One line per row of a 2-d integer array, fields tab-separated."""
    line = "\t".join(["%d"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write((line * len(rows)) % tuple(rows.ravel().tolist()))


@dataclass
class DatasetMeta:
    """The meta.json of a dataset directory."""
    name: str
    n_nodes: int
    n_classes: int
    d_f: int
    directed: bool


def load_dataset(path):
    """Read a dataset directory into a validated Graph."""
    meta_path = os.path.join(path, "meta.json")
    meta = decode(DatasetMeta, read_json(meta_path, DataError), DataError, meta_path)
    n, d_f = meta.n_nodes, meta.d_f

    edges = _read_tsv_ints(os.path.join(path, "edges.tsv"), 2)
    labels = _read_tsv_ints(os.path.join(path, "labels.tsv"), 1).ravel()
    if len(labels) != n:
        raise DataError(f"labels.tsv has {len(labels)} rows, meta says {n}")

    f32 = os.path.join(path, "features.f32")
    tsv = os.path.join(path, "features.tsv")
    if os.path.exists(f32):
        feat_path, x = f32, read_features_f32(f32)
    elif os.path.exists(tsv):
        feat_path, x = tsv, _read_features_tsv(tsv)
    else:
        raise DataError(f"{path}: neither features.f32 nor features.tsv present")
    if x.shape != (n, d_f):
        raise DataError(f"features shape {x.shape}, meta says ({n}, {d_f})")
    # checked here, once per file: Graph does not check its features, so a
    # CompatGNN's N+K-node graph pays nothing for it
    if not np.isfinite(x).all():
        node, col = np.argwhere(~np.isfinite(x))[0]
        raise DataError(f"{feat_path}: node {node} column {col} holds "
                        f"{x[node, col]}, not a finite feature")

    return Graph.from_edges(n, edges, x, labels, meta.n_classes,
                            directed=meta.directed, name=meta.name)


def save_dataset(g, path):
    """Write a Graph as a dataset directory (round-trips with load_dataset).
    A feature that float32 cannot hold is a DataError before any file is
    written."""
    with np.errstate(over="ignore"):
        x = np.asarray(g.features, dtype="<f4")
    if not np.isfinite(x).all():
        node, col = np.argwhere(~np.isfinite(x))[0]
        raise DataError(f"node {node} column {col} holds {g.features[node, col]}, "
                        "not a finite float32 feature")
    os.makedirs(path, exist_ok=True)
    meta = DatasetMeta(name=g.name, n_nodes=g.n_nodes, n_classes=g.n_classes,
                       d_f=g.d_f, directed=g.directed)
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(asdict(meta), fh, indent=2)
        fh.write("\n")
    src = np.repeat(np.arange(g.n_nodes), np.diff(g.indptr))
    pairs = np.stack([src, g.indices], axis=1)
    if not g.directed:
        pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    _write_tsv_ints(os.path.join(path, "edges.tsv"), pairs)
    _write_tsv_ints(os.path.join(path, "labels.tsv"), g.labels[:, None])
    write_features_f32(os.path.join(path, "features.f32"), x)


# ---------------------------------------------------------------------------
# splits

@dataclass
class Split:
    """Disjoint, non-empty train/valid/test node index sets: JSON lists
    of node ids in a split file, int64 arrays once built."""
    train: list[int]
    valid: list[int]
    test: list[int]

    def __post_init__(self):
        for part in ("train", "valid", "test"):
            try:
                ids = np.asarray(getattr(self, part), dtype=np.int64)
            except OverflowError:
                raise DataError(f"split {part} holds a node id outside int64") from None
            if ids.size == 0:
                raise DataError(f"split {part} is empty")
            setattr(self, part, ids)
        all_idx = np.concatenate([self.train, self.valid, self.test])
        if len(np.unique(all_idx)) != len(all_idx):
            raise DataError("split parts overlap")


def generate_split(g, split_id, seed):
    """The 48/32/20 train/valid/test split of one id of the labelled nodes
    (an unlabelled node is in no part), drawn from its own Philox stream,
    so it does not depend on which other ids are drawn."""
    labelled = np.flatnonzero(g.labels >= 0)
    n = len(labelled)
    if n < 10:
        raise DataError(f"need at least 10 nodes to split, got {n} with a label")
    perm = labelled[make_rng(seed, "split", split_id).permutation(n)]
    n_train = int(round(SPLIT_FRACTIONS[0] * n))
    n_valid = int(round(SPLIT_FRACTIONS[1] * n))
    return Split(train=perm[:n_train], valid=perm[n_train:n_train + n_valid],
                 test=perm[n_train + n_valid:])


def generate_splits(g, n_splits, seed):
    """{k: split} of ids k = 0 .. n_splits - 1 (generate_split)."""
    return {k: generate_split(g, k, seed) for k in range(n_splits)}


def _split_index(name):
    """k of a file named split_<k>.json, else None."""
    m = re.fullmatch(r"split_(\d+)\.json", name)
    return None if m is None else int(m.group(1))


def save_splits(splits, path):
    """split_<k>.json per entry k of a {k: split} mapping, so it writes back
    what load_splits read, gaps included; any other split_<k>.json in `path`
    is removed, so the directory never mixes splits of two graphs."""
    os.makedirs(path, exist_ok=True)
    names = {f"split_{k}.json": s for k, s in splits.items()}
    for name, s in names.items():
        payload = {"train": s.train.tolist(), "valid": s.valid.tolist(),
                   "test": s.test.tolist()}
        with open(os.path.join(path, name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    for name in os.listdir(path):
        if _split_index(name) is not None and name not in names:
            os.remove(os.path.join(path, name))


def check_split(split, labels, where):
    """A split naming a node outside [0, n_nodes) or an unlabelled one
    (label -1) is a DataError naming `where`: the protocol would train on
    or score a label the node does not have."""
    nodes = np.concatenate([split.train, split.valid, split.test])
    if nodes.min() < 0 or nodes.max() >= len(labels):
        raise DataError(f"{where}: names a node outside [0, {len(labels)})")
    unlabelled = nodes[labels[nodes] < 0]
    if unlabelled.size:
        raise DataError(f"{where}: names node {unlabelled[0]}, which is unlabelled")


def load_split(path, labels=None):
    """A split file, checked against the graph's labels if given."""
    split = decode(Split, read_json(path, DataError), DataError, path)
    if labels is not None:
        check_split(split, labels, path)
    return split


def load_splits(dataset_path, labels=None):
    """{k: split} of every splits/split_<k>.json under a dataset directory,
    in order of k, so a gap in the numbering leaves a gap in the ids;
    labels as in load_split."""
    split_dir = os.path.join(dataset_path, "splits")
    if not os.path.isdir(split_dir):
        raise DataError(f"{split_dir}: not found")
    names = {}
    for name in sorted(os.listdir(split_dir)):
        k = _split_index(name)
        if k is None:
            continue
        if k in names:
            raise DataError(f"{split_dir}: {names[k]} and {name} both name split {k}")
        names[k] = name
    if not names:
        raise DataError(f"{split_dir}: no split_<k>.json files")
    return {k: load_split(os.path.join(split_dir, names[k]), labels)
            for k in sorted(names)}

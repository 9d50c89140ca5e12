"""Reverse-mode autodiff over float64 numpy arrays.

Minimal tape: each Tensor remembers its parents and a closure that
scatters the upstream gradient to them. backward() toposorts from the
loss and runs closures in reverse order. Only nodes reachable from a
requires_grad leaf participate; everything else is treated as constant.
backward() consumes the tape: it frees each node's parents and closure
as it passes the node, so only the intermediates a caller holds outlive
it. A second backward through a consumed node raises ValueError.

An evaluation can record no tape: inside `with frozen(params):` the
given leaves require no grad, so every op over them keeps no parents and
no closure, and each intermediate value is freed as soon as the forward
has passed it on. The same forward outside the block records its tape.
training.train_model evaluates frozen with dropout > 0; with dropout 0
it keeps the eval's tape, since the next epoch trains on that output.

Gradient ownership: a closure hands `_acc` the array it has just
computed, and that array becomes the first gradient of its target, with
no copy. Only a gradient passed through unchanged (by add, add_bias and
concat_cols) is copied first, so no two tensors share a .grad array.

Every sum of products of the package is one fused tape node, ada_mix:
it mixes the products Z_r = X_r W_r of pairs (X_r, W_r) by the weights
it is given ("add", "cat", or a weight tensor, N x R or 1 x R), in
cache-sized row blocks that keep no Z_r, and applies the relu. A gate's
per-row weights alpha are a node of their own, ada_gate, which reads the
same pairs but forms no product. Both write their inputs' gradients by
one rule (_BlockGrads).

Sparse matrices enter only as constants on the left of spmm; gradients
flow to the dense operand. An operator is a SparseMatrix, or a
TwoHopOperator: a khop k = 2 operator held as its 1-hop factors, whose
product is three sparse products over them. Every
sparse x dense product of the package, spmm's forward and backward
included, is scipy's public A @ X on a CSR A, in the caller's thread;
the package starts no thread. Every forward output is checked finite
so a NaN surfaces where it is born, not three layers later.

No module of the package calls gather_rows, row_scale, add_bias,
sigmoid, row_softmax or slice_cols: they stay because the benchmark's
tracer (perfbench/spans.py) wraps them by name.
"""

import contextlib

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError


def _as_value(v):
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
    return arr


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "parents", "_backward")

    def __init__(self, value, requires_grad=False, parents=(), backward=None):
        self.value = _as_value(value)
        self.grad = None
        self.requires_grad = requires_grad
        self.parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def item(self):
        """Python float of a single-element tensor."""
        if self.value.size != 1:
            raise ValueError(f"item() needs a single element, got shape {self.shape}")
        return self.value.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={'yes' if self.requires_grad else 'no'})"


def tensor(value, requires_grad=False):
    return Tensor(value, requires_grad=requires_grad)


def constant(value):
    return Tensor(value, requires_grad=False)


def _result(value, parents, backward, op):
    if not np.all(np.isfinite(value)):
        raise NumericalError(f"non-finite value produced by {op}")
    req = any(p.requires_grad for p in parents)
    return Tensor(value, requires_grad=req,
                  parents=tuple(parents) if req else (),
                  backward=backward if req else None)


def _acc(t, g):
    """Add g into t.grad. g is an array the calling closure has just
    computed and nothing else holds, so a first gradient is g itself."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _acc_copy(t, g):
    """_acc for a gradient passed through unchanged (the upstream array or
    a view of it), which t must not share: a first gradient is a copy."""
    if t.requires_grad and t.grad is None:
        g = np.array(g, dtype=np.float64, copy=True)
    _acc(t, g)


def _transpose(m):
    """The transpose of the CSR m as CSR: m itself when bitwise equal to it."""
    mt = m.T.tocsr()
    same = (np.array_equal(mt.indptr, m.indptr) and np.array_equal(mt.indices, m.indices)
            and np.array_equal(mt.data.view(np.uint64), m.data.view(np.uint64)))
    return m if same else mt


class SparseMatrix:
    """Immutable CSR constant for sparse x dense products."""

    def __init__(self, a):
        m = sp.csr_matrix(a, dtype=np.float64, copy=True)
        m.sum_duplicates()
        m.sort_indices()
        if not np.all(np.isfinite(m.data)):
            raise NumericalError("sparse matrix has non-finite entries")
        self._m = m
        self._mt = None

    @property
    def shape(self):
        return self._m.shape

    @property
    def nnz(self):
        return self._m.nnz

    @property
    def scipy(self):
        return self._m

    @property
    def T_scipy(self):
        """The transpose as CSR: the matrix itself when bitwise equal to it."""
        if self._mt is None:
            self._mt = _transpose(self._m)
        return self._mt

    def apply(self, x):
        return self._m @ x

    def apply_t(self, x):
        return self.T_scipy @ x


def _scale_cols(m, v):
    """The CSR m with column j scaled by v[j]; m itself for a v of None."""
    if v is None:
        return m
    return sp.csr_matrix((m.data * v[m.indices], m.indices, m.indptr), shape=m.shape)


class TwoHopOperator:
    """A guided within-2-hop operator L I2 R held as its 1-hop factors
    (sparse.two_hop_factors): with A the binary adjacency, S = A + A A
    and C the extra walks of the pairs S joins by more than one,

        L I2 R Z = L (A (A Z') + A Z' - (diag(S) + C) Z'),   Z' = R Z,

    and with high_pass, Z minus that. L and R are the guidance's row and
    column scalings, as vectors (None for the identity). R is folded
    into A Z' and into diag(S) + C, which is one sparse factor, so a
    product holds two N x d temporaries besides its output: A Z' and
    (diag(S) + C) Z'. The transpose is R I2^T L, the same with A^T and
    C^T and with L and R swapped. nnz is the nonzeros one product reads,
    2 nnz(A) + nnz(diag(S) + C)."""

    def __init__(self, a, c, diag, left, right, high_pass):
        dc = (c + sp.diags(diag)).tocsr()
        self.shape, self.nnz = a.shape, 2 * a.nnz + dc.nnz
        self._high_pass = high_pass
        self._fwd = self._factors(a, dc, left, right)
        at, dct = _transpose(a), _transpose(dc)
        self._bwd = (self._fwd if at is a and dct is dc and left is right
                     else self._factors(at, dct, right, left))

    @staticmethod
    def _factors(a, dc, left, right):
        return (a, _scale_cols(a, right), _scale_cols(dc, right),
                None if left is None else left[:, None])

    def _product(self, factors, z):
        a, a_r, dc_r, left = factors
        t = a_r @ z                          # A Z'
        out = a @ t                          # A (A Z')
        out += t
        out -= dc_r @ z                      # (diag(S) + C) Z'
        if left is not None:
            out *= left
        if self._high_pass:
            np.subtract(z, out, out=out)
        return out

    def apply(self, x):
        return self._product(self._fwd, x)

    def apply_t(self, x):
        return self._product(self._bwd, x)


# ---------------------------------------------------------------------------
# primitives

_BLOCK_ROWS = 2048   # rows per block of a row-blocked node: temporaries stay in cache


def _row_blocks(n):
    return [(lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS)]


def matmul(a, b):
    value = a.value @ b.value

    def bw(g):
        if a.requires_grad:
            _acc(a, g @ b.value.T)
        if b.requires_grad:
            _acc(b, a.value.T @ g)
    return _result(value, (a, b), bw, "matmul")


def spmm(a, x):
    """Sparse constant times dense tensor; gradient flows to the dense side.
    a is a SparseMatrix or a TwoHopOperator: the forward is a.apply(X),
    the backward a.apply_t(G)."""
    value = a.apply(x.value)

    def bw(g):
        _acc(x, a.apply_t(g))
    return _result(value, (x,), bw, "spmm")


def add(a, b):
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch {a.shape} vs {b.shape}")
    value = a.value + b.value

    def bw(g):
        _acc_copy(a, g)
        _acc_copy(b, g)
    return _result(value, (a, b), bw, "add")


def scale(a, c):
    """Multiply by a python float constant."""
    c = float(c)
    value = a.value * c

    def bw(g):
        _acc(a, g * c)
    return _result(value, (a,), bw, "scale")


def row_scale(alpha, z):
    """diag(alpha) @ Z for an N x 1 alpha column."""
    if alpha.shape != (z.shape[0], 1):
        raise ValueError(f"row_scale needs ({z.shape[0]}, 1) alpha, got {alpha.shape}")
    value = alpha.value * z.value

    def bw(g):
        _acc(alpha, (g * z.value).sum(axis=1, keepdims=True))
        _acc(z, g * alpha.value)
    return _result(value, (alpha, z), bw, "row_scale")


class _BlockGrads:
    """How a row-blocked node over n rows writes its inputs' gradients:
    the first share of a tensor with no gradient yet goes straight into
    the rows of a fresh .grad, every other is added through one block
    buffer, made once and reused by every block. A .grad so holds _acc's
    sums in input order with no N-row array per input."""

    def __init__(self, inputs, n):
        self.inputs, self.direct = inputs, set()
        for i, t in enumerate(inputs):
            if t.requires_grad and t.grad is None:
                t.grad = np.empty(t.shape)
                self.direct.add(i)
        self.buf = np.empty(min(_BLOCK_ROWS, n) * max(
            [t.shape[1] for i, t in enumerate(inputs)
             if t.requires_grad and i not in self.direct], default=0))

    def rows(self, i, lo, hi):
        """Where input i's share of rows [lo, hi) is to be computed."""
        if i in self.direct:
            return self.inputs[i].grad[lo:hi]
        return self.buf[:(hi - lo) * self.inputs[i].shape[1]].reshape(hi - lo, -1)

    def add(self, i, lo, hi):
        if i not in self.direct:
            self.inputs[i].grad[lo:hi] += self.rows(i, lo, hi)


def _pair_shapes(pairs, op):
    """The shape of each pair's product X_r W_r, X_r's own for a W_r of
    None; a weight X_r cannot multiply is a ValueError naming op."""
    for x, w in pairs:
        if w is not None and x.shape[1] != w.shape[0]:
            raise ValueError(f"{op}: a channel input of shape {x.shape} against "
                             f"a weight of shape {w.shape}")
    return [x.shape if w is None else (x.shape[0], w.shape[1]) for x, w in pairs]


def ada_gate(pairs, extra_cols, w_att, b_att, w_mix, b_mix):
    """A gate's per-node channel weights as one tape node: alpha =
    row_softmax(h W_mix + b_mix), h = sigmoid([Z_1 .. Z_R, extra_cols]
    W_att + b_att), Z_r = X_r W_r pair r's product (X_r for a W_r of None).
    With A_r the rows of W_att that multiply Z_r, Z_r A_r = X_r (W_r A_r),
    so the gate forms no product. It keeps h besides its value; the sum
    under the sigmoid is checked finite, since the sigmoid would hide an
    infinity in it. With g_s the gradient at the sigmoid's input, dX_r =
    g_s (W_r A_r)^T, written as _BlockGrads writes it, block by block
    (_BLOCK_ROWS rows) through its one buffer; dW_r = (X_r^T g_s) A_r^T
    and dA_r = W_r^T (X_r^T g_s)."""
    pairs = list(pairs)
    n_mix = len(pairs)
    pairs += [(c, None) for c in extra_cols]
    shapes = _pair_shapes(pairs, "ada_gate")
    n = shapes[0][0]
    if w_mix.shape[1] != n_mix:
        raise ValueError(f"ada_gate needs ({n}, {n_mix}) alpha, got {(n, w_mix.shape[1])}")
    att = _weight_blocks(shapes, w_att, "ada_gate")

    def through():
        # W_r A_r, what the gate multiplies X_r by; made again, not kept
        return [a if w is None else w.value @ a for (_, w), a in zip(pairs, att)]
    wa = through()
    s = pairs[0][0].value @ wa[0]
    for (x, _), m in zip(pairs[1:], wa[1:]):
        s += x.value @ m
    s += b_att.value
    if not np.isfinite(s).all():
        raise NumericalError("non-finite value produced by ada_gate")
    h = _sigmoid_value(s)
    value = _softmax_value(h @ w_mix.value + b_mix.value)

    def bw(g):
        gm = value * (g - (g * value).sum(axis=1, keepdims=True))   # at the softmax's input
        gs = (gm @ w_mix.value.T) * h * (1.0 - h)                  # at the sigmoid's input
        grads, wa = _BlockGrads([x for x, _ in pairs], n), through()
        for lo, hi in _row_blocks(n):
            for r, ((x, _), m) in enumerate(zip(pairs, wa)):
                if x.requires_grad:
                    np.matmul(gs[lo:hi], m.T, out=grads.rows(r, lo, hi))
                    grads.add(r, lo, hi)
        d_att = []
        for (x, w), a in zip(pairs, att):
            xg = x.value.T @ gs
            if w is not None:
                if w.requires_grad:
                    _acc(w, xg @ a.T)
                xg = w.value.T @ xg
            d_att.append(xg)
        _acc(b_mix, gm.sum(axis=0, keepdims=True))
        _acc(w_mix, h.T @ gm)
        _acc(b_att, gs.sum(axis=0, keepdims=True))
        _acc(w_att, np.vstack(d_att))
    parents = [t for pair in pairs for t in pair if t is not None]
    return _result(value, (*parents, w_att, b_att, w_mix, b_mix), bw, "ada_gate")


def ada_mix(pairs, mix, relu=False):
    """A layer's combine of R channels as one tape node. A pair (X_r, W_r)
    is a tensor and its weight, whose product Z_r = X_r W_r is channel r's
    output (Z_r = X_r for a W_r of None). `mix` is "add": out = sum_r Z_r;
    "cat": out = [Z_1 .. Z_R]; or a weight tensor c, N x R (a gate's
    alpha) or 1 x R (for every row): out = sum_r diag(c_r) Z_r, c_r column
    r of c. Then max(out, 0) if `relu`, each block of out checked finite
    first, since the relu would hide a -inf in it. Forward and backward
    compute the Z_r block by block (_BLOCK_ROWS rows), one at a time, in
    one scratch set that each call makes once and every block reuses, so
    the node keeps only its output.

    The backward recomputes each block's relu mask from the output. With
    g the block's gradient at Z_r (its columns under cat) and u_r = g
    W_r^T (g for a W_r of None): dX_r = c_r u_r, written as _BlockGrads
    writes it; dW_r sums X_r^T (c_r g) over the blocks, in block order;
    dc_r = rowdot(u_r, X_r), which is rowdot(g, Z_r), summed over the rows
    for a 1 x R c."""
    pairs = list(pairs)
    shapes = _pair_shapes(pairs, "ada_mix")
    spans = _col_spans(shapes, "ada_mix")
    n, n_ch = shapes[0][0], len(pairs)
    weights = mix if isinstance(mix, Tensor) else None
    if weights is None and mix not in ("add", "cat"):
        raise ValueError(f"ada_mix mixes by 'add', 'cat' or a weight tensor, got {mix!r}")
    cat = weights is None and mix == "cat"
    if not cat and any(s != shapes[0] for s in shapes):
        raise ValueError(f"ada_mix needs equally shaped channel products, got {shapes}")
    if weights is not None and weights.shape not in ((n, n_ch), (1, n_ch)):
        raise ValueError(f"ada_mix needs ({n}, {n_ch}) or (1, {n_ch}) weights, "
                         f"got {weights.shape}")
    # c as N x R, a 1 x R c a view that repeats its row
    cw = None if weights is None else np.broadcast_to(weights.value, (n, n_ch))
    d, rows = spans[-1][1] if cat else shapes[0][1], min(_BLOCK_ROWS, n)
    value = np.empty((n, d))
    prod = np.empty(rows * max(s[1] for s in shapes))   # one product block at a time
    buf = None if cw is None else np.empty((rows, d))
    for lo, hi in _row_blocks(n):
        v = value[lo:hi]
        for r, ((x, w), (c0, c1)) in enumerate(zip(pairs, spans)):
            z = x.value[lo:hi] if w is None else np.matmul(
                x.value[lo:hi], w.value, out=prod[:(hi - lo) * (c1 - c0)].reshape(hi - lo, -1))
            if cat:
                v[:, c0:c1] = z
            elif r == 0:
                np.multiply(z, 1.0 if cw is None else cw[lo:hi, :1], out=v)
            else:
                v += z if cw is None else np.multiply(z, cw[lo:hi, r:r + 1], out=buf[:hi - lo])
        if relu:
            if not np.isfinite(v).all():
                raise NumericalError("non-finite value produced by ada_mix")
            np.maximum(v, 0.0, out=v)

    def bw(g):
        grads = _BlockGrads([x for x, _ in pairs], n)
        gws = [np.zeros(w.shape) if w is not None and w.requires_grad else None
               for _, w in pairs]
        dc = np.empty((n, n_ch)) if weights is not None and weights.requires_grad else None
        # u_r and c_r g under weights; without, u_r goes straight into dX_r
        ubuf, cbuf = (None, None) if cw is None else (
            np.empty(rows * max(x.shape[1] for x, _ in pairs)), np.empty(rows * d))
        masked = np.empty((rows, d)) if relu else None
        for lo, hi in _row_blocks(n):
            gb = g[lo:hi]
            if relu:
                gb = np.multiply(gb, value[lo:hi] > 0, out=masked[:hi - lo])
            for r, ((x, w), gw, (c0, c1)) in enumerate(zip(pairs, gws, spans)):
                gz, xb = gb[:, c0:c1] if cat else gb, x.value[lo:hi]
                c = None if cw is None else cw[lo:hi, r:r + 1]
                if gw is not None:
                    gw += xb.T @ (gz if c is None else np.multiply(
                        gz, c, out=cbuf[:gz.size].reshape(gz.shape)))
                if not (x.requires_grad or dc is not None):
                    continue
                gx = grads.rows(r, lo, hi) if x.requires_grad else None
                u = gz if w is None else np.matmul(
                    gz, w.value.T, out=gx if c is None else ubuf[:xb.size].reshape(xb.shape))
                if dc is not None:
                    dc[lo:hi, r] = np.einsum("ij,ij->i", u, xb)
                if gx is not None:
                    if u is not gx:
                        np.multiply(u, 1.0 if c is None else c, out=gx)
                    grads.add(r, lo, hi)
        for (_, w), gw in zip(pairs, gws):
            if gw is not None:
                _acc(w, gw)
        if dc is not None:
            _acc(weights, dc if weights.shape[0] == n else dc.sum(axis=0, keepdims=True))
    parents = [t for pair in pairs for t in pair if t is not None]
    return _result(value, (*parents, *([] if weights is None else [weights])), bw,
                   "ada_mix")


def add_bias(z, b):
    """Row-broadcast 1 x d bias."""
    if b.shape != (1, z.shape[1]):
        raise ValueError(f"bias must be (1, {z.shape[1]}), got {b.shape}")
    value = z.value + b.value

    def bw(g):
        _acc_copy(z, g)
        _acc(b, g.sum(axis=0, keepdims=True))
    return _result(value, (z, b), bw, "add_bias")


def relu(a):
    value = np.maximum(a.value, 0.0)

    def bw(g):
        _acc(a, g * (a.value > 0))
    return _result(value, (a,), bw, "relu")


def _sigmoid_value(x):
    # two-branch form so exp never sees a large positive argument
    neg = x < 0.0
    e = np.exp(np.where(neg, x, -x))
    return np.where(neg, e / (1.0 + e), 1.0 / (1.0 + e))


def sigmoid(a):
    value = _sigmoid_value(a.value)

    def bw(g):
        _acc(a, g * value * (1.0 - value))
    return _result(value, (a,), bw, "sigmoid")


def _softmax_value(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def row_softmax(a):
    if a.shape[1] == 0:
        raise ValueError("softmax over an empty row")
    value = _softmax_value(a.value)

    def bw(g):
        inner = (g * value).sum(axis=1, keepdims=True)
        _acc(a, value * (g - inner))
    return _result(value, (a,), bw, "row_softmax")


def _col_spans(shapes, op):
    """The (lo, hi) column span of each array of these shapes in their
    column concatenation; unequal row counts are a ValueError naming op."""
    if any(s[0] != shapes[0][0] for s in shapes):
        raise ValueError(f"{op} requires equal row counts")
    offsets = np.cumsum([0] + [s[1] for s in shapes])
    return list(zip(offsets[:-1], offsets[1:]))


def concat_cols(tensors):
    tensors = list(tensors)
    spans = _col_spans([t.shape for t in tensors], "concat_cols")
    value = np.concatenate([t.value for t in tensors], axis=1)

    def bw(g):
        for t, (lo, hi) in zip(tensors, spans):
            _acc_copy(t, g[:, lo:hi])
    return _result(value, tuple(tensors), bw, "concat_cols")


def _weight_blocks(shapes, w, op):
    """The rows of w that multiply each array of these shapes in their
    column concatenation times w, as views of w; unequal row counts, or
    widths that do not add up to w's rows, are a ValueError naming op."""
    spans = _col_spans(shapes, op)
    n_cols = spans[-1][1]
    if n_cols != w.shape[0]:
        raise ValueError(f"{op}: {n_cols} concatenated columns "
                         f"against a weight of shape {w.shape}")
    return [w.value[lo:hi] for lo, hi in spans]


def slice_cols(a, start, stop):
    value = a.value[:, start:stop]

    def bw(g):
        buf = np.zeros_like(a.value)
        buf[:, start:stop] = g
        _acc(a, buf)
    return _result(value, (a,), bw, "slice_cols")


def slice_rows(a, start, stop):
    """Rows [start, stop) as a view of `a`. A view of a checked value needs
    no check of its own; the gradient adds into a.grad in place."""
    def bw(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        a.grad[start:stop] += g
    req = a.requires_grad
    return Tensor(a.value[start:stop], requires_grad=req,
                  parents=(a,) if req else (), backward=bw if req else None)


def gather_rows(a, idx):
    idx = np.asarray(idx, dtype=np.int64)
    value = a.value[idx]

    def bw(g):
        buf = np.zeros_like(a.value)
        np.add.at(buf, idx, g)
        _acc(a, buf)
    return _result(value, (a,), bw, "gather_rows")


def cosine(v):
    """Sum of the cosine similarities of the K rows of v over the ordered
    pairs i != j: the off-diagonal sum of U U^T, U v with each nonzero row
    scaled to unit length, each entry formed as v_i . v_j / (|v_i| |v_j|).
    A zero row adds nothing and gets zero gradient. Row i's gradient is
    (2 / |v_i|) (I - u_i u_i^T) sum_{j != i} u_j."""
    norm = np.sqrt(np.einsum("ij,ij->i", v.value, v.value))[:, None]
    outer = norm * norm.T
    sim = np.divide(v.value @ v.value.T, outer, out=np.zeros_like(outer), where=outer > 0)
    value = np.array([[float(sim[~np.eye(len(sim), dtype=bool)].sum())]])

    def bw(g):
        inv = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0)
        u = v.value * inv
        rest = u.sum(axis=0) - u                          # sum_{j != i} u_j
        along = np.einsum("ij,ij->i", u, rest)[:, None]   # u_i . rest_i
        _acc(v, (2.0 * g.item()) * inv * (rest - along * u))
    return _result(value, (v,), bw, "cosine")


def dropout(a, rate, rng=None, train=True, mask=None):
    """Inverted dropout: kept entries scale by 1/(1-rate); eval mode is identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return a
    if mask is None:
        if rng is None:
            raise ValueError("dropout in train mode needs an rng (or explicit mask)")
        mask = (rng.random(a.shape) >= rate)
    keep = mask.astype(np.float64) / (1.0 - rate)
    value = a.value * keep

    def bw(g):
        _acc(a, g * keep)
    return _result(value, (a,), bw, "dropout")


def masked_cross_entropy(logits, labels, idx):
    """Mean softmax cross-entropy over the rows in idx."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("cross-entropy over an empty index set")
    labels = np.asarray(labels, dtype=np.int64)[idx]
    rows = logits.value[idx]
    shifted = rows - rows.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + rows.max(axis=1, keepdims=True)
    picked = rows[np.arange(len(idx)), labels][:, None]
    value = np.array([[float(np.mean(lse - picked))]])

    def bw(g):
        gs = g.item()
        soft = np.exp(rows - lse)
        soft[np.arange(len(idx)), labels] -= 1.0
        buf = np.zeros_like(logits.value)
        np.add.at(buf, idx, soft * (gs / len(idx)))
        _acc(logits, buf)
    return _result(value, (logits,), bw, "masked_cross_entropy")


# ---------------------------------------------------------------------------
# backward pass

def _toposort(loss):
    # the requires_grad nodes reachable from loss, each after its parents
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return topo


def _consumed(g):
    raise ValueError("backward through a tape an earlier backward consumed")


def backward(loss):
    """Populate .grad on every requires_grad leaf reachable from `loss`;
    each interior node drops its gradient, parents and closure once passed."""
    if loss.value.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    topo = _toposort(loss)
    loss.grad = np.ones_like(loss.value)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node.parents, node._backward = None, (), _consumed


def _leaves(params):
    return list(params.values() if isinstance(params, dict) else params)


def zero_grads(params):
    for t in _leaves(params):
        t.grad = None


@contextlib.contextmanager
def frozen(params):
    """Within the block the given leaves require no grad, so a forward over
    them records no tape; each leaf's flag is restored on exit, also when
    the block raises."""
    leaves = _leaves(params)
    flags = [t.requires_grad for t in leaves]
    for t in leaves:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(leaves, flags):
            t.requires_grad = flag


def grad_of(param):
    """Gradient array, zeros if the parameter never entered the graph."""
    return np.zeros_like(param.value) if param.grad is None else param.grad


def glorot(rng, shape):
    """Glorot-uniform init: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-a, a, size=shape)

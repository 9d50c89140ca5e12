import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from compatgnn import NumericalError
from compatgnn import autodiff as ad
from compatgnn.autodiff import (SparseMatrix, _acc, _acc_copy, ada_gate,
                                ada_mix, add, add_bias, backward, concat_cols,
                                constant, cosine, dropout, frozen, gather_rows,
                                glorot, grad_of, masked_cross_entropy, matmul,
                                relu, row_scale, row_softmax, scale, sigmoid,
                                slice_cols, spmm, tensor, zero_grads)
from compatgnn.gradcheck import grad_check
from compatgnn.rng import make_rng
from compatgnn.sparse import row_normalize, sym_normalize

from compatgnn.mp import _linear

from util import concat_matmul, mixed, product, random_graph, total

RNG = make_rng(0, "autodiff-tests")


def rand_t(shape, rng=RNG, scale_=1.0):
    return tensor(rng.normal(size=shape) * scale_, requires_grad=True)


# ---------------------------------------------------------------------------
# tensor basics

def test_tensor_shapes_normalize():
    assert tensor(3.0).shape == (1, 1)
    assert tensor([1.0, 2.0, 3.0]).shape == (1, 3)
    with pytest.raises(ValueError, match="2-D"):
        tensor(np.zeros((2, 2, 2)))


def test_constant_branches_are_pruned():
    t = add(constant([[1.0]]), constant([[2.0]]))
    assert not t.requires_grad
    assert t.parents == ()
    assert t._backward is None


def test_tensor_value_is_float64():
    t = tensor(np.ones((2, 2), dtype=np.float32))
    assert t.value.dtype == np.float64


# ---------------------------------------------------------------------------
# spmm: the one sparse x dense product

def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _kernel_operators():
    """(name, CSR) pairs whose dense sides have 40 or 43 rows."""
    rng = make_rng(0, "slab-ops")
    a = sp.random(40, 40, density=0.3, format="csr", random_state=1) * 3.7
    empty = a.tolil()
    empty[5:12] = 0
    full = a.tolil()
    full[7] = rng.normal(size=40)
    # (N + K) x N with N = 40 and K = 3, as mp's structure encoder builds it
    structure = row_normalize(random_graph(rng, 43, p=0.3))[:, :40]
    return [("random", a), ("empty_rows", empty.tocsr()), ("full_row", full.tocsr()),
            ("structure", structure.tocsr()), ("structure_t", structure.T.tocsr())]


@pytest.mark.parametrize("width", [17, 64, 130])
def test_spmm_value_and_gradient_are_bitwise_the_one_products(width):
    for name, m in _kernel_operators():
        a = SparseMatrix(m)
        rng = make_rng(width, name)
        x = tensor(rng.normal(size=(m.shape[1], width)), requires_grad=True)
        w = rng.normal(size=(m.shape[0], width))
        y = spmm(a, x)
        np.testing.assert_array_equal(_bits(y.value), _bits(a.scipy @ x.value))
        backward(total(y, constant(w)))   # the upstream gradient is w
        np.testing.assert_array_equal(_bits(x.grad), _bits(a.T_scipy @ w), err_msg=name)


# ---------------------------------------------------------------------------
# forward oracles

def test_matmul_forward():
    a, b = rand_t((3, 4)), rand_t((4, 2))
    np.testing.assert_array_equal(matmul(a, b).value, a.value @ b.value)


def test_spmm_matches_dense_matmul():
    for trial in range(5):
        rng = make_rng(trial, "spmm")
        g = random_graph(rng, 30, p=0.1)
        x = rng.normal(size=(30, 7))
        got = spmm(SparseMatrix(g.adjacency()), tensor(x)).value
        want = g.adjacency().toarray() @ x
        assert np.max(np.abs(got - want)) <= 1e-12


def test_spmm_gradient_matches_dense_transpose():
    # d/dx sum(w * Ax) = A^T w
    rng = make_rng(1, "spmmg")
    a = sp.csr_matrix((rng.random((6, 6)) < 0.4) * rng.random((6, 6)))
    w = rng.normal(size=(6, 3))
    x = rand_t((6, 3), rng)
    loss = total(spmm(SparseMatrix(a), x), constant(w))
    backward(loss)
    np.testing.assert_allclose(x.grad, a.toarray().T @ w, atol=1e-12)


def test_symmetric_operator_is_its_own_transpose():
    g = random_graph(make_rng(2, "symT"), 30, p=0.2)
    sym = SparseMatrix(sym_normalize(g))
    assert sym.T_scipy is sym.scipy
    row = SparseMatrix(row_normalize(g))
    assert row.T_scipy is not row.scipy
    np.testing.assert_array_equal(row.T_scipy.toarray(), row.scipy.T.toarray())


def test_spmm_gradient_through_symmetric_operator():
    rng = make_rng(3, "symT")
    a = SparseMatrix(sym_normalize(random_graph(rng, 20, p=0.3)))
    w = rng.normal(size=(20, 3))
    x = rand_t((20, 3), rng)
    backward(total(spmm(a, x), constant(w)))
    assert a.T_scipy is a.scipy
    np.testing.assert_allclose(x.grad, a.scipy.toarray().T @ w, atol=1e-12)


def test_elementwise_forward_oracles():
    a, b = rand_t((2, 3)), rand_t((2, 3))
    np.testing.assert_array_equal(add(a, b).value, a.value + b.value)
    np.testing.assert_array_equal(scale(a, -2.5).value, a.value * -2.5)
    np.testing.assert_array_equal(relu(a).value, np.maximum(a.value, 0))
    np.testing.assert_allclose(sigmoid(a).value, 1 / (1 + np.exp(-a.value)))


def test_shape_mismatches_raise():
    a, b = rand_t((2, 3)), rand_t((3, 2))
    with pytest.raises(ValueError, match="mismatch"):
        add(a, b)
    with pytest.raises(ValueError, match="row_scale"):
        row_scale(rand_t((3, 1)), rand_t((2, 3)))
    with pytest.raises(ValueError, match="bias"):
        add_bias(a, rand_t((1, 4)))
    with pytest.raises(ValueError, match="concat_cols requires equal row counts"):
        concat_cols([a, constant(np.zeros((3, 1)))])
    with pytest.raises(ValueError, match="softmax over an empty row"):
        row_softmax(constant(np.zeros((2, 0))))


def test_row_scale_and_scalar_scale_forward():
    alpha = tensor([[2.0], [0.5]], requires_grad=True)
    z = tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    np.testing.assert_array_equal(row_scale(alpha, z).value,
                                  [[2.0, 4.0], [1.5, 2.0]])
    np.testing.assert_array_equal(scale(z, 3.0).value, [[3.0, 6.0], [9.0, 12.0]])


def test_fused_ops_match_their_unfused_chains():
    a, b, d = rand_t((5, 3)), rand_t((5, 3)), rand_t((5, 1))
    w = rand_t((7, 2))
    np.testing.assert_allclose(_linear([a, b, d], w).value,
                               matmul(concat_cols([a, b, d]), w).value,
                               rtol=0, atol=1e-14)


def _grads_under(loss_of, leaves, upstream):
    """Gradients of the leaves when `upstream` flows into loss_of()'s output."""
    zero_grads(leaves)
    backward(total(loss_of(), constant(upstream)))
    return [grad_of(t).copy() for t in leaves]


def _ada_inputs(n, extra, rng):
    """Three channels as (X_r, W_r) pairs whose products are n x 5: an own
    weight (X n x 4, W 4 x 5), none (X n x 5, W None) and the prototype
    form, a constant n x 2 input times a 2 x 5 weight; an optional n x 1
    extra column and the gate parameters. Every tensor but the constant
    input is a leaf that requires grad."""
    pairs = [(rand_t((n, 4), rng), rand_t((4, 5), rng)),
             (rand_t((n, 5), rng), None),
             (constant(rng.random((n, 2))), rand_t((2, 5), rng))]
    cols = [rand_t((n, 1), rng)] if extra else []
    gate = [rand_t((15 + len(cols), 3), rng), rand_t((1, 3), rng),
            rand_t((3, 3), rng), rand_t((1, 3), rng)]
    return pairs, cols, gate


def _pair_leaves(pairs):
    return [t for pair in pairs for t in pair if t is not None and t.requires_grad]


def _products(pairs):
    return [x if w is None else matmul(x, w) for x, w in pairs]


def _gate_chain(pairs, cols, w_att, b_att, w_mix, b_mix):
    """The gate as the chain ada_gate replaces: a matmul per weight,
    concat_cols, matmul and add_bias, sigmoid, matmul and add_bias,
    row_softmax."""
    h = sigmoid(add_bias(matmul(concat_cols(_products(pairs) + cols), w_att), b_att))
    return row_softmax(add_bias(matmul(h, w_mix), b_mix))


def _ada_chain(pairs, cols, w_att, b_att, w_mix, b_mix, relu_):
    """An ada_add layer as the chain its two nodes replace: the gate's
    chain, then a matmul per weighted channel, row_scale and add."""
    alpha = _gate_chain(pairs, cols, w_att, b_att, w_mix, b_mix)
    zs = _products(pairs)
    mixed = row_scale(slice_cols(alpha, 0, 1), zs[0])
    for r, z in enumerate(zs[1:], start=1):
        mixed = add(mixed, row_scale(slice_cols(alpha, r, r + 1), z))
    return relu(mixed) if relu_ else mixed


def _gated(pairs, cols, gate, relu_):
    """An ada_add layer's two nodes: the gate, then the mix by its alpha."""
    return ada_mix(pairs, ada_gate(pairs, cols, *gate), relu=relu_)


@pytest.mark.parametrize("n", [7, 2 * ad._BLOCK_ROWS + 5])
@pytest.mark.parametrize("extra", [False, True])
@pytest.mark.parametrize("relu_", [False, True])
def test_ada_mix_matches_the_composed_chain(n, extra, relu_):
    rng = make_rng(32, "ada-chain", n, extra, relu_)
    pairs, cols, gate = _ada_inputs(n, extra, rng)
    leaves = _pair_leaves(pairs) + cols + gate
    upstream = rng.normal(size=(n, 5))

    def fused():
        return _gated(pairs, cols, gate, relu_)

    def chain():
        return _ada_chain(pairs, cols, *gate, relu_)
    np.testing.assert_allclose(fused().value, chain().value, rtol=0, atol=1e-12)
    for got, want in zip(_grads_under(fused, leaves, upstream),
                         _grads_under(chain, leaves, upstream), strict=True):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # the constant input gets no gradient
    assert pairs[2][0].grad is None
    # the mix's value is its weights' mix of the products
    want = mixed(ada_gate(pairs, cols, *gate).value, _products(pairs))
    np.testing.assert_array_equal(fused().value, np.maximum(want, 0.0) if relu_ else want)


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("extra", [False, True])
def test_ada_gate_matches_the_composed_chain(blocks, extra):
    """Seeded gates over 1 to 3 pairs of every kind (weightless pairs, a
    bias pair and an input two pairs share among them), with and without
    the degree column, n over 1 to 3 row blocks: alpha and every gradient
    within 1e-12 of the chain's."""
    rng = make_rng(45, "gate-chain", blocks, extra)
    n = (blocks - 1) * ad._BLOCK_ROWS + int(rng.integers(3, 9))
    for layout in MIX_LAYOUTS:
        pairs, _, gate = _mix_case("gate", layout, n, rng)
        cols = [constant(rng.integers(1, 9, size=(n, 1)).astype(float))] if extra else []
        gate[0] = rand_t((gate[0].shape[0] + len(cols), len(pairs)), rng)
        leaves = list({id(t): t for t in _pair_leaves(pairs)}.values()) + gate
        alpha = ada_gate(pairs, cols, *gate)
        np.testing.assert_allclose(alpha.value, _gate_chain(pairs, cols, *gate).value,
                                   rtol=0, atol=1e-12, err_msg=layout)
        upstream = rng.normal(size=alpha.shape) / n
        got = _grads_under(lambda: ada_gate(pairs, cols, *gate), leaves, upstream)
        want = _grads_under(lambda: _gate_chain(pairs, cols, *gate), leaves, upstream)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=layout)
        assert all(t.grad is None for t in cols)
        assert all(x.grad is None for x, _ in pairs if not x.requires_grad)


def test_the_gate_keeps_h_and_the_mix_only_its_output():
    rng = make_rng(33, "ada-node")
    pairs, cols, gate = _ada_inputs(9, True, rng)
    out = _gated(pairs, cols, gate, True)
    alpha = out.parents[-1]
    inputs = [t for pair in pairs for t in pair if t is not None]
    assert all(p is q for p, q in zip(out.parents, inputs + [alpha], strict=True))
    assert all(p is q for p, q in zip(alpha.parents, inputs + cols + gate, strict=True))

    def kept(node):
        # the arrays of its own a node's backward holds, views left out
        return [c.cell_contents for c in node._backward.__closure__
                if isinstance(c.cell_contents, np.ndarray) and c.cell_contents.base is None]
    # no channel product: the mix keeps its output, the gate alpha and h
    assert [a is out.value for a in kept(out)] == [True]
    assert sorted(a.shape for a in kept(alpha)) == [(9, 3), (9, 3)]


def test_ada_mix_rejects_bad_shapes():
    rng = make_rng(34, "ada-shapes")
    pairs, cols, gate = _ada_inputs(4, True, rng)
    with pytest.raises(ValueError, match="equally shaped"):
        ada_mix([pairs[0], (rand_t((4, 2), rng), None), pairs[2]],
                constant(np.ones((4, 3))))
    with pytest.raises(ValueError, match=r"ada_gate: a channel input of shape \(4, 3\)"):
        _gated([(rand_t((4, 3), rng), pairs[0][1])] + pairs[1:], cols, gate, False)
    with pytest.raises(ValueError, match=r"ada_mix: a channel input of shape \(4, 3\)"):
        ada_mix([(rand_t((4, 3), rng), pairs[0][1])] + pairs[1:], "add")
    with pytest.raises(ValueError, match=r"\(4, 2\) alpha"):
        _gated(pairs[:2], cols, gate, False)
    with pytest.raises(ValueError, match="17 concatenated columns"):
        _gated(pairs, cols + cols, gate, False)
    with pytest.raises(ValueError, match="equal row counts"):
        _gated(pairs, [rand_t((3, 1), rng)], gate, False)


# channel kinds of the property test: an own weight, none, the prototype
# form (a constant input times a weight), a weight on pair 0's input, and
# a bias (a constant column of ones times a 1 x d weight)
MIX_LAYOUTS = ("o", "w", "c", "ow", "oc", "osw", "wsc", "b", "ob", "oswb")


def _mix_case(mix, layout, n, rng):
    """Pairs of these kinds, the extra columns and the mix: "add", "cat",
    a weight tensor that requires grad, 1 x R ("fixed") or n x R ("rows"),
    or the gate parameters. cat draws each product's width, any other mix
    makes them n x 5; every tensor but a constant input is a leaf that
    requires grad."""
    pairs = []
    for kind in layout:
        d = int(rng.integers(1, 5)) if mix == "cat" else 5
        if kind == "o":
            pairs.append((rand_t((n, 4), rng), rand_t((4, d), rng)))
        elif kind == "w":
            pairs.append((rand_t((n, d), rng), None))
        elif kind == "c":
            pairs.append((constant(rng.random((n, 2))), rand_t((2, d), rng)))
        elif kind == "b":
            pairs.append((constant(np.ones((n, 1))), rand_t((1, d), rng)))
        else:
            x = pairs[0][0]
            pairs.append((x, rand_t((x.shape[1], d), rng)))
    r = len(pairs)
    cols = [rand_t((n, 1), rng)] if mix == "gate+col" else []
    if mix.startswith("gate"):
        return pairs, cols, [rand_t((5 * r + len(cols), r), rng), rand_t((1, r), rng),
                             rand_t((r, r), rng), rand_t((1, r), rng)]
    if mix in ("fixed", "rows"):
        return pairs, cols, rand_t((1 if mix == "fixed" else n, r), rng)
    return pairs, cols, mix


def _mixed_by(pairs, cols, mix, relu_):
    """ada_mix under the mix of _mix_case, behind its gate for a gate's."""
    if isinstance(mix, list):
        return _gated(pairs, cols, mix, relu_)
    return ada_mix(pairs, mix, relu=relu_)


def _mix_chain(pairs, cols, mix, relu_):
    """The combine as the chain of nodes ada_mix replaces: a matmul per
    weighted pair, then the gate's chain, row_scale and add; row_scale of
    each weight's column (a 1 x R weight's column c as the N x 1 column
    ones c) and add; add alone; or concat_cols; then relu."""
    if isinstance(mix, list):
        return _ada_chain(pairs, cols, *mix, relu_)
    zs = [product(p) for p in pairs]
    if mix == "cat":
        out = concat_cols(zs)
    else:
        out = None
        for r, z in enumerate(zs):
            if isinstance(mix, ad.Tensor):
                c = slice_cols(mix, r, r + 1)
                if mix.shape[0] == 1:
                    c = matmul(constant(np.ones((z.shape[0], 1))), c)
                z = row_scale(c, z)
            out = z if out is None else add(out, z)
    return relu(out) if relu_ else out


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("relu_", [False, True])
@pytest.mark.parametrize("mix", ["gate", "gate+col", "add", "fixed", "rows", "cat"])
def test_ada_mix_matches_the_composed_chain_for_every_mix(mix, relu_, blocks):
    """Seeded cases over 1 to 3 pairs of every kind, n over 1 to 3 row
    blocks: the value is within 1e-12 of the chain's, as is every
    gradient. When one block covers every row, the value is bitwise the
    chain's but behind a gate, whose alpha the chain computes from the
    products; under add or cat so is every gradient."""
    rng = make_rng(40, "mix-chain", mix, relu_, blocks)
    n = (blocks - 1) * ad._BLOCK_ROWS + int(rng.integers(3, 9))
    gated = mix.startswith("gate")
    for layout in MIX_LAYOUTS:
        pairs, cols, arg = _mix_case(mix, layout, n, rng)
        leaves = list({id(t): t for t in _pair_leaves(pairs) + cols}.values())
        leaves += arg if gated else [arg] if isinstance(arg, ad.Tensor) else []
        fused = _mixed_by(pairs, cols, arg, relu_)
        chain = _mix_chain(pairs, cols, arg, relu_)
        if blocks == 1 and not gated:
            assert fused.value.tobytes() == chain.value.tobytes(), layout
        np.testing.assert_allclose(fused.value, chain.value, rtol=0, atol=1e-12)
        # a mean loss's gradient, so that sums over the rows stay near 1
        upstream = rng.normal(size=fused.shape) / n
        got = _grads_under(lambda: _mixed_by(pairs, cols, arg, relu_), leaves, upstream)
        want = _grads_under(lambda: _mix_chain(pairs, cols, arg, relu_), leaves,
                            upstream)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=layout)
            if blocks == 1 and mix in ("add", "cat"):
                assert g.tobytes() == w.tobytes(), layout
        assert all(x.grad is None for x, _ in pairs if not x.requires_grad)
        # no product on the tape: the mix keeps only its output (and a
        # view of its weights)
        kept = [c.cell_contents for c in fused._backward.__closure__
                if isinstance(c.cell_contents, np.ndarray) and c.cell_contents.base is None]
        assert [a is fused.value for a in kept] == [True]


def test_ada_mix_rejects_a_bad_mix():
    rng = make_rng(41, "mix-shapes")
    pairs, _, _ = _ada_inputs(4, True, rng)
    with pytest.raises(ValueError, match=r"needs \(4, 3\) or \(1, 3\) weights, got \(1, 2\)"):
        ada_mix(pairs, constant(np.ones((1, 2))))
    with pytest.raises(ValueError, match=r"got \(3, 3\)"):
        ada_mix(pairs, constant(np.ones((3, 3))))
    with pytest.raises(ValueError, match="'add', 'cat' or a weight tensor, got 'sum'"):
        ada_mix(pairs, "sum")
    with pytest.raises(ValueError, match="equally shaped"):
        ada_mix([pairs[0], (rand_t((4, 2), rng), None)], "add")
    with pytest.raises(ValueError, match="equal row counts"):
        ada_mix([pairs[0], (rand_t((3, 2), rng), None)], "cat")


def _poisoned_block_inputs(seed):
    """_ada_inputs over two and a bit blocks, with a positive gate weight
    and channel 0's input row `row` in the second block to poison."""
    n = 2 * ad._BLOCK_ROWS + 5
    pairs, cols, gate = _ada_inputs(n, False, make_rng(35, "ada-nan", seed))
    gate[0].value = np.abs(gate[0].value)
    return pairs, cols, gate, ad._BLOCK_ROWS + 4


def test_ada_mix_nan_in_a_channel_names_the_op():
    pairs, cols, gate, row = _poisoned_block_inputs("nan")
    alpha = constant(ada_gate(pairs, cols, *gate).value)
    pairs[0][0].value[row, 2] = np.nan
    for relu_ in (False, True):
        with pytest.raises(NumericalError, match="ada_mix"):
            ada_mix(pairs, alpha, relu=relu_)
    with pytest.raises(NumericalError, match="ada_gate"):
        ada_gate(pairs, cols, *gate)


def test_ada_mix_product_overflowing_to_minus_inf_names_the_op():
    """Finite inputs whose product X_0 W_0 is -inf in one row of the
    second block, mixed by a finite alpha: with relu on, only the check
    of each mixed block before the relu sees the -inf."""
    pairs, cols, gate, row = _poisoned_block_inputs("-inf")
    alpha = constant(ada_gate(pairs, cols, *gate).value)
    x, w = pairs[0]
    x.value[row] = [1e300, 0.0, 0.0, 0.0]
    w.value[0] = -1e300
    with np.errstate(over="ignore"):
        for relu_ in (False, True):
            with pytest.raises(NumericalError, match="ada_mix"):
                ada_mix(pairs, alpha, relu=relu_)


def test_ada_gate_sum_overflowing_under_the_sigmoid_names_the_op():
    """Finite inputs whose gate sum X_0 (W_0 A_0) is -inf in one row: the
    sigmoid would map it to 0 and alpha would stay finite, so only the
    check of the sum sees it."""
    pairs, cols, gate, row = _poisoned_block_inputs("gate-inf")
    x, w = pairs[0]
    x.value[row] = [1e300, 0.0, 0.0, 0.0]
    w.value[0] = -1e300
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="ada_gate"):
            ada_gate(pairs, cols, *gate)


def test_ada_mix_sum_overflowing_to_minus_inf_under_a_relu_names_the_op():
    """Finite channels whose sum, or whose product alone (also side by
    side), is -inf in one row of the second block: the relu would map
    that row to 0, so only the check of each mixed block before the relu
    sees it."""
    n = 2 * ad._BLOCK_ROWS + 5
    rng = make_rng(44, "sum-inf")
    xs = [rand_t((n, 3), rng) for _ in range(2)]
    w, w_inf = rand_t((3, 3), rng), rand_t((3, 3), rng)
    for x in xs:
        x.value[ad._BLOCK_ROWS + 4] = -1e308
    w.value[:] = np.eye(3)
    w_inf.value[:] = 2.0 * np.eye(3)
    cases = [([(x, None) for x in xs], "add"), ([(x, w) for x in xs], "add"),
             ([(xs[0], w_inf)], "add"), ([(xs[0], w_inf), (xs[1], None)], "cat")]
    with np.errstate(over="ignore"):
        for pairs, mix in cases:
            for relu_ in (False, True):
                with pytest.raises(NumericalError, match="ada_mix"):
                    ada_mix(pairs, mix, relu=relu_)


def _head(blocks, *params):
    """A classifier head as mp builds it: [blocks] W + b as one combine
    node, and for an MLP head (params W1, b1, W2, b2) its relu, then a
    second node."""
    w, b, *second = params
    if not second:
        return _linear(blocks, w, b)
    return _linear([_linear(blocks, w, b, relu=True)], *second)


def _head_chain(blocks, *params, cat=False):
    """The head as the chain of nodes the combine nodes replace: [blocks] W
    as concat_matmul (a matmul over concat_cols if `cat`), add_bias, and
    for an MLP head relu, matmul and add_bias."""
    w, b, *second = params
    out = add_bias(matmul(concat_cols(blocks), w) if cat else concat_matmul(blocks, w), b)
    if second:
        out = add_bias(matmul(relu(out), second[0]), second[1])
    return out


def _head_inputs(n, grad_blocks, rng, head="mlp", n_blocks=3):
    """A head over n_blocks column blocks into 6 hidden units (mlp) and 3
    logits. Of three blocks, n x 4, n x 3 and a constant n x 1, the first
    n_blocks are taken; the first two are leaves that require grad when
    `grad_blocks`, constants otherwise. Every weight and bias is a leaf."""
    blocks = [rand_t((n, 4), rng), rand_t((n, 3), rng),
              constant(rng.normal(size=(n, 1)))][:n_blocks]
    if not grad_blocks:
        blocks = [constant(t.value) for t in blocks]
    d_in = sum(t.shape[1] for t in blocks)
    if head == "linear":
        return blocks, [rand_t((d_in, 3), rng), rand_t((1, 3), rng)]
    return blocks, [rand_t((d_in, 6), rng), rand_t((1, 6), rng),
                    rand_t((6, 3), rng), rand_t((1, 3), rng)]


@pytest.mark.parametrize("n", [7, ad._BLOCK_ROWS + 5, 2 * ad._BLOCK_ROWS + 5])
@pytest.mark.parametrize("grad_blocks", [False, True])
def test_mlp_head_matches_the_composed_chain(n, grad_blocks):
    """Both classifier heads, linear and MLP, over 1 to 3 fuse blocks and
    n over 1 to 3 row blocks, against the chain of nodes: the value is
    bitwise the chain's when one row block covers every row and within
    1e-12 otherwise, also of a matmul over concat_cols; every gradient is
    within 1e-12."""
    rng = make_rng(37, "head-chain", n, grad_blocks)
    for head, n_blocks in itertools.product(("linear", "mlp"), (1, 2, 3)):
        blocks, params = _head_inputs(n, grad_blocks, rng, head, n_blocks)
        leaves = [t for t in blocks if t.requires_grad] + params
        fused = _head(blocks, *params)
        chain = _head_chain(blocks, *params)
        if n <= ad._BLOCK_ROWS:
            assert fused.value.tobytes() == chain.value.tobytes(), (head, n_blocks)
        for want in (chain, _head_chain(blocks, *params, cat=True)):
            np.testing.assert_allclose(fused.value, want.value, rtol=0, atol=1e-12)
        # a mean loss's gradient, so that sums over the rows stay near 1
        upstream = rng.normal(size=fused.shape) / n
        got = _grads_under(lambda: _head(blocks, *params), leaves, upstream)
        want = _grads_under(lambda: _head_chain(blocks, *params), leaves, upstream)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=head)
        assert all(t.grad is None for t in blocks if not t.requires_grad)


@pytest.mark.parametrize("held", [False, True])
def test_mlp_head_adds_each_share_into_the_gradient(held):
    """A block read twice, whose gradient may already be held when the
    backward reaches it: its .grad is the held gradient plus each share,
    in order, bitwise the chain's sums, and in the same array."""
    rng = make_rng(42, "head-held", held)
    x = rand_t((9, 4), rng)
    blocks = [x, x, constant(rng.normal(size=(9, 1)))]
    params = [rand_t((9, 6), rng), rand_t((1, 6), rng), rand_t((6, 3), rng),
              rand_t((1, 3), rng)]
    start, upstream = rng.normal(size=x.shape), rng.normal(size=(9, 3))

    def x_grad(node):
        zero_grads(params)
        x.grad = start.copy() if held else None
        held_grad = x.grad
        backward(total(node(), constant(upstream)))
        assert held_grad is None or x.grad is held_grad
        return x.grad
    want = x_grad(lambda: _head_chain(blocks, *params))
    assert x_grad(lambda: _head(blocks, *params)).tobytes() == want.tobytes()


def test_mlp_head_keeps_only_its_relu_output_and_logits():
    blocks, params = _head_inputs(9, True, make_rng(38, "head-node"))
    out = _head(blocks, *params)
    h = out.parents[0]
    kept = [c.cell_contents for node in (out, h) for c in node._backward.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    # the two combine nodes keep their outputs only: the logits and the
    # relu output
    pre = add_bias(concat_matmul(blocks, params[0]), params[1]).value
    assert len(kept) == 2 and kept[0] is out.value and kept[1] is h.value
    np.testing.assert_array_equal(h.value, np.maximum(pre, 0.0))


def test_mlp_head_pre_activation_overflowing_to_minus_inf_names_the_op():
    """A finite block whose pre-activation is -inf in one row of the
    second row block: the relu maps that row to 0 and the logits stay
    finite, so only a check before the relu sees it."""
    n = 2 * ad._BLOCK_ROWS + 5
    blocks, params = _head_inputs(n, True, make_rng(39, "head-inf"))
    blocks[0].value[:, 0] = 0.0
    blocks[0].value[ad._BLOCK_ROWS + 4] = [1e300, 0.0, 0.0, 0.0]
    params[0].value[0] = -1e300
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="ada_mix"):
            _head(blocks, *params)


def _ada_backward_peaks(out, upstream):
    """The traced bytes an ada_add layer's two backwards, the mix's and
    then its gate's, each allocate at their peak."""
    gate, peaks = out.parents[-1], []
    for node, g in ((out, upstream), (gate, None)):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            node._backward(node.grad if g is None else g)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("shared", [False, True])
def test_ada_mix_writes_each_input_gradient_block_by_block(shared, held):
    """Channel 0's input X holds a gradient when the backward reaches it
    if `held`, as compatgnn's layer input does after the classifier's
    backward; when shared, channel 1 reads X too. The mix and then the
    gate write X's gradient block by block: bitwise _acc's sums over each
    node's share of each pair computed into a fresh N x d array, the
    mix's first, in pair order."""
    n = 4 * ad._BLOCK_ROWS
    rng = make_rng(36, "ada-held", shared, held)
    pairs, cols, gate = _ada_inputs(n, True, rng)
    # X wide enough that an N x d array stands out among the N x R ones
    x = rand_t((n, 32), rng)
    pairs[0] = (x, rand_t((32, 5), rng))
    if shared:
        pairs[1] = (x, rand_t((32, 5), rng))
    start = rng.normal(size=x.shape) if held else None
    upstream = rng.normal(size=(n, 5))
    others = [t for t in _pair_leaves(pairs) + cols + gate if t is not x]

    def twins():
        # each pair reading X reads its own copy of X
        return [(tensor(xi.value, requires_grad=True) if xi is x else xi, w)
                for xi, w in pairs]
    mix_twins, gate_twins = twins(), twins()
    copies = [xi for xi, _ in mix_twins + gate_twins if xi is not x and xi.requires_grad
              and xi.value is x.value]
    zero_grads(copies + others)
    fresh = _ada_backward_peaks(
        ada_mix(mix_twins, ada_gate(gate_twins, cols, *gate), relu=True), upstream)
    per_node = len(copies) // 2
    want = start.copy() if held else copies.pop(0).grad
    for c in copies:
        want += c.grad
    want_others = [grad_of(t).copy() for t in others]

    zero_grads(others)
    x.grad = None if start is None else start.copy()
    in_place = _ada_backward_peaks(_gated(pairs, cols, gate, True), upstream)
    assert x.grad.tobytes() == want.tobytes()
    assert all(grad_of(t).tobytes() == w.tobytes() for t, w in zip(others, want_others))
    # each share X's gradient already holds (all but the mix's first, when
    # X held none) allocates no N x d array; each node adds one block
    # buffer, a quarter of X at n = 4 blocks
    for node, held_shares in enumerate((per_node - (0 if held else 1), per_node)):
        if held_shares:
            saved = held_shares * x.value.nbytes - x.value.nbytes // 4
            assert in_place[node] <= fresh[node] - 0.9 * saved, node


def test_row_softmax_forward_and_stability():
    a = tensor([[1.0, 2.0, 3.0], [1e4, 1e4 + 1.0, 1e4 - 2.0]])
    out = row_softmax(a).value
    np.testing.assert_allclose(out.sum(axis=1), [1.0, 1.0], atol=1e-12)
    e = np.exp([1.0, 2.0, 3.0])
    np.testing.assert_allclose(out[0], e / e.sum(), atol=1e-12)
    e2 = np.exp([0.0, 1.0, -2.0])
    np.testing.assert_allclose(out[1], e2 / e2.sum(), atol=1e-12)


def test_concat_slice_gather_forward():
    a, b = rand_t((3, 2)), rand_t((3, 4))
    cat = concat_cols([a, b])
    assert cat.shape == (3, 6)
    np.testing.assert_array_equal(cat.value[:, :2], a.value)
    np.testing.assert_array_equal(slice_cols(cat, 2, 6).value, b.value)
    idx = [2, 0, 2]
    np.testing.assert_array_equal(gather_rows(a, idx).value, a.value[idx])


def test_cosine_forward_and_zero_case():
    # each ordered pair once: 2 cos(u, v) for two rows
    v = tensor([[1.0, 0.0], [1.0, 1.0]], requires_grad=True)
    assert cosine(v).item() == pytest.approx(np.sqrt(2))
    # three rows at 0, 60 and 120 degrees: 2 (1/2 - 1/2 + 1/2)
    t = np.radians([0.0, 60.0, 120.0])
    assert cosine(tensor(np.c_[np.cos(t), np.sin(t)])).item() == pytest.approx(1.0)
    # a zero row adds nothing and gets zero gradient; a lone row has no pair
    z = tensor([[1.0, 0.0], [0.0, 0.0]], requires_grad=True)
    out = cosine(z)
    assert out.item() == 0.0
    backward(out)
    np.testing.assert_array_equal(z.grad, 0.0)
    assert cosine(tensor([[3.0, 4.0]])).item() == 0.0


def _pairwise_cosine_loop(v):
    """The discrimination loss as a loop over the pairs, in numpy:
    2 sum_{i < j} cos(v_i, v_j), a pair with a zero row adding 0 and no
    gradient; the value and the gradient of v."""
    total_, grad = 0.0, np.zeros_like(v)
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            nu, nv = np.linalg.norm(v[i]), np.linalg.norm(v[j])
            if nu == 0.0 or nv == 0.0:
                continue
            c = v[i] @ v[j] / (nu * nv)
            total_ += c
            grad[i] += 2.0 * (v[j] / (nu * nv) - c * v[i] / (nu * nu))
            grad[j] += 2.0 * (v[i] / (nu * nv) - c * v[j] / (nv * nv))
    return 2.0 * total_, grad


def test_cosine_matches_the_pairwise_loop():
    """120 seeded V, K in [2, 20] and d in [1, 200], every third with
    zero rows: value and gradient within 1e-12 of the loop's."""
    for case in range(120):
        rng = make_rng(46, "cosine-loop", case)
        k, d = int(rng.integers(2, 21)), int(rng.integers(1, 201))
        v = rng.normal(size=(k, d)) * rng.uniform(0.5, 4.0, size=(k, 1))
        if case % 3 == 0:
            v[rng.choice(k, size=int(rng.integers(1, k)), replace=False)] = 0.0
        want, want_grad = _pairwise_cosine_loop(v)
        t = tensor(v, requires_grad=True)
        got = cosine(t)
        backward(got)
        assert abs(got.item() - want) <= 1e-12, (case, k, d)
        np.testing.assert_allclose(t.grad, want_grad, rtol=0, atol=1e-12,
                                   err_msg=f"case {case}: K {k}, d {d}")


def test_dropout_modes():
    a = rand_t((50, 20))
    assert dropout(a, 0.3, train=False) is a
    assert dropout(a, 0.0, rng=RNG) is a
    with pytest.raises(ValueError, match="rng"):
        dropout(a, 0.5)
    with pytest.raises(ValueError, match="rate"):
        dropout(a, 1.0, rng=RNG)
    mask = make_rng(0, "dmask").random(a.shape) >= 0.4
    out = dropout(a, 0.4, mask=mask).value
    np.testing.assert_array_equal(out[~mask], 0.0)
    np.testing.assert_allclose(out[mask], a.value[mask] / 0.6)


def test_dropout_preserves_expectation():
    a = tensor(np.ones((400, 10)))
    out = dropout(a, 0.5, rng=make_rng(2, "dexp")).value
    assert abs(out.mean() - 1.0) < 0.05


def test_masked_cross_entropy_uniform_logits():
    logits = tensor(np.zeros((6, 4)), requires_grad=True)
    loss = masked_cross_entropy(logits, [0, 1, 2, 3, 0, 1], [0, 2, 4])
    assert loss.item() == pytest.approx(np.log(4.0))
    backward(loss)
    # rows outside idx receive no gradient
    np.testing.assert_array_equal(logits.grad[[1, 3, 5]], 0.0)
    assert np.any(logits.grad[0] != 0)


def test_masked_cross_entropy_hand_case():
    logits = tensor([[2.0, 0.0], [0.0, 0.0]], requires_grad=True)
    loss = masked_cross_entropy(logits, [0, 1], [0])
    want = -np.log(np.exp(2.0) / (np.exp(2.0) + 1.0))
    assert loss.item() == pytest.approx(want, abs=1e-12)


def test_masked_cross_entropy_stable_at_huge_logits():
    logits = tensor([[1e4, 0.0]], requires_grad=True)
    loss = masked_cross_entropy(logits, [0], [0])
    assert loss.item() == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError, match="empty"):
        masked_cross_entropy(logits, [0], [])


def test_tsum_tmean():
    """The tests' scalar loss, util.total: a sum, and a mean as the sum
    weighted by 1/4."""
    a = tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    quarter = constant(np.full((2, 2), 0.25))
    assert total(a).item() == 10.0
    assert total(a, quarter).item() == 2.5
    backward(total(a, quarter))
    np.testing.assert_array_equal(a.grad, np.full((2, 2), 0.25))
    assert quarter.grad is None


# ---------------------------------------------------------------------------
# backward mechanics

def test_shared_subexpression_accumulates():
    x = tensor([[1.0, 2.0]], requires_grad=True)
    backward(total(add(x, x)))
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])


def test_sequential_backward_accumulates_until_zeroed():
    x = tensor([[1.0]], requires_grad=True)
    backward(total(scale(x, 3.0)))
    backward(total(scale(x, 3.0)))
    np.testing.assert_array_equal(x.grad, [[6.0]])
    zero_grads({"x": x})
    assert x.grad is None
    assert np.array_equal(grad_of(x), [[0.0]])


def test_backward_releases_interior_gradients():
    x = tensor([[1.0, 2.0]], requires_grad=True)
    h = scale(x, 3.0)
    backward(total(h))
    assert h.grad is None
    np.testing.assert_array_equal(x.grad, [[3.0, 3.0]])


def test_backward_consumes_its_tape():
    x = tensor([[1.0, 2.0]], requires_grad=True)
    h = scale(x, 3.0)
    loss = total(h)
    backward(loss)
    assert h.parents == () and loss.parents == ()
    assert x._backward is None           # leaves are left alone
    with pytest.raises(ValueError, match="an earlier backward consumed"):
        backward(loss)
    with pytest.raises(ValueError, match="an earlier backward consumed"):
        backward(total(h))
    np.testing.assert_array_equal(x.grad, [[3.0, 3.0]])


# Each case: leaf shapes, a loss whose leaf gradients arrive only through
# pass-through ops, or through a fused op that derives them from one
# upstream array (the linear head, a combine node), and the dense reference
# gradients for the weights c.
def _pass_through_cases():
    rng = make_rng(1, "pass-through")
    c, m = rng.normal(size=(3, 5)), rng.normal(size=(5, 5))
    cw = lambda t: total(t, constant(c))
    full = (3, 5)
    return {
        "add_self": ({"x": full}, lambda x: cw(add(x, x)), {"x": 2.0 * c}),
        "add": ({"a": full, "b": full}, lambda a, b: cw(add(a, b)),
                {"a": c, "b": c}),
        "add_bias": ({"z": full, "b": (1, 5)}, lambda z, b: cw(add_bias(z, b)),
                     {"z": c, "b": c.sum(axis=0, keepdims=True)}),
        "concat_cols": ({"a": (3, 2), "b": (3, 1)},
                        lambda a, b: cw(concat_cols([a, b, a])),
                        {"a": c[:, :2] + c[:, 3:], "b": c[:, 2:3]}),
        "linear_head": ({"a": (3, 2), "b": (3, 1)},
                        lambda a, b: cw(_linear([a, b, a], constant(m))),
                        {"a": c @ m[:2].T + c @ m[3:].T, "b": c @ m[2:3].T}),
    }


def _copy_first_acc(t, g):
    """The accumulation rule without gradient ownership: every first
    gradient is copied."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad += g


@pytest.mark.parametrize("case", list(_pass_through_cases()))
def test_pass_through_gradients_are_owned_copies(case, monkeypatch):
    shapes, fn, expect = _pass_through_cases()[case]
    values = {k: RNG.normal(size=shape) for k, shape in shapes.items()}

    def two_backwards():
        leaves = {k: tensor(v, requires_grad=True) for k, v in values.items()}
        backward(fn(*leaves.values()))
        first = {k: t.grad for k, t in leaves.items()}
        first_values = {k: g.copy() for k, g in first.items()}
        backward(fn(*leaves.values()))
        return first, first_values, {k: t.grad for k, t in leaves.items()}

    grads, first, second = two_backwards()
    for k, g in first.items():
        assert grads[k].dtype == np.float64 and grads[k].base is None
        np.testing.assert_allclose(g, expect[k], rtol=1e-12, atol=1e-12)
    # a second backward without zero_grads adds into the same arrays
    assert all(second[k] is grads[k] for k in grads)

    # bitwise what copying every first gradient gives, after each backward
    with monkeypatch.context() as m:
        m.setattr(ad, "_acc", _copy_first_acc)
        m.setattr(ad, "_acc_copy", _copy_first_acc)
        _, ref_first, ref_second = two_backwards()
    for k in grads:
        np.testing.assert_array_equal(first[k], ref_first[k])
        np.testing.assert_array_equal(second[k], ref_second[k])

    # an in-place change to one leaf's gradient leaves the others unchanged
    for k in grads:
        others = {j: g.copy() for j, g in grads.items() if j != k}
        grads[k] += 1.0
        for j, g in others.items():
            np.testing.assert_array_equal(grads[j], g)


def test_acc_owns_fresh_arrays_and_copies_passed_through_ones():
    t, u = rand_t((2, 2)), rand_t((2, 2))
    g = np.ones((2, 2))
    _acc(t, g)
    assert t.grad is g
    _acc_copy(u, g)
    assert u.grad is not g and not np.shares_memory(u.grad, g)
    _acc_copy(u, g)
    np.testing.assert_array_equal(u.grad, 2.0 * g)
    np.testing.assert_array_equal(g, np.ones((2, 2)))


def test_frozen_records_no_tape_and_restores_flags():
    w, v = rand_t((3, 2)), rand_t((1, 2))
    fixed = tensor(np.ones((2, 2)))
    x = constant(RNG.normal(size=(4, 3)))
    with frozen({"w": w, "v": v, "fixed": fixed}):
        assert not (w.requires_grad or v.requires_grad)
        out = add_bias(matmul(x, w), v)
    assert out.parents == () and out._backward is None and not out.requires_grad
    assert w.requires_grad and v.requires_grad and not fixed.requires_grad
    taped = add_bias(matmul(x, w), v)
    assert taped.parents != ()
    np.testing.assert_array_equal(out.value, taped.value)


def test_frozen_restores_flags_when_the_block_raises():
    w = rand_t((2, 2))
    with pytest.raises(NumericalError, match="scale"):
        with frozen([w]):
            scale(w, np.inf)
    assert w.requires_grad


def test_backward_requires_scalar():
    x = tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(add(x, x))


def test_constants_never_get_grads():
    x = tensor([[1.0, 2.0]], requires_grad=True)
    c = constant([[5.0, 5.0]])
    backward(total(x, c))
    np.testing.assert_array_equal(x.grad, [[5.0, 5.0]])
    assert c.grad is None


def test_deep_chain_does_not_recurse():
    # iterative toposort must survive a graph deeper than the recursion limit
    x = tensor([[1.0]], requires_grad=True)
    t = x
    for _ in range(5000):
        t = scale(t, 1.0)
    backward(total(t))
    np.testing.assert_array_equal(x.grad, [[1.0]])


# ---------------------------------------------------------------------------
# finite checks

def test_overflow_raises_where_it_happens():
    a = tensor([[1e200]], requires_grad=True)
    b = tensor([[1e200]])
    with pytest.raises(NumericalError, match="matmul"):
        with np.errstate(over="ignore"):
            matmul(a, b)


def test_sparse_matrix_rejects_non_finite():
    m = sp.csr_matrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(NumericalError, match="non-finite"):
        SparseMatrix(m)


# ---------------------------------------------------------------------------
# finite-difference gradient checks, one per primitive

GC_TOL = 1e-6


def check(forward_fn, params, tol=GC_TOL):
    report = grad_check(forward_fn, params, eps=1e-5)
    assert report.ok(tol), f"max rel err {report.max_rel_err}: {report.per_param}"
    return report


def test_grad_matmul_bias_relu():
    rng = make_rng(10, "g1")
    w = rand_t((4, 3), rng)
    b = rand_t((1, 3), rng)
    # keep relu inputs away from the kink
    x = constant(rng.normal(size=(5, 4)) + 3.0 * np.sign(rng.normal(size=(5, 4))))
    check(lambda: total(relu(add_bias(matmul(x, w), b))), {"w": w, "b": b})


def test_grad_sigmoid_softmax_log():
    """sigmoid, then row_softmax, weighted by a constant (the plain sum of
    a softmax row is 1 whatever its input)."""
    rng = make_rng(11, "g2")
    a = rand_t((3, 4), rng)
    w = constant(rng.normal(size=(3, 4)))
    check(lambda: total(row_softmax(sigmoid(a)), w), {"a": a})


def test_grad_hadamard_sub_scale():
    """The mean of 1.7 (a - b) * a: a - b as add(a, scale(b, -1)), the
    product and the mean's 1/9 in the tests' scalar loss."""
    rng = make_rng(12, "g3")
    a, b = rand_t((3, 3), rng), rand_t((3, 3), rng)
    check(lambda: scale(total(scale(add(a, scale(b, -1.0)), 1.7), a), 1 / 9),
          {"a": a, "b": b})


def test_grad_row_scale_scalar_scale():
    """row_scale by alpha, then by a 1 x 1 s broadcast down the rows as
    the column ones s."""
    rng = make_rng(13, "g4")
    alpha = rand_t((4, 1), rng)
    z = rand_t((4, 3), rng)
    s = rand_t((1, 1), rng)
    ones = constant(np.ones((4, 1)))
    check(lambda: total(row_scale(matmul(ones, s), row_scale(alpha, z))),
          {"alpha": alpha, "z": z, "s": s})


def test_grad_ada_mix():
    rng = make_rng(24, "g14")
    pairs, cols, gate = _ada_inputs(4, True, rng)
    (x0, w0), (x1, _), (x2, w2) = pairs
    params = {"x0": x0, "w0": w0, "x1": x1, "w2": w2, "deg": cols[0]} | dict(
        zip(("w_att", "b_att", "w_mix", "b_mix"), gate))
    weights = constant(rng.normal(size=(4, 5)))
    # the mix stays 100 finite-difference steps away from relu's kink
    assert np.abs(_gated(pairs, cols, gate, False).value).min() > 1e-3
    for relu_ in (False, True):
        check(lambda: total(_gated(pairs, cols, gate, relu_), weights), params)
    # the gate alone
    ramp = constant(rng.normal(size=(4, 3)))
    check(lambda: total(ada_gate(pairs, cols, *gate), ramp), params)
    # constant inputs and weights and a constant column: the gradient
    # reaches the gate only
    fixed = [(constant(x.value), None if w is None else constant(w.value))
             for x, w in pairs]
    deg = constant(cols[0].value)
    check(lambda: total(_gated(fixed, [deg], gate, True), weights),
          dict(zip(("w_att", "b_att", "w_mix", "b_mix"), gate)))
    assert all(t.grad is None for pair in fixed for t in pair if t is not None)
    assert deg.grad is None
    # one weight per channel for every row, as gprgnn's gamma mixes
    gamma = rand_t((1, 3), rng)
    for relu_ in (False, True):
        check(lambda: total(ada_mix(pairs, gamma, relu=relu_), weights),
              {"x0": x0, "w0": w0, "x1": x1, "w2": w2, "gamma": gamma})


def test_grad_mlp_head():
    rng = make_rng(25, "g15")
    blocks, params = _head_inputs(4, True, rng)
    pre = add_bias(concat_matmul(blocks, params[0]), params[1]).value
    # both sides of the relu, 100 finite-difference steps away from its kink
    assert (pre > 0).any() and (pre < 0).any() and np.abs(pre).min() > 1e-3
    weights = constant(rng.normal(size=(4, 3)))
    named = {"x0": blocks[0], "x1": blocks[1]} | dict(zip(("w1", "b1", "w2", "b2"), params))
    check(lambda: total(_head(blocks, *params), weights), named)
    assert blocks[2].grad is None


def test_grad_concat_slice_gather():
    rng = make_rng(14, "g5")
    a, b = rand_t((4, 2), rng), rand_t((4, 3), rng)

    def fwd():
        cat = concat_cols([a, b])
        picked = gather_rows(cat, [0, 2, 2, 3])
        return total(slice_cols(picked, 1, 4))
    check(fwd, {"a": a, "b": b})


def test_grad_cosine():
    rng = make_rng(16, "g7")
    for k in (2, 3, 6):
        v = rand_t((k, 5), rng)
        check(lambda: cosine(v), {"v": v})


def test_grad_dropout_fixed_mask():
    rng = make_rng(17, "g8")
    a = rand_t((4, 4), rng)
    mask = make_rng(17, "g8mask").random((4, 4)) >= 0.5
    check(lambda: total(dropout(a, 0.5, mask=mask)), {"a": a})


def test_grad_masked_cross_entropy():
    rng = make_rng(18, "g9")
    logits_w = rand_t((5, 3), rng)
    x = constant(rng.normal(size=(6, 5)))
    labels = [0, 1, 2, 0, 1, 2]
    check(lambda: masked_cross_entropy(matmul(x, logits_w), labels, [0, 1, 3, 5]),
          {"w": logits_w})


def test_grad_spmm():
    rng = make_rng(19, "g10")
    g = random_graph(rng, 12, p=0.2)
    a = SparseMatrix(g.adjacency())
    x = rand_t((12, 3), rng)
    w = constant(rng.normal(size=(12, 3)))
    check(lambda: total(spmm(a, x), w), {"x": x})


def test_grad_sum_and_mean():
    """util.total as a sum, as a mean, and as a product sum whose
    gradient reaches both of its tensors."""
    rng = make_rng(20, "g11")
    a, b = rand_t((3, 3), rng), rand_t((3, 3), rng)
    check(lambda: total(a, constant(np.full((3, 3), 1 / 9))), {"a": a})
    check(lambda: total(a), {"a": a})
    check(lambda: total(a, b), {"a": a, "b": b})


# ---------------------------------------------------------------------------
# init

def test_glorot_bounds_and_spread():
    rng = make_rng(21, "gl")
    w = glorot(rng, (40, 60))
    bound = np.sqrt(6.0 / 100.0)
    assert np.max(np.abs(w)) <= bound
    assert np.max(w) > 0.8 * bound and np.min(w) < -0.8 * bound
    assert abs(w.mean()) < 0.02

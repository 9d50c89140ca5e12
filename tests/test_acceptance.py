"""Acceptance gate: the nine top-level criteria, one test and one
printed PASS/FAIL line per criterion. Everything here re-derives its
expected values from first principles (dense oracles, finite
differences, hand arithmetic); module unit tests cover the same ground
at finer grain."""

import os
from contextlib import contextmanager

import numpy as np
import pytest

from compatgnn import permute_graph
from compatgnn import autodiff as ad
from compatgnn.autodiff import SparseMatrix
from compatgnn.bench import run_bench
from compatgnn.gradcheck import grad_check
from compatgnn.graph import generate_splits, load_dataset, load_splits
from compatgnn.metrics import observed_cm
from compatgnn.model import CMEstimate, CompatGNN, degree_weight, estimate_cm
from compatgnn.metrics import CompatibilityMatrix
from compatgnn.mp import MessagePassingModel, PRESETS, build_preset
from compatgnn.rng import make_rng
from compatgnn.synth import generate_graph, make_synth_spec, verify_graph
from compatgnn.training import RunConfig, build_model, train_model

from util import cubic12, make_graph, path3_forest, random_graph, total

GRID_H = (0.2, 0.5, 0.8)
PATTERNS = ("easy", "hard")
HIGH_DEG, LOW_DEG = 18.0, 4.0


@contextmanager
def criterion(n, desc, capsys):
    """Emit one verdict line per criterion, bypassing pytest capture so
    the line shows up in any run mode."""
    with capsys.disabled():
        try:
            yield
        except BaseException:
            print(f"ACCEPTANCE {n} FAIL  {desc}")
            raise
        print(f"ACCEPTANCE {n} PASS  {desc}")


@pytest.fixture(scope="module")
def synth_grid():
    """Seed-0 benchmark datasets: six high-degree configs plus the two
    low-degree mid-homophily ones."""
    grid = {}
    for pattern in PATTERNS:
        for h in GRID_H:
            spec = make_synth_spec(1000, 5, h, pattern, HIGH_DEG, seed=0)
            grid[(pattern, h, HIGH_DEG)] = generate_graph(spec)
        spec = make_synth_spec(1000, 5, 0.5, pattern, LOW_DEG, seed=0)
        grid[(pattern, 0.5, LOW_DEG)] = generate_graph(spec)
    return grid


def bench_cell(g, model, n_splits=5):
    """Mean test accuracy (percent) over the first n splits."""
    splits = generate_splits(g, n_splits, seed=0)
    accs = []
    for sid in range(n_splits):
        cfg = RunConfig(model=model, lr=0.05, weight_decay=5e-4, patience=30,
                        max_epochs=300, nhidden=64, layers=2)
        res = train_model(g, splits[sid], cfg, seed=100 + sid)
        accs.append(res.test_accuracy)
    return 100.0 * float(np.mean(accs))


# ---------------------------------------------------------------------------
# 1. gradient fidelity

def _primitive_checks():
    """One finite-difference check per autodiff primitive, and per mix of
    the combine node. Made and run with _BLOCK_ROWS at 3, so the 8-row
    combine and gate inputs span three row blocks, and with an L2 budget
    of 16 columns of an 8-row operand, so the 40-column spmm operand is
    multiplied (and its gradient formed) in two slabs."""
    rng = make_rng(60, "prims")

    def p(shape, off=0.0):
        return ad.tensor(rng.normal(size=shape) + off, requires_grad=True)

    def weighted(t):
        # a fixed weight per entry, so that no gradient is uniform
        return total(t, ad.constant(np.cos(np.arange(t.value.size)).reshape(t.shape)))

    a, b = p((3, 4)), p((4, 3))
    w = p((3, 4))
    bias = p((1, 4))
    col = p((3, 1))
    feat, wide = p((8, 4)), p((8, 40))
    far = ad.tensor(rng.normal(size=(3, 4)) + np.where(
        rng.random((3, 4)) < 0.5, 3.0, -3.0), requires_grad=True)
    g = random_graph(make_rng(60, "pg"), 8, p=0.4)
    sp = SparseMatrix(g.adjacency())
    assert ad._slab_bounds(sp.scipy, wide.value) is not None
    mask = rng.random((3, 4)) < 0.5
    ramp = ad.constant(np.arange(12.0).reshape(3, 4))
    labels = np.array([0, 2, 1])
    # the combine node's pairs: an own weight, none, and a bias (a
    # constant column of ones times a 1 x 5 weight)
    x0, w0, x1, b0 = p((8, 4)), p((4, 5)), p((8, 5)), p((1, 5))
    pairs = [(x0, w0), (x1, None), (ad.constant(np.ones((8, 1))), b0)]
    deg = p((8, 1))
    gate = [p((16, 3)), p((1, 3)), p((3, 3)), p((1, 3))]
    mixes = {"add": "add", "cat": "cat", "N x R": p((8, 3)), "1 x R": p((1, 3))}

    checks = {
        "matmul": ([a, b], lambda: total(ad.matmul(a, b))),
        "spmm": ([feat], lambda: total(ad.spmm(sp, feat))),
        "spmm, slabs": ([wide], lambda: weighted(ad.spmm(sp, wide))),
        "add": ([a, w], lambda: total(ad.add(a, w))),
        "scale": ([a], lambda: total(ad.scale(a, -1.7))),
        "row_scale": ([col, a], lambda: total(ad.row_scale(col, a))),
        "add_bias": ([a, bias], lambda: total(ad.add_bias(a, bias))),
        "relu": ([far], lambda: total(ad.relu(far))),
        "sigmoid": ([a], lambda: total(ad.sigmoid(a))),
        "row_softmax": ([a], lambda: total(ad.row_softmax(a), ramp)),
        "concat_cols": ([a, w], lambda: total(ad.concat_cols([a, w]))),
        "slice_cols": ([a], lambda: total(ad.slice_cols(a, 1, 3))),
        "gather_rows": ([a], lambda: total(ad.gather_rows(a, [0, 2, 0]))),
        "cosine": ([a], lambda: ad.cosine(a)),
        "dropout": ([a], lambda: total(ad.dropout(
            a, 0.5, None, True, mask=mask))),
        "masked_cross_entropy": ([b], lambda: ad.masked_cross_entropy(
            b, labels, [0, 1, 2])),
        "ada_gate": ([x0, w0, x1, b0, deg, *gate],
                     lambda: weighted(ad.ada_gate(pairs, [deg], *gate))),
    }
    for name, mix in mixes.items():
        # every entry 100 finite-difference steps away from relu's kink
        assert np.abs(ad.ada_mix(pairs, mix).value).min() > 1e-3, name
        leaves = [x0, w0, x1, b0] + ([mix] if isinstance(mix, ad.Tensor) else [])
        for relu in (False, True):
            checks[f"ada_mix {name}{', relu' if relu else ''}"] = (
                leaves, lambda mix=mix, relu=relu: weighted(ad.ada_mix(pairs, mix, relu)))
    return checks


def test_acceptance_1_gradient_fidelity(capsys, monkeypatch):
    with criterion(1, "gradient fidelity: primitives + full model loss < 1e-4", capsys):
        worst = {}
        with monkeypatch.context() as m:
            m.setattr(ad, "_BLOCK_ROWS", 3)
            m.setattr(ad, "_L2_BYTES", 8 * 16 * 8)
            m.setattr(ad, "_SLAB_MIN_ROW_NNZ", 0)
            for name, (params, fn) in _primitive_checks().items():
                report = grad_check(fn, {f"p{i}": t for i, t in enumerate(params)})
                worst[name] = report.max_rel_err
                assert report.ok(1e-4), f"{name}: {report.max_rel_err:.2e}"

        g = make_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6),
                           (6, 7), (2, 5)], [0, 0, 1, 1, 0, 1, 0, 1], 2,
                       d_f=3, seed=13)
        train = [0, 2, 4, 5]
        m = CompatGNN(build_preset("compatgnn", hidden_dim=3, n_layers=2),
                      g, seed=10, dis_weight=0.7)
        m.bind_prototypes(train)
        soft = m.bootstrap_soft_labels(train)
        m.set_estimate(estimate_cm(g, soft), soft)
        report = grad_check(lambda: m.loss(m.forward(), train), m.params)
        assert report.ok(1e-4), f"full loss: {report.max_rel_err:.2e}"
        print(f"  primitives worst {max(worst.values()):.2e} "
              f"({max(worst, key=worst.get)}); "
              f"full loss {report.max_rel_err:.2e}")


# ---------------------------------------------------------------------------
# 2. sparse kernel oracle

def test_acceptance_2_spmm_oracle(capsys):
    with criterion(2, "SpMM equals dense matmul <= 1e-12 on 100 graphs", capsys):
        worst = 0.0
        for i in range(100):
            rng = make_rng(61, "spmm", i)
            n = int(rng.integers(2, 201))
            g = random_graph(rng, n, p=min(0.5, 8.0 / n), n_classes=2)
            x = rng.normal(size=(n, int(rng.integers(1, 9))))
            got = ad.spmm(SparseMatrix(g.adjacency()), ad.tensor(x)).value
            want = g.adjacency().toarray() @ x
            worst = max(worst, float(np.abs(got - want).max()))
        assert worst <= 1e-12, f"max |spmm - dense| = {worst:.2e}"
        print(f"  max |spmm - dense| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. estimator oracle identity

def test_acceptance_3_estimator_identity(synth_grid, capsys):
    with criterion(3, "estimate_cm == observed_cm <= 1e-12 (one-hot, w == 1)", capsys):
        worst = 0.0

        def check(g):
            nonlocal worst
            est = estimate_cm(g, g.onehot_labels(),
                              degree_weights=np.ones(g.n_nodes))
            obs = observed_cm(g)
            worst = max(worst, float(np.abs(est.matrix.m - obs.m).max()))

        for i in range(20):
            rng = make_rng(62, "est", i)
            check(random_graph(rng, int(rng.integers(8, 40)), p=0.2,
                               n_classes=int(rng.integers(2, 6))))
        for g in synth_grid.values():
            check(g)
        assert worst <= 1e-12, f"max deviation {worst:.2e}"
        print(f"  max |estimated - observed| = {worst:.2e} "
              f"(20 random + {len(synth_grid)} synthetic)")


# ---------------------------------------------------------------------------
# 4. degree weighting

def test_acceptance_4_degree_weight(capsys):
    with criterion(4, "degree weight continuous/monotone/[0,1], K in [2,20]", capsys):
        for k in range(2, 21):
            d = np.arange(0, 101, dtype=float)
            w = degree_weight(d, k)
            assert np.all((w >= 0.0) & (w <= 1.0))
            assert np.all(np.diff(w) >= 0.0)
            # knee continuity: both branch formulas meet at the boundary
            assert degree_weight([k], k)[0] == pytest.approx(0.5, abs=1e-12)
            assert k / (2.0 * k) == pytest.approx(0.25 + k / (4.0 * k))
            if 3 * k <= 100:
                assert degree_weight([3 * k], k)[0] == pytest.approx(
                    1.0, abs=1e-12)
                assert 0.25 + (3 * k) / (4.0 * k) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# 5. synthetic generation fidelity

def test_acceptance_5_synthetic_fidelity(capsys):
    with criterion(5, "1000 nodes / degree 18: h within 0.03, row TV <= 0.05, "
                      "10 seeds x 6 configs", capsys):
        worst_h, worst_tv = 0.0, 0.0
        for pattern in PATTERNS:
            for h in GRID_H:
                for seed in range(10):
                    spec = make_synth_spec(1000, 5, h, pattern, HIGH_DEG,
                                           seed=seed)
                    rep = verify_graph(generate_graph(spec), spec)
                    worst_h = max(worst_h, abs(rep["edge_homophily"] - h))
                    worst_tv = max(worst_tv, rep["max_row_tv"])
        assert worst_h <= 0.03, f"worst homophily error {worst_h:.4f}"
        assert worst_tv <= 0.05, f"worst row TV {worst_tv:.4f}"
        print(f"  worst |h_e - target| = {worst_h:.4f}, "
              f"worst row TV = {worst_tv:.4f}")


# ---------------------------------------------------------------------------
# 6. benchmark ordering reproduction

def test_acceptance_6_table_orderings(synth_grid, capsys):
    with criterion(6, "homophily/discriminability/degree orderings (MLP-"
                      "calibrated base)", capsys):
        mlp = bench_cell(synth_grid[("hard", 0.5, HIGH_DEG)], "mlp")
        assert 70.0 <= mlp <= 78.0, f"MLP calibration off the band: {mlp:.2f}"

        gcn = {key: bench_cell(g, "gcn") for key, g in synth_grid.items()}
        a = gcn[("easy", 0.8, HIGH_DEG)]
        b = gcn[("easy", 0.2, HIGH_DEG)]
        c = gcn[("hard", 0.2, HIGH_DEG)]
        assert a >= 95.0, f"(a) GCN high-homophily easy: {a:.2f}"
        assert b - mlp >= 8.0, f"(b) GCN low-h easy vs MLP: {b:.2f} vs {mlp:.2f}"
        assert mlp - c >= 15.0, f"(c) MLP vs GCN low-h hard: {mlp:.2f} vs {c:.2f}"
        for pattern in PATTERNS:
            hi = gcn[(pattern, 0.5, HIGH_DEG)]
            lo = gcn[(pattern, 0.5, LOW_DEG)]
            assert hi - lo >= 8.0, (f"(d) {pattern} degree gap: "
                                    f"{hi:.2f} vs {lo:.2f}")
        print(f"  MLP {mlp:.2f}; GCN cells: "
              + ", ".join(f"{k[0]}/h{k[1]}/d{int(k[2])} {v:.2f}"
                          for k, v in sorted(gcn.items())))


# ---------------------------------------------------------------------------
# 7. limiting-case equivalences

def test_acceptance_7_limiting_cases(synth_grid, capsys):
    with criterion(7, "alpha=(1,0,0) == MLP preset <= 1e-10; "
                      "lambda=0 == W/O-DL bit-for-bit", capsys):
        g = synth_grid[("hard", 0.5, HIGH_DEG)]
        train = list(range(0, 200))
        cg = CompatGNN(build_preset("compatgnn", hidden_dim=16, n_layers=2), g, seed=3)
        cg.bind_prototypes(train)
        soft = cg.bootstrap_soft_labels(train)
        cg.set_estimate(estimate_cm(g, soft), soft)
        cg.force_alpha = (1.0, 0.0, 0.0)

        spec = build_preset("mlp", n_layers=2, hidden_dim=16, classifier="mlp")
        spec.fuse = "cat"
        mlp = MessagePassingModel(spec, g, seed=3)
        mlp.params["encoder.w"].value = cg.params["encoder.w"].value.copy()
        for li in (1, 2):
            mlp.params[f"layer{li}.ch0.w"].value = \
                cg.params[f"layer{li}.ch0.w"].value.copy()
        for key in ("cla.w1", "cla.b1", "cla.w2", "cla.b2"):
            mlp.params[key].value = cg.params[key].value.copy()
        diff = float(np.abs(cg.forward().logits.value
                            - mlp.forward().logits.value).max())
        assert diff <= 1e-10, f"alpha=(1,0,0) vs MLP preset: {diff:.2e}"

        split = generate_splits(g, 1, seed=0)[0]
        cfg = RunConfig(model="compatgnn", lr=0.05, patience=20, max_epochs=15,
                        nhidden=16, lambda_=0.0)
        res_zero = train_model(g, split, cfg, seed=6)
        ablated = build_model(cfg, g, seed=6)
        ablated.dis_enabled = False
        res_off = train_model(g, split, cfg, seed=6, model=ablated)
        assert res_zero.loss_curve == res_off.loss_curve
        assert res_zero.val_curve == res_off.val_curve
        assert res_zero.test_accuracy == res_off.test_accuracy
        print(f"  MLP-limit max diff {diff:.2e}; "
              f"lambda=0 vs ablation identical over "
              f"{len(res_zero.loss_curve)} epochs")


# ---------------------------------------------------------------------------
# 8. desk-scale end-to-end on the filtered datasets

DATA_DIRS = {"chameleon-f": (45.70, 6.0), "squirrel-f": (41.89, 5.0)}


def _dataset_root():
    return os.environ.get("COMPATGNN_DATA", "data")


def test_acceptance_8_filtered_datasets(capsys):
    root = _dataset_root()
    missing = [n for n in DATA_DIRS
               if not os.path.isdir(os.path.join(root, n))]
    if missing:
        with capsys.disabled():
            print(f"ACCEPTANCE 8 SKIP  datasets not ingested: expected "
                  f"{[os.path.join(root, n) for n in sorted(DATA_DIRS)]}")
        pytest.skip(f"real datasets absent under {root}/: {sorted(missing)}")
    with criterion(8, "Chameleon-F / Squirrel-F desk-scale accuracy bands", capsys):
        stats = {}
        for name, (target, tol) in DATA_DIRS.items():
            path = os.path.join(root, name)
            g = load_dataset(path)
            try:
                splits = load_splits(path)
            except Exception:
                splits = generate_splits(g, 10, seed=0)
            cfg = RunConfig(model="compatgnn", dataset=path,
                            split_ids=list(range(10)), lr=0.01,
                            weight_decay=5e-5, patience=200, max_epochs=500,
                            nhidden=64, layers=2, lambda_=1.0, dropout=0.5)
            report = run_bench(g, splits, cfg)
            mean = 100.0 * report.mean_accuracy
            stats[name] = mean
            assert abs(mean - target) <= tol, \
                f"{name}: {mean:.2f} outside {target} ± {tol}"
            if name == "chameleon-f":
                mlp_cfg = RunConfig(model="mlp", dataset=path,
                                    split_ids=list(range(10)), lr=0.01,
                                    weight_decay=5e-5, patience=200,
                                    max_epochs=500, nhidden=64, layers=2)
                mlp_mean = 100.0 * run_bench(g, splits, mlp_cfg).mean_accuracy
                assert mean >= mlp_mean - 2.0, \
                    f"CMGNN {mean:.2f} below MLP {mlp_mean:.2f} - 2"
        print("  " + ", ".join(f"{k} {v:.2f}" for k, v in stats.items()))


# ---------------------------------------------------------------------------
# 9. protocol invariants

def _bitwise_equivariant(build_model_fn, g, perm):
    """Forward the same parameters on g and on its relabeling; demand
    bitwise-equal outputs. Callers pick graphs whose SpMM row sums are
    exactly order-independent (see the message-passing tests)."""
    gp = permute_graph(g, perm)
    m, mp_ = build_model_fn(g), build_model_fn(gp)
    out = m.forward().logits.value
    out_p = mp_.forward().logits.value
    return np.array_equal(out_p[perm], out)


def test_acceptance_9_protocol_invariants(capsys):
    with criterion(9, "splits 48/32/20; buckets recombine <= 1e-9; "
                      "bench std 0; equivariance exact", capsys):
        # split sizing within one node of the 48/32/20 contract
        for n in (10, 53, 100, 997, 7600):
            g = make_graph(n, [(0, 1)], [0] * n, 1, d_f=2)
            s = generate_splits(g, 1, seed=0)[0]
            for got, frac in ((len(s.train), 0.48), (len(s.valid), 0.32),
                              (len(s.test), 0.20)):
                assert abs(got - frac * n) <= 1.0, (n, got, frac)

        # degree buckets recombine to the overall accuracy
        spec = make_synth_spec(200, 3, 0.6, "hard", 8, seed=5, d_f=8,
                               mean_separation=3.0)
        g = generate_graph(spec)
        splits = generate_splits(g, 3, seed=0)
        cfg = RunConfig(model="gcn", lr=0.05, patience=10, max_epochs=8,
                        nhidden=8, split_ids=[0, 1, 2])
        report = run_bench(g, splits, cfg)
        sizes = np.asarray(report.degree_buckets["sizes"], dtype=float)
        for accs, run in zip(report.degree_buckets["per_split"], report.runs):
            recombined = float((np.asarray(accs) * sizes).sum() / sizes.sum())
            assert abs(recombined - run["test_accuracy"]) <= 1e-9

        # ten identical deterministic runs have exactly zero std
        cfg10 = RunConfig(model="gcn", lr=0.05, patience=6, max_epochs=6,
                          nhidden=8, split_ids=[0] * 10)
        rep10 = run_bench(g, splits, cfg10)
        assert rep10.std_accuracy == 0.0
        assert len(set(rep10.accuracies)) == 1

        # exact permutation equivariance, presets and the estimator model;
        # cubic12 makes self-loop sym-normalization dyadic, path forests give
        # two-term row sums, and parameters are snapped to multiples of 1/64
        perm12 = make_rng(64, "perm").permutation(12)
        graphs = {"mlp": path3_forest(4, seed=2), "gcn": cubic12(seed=2),
                  "mixhop": path3_forest(4, seed=2),
                  "h2gcn": path3_forest(4, seed=2),
                  "gprgnn": cubic12(seed=2), "acmgcn": cubic12(seed=2)}

        def preset_builder(name):
            def build(graph):
                spec = build_preset(name, n_layers=1 if name == "acmgcn" else 2,
                                    hidden_dim=4)
                m = MessagePassingModel(spec, graph, seed=9)
                for p in m.params.values():
                    p.value = np.round(p.value * 64.0) / 64.0
                return m
            return build

        for name in PRESETS:
            assert _bitwise_equivariant(preset_builder(name), graphs[name],
                                        perm12), name

        g9 = path3_forest(4, seed=3)
        train = [0, 1, 3, 4, 6, 7]
        est = CMEstimate(matrix=CompatibilityMatrix(
            m=np.array([[0.75, 0.25], [0.25, 0.75]])),
            confidence=np.ones(12), degree_weights=np.ones(12))
        protos = None

        def compat_builder(graph):
            nonlocal protos
            m = CompatGNN(build_preset("compatgnn", hidden_dim=4, n_layers=2),
                          graph, seed=9)
            if protos is None:
                m.bind_prototypes(train)
                protos = m.prototypes
                soft = m.bootstrap_soft_labels(train)
            else:
                m.prototypes = protos.copy()
                soft = np.empty((12, 2))
                base = CompatGNN(build_preset("compatgnn", hidden_dim=4, n_layers=2),
                                 g9, seed=9)
                base.bind_prototypes(train)
                soft[perm12] = base.bootstrap_soft_labels(train)
            m.set_estimate(est, soft)
            return m

        assert _bitwise_equivariant(compat_builder, g9, perm12)

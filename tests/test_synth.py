import numpy as np
import pytest

from compatgnn import ConfigError, DataError
from compatgnn.metrics import CompatibilityMatrix, edge_homophily, observed_cm
from compatgnn.rng import make_rng
from compatgnn.synth import (MAX_RETRIES, PATTERNS, SynthSpec, balanced_labels,
                             build_target_cm, gaussian_features,
                             generate_graph, make_synth_spec, pairwise_tv,
                             verify_graph)


# ---------------------------------------------------------------------------
# target matrices

def test_hard_target_k3():
    cm = build_target_cm(3, 0.5, "hard")
    want = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    np.testing.assert_allclose(cm.m, want, atol=1e-15)


def test_easy_target_structure():
    for k in (4, 5, 7):
        for h in (0.2, 0.5, 0.8):
            cm = build_target_cm(k, h, "easy")
            np.testing.assert_allclose(np.diag(cm.m), h, atol=1e-15)
            np.testing.assert_allclose(cm.m.sum(axis=1), 1.0, atol=1e-12)
            # off-diagonal mass sits on the +/-1 circulant band only
            offband = cm.m.copy()
            for i in range(k):
                offband[i, [i, (i + 1) % k, (i - 1) % k]] = 0.0
            assert np.all(offband == 0.0)
            np.testing.assert_array_equal(cm.m, cm.m.T)


def test_easy_rows_farther_apart_than_hard_k5():
    easy = build_target_cm(5, 0.2, "easy")
    hard = build_target_cm(5, 0.2, "hard")
    assert pairwise_tv(easy.m) > pairwise_tv(hard.m)


def test_easy_degenerates_to_hard_below_k4():
    for k in (2, 3):
        easy = build_target_cm(k, 0.3, "easy")
        hard = build_target_cm(k, 0.3, "hard")
        np.testing.assert_allclose(easy.m, hard.m, atol=1e-15)


def test_target_errors():
    for h in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ConfigError, match="homophily"):
            build_target_cm(4, h, "hard")
    with pytest.raises(ConfigError, match="K >= 2"):
        build_target_cm(1, 0.5, "hard")
    with pytest.raises(ConfigError, match="unknown pattern"):
        build_target_cm(4, 0.5, "diagonal")
    assert PATTERNS == ("easy", "hard")


def test_pairwise_tv_hand_values():
    assert pairwise_tv(np.eye(2)) == 1.0
    assert pairwise_tv(np.full((3, 3), 1 / 3)) == 0.0
    assert pairwise_tv(np.array([[0.7, 0.3], [0.3, 0.7]])) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# spec plumbing

def test_spec_validation():
    cm = build_target_cm(3, 0.5, "hard")
    feats = np.zeros((4, 2))
    with pytest.raises(ConfigError, match="labels"):
        SynthSpec(cm, [0, 1, 2, 3], feats, 4.0)
    with pytest.raises(ConfigError, match="node count"):
        SynthSpec(cm, [0, 1, 2], feats, 4.0)
    for degree in (0.0, float("nan"), float("inf"), 6.5):
        with pytest.raises(ConfigError, match="mean_degree"):
            SynthSpec(cm, [0, 1, 2, 0], feats, degree)
    SynthSpec(cm, [0, 1, 2, 0], feats, 6.0)   # 2 (n - 1): every pair an edge
    with pytest.raises(ConfigError, match="at least one node"):
        SynthSpec(cm, [], feats[:0], 4.0)


def test_balanced_labels_and_features():
    labels = balanced_labels(10, 3)
    assert sorted(np.bincount(labels)) == [3, 3, 4]
    f1 = gaussian_features(labels, 3, 8, 1.6, seed=3)
    f2 = gaussian_features(labels, 3, 8, 1.6, seed=3)
    np.testing.assert_array_equal(f1, f2)
    assert f1.shape == (10, 8)
    # larger separation spreads the class means farther apart
    near = gaussian_features(labels, 3, 8, 0.0, seed=3)
    far = gaussian_features(labels, 3, 8, 10.0, seed=3)

    def spread(f):
        means = np.stack([f[labels == c].mean(axis=0) for c in range(3)])
        return np.linalg.norm(means[0] - means[1])

    assert spread(far) > spread(near)


def test_more_classes_than_nodes_are_refused_before_the_target(monkeypatch):
    def target(*args):
        raise AssertionError("the K x K target was built")
    monkeypatch.setattr("compatgnn.synth.build_target_cm", target)
    with pytest.raises(ConfigError, match="21 classes need at least 21 nodes, got 20"):
        make_synth_spec(20, 21, 0.5, "hard", 4, seed=0)


def test_make_synth_spec_names_and_shapes():
    spec = make_synth_spec(30, 5, 0.2, "easy", 6, seed=1)
    assert spec.name == "synth-easy-h0.2-d6"
    assert spec.features.shape == (30, 16)
    assert spec.target_cm.k == 5


# ---------------------------------------------------------------------------
# generation

def test_identity_target_gives_zero_cross_edges():
    labels = balanced_labels(40, 2)
    feats = gaussian_features(labels, 2, 4, 1.0, seed=2)
    spec = SynthSpec(CompatibilityMatrix(m=np.eye(2)), labels, feats, 6.0,
                     seed=2)
    g = generate_graph(spec)
    assert edge_homophily(g) == 1.0
    np.testing.assert_array_equal(observed_cm(g).m, np.eye(2))


def test_generated_graphs_are_simple_undirected():
    spec = make_synth_spec(100, 4, 0.4, "easy", 8, seed=3)
    g = generate_graph(spec)
    a = g.adjacency().toarray()
    np.testing.assert_array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert np.all((a == 0) | (a == 1))
    assert not g.directed


def test_mean_degree_within_half_of_target():
    for seed in range(5):
        g = generate_graph(make_synth_spec(400, 5, 0.5, "hard", 4, seed))
        assert abs(g.degrees.mean() - 4.0) <= 0.5


def test_homophily_tracks_target_at_moderate_scale():
    for pattern in PATTERNS:
        for h in (0.2, 0.5):
            spec = make_synth_spec(500, 5, h, pattern, 18, seed=4)
            rep = verify_graph(generate_graph(spec), spec)
            assert abs(rep["edge_homophily"] - h) <= 0.05
            assert rep["max_row_tv"] <= 0.08


def test_homophily_stable_across_seeds():
    hs = []
    for seed in range(10):
        g = generate_graph(make_synth_spec(300, 5, 0.5, "hard", 18, seed))
        hs.append(edge_homophily(g))
    assert np.std(hs) <= 0.02


def test_generation_deterministic_per_seed():
    spec_a = make_synth_spec(80, 3, 0.4, "easy", 6, seed=5)
    spec_b = make_synth_spec(80, 3, 0.4, "easy", 6, seed=5)
    ga, gb = generate_graph(spec_a), generate_graph(spec_b)
    np.testing.assert_array_equal(ga.indptr, gb.indptr)
    np.testing.assert_array_equal(ga.indices, gb.indices)
    gc = generate_graph(make_synth_spec(80, 3, 0.4, "easy", 6, seed=6))
    assert (gc.n_edges != ga.n_edges
            or not np.array_equal(gc.indices, ga.indices))


def test_empty_class_rejected():
    cm = build_target_cm(2, 0.5, "hard")
    with pytest.raises(DataError, match="empty class"):
        generate_graph(SynthSpec(cm, np.zeros(10, dtype=int),
                                 np.zeros((10, 2)), 4.0))


def test_verify_report_fields():
    spec = make_synth_spec(60, 3, 0.5, "hard", 6, seed=7)
    rep = verify_graph(generate_graph(spec), spec)
    assert rep["n_nodes"] == 60
    assert rep["target_mean_degree"] == 6.0
    assert rep["target_homophily"] == pytest.approx(0.5)
    assert len(rep["row_tv"]) == 3
    assert rep["max_row_tv"] == pytest.approx(max(rep["row_tv"]))
    np.testing.assert_allclose(np.asarray(rep["observed_cm"]).sum(axis=1),
                               1.0, atol=1e-9)


def _choice_edges(spec):
    """generate_graph's edge draw as Generator.choice made it, kept as the
    oracle of its CDF inversion; also returns how many class redraws it made."""
    rng = make_rng(spec.seed, "edges")
    k, m = spec.target_cm.k, spec.target_cm.m
    by_class = [np.where(spec.labels == c)[0] for c in range(k)]
    half = spec.mean_degree / 2.0
    base = int(np.floor(half))
    frac = half - base
    edges, redraws = set(), 0
    for u in range(len(spec.labels)):
        stubs = base + (1 if frac > 0 and rng.random() < frac else 0)
        if stubs == 0:
            continue
        row = m[spec.labels[u]]
        classes = rng.choice(k, size=stubs, p=row)
        for s in range(stubs):
            c = int(classes[s])
            for attempt in range(MAX_RETRIES):
                if attempt > 0:
                    redraws += 1
                    c = int(rng.choice(k, p=row))
                pool = by_class[c]
                v = int(pool[rng.integers(len(pool))])
                if v == u:
                    continue
                key = (u, v) if u < v else (v, u)
                if key in edges:
                    continue
                edges.add(key)
                break
    return sorted(edges), redraws


@pytest.mark.parametrize("n, k, h, pattern, degree, seed, min_redraws", [
    (300, 5, 0.2, "easy", 15, 1, 0),
    (300, 5, 0.2, "hard", 15, 2, 0),
    (257, 4, 0.6, "easy", 7.5, 3, 0),
    (200, 2, 0.3, "hard", 4.25, 4, 0),
    (12, 3, 0.5, "hard", 14, 5, 100),    # nearly complete: stubs redraw often
])
def test_generated_edges_are_those_generator_choice_drew(n, k, h, pattern, degree,
                                                        seed, min_redraws):
    spec = make_synth_spec(n, k, h, pattern, degree, seed)
    g = generate_graph(spec)
    want, redraws = _choice_edges(spec)
    a = g.adjacency().tocoo()
    upper = a.row < a.col
    assert sorted(zip(a.row[upper].tolist(), a.col[upper].tolist())) == want
    assert redraws >= min_redraws

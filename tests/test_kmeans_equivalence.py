"""The batched k-means against a frozen copy of the one-restart-at-a-time loop.

``reference_kmeans`` below is the k-means the package shipped before its
restarts were batched, at the 20 restarts of at most 100 Lloyd steps that
``kmeans`` always runs.  The batched loop must give the same labels, and
each restart the same within-cluster sum of squares, bit for bit.  Other
restart and step counts are compared restart by restart, through
``_lloyd``.
"""

import tracemalloc

import numpy as np
import pytest

import blockfactor.spectral as spectral
from blockfactor.blockmodels import dcsbm_powerlaw_preset, sample_graph, sbm_snr_preset
from blockfactor.graphs import largest_connected_component, normalized_laplacian, regularized_laplacian
from blockfactor.spectral import _lloyd, kmeans, sym_eigs_topk, unit_rows


# ---- frozen reference: one Lloyd run per restart --------------------------


def reference_plusplus(points, k, rng):
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    dist_sq = ((points - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = dist_sq.sum()
        if total > 0:
            idx = rng.choice(n, p=dist_sq / total)
        else:
            idx = rng.integers(n)
        centroids[c] = points[idx]
        dist_sq = np.minimum(dist_sq, ((points - centroids[c]) ** 2).sum(axis=1))
    return centroids


def reference_lloyd(points, centroids, max_iter):
    k = centroids.shape[0]
    labels = None
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        own = d2[np.arange(points.shape[0]), labels]
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[c] = points[mask].mean(axis=0)
            else:
                far = int(own.argmax())
                centroids[c] = points[far]
                own[far] = 0.0
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    wcss = float(d2[np.arange(points.shape[0]), labels].sum())
    return labels, wcss


def reference_kmeans(points, k, seed):
    points = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed)
    best_labels, best_wcss = None, np.inf
    for _ in range(20):
        centroids = reference_plusplus(points, k, rng)
        labels, wcss = reference_lloyd(points, centroids, 100)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return best_labels.astype(np.int64)


# ---- comparison -----------------------------------------------------------


def assert_same_as_reference(points, k, seed):
    """Same labels from kmeans, and the same labels and WCSS per restart."""
    got = kmeans(points, k, seed)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_kmeans(points, k, seed))
    assert_same_restarts(points, k, seed, spectral._RESTARTS, spectral._MAX_ITER)


def assert_same_restarts(points, k, seed, restarts, max_iter):
    """The reference's first `restarts` k-means++ starts, each run for at
    most `max_iter` steps, end with the same labels and WCSS in _lloyd."""
    rng = np.random.default_rng(seed)
    starts = [reference_plusplus(points, k, rng) for _ in range(restarts)]
    labels, wcss = _lloyd(points, np.stack(starts), max_iter)
    for r, start in enumerate(starts):
        ref_labels, ref_wcss = reference_lloyd(points, start.copy(), max_iter)
        assert np.array_equal(labels[r], ref_labels)
        assert wcss[r] == ref_wcss


def sampled_components():
    """Largest components of sampled SBM and DCSBM graphs, 200 to 800 nodes, with k."""
    cases = [
        (sbm_snr_preset(200, 3, 3.0, 10.0), 3),
        (sbm_snr_preset(500, 3, 3.0, 15.0), 3),
        (sbm_snr_preset(800, 3, 3.0, 25.0), 3),
        (sbm_snr_preset(400, 4, 2.0, 12.0), 4),
        (dcsbm_powerlaw_preset(300, 3, 3.0, 20.0, 2.1, seed=5), 3),
        (dcsbm_powerlaw_preset(600, 3, 3.0, 30.0, 2.6, seed=6), 3),
    ]
    for seed, (params, k) in enumerate(cases):
        yield largest_connected_component(sample_graph(params, seed=seed))[0], k


@pytest.fixture(scope="module")
def embeddings():
    """L and unit-row L_tau eigenvector rows of each sampled component."""
    out = []
    for g, k in sampled_components():
        out.append(sym_eigs_topk(normalized_laplacian(g), k).vectors)
        out.append(unit_rows(sym_eigs_topk(regularized_laplacian(g), k).vectors))
    return out


class TestGraphEmbeddings:
    def test_labels_and_restart_wcss_match(self, embeddings):
        for i, rows in enumerate(embeddings):
            assert_same_as_reference(rows, rows.shape[1], seed=[i, 7])

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_fewer_restarts_match(self, embeddings, restarts):
        for i, rows in enumerate(embeddings):
            assert_same_restarts(rows, rows.shape[1], [i, 7], restarts, spectral._MAX_ITER)

    def test_max_iter_stops_restarts_mid_run(self, embeddings):
        for i, rows in enumerate(embeddings):
            for max_iter in (0, 1, 2):
                assert_same_restarts(rows, rows.shape[1], i, spectral._RESTARTS, max_iter)


def random_points(rng):
    """Duplicate-heavy points: n draws from a few distinct rows, often
    fewer than k of them, so that empty clusters get re-seeded."""
    n = int(rng.integers(1, 60))
    d = int(rng.integers(1, 13))
    k = int(rng.integers(1, min(6, n) + 1))
    distinct = int(rng.integers(1, n + 1)) if rng.random() < 0.6 else int(rng.integers(1, k + 1))
    rows = rng.standard_normal((distinct, d)) * rng.choice([1e-3, 1.0, 1e3])
    return rows[rng.integers(0, distinct, size=n)], k, distinct


class TestRandomInputs:
    def test_match_on_random_inputs(self):
        rng = np.random.default_rng(2024)
        reseeded = 0
        for trial in range(320):
            points, k, distinct = random_points(rng)
            restarts = int(rng.choice([1, 3, 20]))
            max_iter = int(rng.choice([0, 1, 2, 5, 100]))
            if (restarts, max_iter) == (spectral._RESTARTS, spectral._MAX_ITER):
                assert_same_as_reference(points, k, seed=trial)
            else:
                assert_same_restarts(points, k, trial, restarts, max_iter)
            reseeded += distinct < k and max_iter > 0
        assert reseeded >= 50

    def test_integer_grid_ties(self):
        # points on a small grid give exact distance ties and equal WCSS
        # across restarts, where the first minimum must win
        rng = np.random.default_rng(9)
        for trial in range(60):
            d = int(rng.integers(1, 5))
            points = rng.integers(0, 3, size=(int(rng.integers(4, 40)), d)).astype(float)
            k = int(rng.integers(1, 5))
            assert_same_as_reference(points, min(k, len(points)), seed=trial)

    def test_lloyd_from_far_starts(self):
        # starts away from the data leave several clusters empty in one
        # step, each re-seeded at a different far point
        rng = np.random.default_rng(13)
        for trial in range(100):
            n, d, k = int(rng.integers(2, 40)), int(rng.integers(1, 10)), int(rng.integers(2, 7))
            points = rng.standard_normal((n, d))
            starts = rng.standard_normal((5, k, d)) * rng.choice([1.0, 30.0], size=(5, k, 1))
            max_iter = int(rng.choice([1, 3, 100]))
            labels, wcss = _lloyd(points, starts.copy(), max_iter)
            for r in range(5):
                ref_labels, ref_wcss = reference_lloyd(points, starts[r].copy(), max_iter)
                assert np.array_equal(labels[r], ref_labels) and wcss[r] == ref_wcss
        points = np.array([[0.0], [1.0], [2.0], [10.0]])
        centroids = np.array([[[0.0], [100.0], [200.0]]])
        _lloyd(points, centroids, max_iter=1)
        # clusters 1 and 2 were empty: the farthest point, then the next
        assert centroids[0, :, 0].tolist() == [3.25, 10.0, 2.0]


class TestBlocks:
    @pytest.mark.parametrize("block", [1, 3 * 40 * 3 * 3])
    def test_blocks_of_restarts(self, monkeypatch, block):
        # one restart per block, then blocks of three restarts
        monkeypatch.setattr(spectral, "_LLOYD_BLOCK_VALUES", block)
        rng = np.random.default_rng(10)
        for trial in range(40):
            base = rng.integers(0, 4, size=(5, 3)).astype(float)
            points = base[rng.integers(0, 5, size=40)] + 0.01 * rng.standard_normal((40, 3))
            assert_same_as_reference(points, 3, seed=trial)

    def test_temporaries_bounded_by_block(self):
        # n * k * d = 72000 values, so blocks of three restarts: the peak
        # is 2.7 MB with them and 13.2 MB with all 20 restarts in one block
        rng = np.random.default_rng(11)
        points = rng.standard_normal((8000, 3)) + 4 * rng.integers(0, 3, size=(8000, 1))
        tracemalloc.start()
        try:
            kmeans(points, 3, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestManyCoordinates:
    @pytest.mark.parametrize("d", [8, 9, 130])
    def test_pairwise_coordinate_sums_match(self, d):
        # numpy sums the reference's last axis one by one below 8 values
        # and pairwise from 8 on, over coordinates of very different scales
        rng = np.random.default_rng(12)
        for trial in range(4):
            n, k = int(rng.integers(20, 90)), int(rng.integers(2, 6))
            scale = 10.0 ** rng.uniform(-6, 6, size=(1, d))
            points = rng.standard_normal((n, d)) * scale + 3 * scale * rng.integers(0, k, size=(n, 1))
            assert_same_as_reference(points, k, seed=trial)


class TestPlusPlusDraw:
    def test_choice_equals_generator_choice(self):
        # the index and the generator state after, for p with zeros, ties,
        # one nonzero entry and weights over many orders of magnitude
        rng = np.random.default_rng(13)
        for trial in range(1200):
            n = int(rng.integers(1, 400))
            w = rng.random(n) * 10.0 ** rng.uniform(-12, 12, size=n)
            kind = trial % 5
            if kind == 1:
                w[rng.random(n) < 0.6] = 0.0
            elif kind == 2:
                w = np.round(w / w.max() * 3)  # few distinct values, many ties
            elif kind == 3:
                w = np.zeros(n)
            elif kind == 4:
                w = np.full(n, rng.random())
            if not w.sum() > 0:
                w[int(rng.integers(n))] = 1.0
            p = w / w.sum()
            seed = int(rng.integers(1 << 62))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            assert spectral._choice(ours, p) == theirs.choice(n, p=p)
            assert ours.bit_generator.state == theirs.bit_generator.state

"""Block-model parameterizations, population matrices, sampling and presets."""

import warnings
from dataclasses import fields

import numpy as np
import pytest

from blockfactor.blockmodels import (
    BlockModel,
    DcsbmParams,
    SbmParams,
    dcsbm_powerlaw_preset,
    population_adjacency,
    population_laplacian,
    sample_graph,
    sbm_snr_preset,
)
from blockfactor.blockmodels import (  # the O(n log n) and unranking helpers
    _clipped_entries,
    _clipped_mean_degree,
    _first_above,
    _sorted_blocks,
    _unrank_pairs,
)
from blockfactor.errors import InvalidInputError
from blockfactor.graphs import degrees


def random_sbm(rng, n=30, k=3):
    z = rng.integers(0, k, size=n)
    z[:k] = np.arange(k)  # every community nonempty
    b = rng.uniform(0.05, 0.95, size=(k, k))
    b = 0.5 * (b + b.T)
    return SbmParams(z=z, b=b)


def random_dcsbm(rng, n=30, k=3):
    z = rng.integers(0, k, size=n)
    z[:k] = np.arange(k)
    b = rng.uniform(0.5, 3.0, size=(k, k))
    b = 0.5 * (b + b.T)
    theta = rng.uniform(0.5, 2.0, size=n)
    for q in range(k):
        theta[z == q] /= theta[z == q].sum()
    return DcsbmParams(z=z, b_prime=b, theta=theta)


class TestParamsValidation:
    def test_empty_community_rejected(self):
        with pytest.raises(ValueError):
            SbmParams(z=np.array([0, 0, 0]), b=np.eye(2) * 0.5)

    def test_asymmetric_b_rejected(self):
        with pytest.raises(ValueError):
            SbmParams(z=np.array([0, 1]), b=np.array([[0.5, 0.1], [0.2, 0.5]]))

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            SbmParams(z=np.array([0, 1]), b=np.array([[1.5, 0.1], [0.1, 0.5]]))

    def test_theta_block_sums_enforced(self):
        with pytest.raises(ValueError):
            DcsbmParams(
                z=np.array([0, 0, 1, 1]),
                b_prime=np.full((2, 2), 2.0),
                theta=np.array([0.5, 0.6, 0.5, 0.5]),
            )

    def test_arrays_frozen(self):
        p = SbmParams(z=np.array([0, 1]), b=np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            p.b[0, 0] = 0.9

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SbmParams(z=[0, 1], b=[0.5, 0.5]),
            lambda: SbmParams(z=[0, 1], b=[[0.5, 0.1], [0.2, 0.5]]),
            lambda: SbmParams(z=[0, 1], b=[[0.5, -0.1], [-0.1, 0.5]]),
            lambda: SbmParams(z=[0, 1], b=[[1.5, 0.1], [0.1, 0.5]]),
            lambda: SbmParams(z=[[0, 1]], b=np.eye(2) * 0.5),
            lambda: SbmParams(z=[0, 2], b=np.eye(2) * 0.5),
            lambda: SbmParams(z=[0, -1], b=np.eye(2) * 0.5),
            lambda: SbmParams(z=[0, 0], b=np.eye(2) * 0.5),
            lambda: SbmParams(z=[0.5, 1.7, 1.2], b=np.eye(2) * 0.5),
            lambda: SbmParams(z=[0, 1, np.inf], b=np.eye(2) * 0.5),
            lambda: DcsbmParams(z=[0, 1.5], b_prime=np.eye(2), theta=[1.0, 1.0]),
            lambda: DcsbmParams(z=[0, 1], b_prime=[[1.0, np.nan], [np.nan, 1.0]], theta=[1.0, 1.0]),
            lambda: DcsbmParams(z=[0, 1], b_prime=np.eye(2), theta=[1.0]),
            lambda: DcsbmParams(z=[0, 0], b_prime=[[1.0]], theta=[1.5, -0.5]),
            lambda: DcsbmParams(z=[0, 0], b_prime=[[1.0]], theta=[0.5, np.nan]),
            lambda: DcsbmParams(z=[0, 0, 1], b_prime=np.eye(2), theta=[0.5, 0.6, 1.0]),
            lambda: SbmParams(z=["a", "b"], b=0.5 * np.eye(2)),
            lambda: SbmParams(z=[0, 1], b=[["x", 0], [0, 1]]),
            lambda: SbmParams(z=[[0], [1, 1]], b=0.5 * np.eye(2)),
            lambda: SbmParams(z=[0, 1], b=[[0.5, 0.1], [0.1]]),
            lambda: DcsbmParams(z=[0, 1], b_prime=np.eye(2), theta=["x", "y"]),
            lambda: SbmParams(z=[0], b=[[10**400]]),
        ],
    )
    def test_every_check_is_a_typed_error(self, make):
        with pytest.raises(InvalidInputError):
            make()

    def test_labels_must_be_integers_but_may_arrive_as_floats(self):
        assert SbmParams(z=np.array([0.0, 1.0, 1.0]), b=np.eye(2) * 0.5).z.tolist() == [0, 1, 1]
        with pytest.raises(InvalidInputError, match="must be integers"):
            SbmParams(z=[0.5, 1.7, 1.2], b=[[0.5, 0.0], [0.0, 0.5]])

    def test_both_models_share_one_base(self):
        sbm = SbmParams(z=[0, 1, 1], b=np.full((2, 2), 0.5))
        dcsbm = DcsbmParams(z=[0, 1, 1], b_prime=np.full((2, 2), 2.0), theta=[1.0, 0.25, 0.75])
        assert isinstance(sbm, BlockModel) and isinstance(dcsbm, BlockModel)
        assert (sbm.n, sbm.k, dcsbm.n, dcsbm.k) == (3, 2, 3, 2)
        assert sbm.rates is sbm.b and sbm.weights.tolist() == [1.0, 1.0, 1.0]
        assert dcsbm.rates is dcsbm.b_prime and dcsbm.weights is dcsbm.theta
        assert [f.name for f in fields(sbm)] == ["z", "b"]
        assert [f.name for f in fields(dcsbm)] == ["z", "b_prime", "theta"]


class TestPopulationAdjacency:
    def test_single_block_constant(self):
        p = SbmParams(z=np.zeros(3, dtype=int), b=np.array([[0.4]]))
        assert np.array_equal(population_adjacency(p), np.full((3, 3), 0.4))

    def test_two_block_direct_substitution(self):
        p = SbmParams(
            z=np.array([0, 0, 1, 1]), b=np.array([[0.5, 0.1], [0.1, 0.5]])
        )
        expected = np.array(
            [
                [0.5, 0.5, 0.1, 0.1],
                [0.5, 0.5, 0.1, 0.1],
                [0.1, 0.1, 0.5, 0.5],
                [0.1, 0.1, 0.5, 0.5],
            ]
        )
        assert np.array_equal(population_adjacency(p), expected)

    def test_dcsbm_matches_elementwise_brute_force(self):
        z = np.array([0, 0, 1, 1])
        theta = np.array([0.5, 0.5, 0.5, 0.5])
        b = np.array([[1.2, 0.3], [0.3, 1.4]])
        p = DcsbmParams(z=z, b_prime=b, theta=theta)
        pop = population_adjacency(p)
        for i in range(4):
            for j in range(4):
                assert pop[i, j] == pytest.approx(theta[i] * theta[j] * b[z[i], z[j]], abs=1e-15)

    def test_rank_at_most_k(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = random_sbm(rng, n=40, k=3)
            pop = population_adjacency(p)
            vals = np.abs(np.linalg.eigvalsh(pop))
            assert (np.sort(vals)[: 40 - 3] < 1e-8 * max(vals.max(), 1)).all()

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        for maker in (random_sbm, random_dcsbm):
            pop = population_adjacency(maker(rng))
            assert np.array_equal(pop, pop.T)


class TestPopulationLaplacian:
    def test_single_block_is_one_over_n(self):
        # each expected degree is n*p, so every entry is p/(n*p) = 1/n
        n = 7
        p = SbmParams(z=np.zeros(n, dtype=int), b=np.array([[0.3]]))
        np.testing.assert_allclose(
            population_laplacian(p), np.full((n, n), 1.0 / n), rtol=0, atol=1e-15
        )

    def test_closed_form_equals_direct_normalization(self):
        rng = np.random.default_rng(3)
        for maker in (random_sbm, random_dcsbm):
            for _ in range(10):
                p = maker(rng)
                pop = population_adjacency(p)
                deg = pop.sum(axis=1)
                direct = pop / np.sqrt(deg[:, None] * deg[None, :])
                assert np.abs(population_laplacian(p) - direct).max() < 1e-12

    def test_closed_form_holds_when_theta_block_sums_miss_one(self):
        # the constructor accepts block sums within 1e-8 of 1; the closed
        # form must not assume they are exactly 1
        z = np.repeat([0, 1], 4)
        theta = np.tile([0.1, 0.2, 0.3, 0.4], 2) * np.repeat([1 + 9e-9, 1 - 9e-9], 4)
        p = DcsbmParams(z=z, b_prime=np.array([[2.0, 0.5], [0.5, 1.5]]), theta=theta)
        pop = population_adjacency(p)
        deg = pop.sum(axis=1)
        direct = pop / np.sqrt(deg[:, None] * deg[None, :])
        lap = population_laplacian(p)
        assert np.abs(lap - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_zero_expected_degree(self):
        p = SbmParams(z=np.array([0, 1]), b=np.array([[0.5, 0.0], [0.0, 0.0]]))
        with pytest.raises(InvalidInputError, match="node 1 has zero expected degree"):
            population_laplacian(p)


class TestSampleGraph:
    def test_all_ones_gives_complete_graph(self):
        p = SbmParams(z=np.array([0, 0, 1, 1]), b=np.ones((2, 2)))
        g = sample_graph(p, seed=0)
        assert g.num_edges == 6

    def test_all_zeros_gives_empty_graph(self):
        p = SbmParams(z=np.array([0, 0, 1, 1]), b=np.zeros((2, 2)))
        assert sample_graph(p, seed=0).num_edges == 0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        p = random_sbm(rng)
        a, b, c = (sample_graph(p, seed=s).edge_array.tolist() for s in (42, 42, 43))
        assert a == b and a != c

    def test_preset_sample_mean_degree_near_target(self):
        p = sbm_snr_preset(800, 3, 3.0, 30.0)
        g = sample_graph(p, seed=7)
        assert degrees(g).mean() == pytest.approx(30.0, rel=0.1)

    def test_mean_adjacency_converges_within_binomial_bounds(self):
        rng = np.random.default_rng(5)
        p = random_sbm(rng, n=16, k=2)
        pop = population_adjacency(p)
        acc = np.zeros_like(pop)
        reps = 200
        for s in range(reps):
            acc += sample_graph(p, seed=s).adjacency
        mean = acc / reps
        sigma = np.sqrt(pop * (1 - pop) / reps)
        off = ~np.eye(16, dtype=bool)
        assert (np.abs(mean - pop)[off] <= 5 * sigma[off] + 1e-12).all()

    def test_dcsbm_clipping_warns(self):
        z = np.array([0, 0, 1])
        theta = np.array([0.9, 0.1, 1.0])
        p = DcsbmParams(z=z, b_prime=np.full((2, 2), 3.0), theta=theta)
        with pytest.warns(UserWarning, match="clipped"):
            sample_graph(p, seed=0)


class TestSnrPreset:
    def test_mean_degree_solved_exactly(self):
        p = sbm_snr_preset(800, 3, 3.0, 30.0)
        assert population_adjacency(p).sum() / 800 == pytest.approx(30.0, abs=1e-9)

    def test_snr_one_is_erdos_renyi(self):
        p = sbm_snr_preset(12, 3, 1.0, 5.0)
        assert np.all(p.b == p.b[0, 0])

    def test_snr_ratio_structure(self):
        p = sbm_snr_preset(60, 3, 3.0, 10.0)
        off = p.b[0, 1]
        assert p.b[0, 0] == pytest.approx(3 * off)
        assert np.bincount(p.z).tolist() == [20, 20, 20]

    def test_infeasible_degree_raises(self):
        with pytest.raises(InvalidInputError, match="within-block probability .* exceeds 1 for n=10, k=2"):
            sbm_snr_preset(10, 2, 5.0, 9.0)


class TestDcsbmPreset:
    def test_block_sums_exactly_one(self):
        p = dcsbm_powerlaw_preset(90, 3, 3.0, 10.0, beta=2.5, seed=0)
        for q in range(3):
            assert p.theta[p.z == q].sum() == pytest.approx(1.0, abs=1e-12)

    def test_large_beta_approaches_uniform_weights(self):
        p = dcsbm_powerlaw_preset(90, 3, 3.0, 10.0, beta=200.0, seed=1)
        for q in range(3):
            w = p.theta[p.z == q]
            assert np.abs(w * w.size - 1).max() < 0.05

    def test_mean_degree_within_ten_percent_over_seeds(self):
        # Monte Carlo over 32 seeds at the heavy-tail end of the sweep
        means = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for s in range(32):
                p = dcsbm_powerlaw_preset(600, 3, 3.0, 30.0, beta=2.1, seed=s)
                g = sample_graph(p, seed=[s, 1])
                means.append(degrees(g).mean())
        assert np.mean(means) == pytest.approx(30.0, rel=0.1)

    def test_post_clip_population_mean_hits_target(self):
        p = dcsbm_powerlaw_preset(300, 3, 3.0, 20.0, beta=2.1, seed=5)
        pop = np.minimum(population_adjacency(p), 1.0)
        assert pop.sum() / 300 == pytest.approx(20.0, abs=1e-6)

    def test_infeasible_target_degree(self):
        with pytest.raises(InvalidInputError, match="target degree 25.0 unreachable with 20 nodes"):
            dcsbm_powerlaw_preset(20, 2, 2.0, 25.0, beta=2.5, seed=0)

    def test_beta_at_most_two_rejected(self):
        with pytest.raises(ValueError):
            dcsbm_powerlaw_preset(30, 2, 3.0, 5.0, beta=2.0, seed=0)

    def test_deterministic_given_seed(self):
        p1 = dcsbm_powerlaw_preset(60, 3, 3.0, 10.0, beta=2.5, seed=9)
        p2 = dcsbm_powerlaw_preset(60, 3, 3.0, 10.0, beta=2.5, seed=9)
        assert np.array_equal(p1.theta, p2.theta)


def preset_80_steps(n, k, snr, target_avg_degree, beta, seed):
    """The DCSBM preset as it was with a fixed 80 bisection steps, and the
    number of those steps that moved the bracket."""
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    z = np.repeat(np.arange(k), sizes)
    rng = np.random.default_rng(seed)
    theta = rng.pareto(beta - 1.0, size=n) + 1.0
    for q in range(k):
        mask = z == q
        theta[mask] = theta[mask] / theta[mask].sum()
    pattern = np.ones((k, k)) + (snr - 1.0) * np.eye(k)

    blocks = _sorted_blocks(z, theta, k)

    def clipped_mean(scale):
        return _clipped_mean_degree(z, theta, scale * pattern, blocks)

    hi = target_avg_degree * n / float(pattern.sum())
    while clipped_mean(hi) < target_avg_degree:
        hi *= 2.0
    lo = 0.0
    moved = 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        moved += lo < mid < hi
        if clipped_mean(mid) < target_avg_degree:
            lo = mid
        else:
            hi = mid
    return DcsbmParams(z=z, b_prime=hi * pattern, theta=theta), moved


class TestDcsbmBisection:
    """The bisection stops once its bracket cannot shrink, with the scale
    the fixed 80-step loop reached."""

    def test_matches_the_80_step_loop(self):
        calls, most_moved = 0, 0
        for n in (120, 600, 2000):
            for beta in (2.1, 2.5, 3.0, 4.0):
                for degree in (4.0, 12.0, 30.0):
                    for seed in range(12):
                        args = (n, 3, 3.0, degree, beta, [seed, n])
                        want, moved = preset_80_steps(*args)
                        got = dcsbm_powerlaw_preset(*args)
                        assert np.array_equal(got.b_prime, want.b_prime), args
                        assert np.array_equal(got.theta, want.theta)
                        calls += 1
                        most_moved = max(most_moved, moved)
        assert calls >= 400
        assert most_moved < 80  # the 80-step loop had stopped moving too

    def test_zero_target(self):
        want, _ = preset_80_steps(60, 2, 3.0, 0.0, 2.5, 0)
        got = dcsbm_powerlaw_preset(60, 2, 3.0, 0.0, 2.5, seed=0)
        assert np.array_equal(got.b_prime, want.b_prime)
        assert not got.b_prime.any()

    def test_negative_target_raises_the_same_error(self):
        with pytest.raises(ValueError) as want:
            preset_80_steps(60, 2, 3.0, -1.0, 2.5, 0)
        with pytest.raises(ValueError) as got:
            dcsbm_powerlaw_preset(60, 2, 3.0, -1.0, 2.5, seed=0)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def edge_counts(p, reps):
    """Per node pair, how many of ``reps`` seeded draws hold it."""
    hits = np.zeros((p.n, p.n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # clipping notes
        for s in range(reps):
            e = sample_graph(p, seed=s).edge_array
            hits[e[:, 0], e[:, 1]] += 1
    return hits


def assert_exact_bernoulli(p, reps):
    """Each pair's count over ``reps`` draws lies inside the two-sided 1e-7
    tails of Binomial(reps, min(1, p_ij)), and the edge total within 5
    sigma; pairs with p_ij >= 1 are in every draw and p_ij = 0 in none."""
    from scipy.stats import binom

    iu = np.triu_indices(p.n, k=1)
    pop = population_adjacency(p)[iu]
    count = edge_counts(p, reps)[iu]
    want = np.minimum(pop, 1.0)
    assert (count[pop >= 1] == reps).all()
    assert (count[pop == 0] == 0).all()
    tail = np.minimum(binom.cdf(count, reps, want), binom.sf(count - 1, reps, want))
    assert tail.min() >= 1e-7
    total_sigma = np.sqrt((reps * want * (1 - want)).sum())
    assert abs(count.sum() - reps * want.sum()) <= 5 * total_sigma
    return pop


def spread_dcsbm(rng, n, k, exponents, rates):
    """DCSBM whose theta spans about ``exponents`` binary orders of magnitude."""
    z = np.arange(n) % k
    theta = 2.0 ** rng.uniform(-exponents, 0, size=n)
    for q in range(k):
        theta[z == q] /= theta[z == q].sum()
    return DcsbmParams(z=z, b_prime=np.asarray(rates, dtype=float), theta=theta)


class TestExactSampler:
    def test_clipped_dcsbm_pair_frequencies(self):
        rng = np.random.default_rng(11)
        rates = [[40.0, 5.0, 20.0], [5.0, 60.0, 0.0], [20.0, 0.0, 30.0]]
        p = spread_dcsbm(rng, 30, 3, 6, rates)
        pop = assert_exact_bernoulli(p, reps=3000)
        assert (pop >= 1).sum() >= 10 and (pop == 0).sum() >= 10
        assert ((pop > 0.05) & (pop < 0.95)).sum() >= 50

    def test_theta_over_many_dyadic_buckets(self):
        rng = np.random.default_rng(12)
        p = spread_dcsbm(rng, 40, 2, 20, [[30.0, 8.0], [8.0, 30.0]])
        for q in range(2):
            assert np.unique(np.frexp(p.theta[p.z == q])[1]).size >= 10
        assert_exact_bernoulli(p, reps=1000)

    def test_sbm_pair_frequencies(self):
        rng = np.random.default_rng(13)
        assert_exact_bernoulli(random_sbm(rng, n=25, k=3), reps=1000)

    def test_zero_rate_between_blocks(self):
        p = SbmParams(z=np.arange(40) % 2, b=np.array([[0.5, 0.0], [0.0, 0.3]]))
        for s in range(50):
            i, j = sample_graph(p, seed=s).edge_array.T
            assert (p.z[i] == p.z[j]).all()
        assert_exact_bernoulli(p, reps=300)

    def test_block_with_one_node(self):
        p = SbmParams(z=np.array([1, 1, 0, 1, 1]), b=np.array([[0.0, 1.0], [1.0, 0.0]]))
        g = sample_graph(p, seed=0)
        assert g.edge_array.tolist() == [[0, 2], [1, 2], [2, 3], [2, 4]]
        q = DcsbmParams(z=np.array([0, 1, 1]), b_prime=np.full((2, 2), 0.5),
                        theta=np.array([1.0, 0.25, 0.75]))
        assert_exact_bernoulli(q, reps=1000)

    def test_unrank_pairs_at_triangular_numbers(self):
        i, j = _unrank_pairs(np.arange(45))
        assert list(zip(i.tolist(), j.tolist())) == [(a, b) for b in range(10) for a in range(b)]
        # around j(j-1)/2 for j up to 2^31, where the float root rounds across
        top = np.concatenate([2 ** np.arange(1, 32), np.random.default_rng(17).integers(
            2**20, 2**31, size=10000)])
        tri = top * (top - 1) // 2
        idx = np.concatenate([tri - 1, tri, tri + 1])
        idx = idx[idx >= 0]
        i, j = _unrank_pairs(idx)
        assert ((0 <= i) & (i < j)).all()
        assert np.array_equal(j * (j - 1) // 2 + i, idx)

    def test_no_nodes_is_not_a_model(self):
        with pytest.raises(ValueError):
            SbmParams(z=np.zeros(0, dtype=int), b=np.full((1, 1), 0.5))

    def test_one_and_two_nodes(self):
        one = sample_graph(SbmParams(z=np.array([0]), b=np.ones((1, 1))), seed=0)
        assert one.n == 1 and one.num_edges == 0
        with pytest.warns(UserWarning, match="clipped 100.0000%"):
            sample_graph(DcsbmParams(z=np.array([0]), b_prime=np.full((1, 1), 2.0),
                                     theta=np.array([1.0])), seed=0)
        for b, edges in ((1.0, [[0, 1]]), (0.0, [])):
            for z in ([0, 0], [0, 1]):
                k = max(z) + 1
                g = sample_graph(SbmParams(z=np.array(z), b=np.full((k, k), b)), seed=1)
                assert g.n == 2 and g.edge_array.tolist() == edges

    def test_same_seed_same_graph_across_buckets(self):
        rng = np.random.default_rng(14)
        p = spread_dcsbm(rng, 200, 3, 12, np.full((3, 3), 20.0) + 40.0 * np.eye(3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            a, b = sample_graph(p, seed=[3, 1]), sample_graph(p, seed=[3, 1])
            assert a.edge_array.tolist() == b.edge_array.tolist() and a.num_edges > 0
            assert sample_graph(p, seed=[3, 2]).edge_array.tolist() != a.edge_array.tolist()


class TestClippingWithoutDenseMatrices:
    def test_clipped_mean_matches_dense_reference(self):
        for n, beta, seed in ((30, 2.1, 0), (61, 2.5, 1), (90, 3.1, 2), (150, 2.2, 3)):
            p = dcsbm_powerlaw_preset(n, 3, 3.0, 10.0, beta=beta, seed=seed)
            pattern = p.b_prime / p.b_prime[0, 1]
            outer = (p.theta[:, None] * p.theta[None, :]) * pattern[p.z[:, None], p.z[None, :]]
            blocks = _sorted_blocks(p.z, p.theta, 3)
            for scale in (1e-3, 0.1, 1.0, 10.0, 1e2, 1e3, 1e5, p.b_prime[0, 1]):
                reference = np.minimum(scale * outer, 1).sum() / n
                fast = _clipped_mean_degree(p.z, p.theta, scale * pattern, blocks)
                assert fast == pytest.approx(reference, rel=1e-12)

    def test_warned_fraction_equals_dense_count(self):
        rng = np.random.default_rng(15)
        for t in range(20):
            n = int(rng.integers(3, 80))
            rates = rng.uniform(0, 50, size=(3, 3))
            p = spread_dcsbm(rng, n, 3, int(rng.integers(1, 12)), rates + rates.T)
            dense = int((population_adjacency(p) > 1).sum())
            assert _clipped_entries(p.z, p.theta, p.b_prime) == dense
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sample_graph(p, seed=t)
            notes = [str(w.message) for w in caught if "clipped" in str(w.message)]
            want = f"clipped {dense / n**2:.4%} of population entries above 1 before sampling"
            assert notes == ([want] if dense else [])

    def test_boundary_products_counted_as_the_dense_product_rounds(self):
        # weights at, one ulp below and one ulp above each node's threshold
        rng = np.random.default_rng(16)
        c = rng.uniform(0.5, 40.0, size=50)
        ti = rng.uniform(1e-3, 1.0, size=50)
        edge = 1.0 / (c * ti)
        tj = np.sort(np.concatenate([edge, np.nextafter(edge, 0), np.nextafter(edge, np.inf)]))
        cut = _first_above(c, ti, tj)
        brute = [tj.size - int((c[i] * (ti[i] * tj) > 1.0).sum()) for i in range(50)]
        assert cut.tolist() == brute

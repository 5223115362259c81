"""Forward Monte Carlo and perfect sampling from the past."""

import dataclasses
import hashlib
import itertools
import math

import pytest

from infinitebin import begraph, enumerate_minimal, rng, simulate
from infinitebin.core import MINIMAL_CONFIG, Configuration, _Evolver
from infinitebin.distributions import (
    Dirac,
    FiniteSupport,
    Geometric,
    Uniform,
    parse_mu,
)
from infinitebin.simulate import (
    CouplingHorizonError,
    perfect_sample,
    perfect_samples,
    run_forward,
    speed_floor,
    stationary_speed,
    tau_tail,
)
from infinitebin.words import test_set as patterns_for


# ---------------------------------------------------------------------------
# forward Monte Carlo
# ---------------------------------------------------------------------------


def test_run_forward_is_deterministic():
    a = run_forward(Geometric(0.5), MINIMAL_CONFIG, 5_000, seed=9)
    b = run_forward(Geometric(0.5), MINIMAL_CONFIG, 5_000, seed=9)
    assert a == b
    c = run_forward(Geometric(0.5), MINIMAL_CONFIG, 5_000, seed=10)
    d = run_forward(Geometric(0.5), MINIMAL_CONFIG, 5_000, seed=9, replica=1)
    assert a != c and a != d


def test_run_forward_dirac_one_has_unit_speed():
    stats = run_forward(Dirac(1), MINIMAL_CONFIG, 10_000, seed=0)
    assert stats.speed_estimate == 1.0
    assert stats.front_final == 10_000
    assert stats.stderr == 0.0


def test_run_forward_bounds_and_validation():
    stats = run_forward(Uniform(3), MINIMAL_CONFIG, 20_000, seed=4)
    assert 0.0 <= stats.speed_estimate <= 1.0
    assert stats.stderr >= 0.0
    assert stats.steps == 20_000
    with pytest.raises(ValueError):
        run_forward(Uniform(3), MINIMAL_CONFIG, 0, seed=4)


def test_run_forward_custom_start():
    start = Configuration(5, (3, 1, 2))
    stats = run_forward(Geometric(0.9), start, 1_000, seed=2)
    assert stats.front_final == 918


@pytest.mark.parametrize("spec, seed", [
    ("geom:0.5", 0), ("geom:0.8", 1), ("unif:2", 2), ("unif:3", 3),
])
def test_forward_estimate_tracks_displacement(spec, seed):
    # advances minus their conditional means mu([1, c]) form a martingale
    # with steps of variance <= 1/4, so the two speeds differ by a few
    # times 0.5 / sqrt(steps)
    steps = 50_000
    stats = run_forward(parse_mu(spec), MINIMAL_CONFIG, steps, seed=seed)
    displacement = stats.front_final / steps
    assert abs(stats.speed_estimate - displacement) <= 6 * 0.5 / math.sqrt(steps)


def test_geometric_one_estimates_are_exact():
    # the Dirac(1) cases are test_run_forward_dirac_one_has_unit_speed and
    # test_stationary_speed_dirac_one_is_exact
    mu = Geometric(1.0)
    stats = run_forward(mu, MINIMAL_CONFIG, 10_000, seed=3)
    assert (stats.speed_estimate, stats.stderr) == (1.0, 0.0)
    assert stationary_speed(mu, 300, K=2, seed=3) == (1.0, 0.0)


def _brute_front_sums(mu, scenery, deep):
    """[sum over t <= j of E[mu([1, c_t])] for j < len(scenery)], c_t the
    front bin count after t letters from ``scenery`` (front first) with
    len(scenery) bins of ``deep`` balls below it.

    Runs _Evolver over every word of letters 1..M, M = sum(scenery) +
    len(scenery), and one "past M" letter carrying 1 - cdf(M): before step
    len(scenery), no letter past M lands above the deep bins."""
    big = sum(scenery) + len(scenery)
    letters = [(k, mu.pmf(k)) for k in range(1, big + 1)]
    letters.append((big + 1, 1.0 - mu.cdf(big)))
    start = Configuration(0, (deep,) * len(scenery) + tuple(reversed(scenery)))
    sums, total = [], 0.0
    for t in range(len(scenery)):
        for word in itertools.product(letters, repeat=t):
            weight = math.prod(q for _, q in word)
            if weight:
                ev = _Evolver(start)
                ev.run([k for k, _ in word])
                total += weight * mu.cdf(ev.window[-1])
        sums.append(total)
    return sums


@pytest.mark.parametrize("mu", [
    Geometric(0.5), Uniform(3), FiniteSupport([0.3, 0.0, 0.5, 0.2]),
], ids=lambda mu: mu.describe())
def test_front_sum_matches_a_brute_force_over_letter_words(mu):
    memo = {}
    for K in (1, 2, 3):
        for scenery in itertools.product((1, 2, 3), repeat=K):
            dp = [simulate._front_sum(mu, scenery[: j + 1], memo)
                  for j in range(K)]
            for deep in (1, 5):
                brute = _brute_front_sums(mu, scenery, deep)
                assert dp == pytest.approx(brute, rel=0, abs=1e-12), (
                    scenery, deep)


def test_front_hit_rate_scores_front_counts_without_drawing(monkeypatch):
    mu = Geometric(0.5)
    front = perfect_samples(mu, 1, 400, seed=8)
    deep = perfect_samples(mu, 2, 400, seed=8)

    def no_stream(*args, **kwargs):
        raise AssertionError("the stationary estimator opened a stream")

    monkeypatch.setattr(rng, "stream", no_stream)
    # at K = 1 the score is mu([1, c]) of the front bin count, bit for bit
    estimate, stderr = simulate.front_hit_rate(mu, front)
    assert (estimate, stderr) == simulate._mean_stderr(
        [mu.cdf(s.scenery[0]) for s in front])
    assert 0.0 < stderr < 0.5 / math.sqrt(len(front))
    # at K = 2 it averages the expected mu([1, c_t]) over t = 0, 1
    estimate, stderr = simulate.front_hit_rate(mu, deep)
    oracle = simulate._mean_stderr(
        [_brute_front_sums(mu, s.scenery, 1)[-1] / 2 for s in deep])
    assert (estimate, stderr) == pytest.approx(oracle, rel=0, abs=1e-12)
    assert 0.0 < stderr < 0.5 / math.sqrt(len(deep))


@pytest.mark.parametrize("spec", ["geom:0.5", "unif:3"])
def test_front_hit_rate_over_four_bins_is_unbiased_and_sharper(spec):
    mu = parse_mu(spec)
    drawn = perfect_samples(mu, 4, 2000, seed=29)
    estimate, stderr = simulate.front_hit_rate(mu, drawn)
    bracket = enumerate_minimal(mu, 12, 12)
    gap = max(bracket.lower - estimate, estimate - bracket.upper, 0.0)
    assert gap <= 3 * stderr + bracket.rounding_bound
    front = simulate._mean_stderr([mu.cdf(s.scenery[0]) for s in drawn])
    assert stderr**2 <= front[1] ** 2 / 8


def test_speed_floor_values():
    assert speed_floor(Geometric(0.5)) == pytest.approx(0.5)
    assert speed_floor(Geometric(0.8)) == pytest.approx(0.8)
    assert speed_floor(Uniform(2)) == pytest.approx(0.5)
    assert speed_floor(Uniform(3)) == pytest.approx(1.0 / 3.0)
    assert speed_floor(Dirac(2)) == pytest.approx(0.5)
    assert speed_floor(Dirac(3)) == pytest.approx(0.25)


def test_repeated_min_letter_block_advances_front():
    # With a the smallest letter, a block of a(a-1)/2 + 1 copies of a
    # must advance the front at least once from any start.
    corpus = patterns_for(4) + [
        Configuration(0, (5,)),
        Configuration(3, (2, 1, 4)),
        Configuration(-2, (1, 3, 1, 2)),
    ]
    for a in (1, 2, 3):
        block = (a,) * (a * (a - 1) // 2 + 1)
        for config in corpus:
            assert config.apply_word(block).front >= config.front + 1


# ---------------------------------------------------------------------------
# perfect sampling
# ---------------------------------------------------------------------------


def test_perfect_sample_dirac_one():
    sample = perfect_sample(Dirac(1), 3, seed=5)
    assert sample.scenery == (1, 1, 1)
    # doubling schedule certifies depth 3 at the first horizon >= 3
    assert sample.tau == 4


def test_perfect_sample_is_reproducible():
    a = perfect_sample(Geometric(0.6), 2, seed=11, replica=7)
    b = perfect_sample(Geometric(0.6), 2, seed=11, replica=7)
    assert a == b
    c = perfect_sample(Geometric(0.6), 2, seed=11, replica=8)
    assert a != c or a.scenery == c.scenery  # replicas draw fresh letters


def test_perfect_sample_depths_are_consistent():
    # The same past stream must certify the same shallow scenery no
    # matter how deep a scenery was requested.
    mu = Geometric(0.5)
    for replica in range(10):
        shallow = perfect_sample(mu, 1, seed=3, replica=replica)
        deep = perfect_sample(mu, 3, seed=3, replica=replica)
        assert deep.scenery[0] == shallow.scenery[0]
        assert shallow.tau <= deep.tau


def test_perfect_sample_rejects_bad_inputs():
    with pytest.raises(ValueError, match="no coupling words, so coupling "
                                         "from the past never certifies"):
        perfect_sample(Dirac(2), 1, seed=0)  # blocked point mass
    with pytest.raises(ValueError):
        perfect_sample(Geometric(0.5), 0, seed=0)
    with pytest.raises(ValueError, match="max_horizon must be >= 1"):
        perfect_sample(Geometric(0.5), 1, seed=0, max_horizon=0)
    with pytest.raises(ValueError, match="at least one perfect sample"):
        simulate.front_hit_rate(Geometric(0.5), ())


def test_perfect_samples_validate_before_drawing(monkeypatch):
    first_uniforms, requested = rng.first_uniforms, []

    def no_draw(*args, **kwargs):
        raise AssertionError("perfect_samples drew before validating")

    monkeypatch.setattr(rng, "first_uniforms", no_draw)
    mu = Geometric(0.5)
    for K in (0, -10**9):
        with pytest.raises(ValueError, match="scenery depth K must be >= 1"):
            perfect_samples(mu, K, 4, seed=0)
    with pytest.raises(ValueError, match="max_horizon must be >= 1"):
        perfect_samples(mu, 1, 4, seed=0, max_horizon=0)
    with pytest.raises(ValueError, match="no coupling words"):
        perfect_samples(Dirac(2), 1, 4, seed=0)

    def counted(seed, stream, replicas, n):
        requested.append(n)
        return first_uniforms(seed, stream, replicas, n)

    # a first block never holds letters past the horizon cap
    monkeypatch.setattr(rng, "first_uniforms", counted)
    with pytest.raises(CouplingHorizonError):
        perfect_samples(mu, 8, 4, seed=0, max_horizon=8)
    assert requested and max(requested) <= 8


def test_perfect_sample_horizon_error_carries_diagnostics():
    mu = Geometric(0.5)
    hit = False
    for replica in range(30):
        try:
            sample = perfect_sample(mu, 1, seed=1, replica=replica, max_horizon=1)
            assert sample.tau <= 1
        except CouplingHorizonError as exc:
            hit = True
            assert exc.K == 1
            assert exc.horizon == 1
            assert exc.best_depth < 1
    assert hit, "expected at least one replica to need a longer horizon"


@pytest.mark.parametrize("n", [1, 3, 4, 5, simulate._PAST_BLOCK, 64, 65])
def test_first_uniforms_rows_equal_fresh_streams(n):
    replicas = [0, 1, 2**32 - 1]
    for seed in (0, -1, 2**64 + 5):
        rows = rng.first_uniforms(seed, rng.STREAM_PAST, replicas, n)
        assert rows.shape == (len(replicas), n)
        for row, r in zip(rows, replicas):
            fresh = rng.stream(seed, rng.STREAM_PAST, r).random(n)
            assert row.tobytes() == fresh.tobytes(), (seed, r)
    # one full block of rows, as perfect_samples draws it
    block = range(2**32 - simulate._REPLICA_BLOCK, 2**32)
    rows = rng.first_uniforms(3, rng.STREAM_PAST, block, n)
    assert rows.shape == (len(block), n)
    for i in (0, 1, 511, len(block) - 1):
        fresh = rng.stream(3, rng.STREAM_PAST, block[i]).random(n)
        assert rows[i].tobytes() == fresh.tobytes(), block[i]
    for bad in (-1, 2**32, 2**64):
        with pytest.raises(ValueError):
            rng.first_uniforms(0, rng.STREAM_PAST, [0, bad], n)


@pytest.mark.parametrize("mu", [
    Geometric(0.5), Geometric(1.0), Uniform(3),
    FiniteSupport([0.2, 0.3, 0.5]), Dirac(1),
], ids=lambda mu: mu.describe())
@pytest.mark.parametrize("K", [1, 32])
def test_replica_blocks_equal_single_draws(mu, K, monkeypatch):
    # 256-replica blocks keep the run short; at K=1, 513 replicas cross two
    # block boundaries and end in a one-replica block, and at K=32 the
    # 128-letter first blocks hold 32 replicas each
    monkeypatch.setattr(simulate, "_REPLICA_BLOCK", 256)
    replicas = 2 * simulate._REPLICA_BLOCK + 1
    drawn = perfect_samples(mu, K, replicas, seed=4)
    assert drawn == tuple(perfect_sample(mu, K, seed=4, replica=r)
                          for r in range(replicas))
    if K == 1 and mu.pmf(1) < 1.0:  # horizons outgrow the first block
        assert max(s.tau for s in drawn) > simulate._PAST_BLOCK


@pytest.mark.parametrize("cap", [3, 48, 100])
def test_horizon_caps_off_the_doubling_schedule(cap):
    # The schedule is 1, 2, 4, ... capped at and ending on the cap; a
    # horizon of 100 outgrows the 64 past letters redrawn before it.
    mu, K = Uniform(3), 32
    schedule = {1 << i for i in range(cap.bit_length())} | {cap}
    certified = []
    for r in range(40):
        try:
            sample = perfect_sample(mu, K, seed=5, replica=r, max_horizon=cap)
        except CouplingHorizonError as exc:
            assert (exc.K, exc.horizon) == (K, cap)
            assert exc.best_depth < K
            continue
        assert sample.tau in schedule and sample.tau <= cap
        # a deeper fold refines a shallower one: the default schedule
        # certifies the same scenery at the next power of two
        full = perfect_sample(mu, K, seed=5, replica=r)
        assert full.scenery == sample.scenery
        assert full.tau == 1 << (sample.tau - 1).bit_length()
        certified.append(sample)
    if cap == 100:
        assert len(certified) == 40
        assert any(s.tau == cap for s in certified)
        assert perfect_samples(mu, K, 40, seed=5, max_horizon=cap) == tuple(
            certified)
    else:
        assert not certified


def test_stationary_speed_matches_known_value():
    estimate, stderr = stationary_speed(Geometric(0.7), 3_000, K=1, seed=21)
    assert stderr > 0.0
    assert abs(estimate - 0.742818) < 4 * stderr


def test_stationary_speed_dirac_one_is_exact():
    estimate, stderr = stationary_speed(Dirac(1), 50, K=1, seed=0)
    assert (estimate, stderr) == (1.0, 0.0)


# ---------------------------------------------------------------------------
# coupling-time statistics
# ---------------------------------------------------------------------------


def test_tau_tail_shape_and_quantisation():
    tail = tau_tail(Geometric(0.5), 1, 300, seed=2)
    assert len(tail.taus) == 300
    assert sum(c for _, c in tail.histogram()) == 300
    for t in tail.taus:
        assert t >= 1 and (t & (t - 1)) == 0  # doubling schedule values
    assert tail.survival(0) == 1.0
    ns = [1, 2, 4, 8, 16]
    surv = [tail.survival(n) for n in ns]
    assert all(x >= y for x, y in zip(surv, surv[1:]))
    assert tail.median >= 1.0
    assert simulate.TauTail(taus=(4, 1, 2)).median == 2.0
    assert simulate.TauTail(taus=(4, 1, 2, 8)).median == 3.0


def test_tau_monotone_in_scenery_depth():
    mu = Geometric(0.5)
    for replica in range(15):
        t1 = perfect_sample(mu, 1, seed=6, replica=replica).tau
        t2 = perfect_sample(mu, 2, seed=6, replica=replica).tau
        t3 = perfect_sample(mu, 4, seed=6, replica=replica).tau
        assert t1 <= t2 <= t3


# ---------------------------------------------------------------------------
# pinned sampler outputs (recorded before the loops were rewritten)
# ---------------------------------------------------------------------------

#: (law, steps) -> float.hex of every RunStats field of run_forward(seed=11).
PINNED_FORWARD = {
    ("geom:0.5", 1): ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
                      "0x1.0000000000000p-1", "0x0.0p+0", "0x1.6000000000000p+3"),
    ("geom:0.5", 33): ("0x1.0800000000000p+5", "0x1.0000000000000p+4",
                       "0x1.3745d1745d174p-1", "0x1.b860a7286e2c9p-6",
                       "0x1.6000000000000p+3"),
    ("geom:0.5", 65541): ("0x1.0005000000000p+16", "0x1.2894000000000p+15",
                          "0x1.2817ef8852566p-1", "0x1.c628273696f25p-12",
                          "0x1.6000000000000p+3"),
    ("geom:0.8", 1): ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
                      "0x1.999999999999ap-1", "0x0.0p+0", "0x1.6000000000000p+3"),
    ("geom:0.8", 33): ("0x1.0800000000000p+5", "0x1.9000000000000p+4",
                       "0x1.aafa1aafa1ab2p-1", "0x1.8546c495b033ep-7",
                       "0x1.6000000000000p+3"),
    ("geom:0.8", 65541): ("0x1.0005000000000p+16", "0x1.a716000000000p+15",
                          "0x1.a5a039d5dbf4ap-1", "0x1.50eb1b4fe6bd8p-13",
                          "0x1.6000000000000p+3"),
    ("unif:2", 1): ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
                    "0x1.0000000000000p-1", "0x0.0p+0", "0x1.6000000000000p+3"),
    ("unif:2", 33): ("0x1.0800000000000p+5", "0x1.3000000000000p+4",
                     "0x1.64d9364d9364ep-1", "0x1.60fbe4eec6813p-5",
                     "0x1.6000000000000p+3"),
    ("unif:2", 65541): ("0x1.0005000000000p+16", "0x1.5520000000000p+15",
                        "0x1.557354bf58434p-1", "0x1.c1096e7e40623p-12",
                        "0x1.6000000000000p+3"),
    ("unif:3", 1): ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
                    "0x1.5555555555555p-2", "0x0.0p+0", "0x1.6000000000000p+3"),
    ("unif:3", 33): ("0x1.0800000000000p+5", "0x1.c000000000000p+3",
                     "0x1.1219dbcc48676p-1", "0x1.411f3e7ba77e5p-5",
                     "0x1.6000000000000p+3"),
    ("unif:3", 65541): ("0x1.0005000000000p+16", "0x1.0560000000000p+15",
                        "0x1.05243ba02b347p-1", "0x1.7862c015d15ebp-11",
                        "0x1.6000000000000p+3"),
}

#: (law, K, replicas) -> SHA-256 of [(scenery, tau)] of perfect_samples(seed=5).
#: At K=32 every horizon is 64 or 128, so some replicas outgrow the first
#: block of past letters.
PINNED_PERFECT = {
    ("geom:0.5", 1, 300):
        "1c339f115dba352820858264e204006661aa34d0e1583ac4d4987694e652f4e3",
    ("geom:0.5", 4, 300):
        "a3817a46478b2754889a0f705421e691333c797b8040180d07fdcc99c615cb48",
    ("geom:0.5", 32, 30):
        "9222bb0d0f1fbc7c654beae78b7acdbcc146d66204a6f089613b4a80710c6515",
    ("unif:3", 1, 300):
        "13b7d87be4b3076d3f84488d4e506709ccdb14e370af34c28b41c15e8f0493e3",
    ("unif:3", 4, 300):
        "734af0abbd60e4be1470ece4ef8a46ec290fb10aeb460230120f3190c0ece65c",
    ("unif:3", 32, 30):
        "fdf429df2af25fb60b3d286529c3f18ab65cd4f06a3474267a9aabdc900fb7c7",
}

#: (p, n) -> SHA-256 of fk_coupling_trajectory(n, p, seed=9) as a tuple of ints.
_ONE_VERTEX = "91d6039a01f57163ec02db197e5481ffc170187e262006fa833b26f0cc064633"
PINNED_GRAPH = {
    (0.0, 1): _ONE_VERTEX,
    (0.0, 2): "9d37e282dff85f7c8fffc4daf3461561337a4a9da281111f2dbf927b7a99db77",
    (0.0, 5000): "8f6c80056aa9c1bb83c364a4e32b7316c78cf38b08b9db7740e91d20e7d99e67",
    (0.1, 1): _ONE_VERTEX,
    (0.1, 2): "9d37e282dff85f7c8fffc4daf3461561337a4a9da281111f2dbf927b7a99db77",
    (0.1, 5000): "aa0b4cffaa9cc9c0080a24a9648f703b7da5851ce89902809044aa53a97195fe",
    (0.5, 1): _ONE_VERTEX,
    (0.5, 2): "a5cabe61309cbdb1d6a67e597b1659243a076817ce37626014228bde43e86d2d",
    (0.5, 5000): "77b8cc3c97c6f242b9d762f39af01948b78374ce068e3d9e04127809d7e890e2",
    (1.0, 1): _ONE_VERTEX,
    (1.0, 2): "a5cabe61309cbdb1d6a67e597b1659243a076817ce37626014228bde43e86d2d",
    (1.0, 5000): "546bffd2f12202d064a96adcf23aa09a3ac37136e9ff352fc49aa8846cd0de16",
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_sampling_outputs_are_pinned():
    for (spec, steps), expected in PINNED_FORWARD.items():
        stats = run_forward(parse_mu(spec), MINIMAL_CONFIG, steps, seed=11)
        assert tuple(float(getattr(stats, f.name)).hex()
                     for f in dataclasses.fields(stats)) == expected, (spec, steps)
    for (spec, K, replicas), expected in PINNED_PERFECT.items():
        drawn = perfect_samples(parse_mu(spec), K, replicas, seed=5)
        assert _digest([(s.scenery, s.tau) for s in drawn]) == expected, (spec, K)
        if K == 32:  # outgrows a first block of 64 past letters
            assert max(s.tau for s in drawn) > 64
    for (p, n), expected in PINNED_GRAPH.items():
        fronts = tuple(begraph.fk_coupling_trajectory(n, p, 9).tolist())
        assert _digest(fronts) == expected, (p, n)
    assert tuple(x.hex() for x in begraph.estimate_C(
        0.5, n=5000, replicas=40, seed=3)) == (
        "0x1.286f4c6e6d9bep-1", "0x1.18997aefd012dp-12")

"""Forward Monte Carlo and perfect sampling from the past."""

import dataclasses
import hashlib
import math

import pytest

from infinitebin import begraph, rng, simulate
from infinitebin.core import MINIMAL_CONFIG, Configuration
from infinitebin.distributions import (
    Dirac,
    FiniteSupport,
    Geometric,
    Uniform,
    parse_mu,
)
from infinitebin.simulate import (
    CouplingHorizonError,
    coupling_convergence_check,
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
    assert stats.front_final >= 5
    assert stats.speed_estimate == (stats.front_final - 5) / 1_000


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
    assert sample.K == 3
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
    with pytest.raises(ValueError):
        perfect_sample(Dirac(2), 1, seed=0)  # blocked point mass
    with pytest.raises(ValueError):
        perfect_sample(Geometric(0.5), 0, seed=0)


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


@pytest.mark.parametrize("n", [1, 3, 4, 5, 64, 65])
def test_first_uniforms_rows_equal_fresh_streams(n):
    replicas = [0, 1, 2**32 - 1]
    for seed in (0, -1, 2**64 + 5):
        rows = rng.first_uniforms(seed, rng.STREAM_PAST, replicas, n)
        assert rows.shape == (len(replicas), n)
        for row, r in zip(rows, replicas):
            fresh = rng.stream(seed, rng.STREAM_PAST, r).random(n)
            assert row.tobytes() == fresh.tobytes(), (seed, r)
    with pytest.raises(ValueError):
        rng.first_uniforms(0, rng.STREAM_PAST, [2**32], n)


@pytest.mark.parametrize("mu", [
    Geometric(0.5), Geometric(1.0), Uniform(3),
    FiniteSupport([0.2, 0.3, 0.5]), Dirac(1),
], ids=lambda mu: mu.describe())
@pytest.mark.parametrize("K", [1, 32])
def test_replica_blocks_equal_single_draws(mu, K):
    replicas = 2 * simulate._REPLICA_BLOCK + 1
    drawn = perfect_samples(mu, K, replicas, seed=4)
    assert drawn == tuple(perfect_sample(mu, K, seed=4, replica=r)
                          for r in range(replicas))
    if K == 32 and mu.pmf(1) < 1.0:  # horizons outgrow the first block
        assert max(s.tau for s in drawn) > simulate._PAST_BLOCK


def test_stationary_speed_matches_known_value():
    estimate, stderr = stationary_speed(Geometric(0.7), 3_000, K=1, seed=21)
    assert stderr == pytest.approx(
        math.sqrt(estimate * (1 - estimate) / 3_000), abs=1e-12
    )
    assert abs(estimate - 0.742818) < 4 * stderr


def test_stationary_speed_dirac_one_is_exact():
    estimate, stderr = stationary_speed(Dirac(1), 50, K=1, seed=0)
    assert (estimate, stderr) == (1.0, 0.0)


# ---------------------------------------------------------------------------
# convergence checks and coupling-time statistics
# ---------------------------------------------------------------------------


def test_coupling_convergence_check_trivial_law():
    coupled_at = coupling_convergence_check(
        Dirac(1), MINIMAL_CONFIG, 1, n_max=64, seed=0
    )
    assert coupled_at == 0


def test_coupling_convergence_check_geometric():
    coupled_at = coupling_convergence_check(
        Geometric(0.5), MINIMAL_CONFIG, 2, n_max=512, seed=13
    )
    assert coupled_at is not None
    assert 0 <= coupled_at <= 512
    again = coupling_convergence_check(
        Geometric(0.5), MINIMAL_CONFIG, 2, n_max=512, seed=13
    )
    assert again == coupled_at


def test_tau_tail_shape_and_quantisation():
    tail = tau_tail(Geometric(0.5), 1, 300, seed=2)
    assert len(tail.taus) == 300
    assert tail.K == 1
    assert sum(c for _, c in tail.histogram()) == 300
    for t in tail.taus:
        assert t >= 1 and (t & (t - 1)) == 0  # doubling schedule values
    assert tail.survival(0) == 1.0
    ns = [1, 2, 4, 8, 16]
    surv = [tail.survival(n) for n in ns]
    assert all(x >= y for x, y in zip(surv, surv[1:]))
    assert tail.median >= 1.0


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
                      "0x1.0000000000000p+0", "0x0.0p+0", "0x1.6000000000000p+3"),
    ("geom:0.5", 33): ("0x1.0800000000000p+5", "0x1.0000000000000p+4",
                       "0x1.f07c1f07c1f08p-2", "0x1.6f1ccf0db30a8p-4",
                       "0x1.6000000000000p+3"),
    ("geom:0.5", 65541): ("0x1.0005000000000p+16", "0x1.2894000000000p+15",
                          "0x1.288e3538f5e33p-1", "0x1.2599a6252cad0p-10",
                          "0x1.6000000000000p+3"),
    ("geom:0.8", 1): ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
                      "0x1.0000000000000p+0", "0x0.0p+0", "0x1.6000000000000p+3"),
    ("geom:0.8", 33): ("0x1.0800000000000p+5", "0x1.9000000000000p+4",
                       "0x1.83e0f83e0f83ep-1", "0x1.3e8d3313adc21p-4",
                       "0x1.6000000000000p+3"),
    ("geom:0.8", 65541): ("0x1.0005000000000p+16", "0x1.a716000000000p+15",
                          "0x1.a70dbcbb50577p-1", "0x1.1d8ad3808f949p-10",
                          "0x1.6000000000000p+3"),
    ("unif:2", 1): ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
                    "0x1.0000000000000p+0", "0x0.0p+0", "0x1.6000000000000p+3"),
    ("unif:2", 33): ("0x1.0800000000000p+5", "0x1.3000000000000p+4",
                     "0x1.26c9b26c9b26dp-1", "0x1.6cf2584c5530cp-4",
                     "0x1.6000000000000p+3"),
    ("unif:2", 65541): ("0x1.0005000000000p+16", "0x1.5520000000000p+15",
                        "0x1.551956814f797p-1", "0x1.cbcae43766df9p-11",
                        "0x1.6000000000000p+3"),
    ("unif:3", 1): ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
                    "0x1.0000000000000p+0", "0x0.0p+0", "0x1.6000000000000p+3"),
    ("unif:3", 33): ("0x1.0800000000000p+5", "0x1.c000000000000p+3",
                     "0x1.b26c9b26c9b27p-2", "0x1.657294c34e294p-4",
                     "0x1.6000000000000p+3"),
    ("unif:3", 65541): ("0x1.0005000000000p+16", "0x1.0560000000000p+15",
                        "0x1.055ae53985e06p-1", "0x1.d9126b9e661c5p-11",
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

#: (p, n) -> SHA-256 of the class-max per-vertex values of longest_path(seed=9).
_ONE_VERTEX = "91d6039a01f57163ec02db197e5481ffc170187e262006fa833b26f0cc064633"
PINNED_GRAPH = {
    (0.0, 1): _ONE_VERTEX,
    (0.0, 2): "9d37e282dff85f7c8fffc4daf3461561337a4a9da281111f2dbf927b7a99db77",
    (0.0, 5000): "8f6c80056aa9c1bb83c364a4e32b7316c78cf38b08b9db7740e91d20e7d99e67",
    (0.1, 1): _ONE_VERTEX,
    (0.1, 2): "9d37e282dff85f7c8fffc4daf3461561337a4a9da281111f2dbf927b7a99db77",
    (0.1, 5000): "71a09aadd843d37b54d3c2db107a7d7f0f08908338e59eec0abc9db8d4506814",
    (0.5, 1): _ONE_VERTEX,
    (0.5, 2): "a5cabe61309cbdb1d6a67e597b1659243a076817ce37626014228bde43e86d2d",
    (0.5, 5000): "3795c19e4a306a4b339013e96573bff5971ebe7d99e352487c7b7adabb5814a4",
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
        run = begraph.longest_path(n, p, seed=9, keep_per_vertex=True)
        assert _digest(run.per_vertex) == expected, (p, n)
    assert tuple(x.hex() for x in begraph.estimate_C(
        0.5, n=5000, replicas=40, seed=3)) == (
        "0x1.27c3b4f616723p-1", "0x1.1158f160f2a5cp-10")

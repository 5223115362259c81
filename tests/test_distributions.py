"""Letter laws and the seeded stream layout."""

import math

import numpy as np
import pytest

from infinitebin import rng
from infinitebin.distributions import (
    Dirac,
    FiniteSupport,
    Geometric,
    Uniform,
    parse_mu,
)


def test_geometric_pmf_cdf_tail():
    mu = Geometric(0.3)
    assert mu.pmf(1) == pytest.approx(0.3)
    assert mu.pmf(3) == pytest.approx(0.3 * 0.7**2)
    assert mu.cdf(4) == pytest.approx(1 - 0.7**4)
    assert mu.tail(4) == pytest.approx(0.7**4)
    assert mu.tail(0) == 1.0
    assert mu.support_min == 1 and mu.support_max is None
    assert not mu.blocked()
    assert mu.pmf(0) == 0.0


def test_geometric_one_is_point_mass_at_one():
    mu = Geometric(1.0)
    assert mu.pmf(1) == 1.0
    assert mu.support_max == 1
    assert not mu.blocked()


def test_uniform_law():
    mu = Uniform(4)
    assert [mu.pmf(j) for j in range(1, 6)] == [0.25, 0.25, 0.25, 0.25, 0.0]
    assert mu.cdf(2) == pytest.approx(0.5)
    assert mu.tail(4) == 0.0
    assert mu.support_max == 4
    with pytest.raises(ValueError, match="uniform support bound"):
        Uniform(0)


def test_dirac_law():
    mu = Dirac(3)
    assert mu.pmf(3) == 1.0 and mu.pmf(2) == 0.0
    assert mu.cdf(2) == 0.0 and mu.cdf(3) == 1.0
    assert mu.blocked()
    assert not Dirac(1).blocked()
    assert mu.support_min == mu.support_max == 3
    with pytest.raises(ValueError, match="dirac letter must be >= 1"):
        Dirac(0)


def test_dirac_is_the_one_letter_finite_law():
    assert Dirac(2) == FiniteSupport({2: 1.0})
    assert hash(Dirac(2)) == hash(FiniteSupport({2: 1.0}))
    assert Dirac(2) != Dirac(3)
    u = np.array([[0.0, 0.25, 0.5], [0.75, 0.999, 1.0 - 2.0**-53]])
    for k in (1, 2, 7):
        letters = Dirac(k).letters_from_uniforms(u)
        assert letters.dtype == np.int64 and letters.shape == (2, 3)
        assert (letters == k).all()


def test_finite_support_exact_and_normalized():
    mu = FiniteSupport([0.5, 0.25, 0.25])
    assert mu.pmf(2) == 0.25
    assert mu.support_max == 3
    with pytest.warns(UserWarning):
        scaled = FiniteSupport.normalized([0.5, 0.2505, 0.25])
    assert math.fsum(scaled.pmf(j) for j in (1, 2, 3)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        FiniteSupport.normalized([0.5, 0.6])  # sums to 1.1, outside 1 +/- 0.001
    with pytest.raises(ValueError):
        FiniteSupport([0.5, 0.5, 0.1])
    with pytest.raises(ValueError, match="needs positive mass"):
        FiniteSupport([0.0, 0.0])
    with pytest.raises(ValueError, match="letters must be >= 1"):
        FiniteSupport({0: 0.5, 1: 0.5})
    with pytest.raises(ValueError, match="probabilities must be >= 0"):
        FiniteSupport([1.5, -0.5])
    assert hash(mu) == hash(FiniteSupport({1: 0.5, 2: 0.25, 3: 0.25}))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("probs", [
    [1 + 1e-13], [0.5, 0.5 + 1e-13], {2: 0.25, 5: 0.75 - 1e-13},
    [q / 0.9995 for q in (0.2, 0.3, 0.4995)],
], ids=["one-letter", "above", "below", "rescaled"])
def test_finite_support_rescales_a_sum_off_1_by_rounding(probs):
    mu = FiniteSupport(probs)
    pmfs = [mu.pmf(j) for j in range(1, mu.support_max + 1)]
    assert all(0.0 <= q <= 1.0 for q in pmfs)
    assert math.fsum(pmfs) == 1.0
    assert mu.cdf(mu.support_max) == 1.0
    # the spec names the law in use, and reading it back rescales nothing
    again = parse_mu(mu.describe())
    assert again == mu
    assert [again.pmf(j) for j in range(1, mu.support_max + 1)] == pmfs
    assert parse_mu("finite:1.0000000000001").describe() == "finite:1"


@pytest.mark.parametrize("probs", [
    [math.nan],
    [0.5, math.nan, 0.5],
    {1: 0.5, 2: math.nan, 3: 0.5},
    [0.5, math.inf, 0.5],
], ids=["nan", "list", "dict", "inf"])
def test_finite_support_rejects_non_finite_probabilities(probs):
    letter = 1 if len(probs) == 1 else 2
    for build in (FiniteSupport, FiniteSupport.normalized):
        with pytest.raises(ValueError, match=f"letter {letter} is"):
            build(probs)


def test_finite_support_rejects_a_sum_past_the_float_range():
    # 1e308 + 1e308 overflows; each probability past 1.001 is refused first
    for build in (FiniteSupport, FiniteSupport.normalized):
        with pytest.raises(ValueError, match="letter 1 is 1e\\+308, above 1"):
            build([1e308, 1e308])
        with pytest.raises(ValueError, match="probabilities must be >= 0"):
            build([-1e308, -1e308])


def test_pmf_vector_layout():
    mu = Geometric(0.5)
    vec = mu.pmf_vector(4)
    assert vec[0] == 0.0
    assert list(vec[1:]) == pytest.approx([0.5, 0.25, 0.125, 0.0625])


def test_letters_from_uniforms_is_inverse_cdf():
    for mu in (Geometric(0.4), Uniform(3), Dirac(2), FiniteSupport([0.2, 0.0, 0.8])):
        u = np.linspace(0.001, 0.999, 797)
        letters = mu.letters_from_uniforms(u)
        assert letters.min() >= mu.support_min
        for x, a in zip(u, letters):
            a = int(a)
            # Inverse cdf: smallest letter whose cdf reaches x.
            assert mu.cdf(a) >= x or math.isclose(mu.cdf(a), x)
            assert mu.cdf(a - 1) < x


@pytest.mark.parametrize("mu", [
    *(Uniform(k) for k in range(1, 61)), Dirac(1), Dirac(3),
    FiniteSupport([0.2, 0.3, 0.5]), FiniteSupport([1 / 3] * 3),
    FiniteSupport([0.1] * 10),
    *(Geometric(p) for p in (0.1, 0.3, 0.5, 0.7, 0.123456789)),
], ids=lambda mu: mu.describe())
def test_letters_from_uniforms_is_exact_at_every_cdf_step(mu):
    # a Geometric law has no largest letter: its steps up to 40
    top = 40 if mu.support_max is None else mu.support_max
    scale = 2 ** 53
    grid = sorted({(math.floor(mu.cdf(j) * scale) + d) / scale
                   for j in range(top + 1) for d in range(-3, 4)})
    u = np.array([x for x in grid if 0.0 <= x < 1.0])
    for x, a in zip(u.tolist(), mu.letters_from_uniforms(u).tolist()):
        assert x <= mu.cdf(a)
        # u = 0 maps to the smallest letter, where cdf(a - 1) = 0 = u
        assert mu.cdf(a - 1) < x or (x == 0.0 and a == mu.support_min)


@pytest.mark.parametrize("mu", [
    Geometric(0.4), Geometric(1.0), Uniform(3), Dirac(1), Dirac(2),
    FiniteSupport([0.2, 0.0, 0.8]),
], ids=lambda mu: mu.describe())
def test_letters_from_uniforms_keeps_the_shape(mu):
    u = np.array([[0.05, 0.5, 0.95], [0.3, 0.7, 0.999]])
    letters = mu.letters_from_uniforms(u)
    assert letters.shape == (2, 3) and letters.dtype == np.int64
    assert letters.ravel().tolist() == mu.letters_from_uniforms(u.ravel()).tolist()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1e-19, 1e-20])
def test_geometric_letters_saturate_at_tiny_p(p):
    # a letter past int64 saturates instead of wrapping round to 1 or 2;
    # cdf(10^15) < 1e-3, so no uniform >= 1e-3 maps below 10^15
    u = rng.stream(7, rng.STREAM_CORPUS).random(100_000)
    letters = Geometric(p).letters_from_uniforms(u[u >= 1e-3])
    assert letters.min() >= 10**15
    assert letters.dtype == np.int64


def test_empirical_frequencies_match_pmf():
    mu = Geometric(0.6)
    gen = rng.stream(123, rng.STREAM_CORPUS)
    letters = mu.letters_from_uniforms(gen.random(200_000))
    for j in (1, 2, 3):
        freq = float(np.mean(letters == j))
        se = math.sqrt(mu.pmf(j) * (1 - mu.pmf(j)) / len(letters))
        assert abs(freq - mu.pmf(j)) < 4 * se


def test_parse_mu_round_trips():
    for spec in ("geom:0.25", "unif:7", "dirac:2", "finite:0.5,0.25,0.25"):
        mu = parse_mu(spec)
        assert parse_mu(mu.describe()) == mu
    with pytest.raises(ValueError):
        parse_mu("geom")
    with pytest.raises(ValueError):
        parse_mu("zipf:2")
    with pytest.raises(ValueError):
        parse_mu("geom:1.5")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", [
    *(Geometric(p) for p in (0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                             0.9, 1.0, 1e-12, 1e-320)),
    Uniform(2), Uniform(3), Uniform(4), Uniform(7), Dirac(1), Dirac(2),
    Dirac(3),
    *(FiniteSupport(probs) for probs in (
        [0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.2, 0.3, 0.5],
        [0.0, 0.5, 0.5], [0.5, 0.0, 0.5])),
    Geometric(0.123456789), Geometric(0.30000000000000004),
    FiniteSupport([1 / 3] * 3),
], ids=lambda mu: mu.describe())
def test_describe_round_trips(mu):
    assert parse_mu(mu.describe()) == mu


@pytest.mark.filterwarnings("error")
def test_describe_round_trips_a_normalized_law():
    with pytest.warns(UserWarning, match="normalizing"):
        mu = parse_mu("finite:0.2,0.3,0.4995")
    assert parse_mu(mu.describe()) == mu  # no second normalization


def test_stream_determinism_and_separation():
    a = rng.stream(42, rng.STREAM_FORWARD).random(8)
    b = rng.stream(42, rng.STREAM_FORWARD).random(8)
    assert np.array_equal(a, b)
    c = rng.stream(42, rng.STREAM_PAST).random(8)
    d = rng.stream(42, rng.STREAM_FORWARD, replica=1).random(8)
    e = rng.stream(43, rng.STREAM_FORWARD).random(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_stream_prefix_stability():
    # Reading n letters then re-reading 4n must reproduce the same prefix:
    # the from-the-past sampler relies on this to re-examine a fixed past.
    short = rng.stream(7, rng.STREAM_PAST, replica=3).random(100)
    long = rng.stream(7, rng.STREAM_PAST, replica=3).random(400)
    assert np.array_equal(short, long[:100])

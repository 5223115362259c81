"""Direct timings of infinitebin's public layer functions.

Tapes are drawn from the workload's letter law and seed, so a run is
repeatable; the count-type results (coupling horizons, letters folded)
repeat exactly for a fixed seed.  Each timing is a median over repeats or
over items.  Run in a fresh process, first thing, so the image-table cache
is cold.
"""

from __future__ import annotations

import statistics
import time

from infinitebin import begraph, enumeration, rng, simulate, words
from infinitebin.core import MINIMAL_CONFIG
from infinitebin.distributions import parse_mu

#: L = A of the engine timings, in every size: small enough to time
#: repeatedly, large enough that the level loop dominates.
ENGINE_BOUND = 8

SIZES = {
    "full": {"tables": 12, "tape": 1_000_000, "past_tapes": 250,
             "past_len": 4096, "graph_n": 20_000, "forward": 200_000,
             "perfect": 2_000, "repeats": 3},
    "smoke": {"tables": 6, "tape": 10_000, "past_tapes": 20,
              "past_len": 256, "graph_n": 500, "forward": 2_000,
              "perfect": 200, "repeats": 2},
}


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _median_time(fn, repeats):
    return statistics.median(_timed(fn) for _ in range(repeats))


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def letters_folded(tau, max_horizon=simulate.DEFAULT_MAX_HORIZON):
    """Letters the doubling schedule folds before certifying at ``tau``."""
    total, h = 0, 1
    while True:
        total += h
        if h >= tau:
            return total
        h = min(2 * h, max_horizon)


def measure(law: str, seed: int, size: str) -> dict:
    z = SIZES[size]
    reps = z["repeats"]
    mu = parse_mu(law)
    out = {}

    d = z["tables"]
    out["enumeration.image_table_ms"] = 1e3 * _timed(lambda: [
        enumeration.image_table(max(a, k - 1, 1), a, k)
        for k in range(1, d + 1) for a in range(1, d + 1)])

    n = ENGINE_BOUND
    pmf, tail = mu.pmf_vector(n), mu.tail(n)
    out["enumeration.masses_ms_L8"] = 1e3 * _median_time(
        lambda: enumeration.stopping_tree_masses(pmf, tail, n, n), reps)
    out["enumeration.counts_ms_L8"] = 1e3 * _median_time(
        lambda: enumeration.stopping_tree_counts(n, n), reps)

    gen = rng.stream(seed, rng.STREAM_FORWARD)
    uniforms = gen.random(z["tape"])
    out["rng.uniform_ns"] = 1e9 / z["tape"] * _median_time(
        lambda: gen.random(z["tape"]), 2 * reps + 1)
    out["distributions.invert_ns_per_letter"] = 1e9 / z["tape"] * _median_time(
        lambda: mu.letters_from_uniforms(uniforms), 2 * reps + 1)
    tape = mu.letters_from_uniforms(uniforms).tolist()
    out["core.step_ns_per_letter"] = 1e9 / len(tape) * _median_time(
        lambda: MINIMAL_CONFIG.apply_word(tape), reps)

    opens = []
    for lo in range(0, 2000, 200):
        opens.append(_timed(lambda: [rng.stream(seed, rng.STREAM_PAST, r)
                                     for r in range(lo, lo + 200)]) / 200)
    out["rng.stream_open_us"] = 1e6 * statistics.median(opens)

    per_letter = []
    for r in range(z["past_tapes"]):
        past = mu.letters_from_uniforms(
            rng.stream(seed, rng.STREAM_PAST, r).random(z["past_len"]))
        past = past[::-1].tolist()
        per_letter.append(_timed(lambda: words.tracker_run(past)) / len(past))
    out["words.tracker_ns_per_letter"] = 1e9 * statistics.median(per_letter)

    for label, p in (("p0_5", 0.5), ("p0_1", 0.1)):
        out[f"begraph.ns_per_vertex.{label}"] = 1e9 / z["graph_n"] * (
            statistics.median(
                _timed(lambda r=r: begraph.longest_path(z["graph_n"], p, seed,
                                                        replica=r))
                for r in range(2 * reps - 1)))

    steps = z["forward"]
    out["simulate.forward_ns_per_step"] = 1e9 / steps * statistics.median(
        _timed(lambda r=r: simulate.run_forward(mu, MINIMAL_CONFIG, steps,
                                                seed, replica=r))
        for r in range(2 * reps - 1))

    times, taus = [], []
    for r in range(z["perfect"]):
        t0 = time.perf_counter()
        sample = simulate.perfect_sample(mu, 4, seed, replica=r)
        times.append(time.perf_counter() - t0)
        taus.append(sample.tau)
    out["simulate.perfect_sample_us.p50"] = 1e6 * percentile(times, 50)
    out["simulate.perfect_sample_us.p99"] = 1e6 * percentile(times, 99)
    out["simulate.tau_p50"] = percentile(taus, 50)
    out["simulate.tau_p99"] = percentile(taus, 99)
    out["simulate.letters_folded_per_sample"] = (
        sum(letters_folded(t) for t in taus) / len(taus))
    return out

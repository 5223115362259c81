"""Speed brackets, the bivariate series and the growth curve."""

import contextlib
import dataclasses
import hashlib
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from decimal import Decimal, localcontext

from infinitebin import cli, enumeration
from infinitebin.core import Configuration, _Evolver
from infinitebin.distributions import Dirac, FiniteSupport, Geometric, Uniform
from infinitebin.enumeration import (
    count_rounding_bound,
    mass_rounding_bound,
    stopping_tree_counts,
    stopping_tree_masses,
    walk_minimal_words,
)
from infinitebin.series import (
    _first_moment_bound,
    _lazy_factors,
    bivariate_D,
    curve,
    enumerate_minimal,
    uniform_speed_terms,
)
from infinitebin.words import SizeLimitError, classify

EXACT = {"_MAX_STATES": 2_000_000, "_BIRTH_FLOOR": 0.0}


@contextlib.contextmanager
def patched(**consts):
    """Set the engine's resource-bound constants for one block."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in consts.items():
            mp.setattr(enumeration, name, value)
        yield


def test_geometric_one_bracket_is_exact_unit():
    bracket = enumerate_minimal(Geometric(1.0), 4, 4)
    assert bracket.lower == 1.0
    assert bracket.upper == 1.0
    assert bracket.frontier_mass == 0.0


def test_bracket_invariants_and_identity():
    bracket = enumerate_minimal(Geometric(0.6), 8, 8)
    assert 0.0 <= bracket.lower <= bracket.upper <= 1.0
    total = bracket.good_mass + bracket.bad_mass + bracket.frontier_mass
    assert abs(total - 1.0) <= 1e-9
    # the raw ends span exactly the frontier; the lazy-law bound narrows it
    raw_width = (1.0 - bracket.bad_mass) - bracket.good_mass
    assert raw_width == pytest.approx(bracket.frontier_mass, abs=1e-12)
    assert bracket.lower_from == "lazy"
    assert bracket.width < bracket.frontier_mass
    assert bracket.params["L"] == 8 and bracket.params["A"] == 8
    assert bracket.rounding_bound == mass_rounding_bound(8, 8)


@pytest.mark.parametrize("mu, L, A", [
    (Geometric(0.5), 12, 12),  # the lumped engine prunes at the state cap
    (Uniform(3), 9, 3),
    (Geometric(0.6), 5, 5),
])
def test_frontier_parts_sum_to_the_width(mu, L, A):
    walk = enumerate_minimal(mu, 5, 5, emit=lambda *_: None)
    for bracket in (enumerate_minimal(mu, L, A), walk):
        parts = (bracket.frontier_tail, bracket.frontier_live,
                 bracket.frontier_capped, bracket.pruned_mass)
        assert min(parts) >= 0.0 and bracket.peak_states > 0
        assert abs(math.fsum(parts) - bracket.frontier_mass) <= \
            bracket.rounding_bound


def test_brackets_nest_as_bounds_grow():
    # The lazy-law lower bound need not nest as (L, A) grow: a larger A
    # shrinks its tail t and so its factors (1 - t)^(1 - n).  Exactly, at
    # geom:0.1 it is 0.12110 at L = A = 4 and 0.12074 at L = A = 5.  This
    # case nests with it.
    mu = Geometric(0.6)
    with patched(**EXACT):
        b_small = enumerate_minimal(mu, 6, 6)
        b_big = enumerate_minimal(mu, 9, 9)
    assert b_big.lower >= b_small.lower - 1e-15
    assert b_big.upper <= b_small.upper + 1e-15


def test_walk_and_lumped_engines_agree_exactly():
    # the zero-weight letter 2 is skipped at birth and on every prepend
    for mu, L, A in [(Uniform(2), 9, 2), (Uniform(3), 7, 3), (Geometric(0.5), 6, 4),
                     (FiniteSupport([0.5, 0.0, 0.5]), 7, 3)]:
        walk = enumerate_minimal(mu, L, A, emit=lambda *a: None)
        with patched(**EXACT):
            lumped = enumerate_minimal(mu, L, A)
        assert walk.lower == pytest.approx(lumped.lower, abs=1e-13)
        assert walk.upper == pytest.approx(lumped.upper, abs=1e-13)
        # the good mass by word length, as the engines give it
        pmf, tail = mu.pmf_vector(A), mu.tail(A)
        with patched(**EXACT):
            splits = (stopping_tree_masses(pmf, tail, L, A),
                      walk_minimal_words(pmf, tail, L, A, lambda *a: None))
        lumped_by_len, walk_by_len = (s.good_by_len for s in splits)
        assert len(lumped_by_len) == len(walk_by_len) == L + 1
        assert lumped_by_len == pytest.approx(walk_by_len, abs=1e-13)
        for split in splits:
            assert math.fsum(split.good_by_len) == pytest.approx(split.good,
                                                                 abs=1e-15)


def test_letters_past_the_depth_cap_are_alphabet_tail():
    # Letters 17 and 18 would need goodness vectors deeper than the depth
    # cap, so at A = 18 both engines run A = 16 and price them as tail.
    # Where they were frontier, A = 18 gave a lower end of 0.3 at L = 1
    # and 0.3197770580169682 at L = 3.
    mu = Geometric(0.3)
    was = {1: 0.3, 3: 0.3197770580169682}
    for L in (1, 3):
        lumped = [enumerate_minimal(mu, L, A) for A in (18, 16)]
        walk = [enumerate_minimal(mu, L, A, emit=lambda *a: None)
                for A in (18, 16)]
        for at_18, at_16 in (lumped, walk):
            assert at_18.good_mass.hex() == at_16.good_mass.hex()
            assert at_18.bad_mass.hex() == at_16.bad_mass.hex()
            assert at_18.lower >= was[L]
            assert at_18.params["A"] == 18
        assert walk[0].frontier_capped == 0.0
    pmf, tail = mu.pmf_vector(17), mu.tail(17)
    for run in (lambda: stopping_tree_masses(pmf, tail, 3, 17),
                lambda: walk_minimal_words(pmf, tail, 3, 17, lambda *a: None),
                lambda: stopping_tree_counts(3, 17)):
        with pytest.raises(ValueError, match="past the depth cap 16"):
            run()


def _count_tables_digest(tables) -> str:
    digest = hashlib.sha256()
    for table in (tables.good, tables.bad, tables.frontier):
        digest.update(np.ascontiguousarray(table, dtype="<f8").tobytes())
    return digest.hexdigest()


# Exact outputs of the lumped engine, the first three recorded before its
# inner loop was rewritten on packed rows; any change in summation order or
# pruning shows.  The cases recorded at the earlier default state cap of
# 50,000 run at that cap.
PINNED_MASSES = [
    # pruning at _MAX_STATES = 300
    ((0.5, 7, 7, {"_MAX_STATES": 300}),
     ("0x1.23c59fa000000p-1", "0x1.9c91bb1700000p-2", "0x1.be305a9000000p-6",
      "0x1.de8cb8c120000p-7", "0x1.8a069ef600000p-7", "0x0.0p+0",
      "0x1.3cd5d68e00000p-11", 1014)),
    # birth floor
    ((0.8, 10, 10, {"_MAX_STATES": 50_000}),
     ("0x1.a5c2db1aef619p-1", "0x1.68f3cd08482dep-3", "0x1.8d17f497e820dp-20",
      "0x1.127f0f7a1c347p-23", "0x1.6ac812365603bp-20",
      "0x1.c93a5a5e4513ap-46", "0x0.0p+0", 10287)),
    # at the depth cap, the largest alphabet
    ((0.3, 3, 16, {}),
     ("0x1.4762c41a76a3cp-2", "0x1.e3502edf40869p-2", "0x1.aa9a1a0c91aa9p-3",
      "0x1.afcc84f66b555p-8", "0x1.9d1bb5e4de4ffp-3", "0x0.0p+0",
      "0x0.0p+0", 1253)),
    # pruning at a cap of 50,000
    ((0.5, 8, 8, {"_MAX_STATES": 50_000}),
     ("0x1.2571d7d5f12c0p-1", "0x1.a5767e049690dp-2", "0x1.f4ba49f0e2e54p-7",
      "0x1.e507f8f146f80p-8", "0x1.02364b1aaa34bp-7", "0x1.c600000000000p-56",
      "0x1.2eca99d2c0000p-30", 82262)),
    # pruning at the default cap, at the benchmark's bracket bounds
    ((0.5, 10, 10, {}),
     ("0x1.270e472c49dcap-1", "0x1.ace60c33205d7p-2", "0x1.3f595d12fa573p-8",
      "0x1.eab9c3bce7f34p-10", "0x1.87f963fecf2d4p-9", "0x0.0p+0",
      "0x1.5c7448b187831p-17", 51210)),
]

# Exact outputs of the explicit word walk, recorded the same way.
PINNED_WALK = [
    ((Uniform(3), 7, 3),
     ("0x1.ef60ce0472b6dp-2", "0x1.db3e9fe5c7944p-2", "0x1.ab0490ae2da6bp-5",
      "0x0.0p+0", "0x1.ab0490ae2da6bp-5", "0x0.0p+0", "0x0.0p+0", 106)),
    # at the depth cap
    ((Geometric(0.3), 3, 16),
     ("0x1.4762c41a76a3cp-2", "0x1.e3502edf40869p-2", "0x1.aa9a1a0c91aa9p-3",
      "0x1.afcc84f66b555p-8", "0x1.9d1bb5e4de4fep-3", "0x0.0p+0",
      "0x0.0p+0", 135)),
]


def _hex_fields(split) -> tuple:
    # good_by_len was added after the pins; the engines are checked
    # against each other on it in test_walk_and_lumped_engines_agree_exactly
    return tuple(
        v.hex() if isinstance(v, float) else v
        for v in (getattr(split, f.name) for f in dataclasses.fields(split)
                  if f.name != "good_by_len")
    )


def test_engine_outputs_are_pinned():
    for (p, L, A, caps), expected in PINNED_MASSES:
        mu = Geometric(p)
        with patched(**caps):
            split = stopping_tree_masses(mu.pmf_vector(A), mu.tail(A), L, A)
        assert _hex_fields(split) == expected, (p, L, A, caps)
    for (mu, L, A), expected in PINNED_WALK:
        split = walk_minimal_words(mu.pmf_vector(A), mu.tail(A), L, A,
                                   lambda *a: None)
        assert _hex_fields(split) == expected, (mu.describe(), L, A)
    # pruning across many exponents
    with patched(_MAX_STATES=300):
        tables = stopping_tree_counts(7, 7)
    assert tables.good.shape == (8, 50)
    assert _count_tables_digest(tables) == (
        "3a6e68ad093a4ff202307494f7736dd36623dff3d46ec5851d2167b5400d1710")
    assert tables.pruned_states == 2919
    # pruning at an inexact reference (q_ref ** e rounds), as on curve grids
    with patched(_MAX_STATES=300):
        tables = stopping_tree_counts(7, 7, reference_p=0.3)
    assert _count_tables_digest(tables) == (
        "092f15401bac9ac1a5a98c66674d70e0f2422ce47c90675cf1f6c19ebfcf0af3")
    assert tables.pruned_states == 2999
    # pruning at a cap of 50,000
    with patched(_MAX_STATES=50_000):
        tables = stopping_tree_counts(8, 8)
    assert tables.good.shape == (9, 65)
    assert _count_tables_digest(tables) == (
        "de63fcd3f50a1f2639ada91e9b3c11450e75ef1dece7b09d455d61c13c913520")
    assert tables.pruned_states == 132520
    # pruning at the default cap
    tables = stopping_tree_counts(8, 8)
    assert tables.good.shape == (9, 65)
    assert _count_tables_digest(tables) == (
        "b2b1e3c871bf5ff8e3df13ea9cfb5c05b0f1f4a8398cdcaba36a5a1af3b9114f")
    assert tables.pruned_states == 63001


def test_walk_emit_order_is_pinned():
    # the (1,) word first, then first letters A down to 2, depth-first
    mu = Geometric(0.5)
    seen = []
    walk_minimal_words(mu.pmf_vector(6), mu.tail(6), 6, 6,
                       lambda w, v, wt: seen.append(f"{w} {v} {wt.hex()}\n"))
    assert len(seen) == 1544
    assert hashlib.sha256("".join(seen).encode()).hexdigest() == (
        "412fba30a932d3abc3ae7c1d4aecf139945a2261e7e989597482fac7db02cc4a")


@pytest.mark.parametrize("mu, L, A, n_words", [
    (Uniform(4), 6, 4, 226),
    (FiniteSupport([0.25, 0.5, 0.25]), 7, 3, 101),
], ids=["unif:4", "finite:0.25,0.5,0.25"])
def test_walk_emits_exactly_the_minimal_words(mu, L, A, n_words):
    # Exact oracle: classify every word of length <= L over letters <= A
    # and price the minimal ones in rationals (the dyadic pmf is exact).
    emitted = []
    split = walk_minimal_words(mu.pmf_vector(A), mu.tail(A), L, A,
                               lambda w, v, wt: emitted.append((w, v)))
    assert len(emitted) == len(set(emitted)) == n_words
    minimal = set()
    mass = {"good": Fraction(0), "bad": Fraction(0)}
    for n in range(1, L + 1):
        for word in itertools.product(range(1, A + 1), repeat=n):
            c = classify(word)
            if c.minimal:
                minimal.add((word, c.verdict))
                mass[c.verdict] += math.prod(Fraction(mu.pmf(a)) for a in word)
    assert set(emitted) == minimal
    bound = mass_rounding_bound(L, A)
    assert abs(Fraction(split.good) - mass["good"]) <= bound
    assert abs(Fraction(split.bad) - mass["bad"]) <= bound


def _kernel_keys():
    keys = {(max(a, d - 1, 1), a, d) for d in range(2, 13) for a in range(1, 14)}
    cap = enumeration._DEPTH_CAP
    keys |= {(max(a, d - 1), a, d)
             for d, a in [(cap, 1), (cap, 2), (cap, 9), (cap, cap), (3, cap)]}
    return sorted(keys)


def test_packed_children_match_bool_gather():
    rng = np.random.default_rng(20260418)
    for d2, a, d in _kernel_keys():
        rows = 8 if d > 12 else 48
        V = rng.random((rows, 1 << (d - 1))) < rng.random((rows, 1))
        V[0], V[1] = True, False  # children all-true and all-false
        child = np.ascontiguousarray(V[:, enumeration.image_table(d2, a, d)])
        plan = enumeration._run_plan(d2, a, d)
        P = np.packbits(V, axis=1)
        C = enumeration._children(P, np.unpackbits(P, axis=1, count=V.shape[1]),
                                  plan)
        assert np.array_equal(C, np.packbits(child, axis=1)), (d2, a, d)
        words = enumeration._words(C)
        assert np.array_equal((words == plan.ones).all(axis=1), child.all(axis=1))
        assert np.array_equal(~words.any(axis=1), ~child.any(axis=1))
        # halves: force equal halves on every other row
        half = child.shape[1] // 2
        if half:
            child[::2, half:] = child[::2, :half]
            C = np.packbits(child, axis=1)
            eq = enumeration._halves_equal(C, d2)
            assert np.array_equal(
                eq, (child[:, :half] == child[:, half:]).all(axis=1)), (d2, a, d)
            assert np.array_equal(enumeration._first_half(C, d2),
                                  np.packbits(child[:, :half], axis=1))


@pytest.mark.parametrize("nbytes", [1, 2, 3, 4, 8, 9, 16])
def test_dedupe_merges_rows_in_byte_order(nbytes):
    # integer keys (1, 2, 4, 8 bytes) and void keys must both give the
    # distinct rows in memcmp order, with the bits of a stable void sort
    gen = np.random.default_rng(nbytes)
    rows = gen.integers(0, 4, size=(300, nbytes), dtype=np.uint8)
    rows[:, 1:] *= 85  # few distinct rows, and bytes above 0x7f
    weights = gen.random(300)
    packed, sums = enumeration._dedupe(rows, weights)
    assert [bytes(r) for r in packed] == sorted(set(map(bytes, rows)))
    order = np.argsort(rows.view(f"V{nbytes}").ravel(), kind="stable")
    starts = np.flatnonzero(np.concatenate(
        ([True], (rows[order][1:] != rows[order][:-1]).any(axis=1))))
    assert np.array_equal(sums, np.add.reduceat(weights[order], starts))


def test_walk_past_node_budget_is_a_size_limit(monkeypatch, tmp_path):
    monkeypatch.setattr(enumeration, "_NODE_BUDGET", 10)
    with pytest.raises(SizeLimitError):
        enumerate_minimal(Geometric(0.5), 8, 8, emit=lambda *a: None)
    argv = ["speed", "geom:0.5", "--len", "8", "--max-letter", "8",
            "--store", str(tmp_path / "words.jsonl")]
    assert cli.main(argv) == cli.EXIT_LIMIT


def test_emitted_words_are_minimal_with_true_weights():
    mu = Uniform(3)
    seen = []
    bracket = enumerate_minimal(mu, 6, 3, emit=lambda w, v, wt: seen.append((w, v, wt)))
    assert seen, "expected some resolved minimal words"
    good_sum = math.fsum(wt for _, v, wt in seen if v == "good")
    bad_sum = math.fsum(wt for _, v, wt in seen if v == "bad")
    assert good_sum == pytest.approx(bracket.lower, abs=1e-13)
    assert 1.0 - bad_sum == pytest.approx(bracket.upper, abs=1e-13)
    for word, verdict, wt in seen:
        ref = classify(word)
        assert ref.verdict == verdict
        assert ref.minimal is True
        assert wt == pytest.approx(math.prod(mu.pmf(a) for a in word), abs=1e-15)


def test_point_mass_bracket_is_refused():
    # a point mass at k >= 2 has no minimal-word speed identity
    with pytest.raises(ValueError, match="dirac:2 is a point mass"):
        enumerate_minimal(Dirac(2), 4, 4)


def test_bounds_validation():
    with pytest.raises(ValueError):
        enumerate_minimal(Geometric(0.5), 0, 4)
    with pytest.raises(ValueError):
        enumerate_minimal(Geometric(0.5), 4, 0)
    for p, q, L, A in [(0.5, 0.5, 0, 4), (0.5, 0.5, 4, 0), (0.5, 0.0, 4, -1)]:
        with pytest.raises(ValueError):
            bivariate_D(p, q, L, A)
    for p, q in [(math.nan, 0.5), (math.inf, 0.5), (0.5, math.inf)]:
        with pytest.raises(ValueError, match="must be finite"):
            bivariate_D(p, q, 4, 4)
    with pytest.raises(ValueError, match="pmf_vec must cover letters 1..A"):
        stopping_tree_masses(np.zeros(4), 0.0, 4, 4)
    with pytest.raises(ValueError, match="p must be in"):
        stopping_tree_counts(2, 2).evaluate(0.0)
    # 10^16 words pass 2^53: refused before any level is enumerated
    with pytest.raises(SizeLimitError, match="exceed exact float64"):
        stopping_tree_counts(16, 10)
    with pytest.raises(SizeLimitError, match="exceed exact float64"):
        bivariate_D(0.4, 0.5, 16, 10)


# ---------------------------------------------------------------------------
# bivariate series
# ---------------------------------------------------------------------------


def test_bivariate_diagonal_matches_speed_bracket():
    for p in (0.3, 0.6):
        with patched(**EXACT):
            lower, frontier = bivariate_D(p, 1.0 - p, 8, 8)
            bracket = enumerate_minimal(Geometric(p), 8, 8)
        assert lower == pytest.approx(bracket.good_mass, abs=1e-12)
        # the remainder bound must cover the rest of the series
        assert lower + frontier >= bracket.upper - 1e-12


def test_bivariate_degenerate_corners():
    lower, frontier = bivariate_D(1.0, 0.0, 6, 6)
    assert (lower, frontier) == (1.0, 0.0)
    # r = p/(1-q) >= 1: nothing forces convergence, bound is infinite
    _, frontier = bivariate_D(0.5, 0.6, 5, 5)
    assert math.isinf(frontier)
    # on the diagonal r = 1, though 0.3 / (1 - 0.7) rounds to 1 - 2^-52
    _, frontier = bivariate_D(0.3, 0.7, 8, 8)
    assert math.isinf(frontier)
    _, frontier = bivariate_D(0.2, 1.0, 5, 5)
    assert math.isinf(frontier)
    with pytest.raises(ValueError):
        bivariate_D(-0.1, 0.5, 5, 5)


def _bivariate_by_masses(p, q, L, A):
    """The bivariate bound from a mass pass with weights p q^(a-1) and
    tail p q^A / (1 - q): the reference for the count-table route."""
    pmf_vec = [0.0] + [p * q ** (a - 1) for a in range(1, A + 1)]
    tail = p * q ** A / (1.0 - q) if q > 0.0 else 0.0
    split = stopping_tree_masses(pmf_vec, tail, L, A)
    now = split.frontier_live + split.pruned_mass
    after = split.frontier_tail + split.frontier_capped
    r = p / (1.0 - q)
    if now == 0.0 and after == 0.0:
        return split.good, 0.0
    if r >= 1.0:
        return split.good, math.inf
    return split.good, after / (1.0 - r) + now * r / (1.0 - r)


@pytest.mark.parametrize("p, q, L, A", [
    (0.4, 0.5, 8, 8), (0.2, 0.3, 7, 7), (0.1, 0.6, 6, 9), (0.3, 0.0, 8, 8),
    (0.5, 0.6, 5, 5),
])
def test_bivariate_counts_match_a_mass_pass(p, q, L, A):
    with patched(**EXACT):
        got = bivariate_D(p, q, L, A)
        want = _bivariate_by_masses(p, q, L, A)
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_bivariate_monotone_in_truncation():
    with patched(_MAX_STATES=2_000_000):
        lo1, fr1 = bivariate_D(0.4, 0.5, 5, 5)
        lo2, fr2 = bivariate_D(0.4, 0.5, 8, 8)
    assert lo2 >= lo1 - 1e-15
    assert fr2 <= fr1 + 1e-15


# ---------------------------------------------------------------------------
# growth curve
# ---------------------------------------------------------------------------


def test_curve_rows_and_exact_endpoint():
    rows = curve([0.25, 0.5, 0.75, 1.0], 7, 7)
    assert [r.p for r in rows] == [0.25, 0.5, 0.75, 1.0]
    for row in rows:
        assert 0.0 <= row.lower <= row.upper <= 1.0
        assert row.rounding_bound == count_rounding_bound(7, 7)
    last = rows[-1]
    assert (last.lower, last.upper) == (1.0, 1.0)
    # C(p) is increasing in p; the brackets must not contradict that.
    for a, b in zip(rows, rows[1:]):
        assert b.upper >= a.lower - 1e-12


def test_curve_matches_direct_enumeration_when_exact():
    with patched(**EXACT):
        for row in curve([0.3, 0.7], 6, 6):
            bracket = enumerate_minimal(Geometric(row.p), 6, 6)
            assert row.lower == pytest.approx(bracket.lower, abs=1e-11)
            assert row.upper == pytest.approx(bracket.upper, abs=1e-11)


def test_counts_in_rationals_are_an_exact_oracle_for_masses():
    # At L = A = 7 nothing is pruned (the counts engine only at a cap of
    # 50,000), so the integer coefficients of p^n (1-p)^e evaluated in
    # exact rationals split the whole stopping tree, with no rounding
    # anywhere.
    with patched(_MAX_STATES=50_000):
        tables = stopping_tree_counts(7, 7)
    assert tables.pruned_states == 0
    bound = mass_rounding_bound(7, 7)
    for p in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(5, 8)):
        exact = []
        for table in (tables.good, tables.bad, tables.frontier):
            (n, e), counts = np.nonzero(table), table[np.nonzero(table)]
            assert all(c == int(c) for c in counts)
            exact.append(sum(int(c) * p**int(i) * (1 - p)**int(j)
                             for c, i, j in zip(counts, n, e)))
        assert sum(exact) == 1, p
        mu = Geometric(float(p))
        split = stopping_tree_masses(mu.pmf_vector(7), mu.tail(7), 7, 7)
        assert split.pruned_mass == 0.0
        for got, want in zip((split.good, split.bad, split.frontier), exact):
            assert abs(Fraction(got) - want) <= bound, (p, got, float(want))


@pytest.mark.parametrize("order, coefficients", [
    (8, [1, -1, 1, -3, 7, -15, 29, -54]),
    (12, [1, -1, 1, -3, 7, -15, 29, -54, 102, -197, 375, -687]),
], ids=["order-8", "order-12"])
def test_counts_expand_C_exactly_at_p_one(order, coefficients):
    # good[n, e] counts minimal good words of weight p^n q^e, q = 1 - p.
    # What is left unresolved at exponent e only adds to q^e and higher,
    # so below the frontier's smallest exponent the coefficients of
    # sum good[n, e] (1 - q)^n q^e are exact integers: no floats, and
    # pruning at the default cap may not move a digit.
    tables = stopping_tree_counts(order, order)
    e_min = int(np.nonzero(tables.frontier)[1].min())
    assert e_min >= order
    good = [[int(c) for c in row] for row in tables.good]
    assert np.array_equal(tables.good, good)
    expansion = [
        sum(good[n][e] * math.comb(n, j - e) * (-1) ** (j - e)
            for n in range(len(good)) for e in range(j + 1))
        for j in range(order)
    ]
    assert expansion == coefficients


def test_state_cap_pruning_keeps_brackets_certified():
    L = A = 7
    mu = Geometric(0.5)
    grid = [0.3, 0.5, 0.7]
    with patched(_MAX_STATES=300):
        assert stopping_tree_masses(
            mu.pmf_vector(A), mu.tail(A), L, A).pruned_mass > 0.0
        assert stopping_tree_counts(L, A).pruned_states > 0
        cut = enumerate_minimal(mu, L, A)
        cut_rows = curve(grid, L, A)
    with patched(**EXACT):
        exact = enumerate_minimal(mu, L, A)
        full_rows = curve(grid, L, A)

    slack = cut.rounding_bound
    assert cut.lower <= exact.lower + slack
    assert exact.upper <= cut.upper + slack
    assert abs(cut.good_mass + cut.bad_mass + cut.frontier_mass - 1.0) <= slack

    for row, full in zip(cut_rows, full_rows):
        slack = row.rounding_bound
        assert row.lower <= full.lower + slack
        assert full.upper <= row.upper + slack
        total = row.good_mass + row.bad_mass + row.frontier_mass
        assert abs(total - 1.0) <= slack


def test_state_cap_costs_little_width():
    # At the speed command's default bounds the default cap must prune
    # only a small share of the bracket width (0.013 at a cap of 10,000).
    mu, L, A = Geometric(0.5), 12, 12
    split = stopping_tree_masses(mu.pmf_vector(A), mu.tail(A), L, A)
    assert split.pruned_mass > 0.0
    assert split.pruned_mass <= 0.02 * split.frontier


def test_birth_floor_keeps_brackets_certified():
    # At this floor every child of the rarer letters falls below it, so
    # whole chunks end as capped frontier.
    L = A = 7
    mu = Geometric(0.5)
    with patched(**EXACT):
        exact = enumerate_minimal(mu, L, A)
    for floor in (1e-3, 0.05):
        with patched(_BIRTH_FLOOR=floor):
            split = stopping_tree_masses(mu.pmf_vector(A), mu.tail(A), L, A)
        slack = mass_rounding_bound(L, A)
        assert split.frontier_capped > 0.0
        assert split.good <= exact.lower + slack
        assert exact.upper <= 1.0 - split.bad + slack
        assert abs(split.good + split.bad + split.frontier - 1.0) <= slack


def test_curve_rejects_bad_grids():
    with pytest.raises(ValueError):
        curve([0.0, 0.5], 5, 5)
    with pytest.raises(ValueError):
        curve([0.5, 1.2], 5, 5)
    with pytest.raises(ValueError):
        curve([], 5, 5)


# ---------------------------------------------------------------------------
# bounds at low p: the lazy law and the first moment
# ---------------------------------------------------------------------------


def _ball_positions(config, K):
    """Bins of the K rightmost balls of ``config``, rightmost first."""
    out = []
    for depth, count in enumerate(config.scenery(K)):
        out.extend([config.front - depth] * count)
    return out[:K]


def _below(X, Y):
    """[i, j]: every ball of configuration i is at or left of the same-rank
    ball of configuration j (rows are ball positions)."""
    return (X[:, None, :] <= Y[None, :, :]).all(axis=2)


def test_moves_keep_the_ball_order():
    # X <= Y when X's k-th rightmost ball sits at or left of Y's, every k.
    # The lazy-law bound rests on three moves that keep X <= Y: the same
    # letter on both, a smaller letter on Y, and a no-op on X against any
    # move on Y.  K covers every window ball, below which both
    # configurations hold one ball per bin, so the order is settled there.
    K = 32
    configs = [Configuration(front, window) for front in (0, 1)
               for width in range(1, 5)
               for window in itertools.product((1, 2, 3), repeat=width)]
    P = np.array([_ball_positions(c, K) for c in configs])
    moved = {a: np.array([_ball_positions(c.apply_move(a), K)
                          for c in configs]) for a in range(1, 9)}
    order = _below(P, P)
    assert order.sum() - np.count_nonzero(order & order.T) > 5000
    for a in range(1, 9):
        for b in range(1, a + 1):  # b == a: the same letter on both
            assert not (order & ~_below(moved[a], moved[b])).any(), (a, b)
        assert not (order & ~_below(P, moved[a])).any(), a


def test_lazy_run_never_passes_the_full_run():
    # The same letters on both runs, the lazy one skipping those past A:
    # its front never passes the full run's, and its balls stay ordered.
    gen = np.random.default_rng(22)
    for p, A in [(0.1, 6), (0.3, 2), (0.5, 1), (0.5, 3)]:
        letters = Geometric(p).letters_from_uniforms(gen.random(3000))
        full, lazy = _Evolver(), _Evolver()
        skipped = 0
        for step, a in enumerate(letters.tolist()):
            full.run((a,))
            if a <= A:
                lazy.run((a,))
            else:
                skipped += 1
            assert lazy.front <= full.front, (p, A, step)
            if step % 100 == 0:
                X, Y = lazy.snapshot(), full.snapshot()
                K = max(sum(X.window), sum(Y.window)) + 1
                assert _below(np.array([_ball_positions(X, K)]),
                              np.array([_ball_positions(Y, K)]))[0, 0]
        assert skipped > 0 and lazy.front < full.front


def test_lazy_lower_bound_matches_a_rational_oracle():
    # finite:0.25,0.5,0.25 at A = 2 has tail t = 1/4 and nu = (1/3, 2/3):
    # the lazy bound from mu's tables is (1 - t) times nu's plain lower
    # bound, priced here in rationals over every minimal good word.
    mu, L, A = FiniteSupport([0.25, 0.5, 0.25]), 7, 2
    nu = {1: Fraction(1, 3), 2: Fraction(2, 3)}
    nu_lower = Fraction(0)
    for n in range(1, L + 1):
        for word in itertools.product((1, 2), repeat=n):
            c = classify(word)
            if c.verdict == "good" and c.minimal:
                nu_lower += math.prod(nu[a] for a in word)
    want = Fraction(3, 4) * nu_lower
    lumped = enumerate_minimal(mu, L, A)
    walk = enumerate_minimal(mu, L, A, emit=lambda *a: None)
    for bracket in (lumped, walk):
        assert bracket.lower_from == "lazy"
        assert bracket.lower > bracket.good_mass
        assert abs(Fraction(bracket.lower) - want) <= bracket.rounding_bound
    # each factor rounds down from its exact value, and is 1 at t = 0
    for n, f in enumerate(_lazy_factors(0.25, L)):
        exact = Fraction(4, 3) ** (n - 1)
        assert f <= exact and math.nextafter(f, math.inf) > exact
    assert _lazy_factors(0.0, L) == [1.0] * (L + 1)
    # 4^(n - 1) is a float up to n = 512; later factors are held at the
    # largest float
    assert _lazy_factors(0.75, 600) == [4.0 ** (n - 1) for n in range(513)] \
        + [sys.float_info.max] * 88
    # nu a point mass at 2 has no identity and no good words: no lazy bound
    blocked = enumerate_minimal(FiniteSupport([0.0, 0.5, 0.5]), 5, 2)
    assert blocked.lower_from == "good"
    assert blocked.lower == blocked.good_mass == 0.0


def _newman_exponent(c, p):
    """H(c) + c ln p in 60-digit decimals (float arguments are exact), and
    the sum of its terms' sizes."""
    with localcontext() as ctx:
        ctx.prec = 60
        c, p = Decimal(c), Decimal(p)
        terms = (-c * c.ln(), -(1 - c) * (1 - c).ln(), c * p.ln())
        return sum(terms), sum(map(abs, terms))


@pytest.mark.parametrize("p, rounded", [
    (0.05, 0.1272), (0.1, 0.2387), (0.2, 0.4233), (0.3, 0.5680),
])
def test_first_moment_bound_is_certified_and_tight(p, rounded):
    c_star = _first_moment_bound(p)
    assert round(c_star, 4) == rounded
    # the exponent is negative at c*, so C(p) <= c*, by more than a float
    # evaluation's rounding of its terms could hide; and positive just
    # below c*, so c* is within 1e-10 of the root
    value, size = _newman_exponent(c_star, p)
    assert value < -4 * Decimal(math.ulp(1.0)) * size
    assert _newman_exponent(c_star * (1 - 1e-10), p)[0] > 0


def test_first_moment_bound_shape():
    assert _first_moment_bound(1.0) == 1.0
    grid = [1e-300, 1e-12, *np.linspace(1e-3, 1.0, 300).tolist()]
    values = [_first_moment_bound(p) for p in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(p < c <= 1.0 for p, c in zip(grid[:-1], values))
    # Newman: c*(p) / p -> e as p -> 0, with error near (e^2 / 2) p
    for p in (1e-4, 1e-8, 1e-300):
        assert abs(_first_moment_bound(p) / p - math.e) <= 4 * p + 1e-10


def test_low_p_bounds_tighten_the_curve():
    # the count tables' ends at L = A = 10, pruned at p = 0.5 as on the
    # default grid, where the tail mu((10, inf)) is 0.35 at p = 0.1: both
    # bounds move the ends at p <= 0.2, and only the lazy one at 0.3
    rows = curve([0.1, 0.2, 0.3, 0.9], 10, 10)
    got = [(round(r.lower, 4), round(r.upper, 4)) for r in rows[:3]]
    assert got == [(0.1188, 0.2387), (0.2495, 0.4233), (0.3755, 0.4715)]
    for row in rows[:3]:
        assert row.upper - row.lower < row.frontier_mass


# ---------------------------------------------------------------------------
# uniform-law terms
# ---------------------------------------------------------------------------


def test_uniform_terms_k2_len1_is_half():
    bracket = uniform_speed_terms(2, 1)
    assert bracket.lower == 0.5
    assert bracket.upper == 1.0
    with pytest.raises(ValueError):
        uniform_speed_terms(1, 4)


def test_uniform_terms_match_uniform_law():
    with patched(**EXACT):
        direct = enumerate_minimal(Uniform(3), 7, 3)
        viaterms = uniform_speed_terms(3, 7)
    assert viaterms.lower == direct.lower
    assert viaterms.upper == direct.upper


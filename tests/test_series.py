"""Speed brackets, the count tables and the growth curve."""

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

from infinitebin import enumeration, series
from infinitebin.core import Configuration, _Evolver
from infinitebin.distributions import Dirac, FiniteSupport, Geometric, Uniform
from infinitebin.enumeration import (
    count_rounding_bound,
    mass_rounding_bound,
    stopping_tree_counts,
    stopping_tree_masses,
)
from infinitebin.series import (
    _first_moment_bound,
    _lazy_factors,
    curve,
    enumerate_minimal,
    uniform_speed_terms,
)
from infinitebin.words import (BAD, GOOD, SizeLimitError, classify,
                               pattern_config)

EXACT = {"_MAX_STATES": 2_000_000, "_BIRTH_FLOOR": 0.0, "_PRUNE_SHARE": 0.0}


@contextlib.contextmanager
def patched(**consts):
    """Set the engine's resource-bound constants for one block."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in consts.items():
            mp.setattr(enumeration, name, value)
        yield


def walk_minimal_words(pmf_vec, tail_mass, L, A, emit):
    """Depth-first walk over individual words: the lumped engine's oracle.

    Same accounting as ``stopping_tree_masses`` but without state merging,
    pruning or a birth floor, so each minimal word is visited once and
    handed to ``emit(word, verdict, weight)`` in deterministic order: the
    word (1,) first, then depth-first over first letters A down to 2, each
    later letter prepended in increasing order.  Each bad word is priced
    at the truncated law mu_A as well, letter by letter.  ``peak_states``
    is the number of nodes expanded.  Exponential in L: the tests call it
    at L <= 9.
    """
    enumeration._check_bounds(L, A, pmf_vec)
    tally = enumeration._MassTally()
    # mu_A' moves the tail onto A', the largest letter <= A with weight,
    # rounded down
    trunc = [float(w) for w in pmf_vec[: A + 1]]
    top = max((a for a in range(1, A + 1) if trunc[a] > 0.0), default=0)
    exact = Fraction(trunc[top]) + Fraction(float(tail_mass))
    trunc[top] = float(exact)
    if Fraction(trunc[top]) > exact:
        trunc[top] = math.nextafter(trunc[top], 0.0)

    def add(kind, n, w, w_trunc=0.0):  # one word's weights, as one row
        tally.add(kind, n, np.zeros(1, dtype=np.uint16),
                  np.array([[w, w_trunc]]))

    add("tail", 0, float(tail_mass))
    expanded = 0
    stack = []
    for a in range(1, A + 1):
        w = float(pmf_vec[a])
        if w <= 0.0:
            continue
        if a == 1:  # resolves immediately: all-true
            emit((1,), GOOD, w)
            add(GOOD, 1, w)
        else:  # popped last-pushed first: births walk from letter A down
            v = np.zeros(1 << (a - 1), dtype=bool)
            v[0] = True
            stack.append(((a,), a, v, w))

    while stack:
        word, d, v, w = stack.pop()
        if len(word) >= L:
            add("live", L, w)
            continue
        expanded += 1
        add("tail", len(word), w * tail_mass)
        children = []
        for a in range(1, A + 1):
            wa = float(pmf_vec[a])
            if wa <= 0.0:
                continue
            d2 = max(a, d - 1, 1)
            child = v[enumeration.image_table(d2, a, d)]
            cw = w * wa
            cword = (a,) + word
            # one byte per pattern: a count classifies, slices compare
            bits = child.tobytes()
            true = bits.count(1)
            if true == len(bits):
                emit(cword, GOOD, cw)
                add(GOOD, len(cword), cw)
                continue
            if not true:
                emit(cword, BAD, cw)
                add(BAD, len(cword), cw, math.prod(trunc[b] for b in cword))
                continue
            while d2 > 1:
                half = 1 << (d2 - 2)
                if bits[:half] != bits[half:]:
                    break
                bits = bits[:half]
                d2 -= 1
            children.append((cword, d2, child[: len(bits)], cw))
        stack.extend(reversed(children))

    return tally.split(L, expanded)


def walk_bracket(mu, L, max_letter, emit=lambda *a: None):
    """The word walk's SpeedBracket, priced by the code enumerate_minimal
    runs on the lumped engine's split."""
    A = enumeration._alphabet(L, max_letter)
    tail = mu.tail(A)
    split = walk_minimal_words(mu.pmf_vector(A), tail, L, A, emit)
    return series._bracket(split, tail, mu, L, max_letter)


def test_geometric_one_bracket_is_exact_unit():
    bracket = enumerate_minimal(Geometric(1.0), 4, 4)
    assert bracket.lower == 1.0
    assert bracket.upper == 1.0
    assert bracket.frontier_mass == 0.0


def test_bracket_invariants_and_identity():
    # a law past {1..5} with mass past A: the level loop sets both ends
    bracket = enumerate_minimal(Uniform(7), 8, 6)
    assert 0.0 <= bracket.lower <= bracket.upper <= 1.0
    total = bracket.good_mass + bracket.bad_mass + bracket.frontier_mass
    assert abs(total - 1.0) <= 1e-9
    # the raw ends span exactly the frontier; the lazy-law bound narrows it
    raw_width = (1.0 - bracket.bad_mass) - bracket.good_mass
    assert raw_width == pytest.approx(bracket.frontier_mass, abs=1e-12)
    assert bracket.lower_from == "lazy"
    assert bracket.width < bracket.frontier_mass
    assert bracket.params["L"] == 8 and bracket.params["A"] == 6
    assert bracket.rounding_bound == mass_rounding_bound(8, 6)


@pytest.mark.parametrize("mu, L, A", [
    (Geometric(0.5), 12, 12),  # the lumped engine prunes at the state cap
    (Uniform(3), 9, 3),
    (Geometric(0.6), 5, 5),
])
def test_frontier_parts_sum_to_the_width(mu, L, A):
    walk = walk_bracket(mu, 5, 5)
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
    # the zero-weight letter 2 is skipped at birth and on every prepend;
    # the last law has no weight at A = 3, so its tail moves onto 2
    for mu, L, A in [(Uniform(2), 9, 2), (Uniform(3), 7, 3), (Geometric(0.5), 6, 4),
                     (FiniteSupport([0.5, 0.0, 0.5]), 7, 3),
                     (FiniteSupport([0.4, 0.1, 0.0, 0.5]), 7, 3)]:
        walk = walk_bracket(mu, L, A)
        with patched(**EXACT):
            lumped = enumerate_minimal(mu, L, A)
        assert walk.lower == pytest.approx(lumped.lower, abs=1e-13)
        assert walk.upper == pytest.approx(lumped.upper, abs=1e-13)
        # the laws with no tail close, so their ends come from the one
        # closed graph: the masses are each engine's own
        assert walk.good_mass == pytest.approx(lumped.good_mass, abs=1e-13)
        assert walk.bad_mass == pytest.approx(lumped.bad_mass, abs=1e-13)
        # the good mass by word length, as the engines give it
        pmf, tail = mu.pmf_vector(A), mu.tail(A)
        with patched(**EXACT):
            splits = (stopping_tree_masses(pmf, tail, L, A),
                      walk_minimal_words(pmf, tail, L, A, lambda *a: None))
        lumped_by_len, walk_by_len = (s.good_by_len for s in splits)
        assert len(lumped_by_len) == len(walk_by_len) == L + 1
        assert lumped_by_len == pytest.approx(walk_by_len, abs=1e-13)
        # the bad words priced at the truncated law, word by word
        assert splits[0].bad_truncated == pytest.approx(
            splits[1].bad_truncated, abs=1e-13)
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
        walk = [walk_bracket(mu, L, A) for A in (18, 16)]
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
# 50,000 run at that cap.  The first five run with the width budget off, as
# they were recorded; their live and pruned weight and peak moved when the
# length bound stopped being settled.  The two after them pin the
# defaults, and the last two the root letters' own cases.
# Three fields moved by one ulp when the tally came to keep one float piece
# per reporting call rather than one per letter.  The last field, the bad
# weight under the truncated law, was appended to pins that did not move.
NO_BUDGET = {"_PRUNE_SHARE": 0.0}
PINNED_MASSES = [
    # pruning at _MAX_STATES = 300
    ((0.5, 7, 7, {"_MAX_STATES": 300, **NO_BUDGET}),
     ("0x1.23c59fa000000p-1", "0x1.9c91bb1700000p-2", "0x1.be305a9000000p-6",
      "0x1.de8cb8c120000p-7", "0x1.8d98f196e0000p-7", "0x0.0p+0",
      "0x1.03b0ac8000000p-11", 1014, "0x1.a8c77d8600000p-2")),
    # birth floor
    ((0.8, 10, 10, {"_MAX_STATES": 50_000, **NO_BUDGET}),
     ("0x1.a5c2db1aef619p-1", "0x1.68f3cd08482dep-3", "0x1.8d17f497e820dp-20",
      "0x1.127f0f7a1c347p-23", "0x1.6ac812365603bp-20",
      "0x1.c93a5a5e4513ap-46", "0x0.0p+0", 10287, "0x1.68f3dd77bac3fp-3")),
    # at the depth cap, the largest alphabet
    ((0.3, 3, 16, NO_BUDGET),
     ("0x1.4762c41a76a3cp-2", "0x1.e3502edf40868p-2", "0x1.aa9a1a0c91aa9p-3",
      "0x1.afcc84f66b555p-8", "0x1.9d1bb5e4de4fep-3", "0x0.0p+0",
      "0x0.0p+0", 120, "0x1.e7af8df273f9dp-2")),
    # pruning at a cap of 50,000
    ((0.5, 8, 8, {"_MAX_STATES": 50_000, **NO_BUDGET}),
     ("0x1.2571d7d5f12c0p-1", "0x1.a5767e049690dp-2", "0x1.f4ba49f0e2e54p-7",
      "0x1.e507f8f146f80p-8", "0x1.02364d783f686p-7", "0x1.c600000000000p-56",
      "0x0.0p+0", 29390, "0x1.abc88c1caca00p-2")),
    # pruning at the default cap, at the benchmark's bracket bounds
    ((0.5, 10, 10, NO_BUDGET),
     ("0x1.270e472c49dcap-1", "0x1.ace60c33205d7p-2", "0x1.3f595d12fa574p-8",
      "0x1.eab9c3bce7f34p-10", "0x1.88158934b4016p-9", "0x0.0p+0",
      "0x1.404f12ccb36cap-17", 51046, "0x1.ae85d753243abp-2")),
    # the width budget and the default cap
    ((0.5, 10, 10, {}),
     ("0x1.270dafdcdba88p-1", "0x1.ace13661e43c7p-2", "0x1.40da79191ca89p-8",
      "0x1.eab4c1ee2558ep-10", "0x1.86c3c8f0e6e3ap-9", "0x0.0p+0",
      "0x1.65b2128ff0402p-15", 35296, "0x1.ae7e62e530d69p-2")),
    ((0.8, 10, 10, {}),
     ("0x1.a5c2dae7a77dcp-1", "0x1.68f3cafbe6503p-3", "0x1.92caf771809cep-20",
      "0x1.127f0ec58f713p-23", "0x1.69f1e171abaddp-20", "0x0.0p+0",
      "0x1.a24d09c8c03c0p-26", 2233, "0x1.68f3db57881dap-3")),
    # the root letters: letter 1 below the birth floor is good, the other
    # letters below it are capped
    ((1e-20, 3, 4, {}),
     ("0x1.79ca10c924223p-67", "0x0.0p+0", "0x1.0000000000000p+0",
      "0x1.0000000000000p+0", "0x0.0p+0", "0x1.1b578c96db19ap-65",
      "0x0.0p+0", 0, "0x0.0p+0")),
    # the root letters at L = 1: every letter past 1 is live
    ((0.5, 1, 4, {}),
     ("0x1.0000000000000p-1", "0x0.0p+0", "0x1.0000000000000p-1",
      "0x1.0000000000000p-4", "0x1.c000000000000p-2", "0x0.0p+0",
      "0x0.0p+0", 0, "0x0.0p+0")),
]

# Exact outputs of the explicit word walk, recorded the same way.
PINNED_WALK = [
    ((Uniform(3), 7, 3),
     ("0x1.ef60ce0472b6dp-2", "0x1.db3e9fe5c7944p-2", "0x1.ab0490ae2da6bp-5",
      "0x0.0p+0", "0x1.ab0490ae2da6bp-5", "0x0.0p+0", "0x0.0p+0", 106,
      "0x1.db3e9fe5c7944p-2")),
    # at the depth cap
    ((Geometric(0.3), 3, 16),
     ("0x1.4762c41a76a3cp-2", "0x1.e3502edf40869p-2", "0x1.aa9a1a0c91aa9p-3",
      "0x1.afcc84f66b555p-8", "0x1.9d1bb5e4de4fep-3", "0x0.0p+0",
      "0x0.0p+0", 135, "0x1.e7af8df273f9ep-2")),
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
        "5b0e062c47759042fb4214a6a39a11c16d31decf8a7323f4abb8fc7b9847ee82")
    assert tables.pruned_states == 1956
    # pruning at an inexact reference (q_ref ** e rounds), as on curve grids
    with patched(_MAX_STATES=300):
        tables = stopping_tree_counts(7, 7, reference_p=0.3)
    assert _count_tables_digest(tables) == (
        "cab25067182f4cc1a878f35fedf64273f2e169f466b89996b8fb92621ed5ae89")
    assert tables.pruned_states == 2027
    # pruning at a cap of 50,000
    with patched(_MAX_STATES=50_000, **NO_BUDGET):
        tables = stopping_tree_counts(8, 8)
    assert tables.good.shape == (9, 65)
    assert _count_tables_digest(tables) == (
        "de63fcd3f50a1f2639ada91e9b3c11450e75ef1dece7b09d455d61c13c913520")
    assert tables.pruned_states == 13703
    # pruning at the default cap
    with patched(**NO_BUDGET):
        tables = stopping_tree_counts(8, 8)
    assert tables.good.shape == (9, 65)
    assert _count_tables_digest(tables) == (
        "b2b1e3c871bf5ff8e3df13ea9cfb5c05b0f1f4a8398cdcaba36a5a1af3b9114f")
    assert tables.pruned_states == 35000
    # the width budget, which drops more than either cap here
    for cap in (10_000, 50_000):
        with patched(_MAX_STATES=cap):
            tables = stopping_tree_counts(8, 8)
        assert _count_tables_digest(tables) == (
            "21c8f23760c208f92e9f45e57927d3ca6e59236355f8db5ddae479de672aaf08")
        assert tables.pruned_states == 16376
    # the root letters alone, at L = 1
    tables = stopping_tree_counts(1, 4)
    assert _count_tables_digest(tables) == (
        "8bf45fb026949d2abd1e5f974f08db06478b71c66ef7345fdf8b311a6107ce33")
    assert tables.pruned_states == 0
    # the curve benchmark's own count pass, at the default cap and budget
    tables = stopping_tree_counts(10, 10)
    assert _count_tables_digest(tables) == (
        "637c29ea37a7c94c63dbc0700b9446898875a7abeee098d16d4891858ecc2d30")
    assert tables.pruned_states == 170185


def test_budget_off_keeps_the_good_weight_by_length():
    # The good weight by word length of the pinned cases that run with the
    # width budget off, as it was before the budget and before the length
    # bound stopped being settled, bit for bit.
    digest = hashlib.sha256()
    for (p, L, A, caps), _expected in PINNED_MASSES:
        if caps.get("_PRUNE_SHARE") == 0.0:
            mu = Geometric(p)
            with patched(**caps):
                split = stopping_tree_masses(mu.pmf_vector(A), mu.tail(A), L, A)
            digest.update(" ".join(map(float.hex, split.good_by_len)).encode()
                          + b"\n")
    assert digest.hexdigest() == (
        "a5c8e2ef89154edcd8300b026e93ac3729d13139a8a231776fa97495a0644f29")


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


def test_image_table_is_the_move_on_placement_patterns():
    # the oracle applies the move to each pattern's test configuration and
    # reads back the gaps between its top balls; one move per (d2, a)
    # serves every d, whose table keeps the first d - 1 of those gaps
    moved = {}
    for d2, a, d in _kernel_keys():
        if (d2, a) not in moved:
            gaps = []
            for P in range(1 << (d2 - 1)):
                window = pattern_config(d2, P).apply_move(a).window
                pos = [-i for i, c in enumerate(reversed(window))
                       for _ in range(c)][:d2 + 1]
                gaps.append(sum((pos[i] - pos[i + 1]) << i for i in range(d2)))
            moved[d2, a] = np.array(gaps, dtype=np.int64)
        table = enumeration.image_table(d2, a, d)
        assert table.dtype == np.int64, (d2, a, d)
        assert np.array_equal(table, moved[d2, a] & ((1 << (d - 1)) - 1)), (
            d2, a, d)


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
        assert np.array_equal(enumeration._verdicts(C, d2)[0], child.all(axis=1))
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
    packed, sums, e = enumeration._dedupe(rows, weights,
                                          np.zeros(300, dtype=np.uint16))
    assert [bytes(r) for r in packed] == sorted(set(map(bytes, rows)))
    assert not e.any() and len(e) == len(packed)
    order = np.argsort(rows.view(f"V{nbytes}").ravel(), kind="stable")
    starts = np.flatnonzero(np.concatenate(
        ([True], (rows[order][1:] != rows[order][:-1]).any(axis=1))))
    assert np.array_equal(sums, np.add.reduceat(weights[order], starts))


@pytest.mark.parametrize("nbytes", [1, 2, 3, 4, 8, 9, 16, 64])
def test_dedupe_merges_rows_per_exponent(nbytes):
    # One sort per depth: rows merge only within an exponent, come out in
    # (e, memcmp) order, and carry bit for bit the weights of a dedupe run
    # on each exponent's rows alone (64 bytes takes the void sort).
    gen = np.random.default_rng(100 + nbytes)
    pool = gen.integers(0, 256, size=(12, nbytes), dtype=np.uint8)
    pool[1:4, :-1] = pool[0, :-1]  # rows differing only in the last byte
    rows = pool[gen.integers(0, 12, size=600)]
    e = gen.choice(np.array([0, 3, 7, 211], dtype=np.uint16), size=600)
    weights = gen.random(600)
    packed, sums, e_out = enumeration._dedupe(rows, weights, e)
    keys = [(int(k), bytes(r)) for k, r in zip(e_out, packed)]
    assert keys == sorted(set(zip(e.tolist(), map(bytes, rows))))
    assert len(keys) < 100  # many (e, row) pairs repeat
    for k in np.unique(e):
        at = e == k
        alone_rows, alone_sums, _e = enumeration._dedupe(rows[at], weights[at],
                                                         e[at])
        assert np.array_equal(packed[e_out == k], alone_rows)
        assert sums[e_out == k].tobytes() == alone_sums.tobytes()


def test_depths_sorted_in_runs_of_exponents_match_one_sort(monkeypatch):
    # A depth whose rows pass _batch_rows is sorted in runs of exponents;
    # at 3 rows a batch the count pass takes that branch on most depths.
    # Runs and stacks that small change no output bit.
    mu = Geometric(0.5)
    dedupes = []
    real_dedupe = enumeration._dedupe

    def counting_dedupe(*args):
        dedupes.append(len(args[0]))
        return real_dedupe(*args)

    def outputs():
        dedupes.clear()
        counts = _count_tables_digest(stopping_tree_counts(8, 6))
        n_sorts = len(dedupes)
        split = stopping_tree_masses(mu.pmf_vector(8), mu.tail(8), 9, 8)
        fields = dataclasses.astuple(split)
        bits = tuple(v.hex() if isinstance(v, float) else v
                     for v in fields[:-1]) + tuple(map(float.hex, fields[-1]))
        return (counts, bits), n_sorts

    monkeypatch.setattr(enumeration, "_dedupe", counting_dedupe)
    whole, whole_sorts = outputs()
    monkeypatch.setattr(enumeration, "_batch_rows", lambda width: 3)
    runs, run_sorts = outputs()
    assert runs == whole
    assert run_sorts > whole_sorts  # the depths were cut into runs


def test_batching_regroups_mass_pieces_but_keeps_the_sums(monkeypatch):
    # The tally keeps one float piece per call, so stacking letters into
    # batches regroups the mass pieces.  Against one letter a batch, the
    # count tables stay bit for bit and each mass within the rounding
    # bound.  At geom:0.8, L = 10, A = 16 the birth floor caps children of
    # letters stacked in one batch.
    cases = [(Geometric(0.5), 8, 8), (Geometric(0.8), 10, 16)]
    stacked = []
    real_batches = enumeration._letter_batches

    def counting_batches(*args):
        for d2, letters in real_batches(*args):
            stacked.append(len(letters) > 1)
            yield d2, letters

    def outputs():
        stacked.clear()
        tables = stopping_tree_counts(8, 8)
        splits = [stopping_tree_masses(mu.pmf_vector(A), mu.tail(A), L, A)
                  for mu, L, A in cases]
        return tables, splits, any(stacked)

    monkeypatch.setattr(enumeration, "_letter_batches", counting_batches)
    tables, splits, was_stacked = outputs()
    monkeypatch.setattr(enumeration, "_batch_rows", lambda width: 1)
    one_tables, one_splits, one_stacked = outputs()
    assert was_stacked and not one_stacked
    assert one_tables.pruned_states == tables.pruned_states
    for kind in ("good", "bad", "tail", "live", "pruned"):
        assert np.array_equal(getattr(one_tables, kind), getattr(tables, kind))
    assert splits[1].frontier_capped > 0.0
    for (_mu, L, A), split, one in zip(cases, splits, one_splits):
        bound = mass_rounding_bound(L, A)
        fields = dataclasses.astuple(split)
        assert one.peak_states == split.peak_states
        assert len(one.good_by_len) == len(split.good_by_len)
        for x, y in zip((*fields[:-2], *split.good_by_len),
                        (*dataclasses.astuple(one)[:-2], *one.good_by_len)):
            assert abs(x - y) <= bound


def test_emitted_words_are_minimal_with_true_weights():
    mu = Uniform(3)
    seen = []
    bracket = walk_bracket(mu, 6, 3, lambda w, v, wt: seen.append((w, v, wt)))
    assert seen, "expected some resolved minimal words"
    good_sum = math.fsum(wt for _, v, wt in seen if v == "good")
    bad_sum = math.fsum(wt for _, v, wt in seen if v == "bad")
    assert good_sum == pytest.approx(bracket.good_mass, abs=1e-13)
    assert 1.0 - bad_sum == pytest.approx(1.0 - bracket.bad_mass, abs=1e-13)
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
    with pytest.raises(ValueError, match="pmf_vec must cover letters 1..A"):
        stopping_tree_masses(np.zeros(4), 0.0, 4, 4)
    with pytest.raises(ValueError, match="p must be in"):
        stopping_tree_counts(2, 2).evaluate(0.0)
    # 10^16 words pass 2^53: refused before any level is enumerated
    with pytest.raises(SizeLimitError, match="exceed exact float64"):
        stopping_tree_counts(16, 10)


# ---------------------------------------------------------------------------
# count tables off the diagonal
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p, q, L, A", [
    (0.4, 0.5, 8, 8), (0.2, 0.3, 7, 7), (0.1, 0.6, 6, 9), (0.3, 0.0, 8, 8),
    (0.5, 0.6, 5, 5),
])
def test_bivariate_counts_match_a_mass_pass(p, q, L, A):
    """Away from p + q = 1 the count tables, contracted at p^n q^e, match
    a mass pass with weights p q^(a-1) and tail p q^A / (1 - q) kind by
    kind.  A tail entry sits at its parent's n and at q^(e + A), so its
    letters past A weigh r = p / (1 - q) times the contracted count."""
    pmf_vec = [0.0] + [p * q ** (a - 1) for a in range(1, A + 1)]
    with patched(**EXACT):
        tables = stopping_tree_counts(L, A, reference_p=1.0 - q)
        split = stopping_tree_masses(pmf_vec, p * q ** A / (1.0 - q), L, A)
    n_pow = np.power(p, np.arange(tables.good.shape[0]))
    e_pow = np.power(q, np.arange(tables.good.shape[1]))
    good, tail, live, pruned = (
        float(n_pow @ table @ e_pow)
        for table in (tables.good, tables.tail, tables.live, tables.pruned))
    exact = {"rel": 1e-15, "abs": 0.0}
    assert good == pytest.approx(split.good, **exact)
    assert live + pruned == pytest.approx(
        split.frontier_live + split.pruned_mass, **exact)
    assert p / (1.0 - q) * tail == pytest.approx(
        split.frontier_tail + split.frontier_capped, **exact)


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
    # a count table cannot tell how many of a word's letters are A, so the
    # curve has no truncated-law end: its upper end is the speed bracket's
    # without it
    # without it, and without the closed ends the curve does not build
    with patched(**EXACT):
        for row in curve([0.3, 0.7], 6, 6):
            mu = Geometric(row.p)
            split = stopping_tree_masses(mu.pmf_vector(6), mu.tail(6), 6, 6)
            lower, upper, _, upper_from = series._ends(
                split.good, split.bad, split.bad_truncated,
                split.good_by_len, mu.tail(6), row.p)
            assert row.lower == pytest.approx(lower, abs=1e-11)
            assert upper_from == "truncated"
            assert upper < row.upper == pytest.approx(
                min(1.0 - split.bad, _first_moment_bound(row.p)), abs=1e-11)
            bracket = enumerate_minimal(mu, 6, 6)
            assert row.lower <= bracket.lower <= bracket.upper < row.upper


def test_counts_in_rationals_are_an_exact_oracle_for_masses():
    # At L = A = 7 nothing is pruned (the counts engine only at a cap of
    # 50,000, both with the width budget off), so the integer coefficients
    # of p^n (1-p)^e evaluated in exact rationals split the whole stopping
    # tree, with no rounding anywhere.
    with patched(_MAX_STATES=50_000, **NO_BUDGET):
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
        with patched(**NO_BUDGET):
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
    # only a small share of the bracket width (0.017 with the cap of 10,000
    # and the width budget; 0.013 with the cap alone).
    mu, L, A = Geometric(0.5), 12, 12
    split = stopping_tree_masses(mu.pmf_vector(A), mu.tail(A), L, A)
    assert split.pruned_mass > 0.0
    assert split.pruned_mass <= 0.02 * split.frontier


@pytest.mark.parametrize("p", [0.5, 0.8])
def test_width_budget_costs_little_width(p):
    # At the benchmark's bounds, where the budget drops more states than
    # the cap, pruning stays a small share of the bracket width.
    mu, L, A = Geometric(p), 10, 10
    split = stopping_tree_masses(mu.pmf_vector(A), mu.tail(A), L, A)
    with patched(**NO_BUDGET):
        capped_only = stopping_tree_masses(mu.pmf_vector(A), mu.tail(A), L, A)
    assert split.peak_states < capped_only.peak_states
    assert 0.0 < split.pruned_mass <= 0.02 * split.frontier


def test_width_budget_keeps_brackets_certified():
    grid = [0.3, 0.5, 0.7]
    with patched(**EXACT):
        exact = {p: enumerate_minimal(Geometric(p), 8, 8) for p in (0.5, 0.8)}
        exact_rows = curve(grid, 7, 7)
    for cap in (enumeration._MAX_STATES, 2_000_000):  # the budget alone
        with patched(_MAX_STATES=cap):
            brackets = [enumerate_minimal(Geometric(p), 8, 8) for p in exact]
            rows = curve(grid, 7, 7)
            assert stopping_tree_counts(7, 7, reference_p=0.5).pruned_states
        for cut, full in [*zip(brackets, exact.values()),
                          *zip(rows, exact_rows)]:
            slack = cut.rounding_bound
            assert cut.lower <= full.lower + slack
            assert full.upper <= cut.upper + slack
            total = cut.good_mass + cut.bad_mass + cut.frontier_mass
            assert abs(total - 1.0) <= slack
        assert all(b.pruned_mass > 0.0 for b in brackets)


def test_nothing_is_pruned_at_the_length_bound(monkeypatch):
    # Children unresolved at the length bound are live as they are, in
    # both weight algebras: pruned records come only from shorter levels.
    seen = []
    run = enumeration._stopping_tree

    def spy(*args, **kwargs):
        # every piece of every kind reaches the tally through its add
        *head, tally = args
        add = tally.add

        def recording(kind, n, e, w):
            seen.append((kind, n))
            add(kind, n, e, w)

        tally.add = recording
        return run(*head, tally, **kwargs)

    monkeypatch.setattr(enumeration, "_stopping_tree", spy)
    mu, L = Geometric(0.5), 7
    for engine in (lambda: stopping_tree_masses(mu.pmf_vector(L), mu.tail(L),
                                                L, L),
                   lambda: stopping_tree_counts(L, L)):
        seen.clear()
        with patched(_MAX_STATES=300):
            engine()
        pruned = {n for kind, n in seen if kind == "pruned"}
        assert pruned and max(pruned) < L
        assert {n for kind, n in seen if kind == "live"} == {L}


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
    walk = walk_bracket(mu, L, A)
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
    assert got == [(0.1185, 0.2387), (0.2493, 0.4233), (0.3754, 0.4734)]
    for row in rows[:3]:
        assert row.upper - row.lower < row.frontier_mass


# ---------------------------------------------------------------------------
# uniform-law terms
# ---------------------------------------------------------------------------


def test_uniform_terms_k2_len1_is_half():
    bracket = uniform_speed_terms(2, 1)
    assert bracket.good_mass == 0.5
    assert 1.0 - bracket.bad_mass == 1.0
    with pytest.raises(ValueError):
        uniform_speed_terms(1, 4)


def test_uniform_terms_match_uniform_law():
    with patched(**EXACT):
        direct = enumerate_minimal(Uniform(3), 7, 3)
        viaterms = uniform_speed_terms(3, 7)
    assert viaterms.lower == direct.lower
    assert viaterms.upper == direct.upper


# ---------------------------------------------------------------------------
# closed state graphs
# ---------------------------------------------------------------------------


def exact_closed_speed(law: dict) -> Fraction:
    """The speed of a law on few letters (``law``: letter -> Fraction) as a
    rational: a Gauss-Jordan solve of (I - T) x = g over the closed state
    graph, with no floating point.  Dense, so the tests keep to graphs of
    at most 45 live states (0.3 s)."""
    graph = enumeration._closed_graph(tuple(sorted(law)))
    n = graph.states
    assert n <= 46
    rows = [[Fraction(int(i == j)) for j in range(n)] + [Fraction(0)]
            for i in range(n)]
    for s, t, a in zip(graph.src.tolist(), graph.dst.tolist(),
                       graph.letter.tolist()):
        rows[s][t] -= law[a]
    for s, a in zip(graph.good_src.tolist(), graph.good_letter.tolist()):
        rows[s][n] += law[a]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        pivot_value = top[col]
        top[:] = [v / pivot_value for v in top]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * t for v, t in zip(rows[r], top)]
    return rows[0][n]


#: Exact speeds: the uniform laws on {1, 2}, {1..3} and {1..4}, and a law
#: with a gap in its support.
EXACT_SPEEDS = [
    (Uniform(2), {1: Fraction(1, 2), 2: Fraction(1, 2)}, Fraction(2, 3)),
    (Uniform(3), {a: Fraction(1, 3) for a in (1, 2, 3)}, Fraction(24, 47)),
    (Uniform(4), {a: Fraction(1, 4) for a in (1, 2, 3, 4)},
     Fraction(52, 125)),
    (FiniteSupport([0.5, 0.0, 0.5]), {1: Fraction(1, 2), 3: Fraction(1, 2)},
     Fraction(6, 11)),
]

#: The exact speed of unif:5, from a dense rational solve over its 349
#: live states (200 s).
UNIF5_SPEED = Fraction(255180, 725281)


@pytest.mark.parametrize("mu, law, speed", EXACT_SPEEDS,
                         ids=[mu.describe() for mu, _, _ in EXACT_SPEEDS])
def test_closed_graph_solve_gives_the_exact_speed(mu, law, speed):
    assert exact_closed_speed(law) == speed
    # each closed bracket holds it, positively wide, at any length bound
    for L in (1, 4, 10):
        bracket = enumerate_minimal(mu, L, mu.support_max)
        assert (bracket.lower_from, bracket.upper_from) == ("closed", "closed")
        assert 0.0 < bracket.width < 1e-14
        slack = Fraction(bracket.rounding_bound)
        assert Fraction(bracket.lower) - slack <= speed
        assert speed <= Fraction(bracket.upper) + slack


@pytest.mark.parametrize("mu, law, speed", EXACT_SPEEDS,
                         ids=[mu.describe() for mu, _, _ in EXACT_SPEEDS])
def test_level_loop_brackets_hold_the_exact_speed(mu, law, speed):
    # the count-free engine against an oracle with no floating point
    A = mu.support_max
    pmf = mu.pmf_vector(A)
    for L in range(2, 13):
        split = stopping_tree_masses(pmf, 0.0, L, A)
        slack = Fraction(mass_rounding_bound(L, A))
        assert Fraction(split.good) - slack <= speed, L
        assert speed <= 1 - Fraction(split.bad) + slack, L


def test_closed_ends_need_a_closing_law():
    # a law past {1..5} keeps the level loop's ends, as does a law on
    # {1..5} with mass past the alphabet
    assert series._closes(Uniform(5), 0.0)
    assert not series._closes(Uniform(6), 0.0)
    assert not series._closes(Geometric(0.5), 0.0)
    bracket = enumerate_minimal(Uniform(5), 6, 4)
    assert bracket.frontier_tail > 0.0
    assert (bracket.lower_from, bracket.upper_from) == ("lazy", "truncated")
    closed = enumerate_minimal(Uniform(5), 6, 5)
    assert (closed.lower_from, closed.upper_from) == ("closed", "closed")
    assert 0.0 < closed.width < 1e-14
    slack = Fraction(closed.rounding_bound)
    assert Fraction(closed.lower) - slack <= UNIF5_SPEED \
        <= Fraction(closed.upper) + slack


def test_closed_ends_hold_at_every_sweep():
    # each sweep is certified, so stopping early only widens the ends: a
    # law that resolves slowly keeps the ends it reached at the cap
    mu, speed = Uniform(3), Fraction(24, 47)
    pmf = mu.pmf_vector(3)
    widths = []
    for cap in (1, 2, 5, 20, enumeration._MAX_SWEEPS):
        with patched(_MAX_SWEEPS=cap):
            lower, upper = enumeration.closed_ends(pmf)
        assert Fraction(lower) < speed < Fraction(upper), cap
        widths.append(upper - lower)
    assert widths == sorted(widths, reverse=True) and widths[-1] < 1e-14
    # after n sweeps the ends are the level loop's at L = n with nothing
    # pruned, rounded outward by at most a few ulps: the closed graph and
    # the level loop step children alike
    slack = 32 * math.ulp(1.0)
    for mu in (Uniform(3), FiniteSupport([0.2, 0.3, 0.5]),
               FiniteSupport([0.5, 0.0, 0.5])):
        A = mu.support_max
        pmf = mu.pmf_vector(A)
        for n in range(1, 11):
            with patched(_MAX_SWEEPS=n, _MAX_STATES=10**9, **NO_BUDGET):
                lower, upper = enumeration.closed_ends(pmf)
                split = stopping_tree_masses(pmf, 0.0, n, A)
            assert split.good - slack <= lower <= split.good, (mu, n)
            assert 1.0 - split.bad <= upper <= 1.0 - split.bad + slack, (mu, n)
    # the closed graph has no length bound and no light child: an edge of
    # any other kind would be dropped from it, so it is refused
    for kind in ("capped", "live"):
        with pytest.raises(ValueError, match="closed graph edge"):
            enumeration._GoodEdges([], []).add(kind, 1, np.zeros(1),
                                               np.ones(1))


# ---------------------------------------------------------------------------
# the truncated law: mu's mass past A moved onto letter A
# ---------------------------------------------------------------------------


def truncated(law: dict, A: int) -> dict:
    """mu_A' of a law given as letter -> weight: the weight past A on A',
    the largest letter <= A with weight."""
    top = max(a for a, w in law.items() if a <= A and w)
    out = {a: w for a, w in law.items() if a < top}
    out[top] = sum(w for a, w in law.items() if a >= top)
    return out


@pytest.mark.parametrize("mu, A, speed", [
    (Uniform(5), 3, UNIF5_SPEED),
    (Uniform(5), 4, UNIF5_SPEED),
    (FiniteSupport([0.2, 0.3, 0.5]), 2, None),
    (FiniteSupport([0.4, 0.1, 0.0, 0.5]), 3, None),
], ids=["unif:5-A3", "unif:5-A4", "finite:0.2,0.3,0.5-A2",
        "finite:0.4,0.1,0,0.5-A3"])
def test_truncated_law_upper_end_holds_the_exact_speed(mu, A, speed):
    # v(mu) <= v(mu_A') <= 1 - the mu_A' weight of the bad words found,
    # with both speeds solved in rationals on the closed graphs of mu's
    # support and of {1..A'} (the floats' own weights, as the engine reads
    # them); the last law has no weight at A = 3, so A' = 2
    law = {a: Fraction(mu.pmf(a)) for a in range(1, mu.support_max + 1)
           if mu.pmf(a)}
    if speed is None:
        speed = exact_closed_speed(law)
    truncated_speed = exact_closed_speed(truncated(law, A))
    assert speed < truncated_speed
    for L in (2, 6, 10):
        bracket = enumerate_minimal(mu, L, A)
        assert bracket.upper_from == "truncated", L
        assert bracket.upper < 1.0 - bracket.bad_mass
        slack = Fraction(bracket.rounding_bound)
        assert Fraction(bracket.lower) - slack <= speed, L
        assert truncated_speed <= Fraction(bracket.upper) + slack, L


def test_truncated_laws_are_never_slower():
    # v(mu) <= v(mu_A), the ordering the upper end rests on, for random
    # laws on {1..5} and every A below 5, read through the closed ends
    gen = np.random.default_rng(37)
    for _ in range(50):
        pmf = np.zeros(6)
        pmf[1:] = gen.random(5)
        pmf /= pmf.sum()
        lower = enumeration.closed_ends(pmf)[0]
        for A in range(1, 5):
            pmf_A = pmf[: A + 1].copy()
            pmf_A[A] = pmf[A:].sum()
            assert lower <= enumeration.closed_ends(pmf_A)[1], (pmf, A)


def test_truncated_law_weight_rounds_down(monkeypatch):
    # mu(A) + t, rounded down, never above the exact sum; the laws here
    # include sums that round to nearest upwards
    seen, stepped = [], 0
    real = enumeration._stopping_tree

    def spy(weights, *args, **kwargs):
        seen.append(weights.copy())
        return real(weights, *args, **kwargs)

    monkeypatch.setattr(enumeration, "_stopping_tree", spy)
    for p in (0.1, 0.3, 0.7, 0.123456789):
        mu = Geometric(p)
        for A in range(2, 9):
            seen.clear()
            stopping_tree_masses(mu.pmf_vector(A), mu.tail(A), 1, A)
            (weights,) = seen
            exact = Fraction(mu.pmf(A)) + Fraction(mu.tail(A))
            top = weights[A, 1]
            assert Fraction(top) <= exact < Fraction(math.nextafter(top, 1.0))
            stepped += top < mu.pmf(A) + mu.tail(A)
            # every other weight is mu's own
            assert weights[:A, 1].tolist() == weights[:A, 0].tolist()
    assert stepped  # some sum was rounded up, and stepped back down


# ---------------------------------------------------------------------------
# Geometric laws through the closed graphs of their lazy and truncated laws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
def test_closed_geometric_ends_hold_the_exact_speeds(monkeypatch, p):
    # at k = 4 the graph has 46 states, so both laws solve in rationals,
    # from the floats' own weights: (1 - t) v(nu_4) and v(mu_4) bound v(mu)
    monkeypatch.setattr(series, "_CLOSED_MAX_LETTER", 4)
    mu = Geometric(p)
    t = Fraction(mu.tail(4))
    law = {a: Fraction(mu.pmf(a)) for a in range(1, 5)}
    nu = {a: w / (1 - t) for a, w in law.items()}
    mu_4 = {**law, 4: law[4] + t}
    (lower, _, lower_from), (_, upper, upper_from) = series._closed_ends(
        mu, mu.tail(4), 1.0)
    assert (lower_from, upper_from) == ("closed_lazy", "closed_truncated")
    lazy = (1 - t) * exact_closed_speed(nu)
    truncated_speed = exact_closed_speed(mu_4)
    assert Fraction(lower) <= lazy < truncated_speed <= Fraction(upper)
    assert upper - lower < float(truncated_speed - lazy) + 1e-13
    bracket = enumerate_minimal(mu, 6, 6)
    assert bracket.lower >= lower and bracket.upper <= upper


def test_closed_geometric_weights_round_outward(monkeypatch):
    # nu's weights and the lazy product round down, mu_5(5) = mu(5) + t up;
    # the laws here include quotients and sums that round the wrong way
    seen, stepped = [], [0, 0]
    real = series.closed_ends

    def spy(pmf_vec, ends):
        seen.append((pmf_vec.copy(), real(pmf_vec, ends)))
        return seen[-1][1]

    monkeypatch.setattr(series, "closed_ends", spy)
    for p in (0.2, 0.3, 0.5, 0.7, 0.123456789):
        mu = Geometric(p)
        seen.clear()
        ends = series._closed_ends(mu, mu.tail(5), 1.0)
        (lower, _, _), (_, upper, _) = ends
        (nu, (lazy,)), (mu_5, (swept,)) = seen
        t = Fraction(mu.tail(5))
        for a in range(1, 6):
            exact = Fraction(mu.pmf(a)) / (1 - t)
            assert Fraction(nu[a]) <= exact < Fraction(math.nextafter(nu[a], 1))
            stepped[0] += nu[a] < mu.pmf(a) / (1.0 - mu.tail(5))
        exact = Fraction(mu.pmf(5)) + t
        assert Fraction(math.nextafter(mu_5[5], 0)) < exact <= Fraction(mu_5[5])
        stepped[1] += mu_5[5] > mu.pmf(5) + mu.tail(5)
        assert mu_5[:5].tolist() == mu.pmf_vector(4).tolist()
        assert Fraction(lower) <= (1 - t) * Fraction(lazy) and upper == swept
    assert all(stepped)  # some weight was rounded to nearest past its side


def test_truncated_law_end_skipped_below_one_over_k(monkeypatch):
    # v(mu_5) >= v(delta_5) = 1/5, so mu_5 is not swept where the end in
    # hand, c*(0.05) = 0.127, is already lower: one sweep, nu's lower end
    calls = []
    real = enumeration._sweeps

    def count(graph, w, g, upper):
        calls.append(upper)
        return real(graph, w, g, upper)

    monkeypatch.setattr(enumeration, "_sweeps", count)
    low = enumerate_minimal(Geometric(0.05), 6, 6)
    assert calls == [False]
    assert (low.lower_from, low.upper_from) == ("closed_lazy", "first_moment")
    calls.clear()
    enumerate_minimal(Geometric(0.1), 6, 6)  # c*(0.1) = 0.239 > 1/5
    assert calls == [False, True]

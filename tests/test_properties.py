"""Property tests for the structural invariants of the calculus."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infinitebin import (
    Classification,
    Configuration,
    classify,
    coupling_number,
    enumerate_minimal,
    tracker_run,
)
from infinitebin.core import _Evolver
from infinitebin.distributions import FiniteSupport, Geometric, parse_mu

words = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=8).map(tuple)
letters = st.integers(min_value=1, max_value=5)


@given(words)
@settings(deadline=None)
def test_tracker_never_overstates_coupling(word):
    assert tracker_run(word).depth <= coupling_number(word)


@given(words, letters)
@settings(deadline=None)
def test_appending_a_letter_loses_at_most_one_level(word, a):
    before = coupling_number(word)
    after = coupling_number(word + (a,))
    assert after >= before - 1
    if a <= before:
        assert after >= before


@given(words)
@settings(deadline=None)
def test_suffix_law(word):
    verdict = classify(word).verdict
    for cut in range(1, len(word)):
        suffix = classify(word[cut:]).verdict
        if verdict == "good":
            assert suffix != "bad"
        elif verdict == "bad":
            assert suffix != "good"


@given(words)
@settings(deadline=None)
def test_words_ending_in_one_are_good(word):
    # (1,) is itself a good strict suffix, so these are never minimal.
    assert classify(word + (1,)) == Classification("good", minimal=False)


configs = st.builds(
    Configuration,
    front=st.integers(min_value=-5, max_value=5),
    window=st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                    max_size=5).map(tuple),
)


@given(configs)
@settings(deadline=None)
def test_json_round_trip(x):
    assert Configuration.from_json(json.loads(json.dumps(x.to_json()))) == x


@given(configs, words)
@settings(deadline=None)
def test_front_moves_forward_by_at_most_one_per_letter(x, word):
    y = x.apply_word(word)
    assert x.front <= y.front <= x.front + len(word)


def _reference_move(window: list, k: int) -> bool:
    """The move rule written out letter by letter, as a check on the
    evolver: add a ball right of the k-th rightmost ball, materializing
    one-ball tail bins when k reaches below the window."""
    balls = 0
    for idx in range(len(window) - 1, -1, -1):
        balls += window[idx]
        if balls >= k:
            if idx == len(window) - 1:
                window.append(1)
                return True
            window[idx + 1] += 1
            return False
    window[0:0] = [1] * (k - balls)
    window[1] += 1
    return False


# Letters up to 12 often reach below windows of at most 5 bins of at most 4
# balls, so the tail path (the window grows on the left) is taken too.
deep_words = st.lists(st.integers(min_value=1, max_value=12), max_size=40)


@given(configs, deep_words)
@settings(deadline=None)
def test_run_equals_folding_step(x, word):
    ran, stepped = _Evolver(x), _Evolver(x)
    advances = ran.run(word)
    assert advances == sum(stepped.run((k,)) for k in word)
    reference = list(x.window)
    assert advances == sum(_reference_move(reference, k) for k in word)
    assert ran.window == stepped.window == reference
    assert ran.front == stepped.front == x.front + advances
    assert x.apply_word(word) == ran.snapshot()


@given(configs, deep_words, deep_words)
@settings(deadline=None)
def test_letter_zero_is_rejected_by_every_entry(x, before, after):
    word = before + [0] + after
    ev = _Evolver(x)
    with pytest.raises(ValueError, match="letter must be >= 1"):
        ev.run(word)
    # the moves before the bad letter stay applied, as when run one by one
    prefix = _Evolver(x)
    prefix.run(before)
    assert (ev.front, ev.window) == (prefix.front, prefix.window)
    with pytest.raises(ValueError, match="letter must be >= 1"):
        x.apply_word(word)


finite_laws = st.lists(
    st.integers(min_value=1, max_value=20), min_size=2, max_size=4
).map(lambda ws: FiniteSupport(
    {a: w / sum(ws) for a, w in enumerate(ws, start=1)}
))


@given(finite_laws)
@settings(deadline=None, max_examples=25)
def test_mass_identity_for_random_finite_laws(mu):
    b = enumerate_minimal(mu, 6, 4)
    assert abs(b.good_mass + b.bad_mass + b.frontier_mass - 1.0) <= 1e-9
    assert 0.0 <= b.lower <= b.upper <= 1.0


@given(st.floats(min_value=0.05, max_value=0.95), st.integers(1, 40))
@settings(deadline=None)
def test_geometric_tail_matches_closed_form(p, j):
    mu = Geometric(p)
    assert abs(mu.tail(j) - (1.0 - p) ** j) <= 1e-12


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
def test_geometric_describe_round_trips(p):
    assert parse_mu(Geometric(p).describe()) == Geometric(p)

"""Configuration mechanics: moves, windows, sceneries, serialization."""

import pytest

from infinitebin.core import MINIMAL_CONFIG, Configuration, _Evolver
from infinitebin.words import is_x_good
from infinitebin.words import test_set as patterns_for


def test_minimal_config():
    assert MINIMAL_CONFIG.front == 0
    assert MINIMAL_CONFIG.window == (1,)
    assert MINIMAL_CONFIG.depth == 1


def test_invalid_windows_rejected():
    with pytest.raises(ValueError):
        Configuration(0, ())
    with pytest.raises(ValueError):
        Configuration(0, (1, 0))  # empty bin inside the window
    with pytest.raises(ValueError):
        Configuration(0, (1, -1))


def test_move_one_always_advances():
    for config in [MINIMAL_CONFIG, Configuration(3, (2, 5)), Configuration(0, (4,))]:
        out = config.apply_move(1)
        assert out.front == config.front + 1
        assert out.window[-1] == 1  # the new front bin holds exactly one ball


def test_move_into_existing_bin_does_not_advance():
    # Front bin holds one ball; the second-rightmost ball sits one bin
    # deeper, so move 2 lands in the existing front bin.
    config = Configuration(0, (1, 1))
    out = config.apply_move(2)
    assert out.front == 0
    assert out.window[-1] == 2


def test_hand_executed_word_2_2():
    # From window (1, 2) at front 0: the front bin holds two balls, so the
    # first move 2 places beyond the front (advance); afterwards the
    # second-rightmost ball is back in bin 0, so the second move 2 lands
    # inside the new front bin (no advance).
    config = Configuration(0, (1, 2))
    step1 = config.apply_move(2)
    assert (step1.front, step1.window) == (1, (1, 2, 1))
    step2 = step1.apply_move(2)
    assert (step2.front, step2.window) == (1, (1, 2, 2))
    # Same end state via apply_word.
    assert config.apply_word((2, 2)) == step2


def test_deep_move_extends_window_with_unit_bins():
    # Probing below the window must materialize one-ball bins on demand.
    config = Configuration(0, (2,))
    out = config.apply_move(4)
    # Rightmost 2 balls are in bin 0; 3rd and 4th in bins -1 and -2 (one
    # per bin below the window).  Move 4 places right of bin -2 into the
    # already-occupied bin -1.
    assert out.front == 0
    assert out.scenery(1) == (2,)
    assert sum(out.window) == sum(config.window) + 1 + (out.depth - config.depth)


def test_scenery_is_front_first_with_unit_padding():
    config = Configuration(5, (1, 3, 2))
    assert config.scenery(1) == (2,)
    assert config.scenery(2) == (2, 3)
    assert config.scenery(3) == (2, 3, 1)
    assert config.scenery(5) == (2, 3, 1, 1, 1)  # padded into the tail
    with pytest.raises(ValueError, match="scenery depth must be >= 0"):
        config.scenery(-1)


def test_json_round_trip():
    config = Configuration(-2, (4, 1, 3))
    again = Configuration.from_json(config.to_json())
    assert again == config
    with pytest.raises(ValueError):
        Configuration.from_json('{"front": 0, "window": [1], "tail": "empty"}')


def test_is_x_good_matches_apply():
    for config in patterns_for(3):
        for word in [(1,), (2,), (2, 2), (3, 1, 2), (2, 3, 2, 2)]:
            before = config.apply_word(word[:-1])
            after = before.apply_move(word[-1])
            assert is_x_good(word, config) == (
                after.front == before.front + 1
            )


def test_front_never_retreats_and_advances_at_most_one():
    config = MINIMAL_CONFIG
    for a in (2, 1, 3, 1, 1, 4, 2, 5, 1, 2):
        nxt = config.apply_move(a)
        assert nxt.front - config.front in (0, 1)
        config = nxt


def test_run_tallies_the_front_count_each_letter_meets():
    start = Configuration(3, (2, 1, 3))
    word = [4, 2, 5, 6, 1, 2, 3, 3, 1, 9, 2]
    expected, config = [0] * 8, start
    for a in word:
        expected[config.window[-1]] += 1
        config = config.apply_move(a)
    ev, fronts = _Evolver(start), [0, 0]
    advances = ev.run(word, fronts)
    assert fronts + [0] * (len(expected) - len(fronts)) == expected
    assert (advances, ev.snapshot()) == (config.front - start.front, config)

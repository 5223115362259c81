"""Append-only classification cache."""

import json

import pytest

from infinitebin.store import (
    STORE_PATH_ENV,
    WordStore,
    WordStoreRecord,
    default_store_path,
)


def test_record_line_round_trip():
    rec = WordStoreRecord(word=(2, 3, 2, 2), verdict="bad", minimal=True)
    again = WordStoreRecord.from_line(rec.to_line())
    assert again == rec
    data = json.loads(rec.to_line())
    assert list(data.keys()) == ["word", "verdict", "minimal"]


def test_store_appends_and_reloads(tmp_path):
    path = tmp_path / "cache.jsonl"
    with WordStore(path) as store:
        assert len(store) == 0
        store.add(WordStoreRecord(word=(1,), verdict="good", minimal=True))
        store.add(WordStoreRecord(word=(2, 2), verdict="neither", minimal=None))
        # identical duplicate is a no-op
        store.add(WordStoreRecord(word=(1,), verdict="good", minimal=True))
        assert len(store) == 2
        # each record is in the file when add returns
        assert path.read_text().count("\n") == 2

    reloaded = WordStore(path)
    assert len(reloaded) == 2
    assert reloaded.lookup((2, 2)).verdict == "neither"
    assert reloaded.lookup((9, 9)) is None

    # a blank line between records is skipped
    path.write_text(path.read_text().replace("\n", "\n\n", 1))
    assert len(WordStore(path)) == 2


def test_store_rejects_contradictions(tmp_path):
    path = tmp_path / "cache.jsonl"
    with WordStore(path) as store:
        store.add(WordStoreRecord(word=(1,), verdict="good", minimal=True))
        with pytest.raises(ValueError):
            store.add(WordStoreRecord(word=(1,), verdict="bad", minimal=True))
        with pytest.raises(ValueError):
            store.add(WordStoreRecord(word=(1,), verdict="good", minimal=False))


def test_store_rejects_corrupt_files(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"word": [1], "verdict": "good", "minimal": true}\nnot json\n')
    with pytest.raises(ValueError):
        WordStore(path)
    path.write_text('{"word": [1], "verdict": "excellent", "minimal": true}\n')
    with pytest.raises(ValueError):
        WordStore(path)
    # well-formed JSON that is not a record: each line is a load error
    for line in [
        '[1, 2]',
        '{"word": 5, "verdict": "good", "minimal": true}',
        '{"word": "12", "verdict": "good", "minimal": true}',
        '{"word": [], "verdict": "good", "minimal": true}',
        '{"word": [1, 0], "verdict": "good", "minimal": true}',
        '{"word": [true], "verdict": "good", "minimal": true}',
        '{"word": [1.0], "verdict": "good", "minimal": true}',
        '{"word": [1], "verdict": ["good"], "minimal": true}',
        '{"word": [1], "verdict": "good", "minimal": null}',
        '{"word": [2, 2], "verdict": "neither", "minimal": false}',
    ]:
        path.write_text(GOOD_LINE + line + "\n")
        with pytest.raises(ValueError, match=":2: bad cache record"):
            WordStore(path)
    # a record that lacks a key names the key
    for line, key in [
        ('{"verdict": "good", "minimal": true}', "word"),
        ('{"word": [1], "minimal": true}', "verdict"),
        ('{"word": [1], "verdict": "good"}', "minimal"),
    ]:
        path.write_text(GOOD_LINE + line + "\n")
        with pytest.raises(
            ValueError, match=f":2: bad cache record: missing key '{key}'"
        ):
            WordStore(path)


GOOD_LINE = '{"word": [1], "verdict": "good", "minimal": true}\n'
TORN_LINE = '{"word": [2, 2], "verdict": "nei'


def test_store_skips_and_truncates_a_torn_final_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(GOOD_LINE + TORN_LINE)
    with WordStore(path) as store:
        assert len(store) == 1 and store.lookup((2, 2)) is None
        store.add(WordStoreRecord(word=(3,), verdict="bad", minimal=False))
    assert path.read_text() == GOOD_LINE + (
        '{"word": [3], "verdict": "bad", "minimal": false}\n')
    assert len(WordStore(path)) == 2


def test_store_rejects_a_malformed_line_ending_in_newline(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(GOOD_LINE + TORN_LINE + "\n")
    with pytest.raises(ValueError, match=":2: bad cache record"):
        WordStore(path)


def test_store_terminates_a_complete_final_line_before_appending(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(GOOD_LINE.rstrip("\n"))
    with WordStore(path) as store:
        assert len(store) == 1
        store.add(WordStoreRecord(word=(3,), verdict="bad", minimal=False))
    assert len(WordStore(path)) == 2


def test_classify_through_store_caches(tmp_path):
    path = tmp_path / "cache.jsonl"
    with WordStore(path) as store:
        first = store.classify((2, 3, 2, 2))
        assert (first.verdict, first.minimal) == ("bad", True)
        assert store.lookup((2, 3, 2, 2)) is not None
    # a fresh store sees the persisted record without recomputing
    again = WordStore(path).classify((2, 3, 2, 2))
    assert again == first


def test_default_store_path_env(monkeypatch):
    monkeypatch.delenv(STORE_PATH_ENV, raising=False)
    assert default_store_path() is None
    monkeypatch.setenv(STORE_PATH_ENV, "/tmp/words.jsonl")
    assert default_store_path() == "/tmp/words.jsonl"
    monkeypatch.setenv(STORE_PATH_ENV, "")
    assert default_store_path() is None

"""Append-only on-disk cache of word classifications.

One JSON record per line: {"word": [...], "verdict": "...", "minimal": ...}
(minimal is null for neither-words).  Records are immutable once written;
re-classifying a cached word returns the cached verdict, and attempting to
record a contradicting verdict is an error.  The textual line-per-record
format is chosen for append safety and diff-ability: a final line without
its newline that does not parse is an append cut short by a crash, skipped
on load and cut off by the next append, while any other malformed line is
an error.  A store appends through one handle, opened on its first new
record and held until ``close`` (or the end of a ``with`` block); it is
line-buffered, so each record is in the file when ``add`` returns.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from infinitebin.core import _is_int
from infinitebin.words import BAD, GOOD, NEITHER, Classification, classify

#: Environment variable holding the default cache path.
STORE_PATH_ENV = "INFINITEBIN_WORD_STORE"

_VERDICTS = frozenset({GOOD, BAD, NEITHER})


@dataclass(frozen=True)
class WordStoreRecord:
    """One cached classification."""

    word: tuple
    verdict: str
    minimal: bool | None

    def to_line(self) -> str:
        return json.dumps(
            {
                "word": list(self.word),
                "verdict": self.verdict,
                "minimal": self.minimal,
            }
        )

    @classmethod
    def from_line(cls, line: str) -> "WordStoreRecord":
        data = json.loads(line)
        if not isinstance(data, dict):
            raise ValueError(f"record must be a JSON object, got {data!r}")
        for key in ("word", "verdict", "minimal"):
            if key not in data:
                raise ValueError(f"missing key {key!r}")
        word, verdict, minimal = data["word"], data["verdict"], data["minimal"]
        if not (isinstance(word, list) and word
                and all(_is_int(a) and a >= 1 for a in word)):
            raise ValueError(f"word must be a list of letters >= 1, got {word!r}")
        if not isinstance(verdict, str) or verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        decisive = verdict != NEITHER
        if not isinstance(minimal, bool if decisive else type(None)):
            want = "boolean" if decisive else "null"
            raise ValueError(
                f"minimal must be {want} for a {verdict} word, got {minimal!r}")
        return cls(word=tuple(word), verdict=verdict, minimal=minimal)


def default_store_path() -> str | None:
    """Cache path from the environment, if configured."""
    path = os.environ.get(STORE_PATH_ENV)
    return path if path else None


class WordStore:
    """Append-only word-classification cache backed by one JSONL file.

    Use it as a context manager (or call ``close``) when it may append.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._records: dict = {}
        #: The append handle, opened by the first add that writes.
        self._fh = None
        #: Byte offset of a torn final line (an append cut short by a
        #: crash), cut off by the next add; None when there is none.
        self._torn_at: int | None = None
        #: The file ends in a complete record that lacks its newline.
        self._unterminated = False
        if not self.path.exists():
            return
        with self.path.open("rb") as fh:
            offset = 0
            for lineno, line in enumerate(fh, start=1):
                try:
                    text = line.decode("utf-8").strip()
                    rec = WordStoreRecord.from_line(text) if text else None
                except ValueError as exc:  # JSON and UTF-8 decode errors too
                    if not line.endswith(b"\n"):  # the last line, torn
                        self._torn_at = offset
                        break
                    raise ValueError(
                        f"{self.path}:{lineno}: bad cache record: {exc}"
                    ) from exc
                offset += len(line)
                if rec is None:
                    continue
                self._check_consistent(rec)
                self._records[rec.word] = rec
                self._unterminated = not line.endswith(b"\n")

    def __enter__(self) -> "WordStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the append handle, if one is open."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records.values())

    def lookup(self, word) -> WordStoreRecord | None:
        return self._records.get(tuple(word))

    def _check_consistent(self, rec: WordStoreRecord) -> None:
        old = self._records.get(rec.word)
        if old is not None and old != rec:
            raise ValueError(
                f"cache contradiction for word {rec.word}: "
                f"{old.verdict}/{old.minimal} vs {rec.verdict}/{rec.minimal}"
            )

    def add(self, rec: WordStoreRecord) -> None:
        """Record a classification; identical duplicates are no-ops."""
        self._check_consistent(rec)
        if rec.word in self._records:
            return
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8", buffering=1)
            if self._torn_at is not None:
                self._fh.truncate(self._torn_at)
                self._torn_at = None
        self._fh.write(("\n" if self._unterminated else "") + rec.to_line() + "\n")
        self._unterminated = False
        self._records[rec.word] = rec

    def classify(self, word) -> Classification:
        """Cached classification; computes and appends on a miss."""
        word = tuple(word)
        rec = self._records.get(word)
        if rec is None:
            result = classify(word)
            rec = WordStoreRecord(
                word=word, verdict=result.verdict, minimal=result.minimal
            )
            self.add(rec)
        return Classification(rec.verdict, rec.minimal)

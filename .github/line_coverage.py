"""Report the package lines that the non-acceptance tier-1 tests never run.

Runs pytest in this process under ``sys.settrace`` and
``threading.settrace``, records the lines executed in ``src/infinitebin``
and lists each executable line that did not run, per module.  Standard
library only.  It reports and does not gate: the exit status is 0
whatever the tests do (the tier-1 step gates them).

    PYTHONPATH=src python .github/line_coverage.py

The report is appended to ``$GITHUB_STEP_SUMMARY`` when that is set and
printed otherwise.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "infinitebin"


def _executable(path: Path) -> set:
    """Line numbers that carry bytecode, over all nested code objects,
    less the entry lines that emit no line event (a module's line 0, a
    function's first line)."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        body = {n for _start, _end, n in code.co_lines() if n}
        if code.co_name != "<module>":
            body.discard(code.co_firstlineno)
        lines |= body
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _spans(numbers: list) -> str:
    """'3, 7-9, 12' for [3, 7, 8, 9, 12]."""
    spans: list = []
    for n in numbers:
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> int:
    ran: set = set()
    ours: dict = {}

    def line(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().parent == PACKAGE
        return line if ours[name] else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                     f"--ignore={ROOT / 'tests' / 'test_acceptance.py'}"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    seen = {(str(Path(f).resolve()), n) for f, n in ran}
    report = ["Lines the non-acceptance tier-1 tests never run:", "```"]
    for path in sorted(PACKAGE.glob("*.py")):
        name = str(path.resolve())
        missed = sorted(n for n in _executable(path)
                        if (name, n) not in seen)
        if missed:
            report.append(f"{path.relative_to(ROOT)} ({len(missed)}): "
                          f"{_spans(missed)}")
    report.append("```")
    text = "\n".join(report) + "\n"
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""README examples: every output the README quotes is what the code prints.

A quoted output is the text after ``  # `` on a quick-start line, or the
``# `` lines under an ``infinitebin`` command in the CLI block; ``...``
stands for any text, and a quoted line ``...`` for one output line.
"""

import ast
import pathlib
import re
import shlex

from infinitebin import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _block(heading, lang):
    """The first ```lang code block under the README's ## heading."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n")[1]
    return section.split(f"```{lang}\n")[1].split("```")[0]


def _assert_quoted(quoted, printed):
    pattern = ".*".join(map(re.escape, quoted.split("...")))
    assert re.fullmatch(pattern, printed), (quoted, printed)


def test_quick_start_outputs_are_current():
    namespace, checked = {}, 0
    for line in _block("Library quick start", "python").splitlines():
        code, _, quoted = line.partition("  # ")
        statement = ast.parse(code).body
        if statement and isinstance(statement[0], ast.Expr):
            if quoted:  # an unquoted expression is shown, not checked
                _assert_quoted(quoted, repr(eval(code, namespace)))
                checked += 1
        else:
            exec(code, namespace)
    assert checked == 3


def test_cli_outputs_are_current(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a command's --out file lands here
    runs = []
    for line in _block("CLI", "sh").splitlines():
        if line.startswith("infinitebin "):
            runs.append((shlex.split(line)[1:], []))
        elif line.startswith("# ") and runs:
            runs[-1][1].append(line[2:])
    checked = 0
    for argv, quoted in runs:
        if not quoted:  # shown, not checked: these runs take seconds
            continue
        assert cli.main(argv) == cli.EXIT_OK, argv
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) >= len(quoted), argv
        for want, got in zip(quoted, printed):
            _assert_quoted(want, got)
        checked += 1
    assert checked == 3

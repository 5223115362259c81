"""Report the panel commands whose bytes differ between two source trees,
what each one costs in both, and both trees' package size.

Runs each command of ``PANEL`` in a fresh process and its own temporary
directory, against this checkout's ``src`` and OTHER_SRC, ``_RUNS`` times
per tree with the trees alternating (each tree first for every other
command), and prints each command whose exit code, stdout, stderr or left
files (its ``--out`` record) differ in any run, with what differs: for a
JSON record, the keys, e.g. ``out: params.frontier_mass``.  A Markdown
table then gives each command's CPU seconds and peak RSS (its own
process's ``os.wait4`` usage), each the median of its runs, in both
trees, and for ``speed`` and ``curve`` width × CPU seconds (the widest
row's, for ``curve``); a last
table gives both trees' ``infinitebin/*.py`` line counts, ``__all__`` size
and option counts.  Cost and size are reported, not gated: the exit
status is 1 if and only if some command's bytes differ.  A change that
should keep every output byte runs it against the parent commit's tree:

    git worktree add ../parent HEAD^1
    python .github/same_bytes.py ../parent/src
"""

import csv
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: All seven subcommands: classify; point masses; the bracket engine (at
#: p = 0.8 as verify runs it, and at the defaults L = A = 12, where the
#: state cap sets the cost; at p = 0.3 and at A = 6, where the alphabet
#: tail is heaviest and the truncated law narrows the bracket most; at
#: p = 0.1, where the truncated law's closed graph sweeps longest, and at
#: p = 0.05, where c*(p) < 1/5 leaves that graph unswept); the
#: curve (once pruned across about 90
#: exponents, and a count pass at A = 16 building tables up to the depth
#: cap); the birth floor on letters stacked at that cap; an alphabet of
#: 1024, which should cost what 16 costs; forward simulation of point
#: masses, geom:0.5 and unif:7, whose letters take the cdf's own j / k;
#: both samplers with a horizon failure (exit 3); the stationary estimate
#: at depths 1 and 4 (also at 100,000 and 20,000 replicas), at depth 2 on
#: unif:6, and at depth 8, where the lookahead runs at its cap of 6 bins,
#: once reading a gapped finite law's cdf per rank; begraph's replicas
#: (also at n = 100,000 for p = 0.5 and for p = 0.1, where letters reach
#: deepest) and its coupling trajectory; verify at both thread counts;
#: brackets from the closed state graph (of unif:3, of unif:5, the largest
#: at 349 states, and of finite:0.5,0,0.5, a support with a gap); geom:0.5
#: at L = 1, where every root letter past 1 is live; and a count pass at
#: A = 16 with no birth floor, which builds every ``image_table`` a live
#: state reads up to the depth cap (240; the 16 of depth 1 have no live
#: parent).  Each command also gets ``--out out``.
PANEL = (
    "classify 2,3,2,2",
    "speed geom:0.5 --len 10 --max-letter 10",
    "speed geom:0.8 --len 10 --max-letter 10",
    "speed geom:0.5 --len 12 --max-letter 12",
    "speed geom:0.3 --len 10 --max-letter 10",
    "speed geom:0.1 --len 10 --max-letter 10",
    "speed geom:0.05 --len 10 --max-letter 10",
    "speed geom:0.5 --len 8 --max-letter 6",
    "speed dirac:1 --len 4",
    "speed dirac:2 --len 4",
    "speed finite:0.2,0.3,0.5 --len 6 --max-letter 6",
    "speed unif:3 --len 10 --max-letter 3",
    "speed unif:5 --len 10 --max-letter 5",
    "speed finite:0.5,0,0.5 --len 8 --max-letter 3",
    "speed geom:0.5 --len 1 --max-letter 4",
    "curve --grid 0.1:0.9:0.1",
    "curve --grid 0.05:0.95:0.05 --len 12 --max-letter 8",
    "curve --grid 0.1:0.9:0.1 --len 10 --max-letter 16",
    "speed geom:0.8 --len 10 --max-letter 16",
    "speed geom:0.5 --len 10 --max-letter 1024",
    "curve --grid 0.1:0.9:0.4 --len 3 --max-letter 16",
    "simulate dirac:1 --steps 10000",
    "simulate dirac:2 --steps 10000",
    "simulate geom:0.5 --steps 20000",
    "simulate unif:7 --steps 20000",
    "perfect dirac:1 -K 3 --estimate",
    "perfect dirac:2",
    "perfect geom:0.5 --replicas 2000 --estimate",
    "perfect geom:0.5 -K 4 --replicas 2000 --estimate",
    "perfect geom:0.5 --replicas 100000 --estimate",
    "perfect geom:0.5 -K 4 --replicas 20000 --estimate",
    "perfect unif:6 -K 2 --replicas 500 --estimate",
    "perfect geom:0.3 -K 8 --replicas 2000 --estimate",
    "perfect finite:0.3,0,0.5,0.2 -K 8 --replicas 2000 --estimate",
    "perfect unif:3 -K 32",
    "perfect geom:0.3 --max-horizon 64",
    "begraph --p 0.5 --n 5000 --replicas 4",
    "begraph --p 0.5 --n 100000 --replicas 50",
    "begraph --p 0.1 --n 100000 --replicas 50",
    "begraph --p 0.3 --n 2000 --trajectory",
    "verify --budget 20s --seed 0 --threads 1",
    "verify --budget 20s --seed 0 --threads 2",
)

#: Runs of each command per tree.  One run's CPU seconds move by 30-50%
#: with no code change on a shared 2-vCPU host; the median of 3 moves less.
_RUNS = 3

#: Run on a tree's PYTHONPATH: its line count per ``infinitebin/*.py``,
#: ``__all__`` size and options per subcommand (``-h`` aside), as JSON.
_SIZE = """import json, pathlib, infinitebin
from infinitebin import cli
lines = {f"`{f.name}` lines": f.read_bytes().count(b"\\n") for f in
         sorted(pathlib.Path(infinitebin.__file__).parent.glob("*.py"))}
subs = cli.build_parser()._subparsers._group_actions[0].choices
options = {f"`{n}` options": sum(bool(a.option_strings) for a in p._actions)
           - 1 for n, p in subs.items()}
print(json.dumps({**lines, "lines, total": sum(lines.values()),
                  "`__all__` names": len(infinitebin.__all__), **options,
                  "options, total": sum(options.values())}))"""


def _run(src: pathlib.Path, command: str) -> tuple:
    """Exit code, stdout, stderr and left files of one command, then the
    CPU seconds, peak RSS in MB and width × CPU s of its process alone."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with (tempfile.TemporaryDirectory() as tmp,
          tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err):
        child = subprocess.Popen(
            [sys.executable, "-m", "infinitebin.cli", *command.split(),
             "--out", "out"], cwd=tmp, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        result = {"exit": child.returncode}
        for name, stream in (("stdout", out), ("stderr", err)):
            stream.seek(0)
            result[name] = stream.read()
        for path in sorted(pathlib.Path(tmp).iterdir()):
            result[path.name] = path.read_bytes()
    cpu_s, width = usage.ru_utime + usage.ru_stime, _width(command, result)
    return result, (cpu_s, usage.ru_maxrss / 1024,
                    None if width is None else width * cpu_s)


def _width(command: str, result: dict) -> float | None:
    """Bracket width of a ``speed`` or ``curve`` record (the widest row's,
    for ``curve``); None for other commands and for no record."""
    out = result.get("out")
    if out and command.startswith("speed"):
        params = json.loads(out)["params"]
        return params["upper"] - params["lower"]
    if out and command.startswith("curve"):
        return max(float(row["upper"]) - float(row["lower"])
                   for row in csv.DictReader(io.StringIO(out.decode())))
    return None


def _median(costs: list) -> tuple:
    """Each column's median over runs' cost tuples (None stays None)."""
    return tuple(None if None in column else statistics.median(column)
                 for column in zip(*costs))


def _pair(theirs, ours, spec: str) -> str:
    """``theirs → ours``, each formatted with ``spec`` ("–" for None)."""
    return " → ".join("–" if x is None else format(x, spec)
                      for x in (theirs, ours))


def _json_keys(ours, theirs, path: str = "") -> list:
    """Dotted paths of the keys whose values differ between two JSON
    values, "" for the values themselves when they are not both objects."""
    if not (isinstance(ours, dict) and isinstance(theirs, dict)):
        return [] if ours == theirs else [path]
    return [key for name in {**ours, **theirs}
            for key in _json_keys(ours.get(name), theirs.get(name),
                                  f"{path}.{name}" if path else name)]


def _differs(name: str, ours: bytes, theirs: bytes) -> str:
    """``name``, followed by the differing keys when both sides are JSON."""
    try:
        keys = _json_keys(json.loads(ours), json.loads(theirs))
    except (TypeError, ValueError):
        return name
    return f"{name}: {' '.join(keys)}" if any(keys) else name


def main(argv: list) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 1
    other = pathlib.Path(argv[0]).resolve()
    differ, rows = 0, []
    for i, command in enumerate(PANEL):
        trees = (other, SRC) if i % 2 else (SRC, other)
        runs = []  # (ours, theirs) per round, each a (bytes, cost) pair
        for _ in range(_RUNS):
            pair = [_run(tree, command) for tree in trees]
            runs.append(pair[::-1] if i % 2 else pair)
        our_cost, their_cost = (_median([pair[side][1] for pair in runs])
                                for side in (0, 1))
        parts = list(dict.fromkeys(  # in key order, each once
            _differs(k, ours.get(k), theirs.get(k))
            for (ours, _), (theirs, _) in runs for k in {**ours, **theirs}
            if ours.get(k) != theirs.get(k)))
        if parts:
            differ += 1
            print(f"differs: infinitebin {command} ({', '.join(parts)})")
        cells = zip(their_cost, our_cost, (".2f", ".1f", ".3e"))
        rows.append(f"| `{command}` | "
                    + " | ".join(_pair(*cell) for cell in cells) + " |")
    print(f"{differ} of {len(PANEL)} commands differ from {other}")
    print("\n| command | CPU s (other → here) | peak RSS MB (other → here) "
          "| width × CPU s (other → here) |\n|---|---|---|---|",
          *rows, sep="\n")
    theirs, ours = (json.loads(subprocess.run(
        [sys.executable, "-c", _SIZE], cwd=src, capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout)
        for src in (other, SRC))
    print("\n| size | other → here |\n|---|---|")
    for name in {**theirs, **ours}:
        print(f"| {name} | {_pair(theirs.get(name), ours.get(name), 'd')} |")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

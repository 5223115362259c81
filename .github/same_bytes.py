"""Report the panel commands whose results differ between two source trees.

Runs each command of ``PANEL`` in a fresh process and its own temporary
directory, once against this checkout's ``src`` and once against
OTHER_SRC, and compares the exit codes, stdout, stderr and the bytes of
every file the command leaves behind: its ``--out`` record.  Prints each
command that differs, with what differs (for a JSON record, the keys whose
values differ, e.g. ``out: params.frontier_mass``), and exits 1 if any
does.  A change that should keep every output byte runs it against the
parent commit's tree:

    git worktree add ../parent HEAD^1
    python .github/same_bytes.py ../parent/src

Against a tree from before closed state graphs, the rows of laws with
support in {1..5} differ on purpose, in their bracket ends and end
names: the ``speed`` rows of unif:3 and finite:0.2,0.3,0.5 and both
``verify`` rows (unif:2 and unif:3).
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: All seven subcommands: classify, point masses, the bracket engine (at
#: p = 0.8 as verify runs it), the curve (once pruned across about 90
#: exponents), the birth floor on letters stacked at the depth cap, forward
#: simulation of point masses and of geom:0.5, both samplers with a horizon
#: failure (exit 3), the stationary estimate at depths 1 and 4 and at depth
#: 8, where the lookahead runs at its cap of 6 bins, begraph's
#: replicas and its coupling trajectory, verify at both thread counts,
#: brackets from the closed state graph (of unif:3, of unif:5, the largest
#: at 349 states, and of finite:0.5,0,0.5, a support with a gap), and
#: geom:0.5 at L = 1, where every root letter past 1 is live, and a count
#: pass at A = 16 with no birth floor, which builds every ``image_table`` a
#: live state reads up to the depth cap (240; the 16 of depth 1 have no
#: live parent); each command also gets ``--out out``.
PANEL = (
    "classify 2,3,2,2",
    "speed geom:0.5 --len 10 --max-letter 10",
    "speed geom:0.8 --len 10 --max-letter 10",
    "speed dirac:1 --len 4",
    "speed dirac:2 --len 4",
    "speed finite:0.2,0.3,0.5 --len 6 --max-letter 6",
    "speed unif:3 --len 10 --max-letter 3",
    "speed unif:5 --len 10 --max-letter 5",
    "speed finite:0.5,0,0.5 --len 8 --max-letter 3",
    "speed geom:0.5 --len 1 --max-letter 4",
    "curve --grid 0.1:0.9:0.1",
    "curve --grid 0.05:0.95:0.05 --len 12 --max-letter 8",
    "speed geom:0.8 --len 10 --max-letter 16",
    "curve --grid 0.1:0.9:0.4 --len 3 --max-letter 16",
    "simulate dirac:1 --steps 10000",
    "simulate dirac:2 --steps 10000",
    "simulate geom:0.5 --steps 20000",
    "perfect dirac:1 -K 3 --estimate",
    "perfect dirac:2",
    "perfect geom:0.5 --replicas 2000 --estimate",
    "perfect geom:0.5 -K 4 --replicas 2000 --estimate",
    "perfect geom:0.3 -K 8 --replicas 2000 --estimate",
    "perfect unif:3 -K 32",
    "perfect geom:0.3 --max-horizon 64",
    "begraph --p 0.5 --n 5000 --replicas 4",
    "begraph --p 0.3 --n 2000 --trajectory",
    "verify --budget 20s --seed 0 --threads 1",
    "verify --budget 20s --seed 0 --threads 2",
)


def _run(src: pathlib.Path, command: str) -> dict:
    """Exit code, stdout, stderr and left files of one command."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run(
            [sys.executable, "-m", "infinitebin.cli", *command.split(),
             "--out", "out"],
            cwd=tmp, env=env, capture_output=True, check=False,
        )
        result = {"exit": done.returncode, "stdout": done.stdout,
                  "stderr": done.stderr}
        for path in sorted(pathlib.Path(tmp).iterdir()):
            result[path.name] = path.read_bytes()
    return result


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
    differ = 0
    for command in PANEL:
        ours, theirs = _run(SRC, command), _run(other, command)
        parts = [_differs(k, ours.get(k), theirs.get(k))
                 for k in {**ours, **theirs} if ours.get(k) != theirs.get(k)]
        if parts:
            differ += 1
            print(f"differs: infinitebin {command} ({', '.join(parts)})")
    print(f"{differ} of {len(PANEL)} commands differ from {other}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

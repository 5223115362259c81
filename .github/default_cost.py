"""Print the CPU seconds and peak RSS of one infinitebin command.

Runs the command in a child process, reads its cost with the standard
library's ``resource.getrusage(RUSAGE_CHILDREN)`` and prints one Markdown
list item.  For ``speed`` and ``curve`` it also prints the bracket width
(the widest row's, for ``curve``), read from an ``--out`` file in a
temporary directory, and width × CPU seconds: what the CPU bought.  It
reports and does not gate.

    PYTHONPATH=src python .github/default_cost.py speed geom:0.5 --len 12 --max-letter 12
"""

import csv
import json
import pathlib
import resource
import subprocess
import sys
import tempfile

args = sys.argv[1:]
with tempfile.TemporaryDirectory() as tmp:
    out = pathlib.Path(tmp) / "out"
    bracket = args[:1] in (["speed"], ["curve"])
    subprocess.run([sys.executable, "-m", "infinitebin.cli", *args,
                    *(["--out", str(out)] if bracket else [])],
                   check=True, stdout=subprocess.DEVNULL)
    if args[:1] == ["speed"]:
        params = json.loads(out.read_text())["params"]
        width = params["upper"] - params["lower"]
    elif bracket:
        with out.open(newline="") as fh:
            width = max(float(row["upper"]) - float(row["lower"])
                        for row in csv.DictReader(fh))
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
cpu_s = usage.ru_utime + usage.ru_stime
answer = f", width {width:.3e}, width × CPU s {width * cpu_s:.3e}" \
    if bracket else ""
print(f"- `infinitebin {' '.join(args)}`: {cpu_s:.2f} CPU s, "
      f"peak RSS {usage.ru_maxrss / 1024:.1f} MB{answer}")

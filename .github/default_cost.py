"""Print the CPU seconds and peak RSS of one infinitebin command.

Runs the command in a child process, reads its cost with the standard
library's ``resource.getrusage(RUSAGE_CHILDREN)`` and prints one Markdown
list item.  It reports and does not gate.

    PYTHONPATH=src python .github/default_cost.py speed geom:0.5 --len 12 --max-letter 12
"""

import resource
import subprocess
import sys

args = sys.argv[1:]
subprocess.run([sys.executable, "-m", "infinitebin.cli", *args],
               check=True, stdout=subprocess.DEVNULL)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(f"- `infinitebin {' '.join(args)}`: "
      f"{usage.ru_utime + usage.ru_stime:.2f} CPU s, "
      f"peak RSS {usage.ru_maxrss / 1024:.1f} MB")

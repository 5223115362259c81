"""Child process of a traced benchmark run.

    python3 perfbench/replay.py plain  WORKLOAD SEED SIZE WORKDIR
    python3 perfbench/replay.py traced WORKLOAD SEED SIZE WORKDIR
    python3 perfbench/replay.py layers WORKLOAD SEED SIZE WORKDIR

``plain`` and ``traced`` replay one pass of the workload in-process through
``infinitebin.cli.main(argv)``, writing each invocation's ``--out`` file and
stdout into WORKDIR; ``traced`` wraps the module boundaries first (see
``spans.py``), removes the wrappers afterwards and writes the spans to
WORKDIR/spans.json.  On the verify workload the traced replay also runs
verify at one thread, for the pool speed-up.  ``layers`` times public layer
functions on tapes drawn from the workload's law and seed (``layers.py``).
Each mode writes WORKDIR/result.json.  The program is imported from
``src/`` next to this directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from infinitebin import cli  # noqa: E402
from spans import Tracer  # noqa: E402


def run_invocation(argv, out_path):
    """cli.main on argv plus ``--out``; returns (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(list(argv) + ["--out", str(out_path)])
    return rc, stdout.getvalue(), stderr.getvalue()


def replay(workload, seed, size, workdir, tracer=None):
    """One pass; returns {key: {"rc", "wall_s", "stdout"}} in pass order."""
    records = {}
    for inv in workloads.invocations(workload, workloads.pass_seed(seed, 0),
                                     size):
        out = workdir / f"{inv.key}.out"
        t0 = time.perf_counter()
        if tracer is None:
            rc, stdout, stderr = run_invocation(inv.argv, out)
        else:
            with tracer.span("cli.main", argv=" ".join(inv.argv)):
                rc, stdout, stderr = run_invocation(inv.argv, out)
        records[inv.key] = {"rc": rc, "wall_s": time.perf_counter() - t0,
                            "stdout": stdout, "stderr": stderr}
    return records


def main(argv):
    mode, workload, seed, size, workdir = argv
    seed, workdir = int(seed), pathlib.Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if mode == "layers":
        import layers

        result = layers.measure(workloads.LAW, seed, size)
    elif mode == "plain":
        result = {"invocations": replay(workload, seed, size, workdir)}
    elif mode == "traced":
        tracer = Tracer(run_id=f"{workload}-{seed}-{workdir.name}")
        tracer.install()
        try:
            result = {"invocations": replay(workload, seed, size, workdir,
                                            tracer)}
            if "verify" in workloads.WORKLOADS[workload]:
                one = list(workloads.argv_of("verify", workloads.SIZES[size],
                                             workloads.VERIFY_SEED))
                one[one.index("--threads") + 1] = "1"
                t0 = time.perf_counter()
                # a root of its own, so the replay's layer sums leave it out
                with tracer.span("cli.main[threads=1]", argv=" ".join(one)):
                    rc, stdout, _err = run_invocation(
                        one, workdir / "verify-threads1.out")
                result["verify_threads1"] = {
                    "rc": rc, "wall_s": time.perf_counter() - t0,
                    "stdout": stdout}
        finally:
            tracer.uninstall()
        tracer.dump(workdir / "spans.json")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

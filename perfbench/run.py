"""infinitebin benchmark: end-to-end CLI runs and a traced per-layer run.

    python3 perfbench/run.py --workload bracket --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the program is imported from ``src/``.

``--trace 0`` first times CLI invocations that do no model work (set-up),
then repeats passes over the workload's invocations, one fresh process
each, until ``--seconds`` have gone (at least three passes).  Every output
is checked.  It reports the end-to-end metrics named in BENCHMARK.json.

``--trace 1`` times the layer functions directly in a fresh process
(``layers.py``), then repeats pairs of in-process replays of one pass, one
plain and one with spans at the module boundaries (``replay.py``,
``spans.py``), until ``--seconds`` have gone.  It reports the per-layer
metrics, including the tracing overhead.

Both print a table of every metric with its unit, write it with a stamp of
the machine and versions to ``perfbench/out/``, and end with one JSON line
holding the metrics listed in BENCHMARK.json.  ``--workload all`` runs both
modes on every workload.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from spans import self_times  # noqa: E402

#: Every run, setup included, ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
MIN_PASSES = 3
SETUP_SPAWNS = 11

UNITS = {
    "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "answer_cost_s": "s",
    "raw.wall_s": "s", "raw.setup_s": "s", "probe_s": "s",
    "ops_failed_frac": "1",
    "bracket.width": "1", "bracket.width_x_s": "s",
    "curve.width_max": "1", "curve.width_x_s": "s",
    "forward.stderr2_x_s": "s", "stationary.stderr2_x_s": "s",
    "begraph.stderr2_x_s": "s", "begraph.stderr2_x_s.p0_5": "s",
    "begraph.stderr2_x_s.p0_1": "s",
    "verify.bracket.x_s": "s", "verify.forward.x_s": "s",
    "verify.stationary.x_s": "s", "verify.answer_x_s": "s",
    "cli.self_s": "s", "cli.pool_speedup": "x",
    "series.self_s": "s",
    "enumeration.masses_s": "s", "enumeration.counts_s": "s",
    "enumeration.image_table_ms": "ms",
    "enumeration.masses_ms_L8": "ms", "enumeration.counts_ms_L8": "ms",
    "enumeration.peak_states": "count", "enumeration.pruned_mass": "mass",
    "enumeration.frontier_tail": "mass", "enumeration.frontier_live": "mass",
    "enumeration.frontier_capped": "mass",
    "enumeration.pruned_states": "count",
    "simulate.self_s": "s", "simulate.forward_ns_per_step": "ns",
    "simulate.perfect_sample_us.p50": "us",
    "simulate.perfect_sample_us.p99": "us",
    "simulate.perfect_sample_calls": "count",
    "simulate.letters_folded_per_sample": "letters",
    "simulate.tau_p50": "letters", "simulate.tau_p99": "letters",
    "words.tracker_ns_per_letter": "ns", "core.step_ns_per_letter": "ns",
    "distributions.invert_ns_per_letter": "ns",
    "rng.stream_open_us": "us", "rng.uniform_ns": "ns",
    "rng.stream_calls": "count",
    "begraph.self_s": "s",
    "begraph.ns_per_vertex.p0_5": "ns", "begraph.ns_per_vertex.p0_1": "ns",
    "trace_overhead_s": "s",
}


class ProgramMissing(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    # the benchmark never writes the word store
    env.pop("INFINITEBIN_WORD_STORE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Spawns children under one deadline and counts operations."""

    def __init__(self, workdir: pathlib.Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = _env()
        self.attempted = 0
        self.failures: list = []

    def fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")
        sys.stderr.write(f"FAILED {what}: {why}\n")

    def spawn(self, cmd: list, tag: str) -> dict:
        """Run one child to exit: exit code, wall and CPU seconds, peak RSS.

        ``os.wait4`` gives the rusage of this child alone; RUSAGE_CHILDREN
        would be a running maximum over every child reaped so far.
        """
        out_path = self.workdir / f"{tag}.stdout"
        err_path = self.workdir / f"{tag}.stderr"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                    env=self.env)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "rc": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_text(errors="replace"),
            "stderr": err_path.read_text(errors="replace"),
        }

    def cli(self, argv, tag: str) -> dict:
        return self.spawn([sys.executable, "-m", "infinitebin.cli", *argv], tag)

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


def median(values):
    return statistics.median(values) if values else None


def another(done, minimum, t_start, seconds, last) -> bool:
    """Start another pass?  Until ``minimum`` are done, then while one as
    long as the last still ends within ``seconds`` of ``t_start``."""
    return done < minimum or time.monotonic() - t_start + last <= seconds


# ---------------------------------------------------------------------------
# untraced: end-to-end metrics
# ---------------------------------------------------------------------------


def calibrate_window(records, probe_s) -> None:
    """Add calibrated seconds to records timed in one probe window."""
    for rec in records:
        rec["probe_s"] = probe_s
        rec["cal_s"] = rec["cpu_s"] * calibrate.REFERENCE_S / probe_s


def measure_setup(runner: Runner, probe) -> list:
    """Records of ``infinitebin --help`` (imports, no model work), after
    one unmeasured spawn that fills the bytecode cache."""
    runner.cli(["--help"], "setup-warm")
    records = []
    probe.start()
    for i in range(SETUP_SPAWNS):
        rec = runner.cli(["--help"], f"setup{i}")
        runner.attempted += 1
        if rec["rc"] != 0 or "usage" not in rec["stdout"]:
            runner.fail("setup", f"exit {rec['rc']}: {rec['stderr'][-300:]}")
        else:
            records.append(rec)
    calibrate_window(records, probe.stop())
    return records


def run_untraced(workload, seed, seconds, size, runner, refs) -> dict:
    """Passes of fresh CLI processes, pinned to one CPU and calibrated."""
    with calibrate.one_cpu():
        probe = calibrate.ProbeClient()
        try:
            setup = measure_setup(runner, probe)
            body = _passes(workload, seed, seconds, size, runner, refs, probe)
        finally:
            probe.close()
    metrics, counts = body["metrics"], body["samples"]
    metrics["setup_s"] = median([r["cal_s"] for r in setup])
    metrics["raw.setup_s"] = median([r["wall_s"] for r in setup])
    counts["setup_s"] = counts["raw.setup_s"] = len(setup)
    return body


def _passes(workload, seed, seconds, size, runner, refs, probe) -> dict:
    """Passes back to back, each timed in one probe window."""
    cal, raw, rss, answers = {}, {}, {}, {}
    pass_cal, pass_raw, pass_rss, probes = [], [], [], []
    t_start = time.monotonic()
    index, last = 0, 0.0
    while another(index, MIN_PASSES, t_start, seconds, last):
        if runner.out_of_time():
            runner.fail("run", "deadline reached before the passes ended")
            break
        t_pass = time.monotonic()
        records = []
        probe.start()
        for inv in workloads.invocations(
                workload, workloads.pass_seed(seed, index), size):
            out = runner.workdir / f"{inv.key}.{index}.out"
            rec = runner.cli(list(inv.argv) + ["--out", str(out)],
                             f"{inv.key}.{index}")
            runner.attempted += 1
            records.append((inv, rec, out))
        probes.append(probe.stop())
        calibrate_window([rec for _inv, rec, _out in records], probes[-1])
        for inv, rec, out in records:
            cal.setdefault(inv.key, []).append(rec["cal_s"])
            raw.setdefault(inv.key, []).append(rec["wall_s"])
            rss.setdefault(inv.key, []).append(rec["rss_mb"])
            answer = _checked(runner, inv, rec, out, refs,
                              f"{inv.key} pass {index}")
            if answer is not None:
                answers.setdefault(inv.key, []).append(answer)
        pass_cal.append(sum(rec["cal_s"] for _i, rec, _o in records))
        pass_raw.append(sum(rec["wall_s"] for _i, rec, _o in records))
        pass_rss.append(max(rec["rss_mb"] for _i, rec, _o in records))
        index += 1
        last = time.monotonic() - t_pass

    metrics = {
        "cpu_s": median(pass_cal),
        "raw.wall_s": median(pass_raw),
        "peak_rss_mb": median(pass_rss),
        "probe_s": median(probes),
    }
    counts = {"cpu_s": len(pass_cal), "raw.wall_s": len(pass_raw),
              "peak_rss_mb": len(pass_rss), "probe_s": len(probes)}
    if set(answers) == set(cal):
        metrics.update(workloads.answer_costs(
            answers, {k: median(v) for k, v in cal.items()}))
    for key in cal:
        for name, values in (("s", cal[key]), ("raw_s", raw[key]),
                             ("rss_mb", rss[key])):
            metrics[f"invocation.{key}.{name}"] = median(values)
            counts[f"invocation.{key}.{name}"] = len(values)
    return {"metrics": metrics, "samples": counts, "passes": index,
            "pass_cpu_s": pass_cal, "pass_raw_walls_s": pass_raw,
            "pass_probe_s": probes}


def _checked(runner, inv, rec, out, refs, what):
    """The invocation's answer, or None after recording why it failed."""
    if rec["rc"] != 0:
        runner.fail(what, f"exit {rec['rc']}: {rec['stderr'][-300:]}")
        return None
    try:
        return inv.check(rec["stdout"], out.read_text(), refs)
    except (workloads.CheckFailed, OSError, ValueError, KeyError,
            TypeError) as exc:
        runner.fail(what, f"{type(exc).__name__}: {exc}")
        return None


# ---------------------------------------------------------------------------
# traced: per-layer metrics
# ---------------------------------------------------------------------------


def _replay_child(runner, mode, workload, seed, size, tag) -> dict | None:
    sub = runner.workdir / tag
    rec = runner.spawn([sys.executable, str(HERE / "replay.py"), mode,
                        workload, str(seed), size, str(sub)], tag)
    runner.attempted += 1
    if rec["rc"] != 0:
        runner.fail(tag, f"exit {rec['rc']}: {rec['stderr'][-300:]}")
        return None
    result = json.loads((sub / "result.json").read_text())
    result["dir"] = sub
    return result


def _check_replay(runner, workload, seed, size, result, refs, tag) -> None:
    for inv in workloads.invocations(workload, workloads.pass_seed(seed, 0),
                                     size):
        runner.attempted += 1
        _checked(runner, inv, result["invocations"][inv.key],
                 result["dir"] / f"{inv.key}.out", refs, f"{tag} {inv.key}")


def _same_bytes(runner, a: pathlib.Path, b: pathlib.Path, what: str) -> None:
    runner.attempted += 1
    try:
        same = a.read_bytes() == b.read_bytes()
    except OSError as exc:
        runner.fail(what, str(exc))
        return
    if not same:
        runner.fail(what, f"{a.name} differs from {b}")


def span_metrics(spans: list) -> dict:
    """Per-layer sums over the spans of the replayed invocations."""
    by_id = {s["id"]: s for s in spans}

    def root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    own = self_times(spans)
    replay = [s for s in spans if root(s)["name"] == "cli.main"]
    m = {k: 0.0 for k in ("cli.self_s", "series.self_s", "simulate.self_s",
                          "begraph.self_s", "enumeration.masses_s",
                          "enumeration.counts_s")}
    m.update({"simulate.perfect_sample_calls": 0, "rng.stream_calls": 0})
    masses = [s["attrs"] for s in replay
              if s["name"] == "enumeration.stopping_tree_masses"]
    for s in replay:
        layer = s["name"].split(".", 1)[0]
        if f"{layer}.self_s" in m:
            m[f"{layer}.self_s"] += own[s["id"]]
        if s["name"] == "enumeration.stopping_tree_masses":
            m["enumeration.masses_s"] += s["end"] - s["start"]
        elif s["name"] == "enumeration.stopping_tree_counts":
            m["enumeration.counts_s"] += s["end"] - s["start"]
        elif s["name"] == "simulate.perfect_sample":
            m["simulate.perfect_sample_calls"] += 1
        elif s["name"] == "rng.stream":
            m["rng.stream_calls"] += 1
    if masses:
        m["enumeration.peak_states"] = max(a["peak_states"] for a in masses)
        for key in ("pruned_mass", "frontier_tail", "frontier_live",
                    "frontier_capped"):
            m[f"enumeration.{key}"] = math.fsum(a[key] for a in masses)
    counts = [s["attrs"] for s in replay
              if s["name"] == "enumeration.stopping_tree_counts"]
    if counts:
        m["enumeration.pruned_states"] = sum(a["pruned_states"]
                                             for a in counts)
    return m


def run_traced(workload, seed, seconds, size, runner, refs) -> dict:
    t_start = time.monotonic()
    layers = _replay_child(runner, "layers", workload, seed, size, "layers")
    plain_walls, traced_walls, per_replay, speedups = [], [], [], []
    pair, last = 0, 0.0
    while another(pair, 1, t_start, seconds, last):
        t_pair = time.monotonic()
        if runner.out_of_time():
            runner.fail("run", "deadline reached before the replays ended")
            break
        order = ("plain", "traced") if pair % 2 == 0 else ("traced", "plain")
        got = {mode: _replay_child(runner, mode, workload, seed, size,
                                   f"{mode}{pair}") for mode in order}
        for mode, result in got.items():
            if result is None:
                continue
            _check_replay(runner, workload, seed, size, result, refs,
                          f"{mode}{pair}")
            wall = sum(r["wall_s"] for r in result["invocations"].values())
            (plain_walls if mode == "plain" else traced_walls).append(wall)
        plain, traced = got["plain"], got["traced"]
        if plain is not None and traced is not None:
            for key in traced["invocations"]:
                _same_bytes(runner, traced["dir"] / f"{key}.out",
                            plain["dir"] / f"{key}.out",
                            f"traced{pair} {key} --out")
        if traced is not None:
            spans = json.loads((traced["dir"] / "spans.json").read_text())
            per_replay.append(span_metrics(spans))
            shutil.copyfile(traced["dir"] / "spans.json",
                            OUT / f"{workload}-seed{seed}-spans.json")
            one = traced.get("verify_threads1")
            if one is not None:
                runner.attempted += 1
                if one["rc"] != 0:
                    runner.fail(f"traced{pair} verify --threads 1",
                                f"exit {one['rc']}")
                else:
                    _same_bytes(runner, traced["dir"] / "verify-threads1.out",
                                traced["dir"] / "verify.out",
                                f"traced{pair} verify --threads 1 --out")
                    two = traced["invocations"]["verify"]["wall_s"]
                    speedups.append(one["wall_s"] / two)
        pair += 1
        last = time.monotonic() - t_pair

    metrics, counts = {}, {}
    if layers is not None:
        metrics.update({k: v for k, v in layers.items() if k != "dir"})
    if per_replay:
        for key in per_replay[0]:
            values = [m[key] for m in per_replay]
            # times vary per replay; counts repeat exactly, so the median
            # of a count is the count
            metrics[key] = median(values)
            counts[key] = len(values)
    if speedups:
        metrics["cli.pool_speedup"] = median(speedups)
        counts["cli.pool_speedup"] = len(speedups)
    if plain_walls and traced_walls:
        metrics["trace_overhead_s"] = median(traced_walls) - median(plain_walls)
        counts["trace_overhead_s"] = min(len(plain_walls), len(traced_walls))
    return {"metrics": metrics, "samples": counts, "pairs": pair,
            "plain_walls_s": plain_walls, "traced_walls_s": traced_walls}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    """The checked-out commit, read from .git without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp() -> dict:
    # read from the package metadata: importing numpy here would raise
    # every child's peak RSS to this process's
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def unit_of(name: str) -> str:
    if name.startswith("invocation."):
        return "MB" if name.endswith("_mb") else "s"
    return UNITS[name]


def print_table(workload, trace, metrics, samples) -> None:
    print(f"# {workload} trace={trace}")
    for name in sorted(metrics):
        value = metrics[name]
        unit = unit_of(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        n = samples.get(name)
        print(f"{name:42s} {shown:>14s} {unit:8s}"
              + (f" median of {n}" if n else ""))


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload, seed, seconds, trace, size) -> dict:
    if not (ROOT / "src" / "infinitebin" / "cli.py").is_file():
        raise ProgramMissing(f"no program at {ROOT / 'src' / 'infinitebin'}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    runner = Runner(workdir, time.monotonic() + RUN_DEADLINE_S)
    refs = workloads.load_references()
    try:
        if trace:
            body = run_traced(workload, seed, seconds, size, runner, refs)
        else:
            body = run_untraced(workload, seed, seconds, size, runner, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    body["metrics"]["ops_failed_frac"] = (
        len(runner.failures) / max(runner.attempted, 1))
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "size": size, "stamp": stamp(),
        "attempted": runner.attempted, "failed": len(runner.failures),
        "failures": runner.failures, **body,
    }
    result["units"] = {k: unit_of(k) for k in body["metrics"]}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    print_table(workload, trace, body["metrics"], body["samples"])
    print(f"attempted={runner.attempted} failed={len(runner.failures)}")
    return result


def summary_line(result, spec) -> dict:
    listed = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    metrics = {}
    for m in listed:
        value = result["metrics"].get(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = result["failed"] == 0 and all(
        v["value"] is not None for v in metrics.values())
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES),
                        default="full",
                        help="'smoke' shrinks every invocation for tests")
    args = parser.parse_args(argv)
    try:
        spec = benchmark_spec()
        seconds = (spec["run_seconds"] if args.seconds is None
                   else args.seconds)
        if args.workload != "all":
            result = run_one(args.workload, args.seed, seconds, args.trace,
                             args.size)
            print(json.dumps(summary_line(result, spec)))
            return 0
        lines = {}
        for workload in workloads.NAMES:
            for trace in (0, 1):
                result = run_one(workload, args.seed, seconds, trace,
                                 args.size)
                lines[f"{workload}.trace{trace}"] = summary_line(result, spec)
        print(json.dumps(lines))
        return 0
    except (ProgramMissing, OSError) as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

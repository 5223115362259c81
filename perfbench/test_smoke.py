"""Fast smoke test of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric is emitted with its unit, that no span's self
time exceeds its parent's duration, that a traced replay leaves ``verify
--out`` byte-identical to an untraced run and puts every wrapped function
back, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3

#: Metrics the benchmark must report, by workload and mode, beyond the ones
#: BENCHMARK.json lists for every run.
EXPECTED = {
    ("bracket", 0): ["ops_failed_frac", "bracket.width", "bracket.width_x_s"],
    ("curve", 0): ["ops_failed_frac", "curve.width_max", "curve.width_x_s"],
    ("sampling", 0): ["ops_failed_frac", "forward.stderr2_x_s",
                      "stationary.stderr2_x_s", "begraph.stderr2_x_s"],
    ("verify", 0): ["ops_failed_frac", "verify.bracket.x_s",
                    "verify.forward.x_s", "verify.stationary.x_s"],
    ("bracket", 1): ["series.self_s", "enumeration.masses_s",
                     "enumeration.peak_states", "enumeration.pruned_mass",
                     "enumeration.frontier_tail", "enumeration.frontier_live",
                     "enumeration.frontier_capped"],
    ("curve", 1): ["series.self_s", "enumeration.counts_s",
                   "enumeration.pruned_states"],
    ("sampling", 1): ["simulate.perfect_sample_calls", "simulate.self_s",
                      "begraph.self_s"],
    ("verify", 1): ["cli.pool_speedup", "series.self_s",
                    "enumeration.masses_s", "simulate.perfect_sample_calls"],
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@pytest.fixture(scope="module")
def all_runs():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--seed", str(SEED), "--seconds", "0", "--size", "smoke"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _results(workload, trace):
    path = HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text())


def test_every_metric_is_emitted_with_its_unit(all_runs):
    spec = run.benchmark_spec()
    for workload in workloads.NAMES:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            line = all_runs[f"{workload}.trace{trace}"]
            assert line["correct"] is True and line["failed"] == 0
            assert line["attempted"] >= 1
            assert set(line["metrics"]) == {m["name"] for m in listed}
            for m in listed:
                got = line["metrics"][m["name"]]
                assert got["unit"] == m["unit"] == run.UNITS[m["name"]]
                assert isinstance(got["value"], (int, float))
            full = _results(workload, trace)
            for name in EXPECTED[(workload, trace)]:
                assert full["metrics"][name] is not None, (workload, name)
                assert full["units"][name] == run.UNITS[name]
            assert {"git_commit", "nproc", "cpu_model", "python",
                    "numpy"} <= set(full["stamp"])


def test_child_self_time_never_exceeds_parent(all_runs):
    for workload in workloads.NAMES:
        path = HERE / "out" / f"{workload}-seed{SEED}-spans.json"
        recorded = json.loads(path.read_text())
        by_id = {s["id"]: s for s in recorded}
        own = spans.self_times(recorded)
        assert any(s["parent"] is not None for s in recorded)
        for s in recorded:
            assert own[s["id"]] >= -1e-9
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert own[s["id"]] <= parent["end"] - parent["start"] + 1e-9
                assert s["run"] == parent["run"]


def test_traced_verify_bytes_match_untraced_and_wrappers_are_removed(tmp_path):
    from infinitebin import cli

    originals = {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _name, _note in spans.BOUNDARIES
    }
    argv = ["verify", "--budget", "1s", "--threads", "2"]
    tracer = spans.Tracer("smoke")
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            with tracer.span("cli.main"):
                rc = cli.main(argv + ["--out", str(tmp_path / "traced.json")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert any(s["name"] == "simulate.perfect_sample" for s in tracer.spans)
    for (mod, attr), original in originals.items():
        assert getattr(sys.modules[mod], attr) is original, (mod, attr)
    proc = subprocess.run(
        [sys.executable, "-m", "infinitebin.cli", *argv,
         "--out", str(tmp_path / "plain.json")],
        cwd=ROOT, env=_env(), capture_output=True, timeout=300)
    assert proc.returncode == 0
    assert (tmp_path / "traced.json").read_bytes() == \
        (tmp_path / "plain.json").read_bytes()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bracket",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

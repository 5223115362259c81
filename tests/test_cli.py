"""Command-line interface behavior: outputs, exit codes, determinism."""

import hashlib
import json
import math
import subprocess
import sys
import time

import pytest

from infinitebin import begraph, cli, enumeration, rng, series, simulate
from infinitebin.distributions import parse_mu


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_bad_minimal_word(capsys):
    code, out, _ = run_cli(capsys, "classify", "2,3,2,2")
    assert code == 0
    assert "word 2,3,2,2: bad, minimal" in out
    assert "coupling_number=1" in out


def test_classify_neither_word(capsys):
    code, out, _ = run_cli(capsys, "classify", "2,2")
    assert code == 0
    assert "word 2,2: neither" in out
    assert "minimal" not in out.splitlines()[0]


def test_classify_not_minimal(capsys):
    code, out, _ = run_cli(capsys, "classify", "2,3,2,2,5")
    assert code == 0
    assert "bad, not minimal" in out
    assert "coupling_number=0" in out


def test_classify_large_letter_reports_tracker_bound(capsys):
    code, out, _ = run_cli(capsys, "classify", "1,1,13")
    assert code == 0
    assert "coupling_number>=" in out


def test_classify_usage_errors(capsys):
    assert run_cli(capsys, "classify", "2,x")[0] == 1
    assert run_cli(capsys, "classify", "0,1")[0] == 1
    assert run_cli(capsys, "classify", "")[0] == 1
    assert run_cli(capsys, "classify", "--bogus", "1")[0] == 1


def test_classify_over_exact_limit_exits_3(capsys):
    code, _, err = run_cli(capsys, "classify", "40")
    assert code == 3
    assert "limit" in err.lower()


def test_classify_writes_out_file(tmp_path, capsys):
    out_path = tmp_path / "verdict.txt"
    code, out, _ = run_cli(capsys, "classify", "1,2", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == out


# ---------------------------------------------------------------------------
# speed / curve
# ---------------------------------------------------------------------------


def test_speed_prints_bracket_and_record(tmp_path, capsys):
    out_path = tmp_path / "speed.json"
    code, out, _ = run_cli(
        capsys, "speed", "geom:0.7", "--len", "6", "--max-letter", "6",
        "--out", str(out_path),
    )
    assert code == 0
    assert out.startswith("speed in [")
    record = json.loads(out_path.read_text())
    assert list(record.keys()) == [
        "op", "mu", "params", "estimate", "stderr", "seed", "tau_histogram",
    ]
    assert record["op"] == "speed"
    assert record["mu"] == "geom:0.7"
    params = record["params"]
    assert params["lower"] <= record["estimate"] <= params["upper"]
    assert record["seed"] is None and record["tau_histogram"] is None
    # where the width came from
    parts = [params[k] for k in ("frontier_tail", "frontier_live",
                                 "frontier_capped", "pruned_mass")]
    assert abs(math.fsum(parts) - params["frontier_mass"]) <= \
        params["rounding_bound"]
    assert params["peak_states"] > 0


def test_speed_record_params_are_the_bracket_fields(tmp_path, capsys):
    # the law is named with every digit it was computed with
    out_path = tmp_path / "speed.json"
    code, _, _ = run_cli(capsys, "speed", "geom:0.123456789", "--len", "4",
                         "--max-letter", "4", "--out", str(out_path))
    assert code == 0
    record = json.loads(out_path.read_text())
    assert record["mu"] == record["params"]["mu"] == "geom:0.123456789"
    assert list(record["params"]) == [
        "mu", "L", "A", "lower", "upper", "lower_from", "upper_from",
        "good_mass", "bad_mass", "frontier_mass", "frontier_tail",
        "frontier_live", "frontier_capped", "pruned_mass", "peak_states",
        "rounding_bound",
    ]


@pytest.mark.parametrize("spec, max_letter, lower_from, upper_from", [
    ("geom:0.05", "6", "closed_lazy", "first_moment"),
    ("geom:0.7", "6", "closed_lazy", "closed_truncated"),
    ("unif:7", "6", "lazy", "truncated"),
    ("unif:7", "7", "good", "bad"),
    ("unif:2", "2", "closed", "closed"),
])
def test_speed_record_names_the_bound_at_each_end(tmp_path, capsys, spec,
                                                  max_letter, lower_from,
                                                  upper_from):
    out_path = tmp_path / "speed.json"
    code, _, _ = run_cli(capsys, "speed", spec, "--len", "6", "--max-letter",
                         max_letter, "--out", str(out_path))
    assert code == 0
    params = json.loads(out_path.read_text())["params"]
    assert (params["lower_from"], params["upper_from"]) == (lower_from,
                                                            upper_from)
    # the masses stay the raw partition the ends were tightened from
    total = params["good_mass"] + params["bad_mass"] + params["frontier_mass"]
    assert abs(total - 1.0) <= params["rounding_bound"]
    assert params["lower"] >= params["good_mass"]
    assert params["upper"] <= 1.0 - params["bad_mass"]
    if (lower_from, upper_from) == ("good", "bad"):
        assert params["lower"] == params["good_mass"]
        assert params["upper"] == 1.0 - params["bad_mass"]
    if (lower_from, upper_from) == ("closed", "closed"):
        assert params["lower"] < 2 / 3 < params["upper"]


@pytest.mark.parametrize("argv, field", [
    (["speed", "geom:0.1", "--len", "3"], '"A": {}, '),
    (["curve", "--grid", "0.1,0.5", "--len", "3"], ",3,{},"),
], ids=["speed", "curve"])
def test_huge_alphabet_runs_at_the_depth_cap(tmp_path, capsys, argv, field):
    # letters past the depth cap of 16 are alphabet tail, so a bound of
    # 10^12 does the work of 16 (an 8 TB pmf vector or count table would
    # show as an out-of-memory exit) and differs only in the A it reports
    outs = []
    for max_letter in ("1000000000000", "16"):
        path = tmp_path / f"{max_letter}.out"
        code, _, err = run_cli(capsys, *argv, "--max-letter", max_letter,
                               "--out", str(path))
        assert (code, err) == (0, "")
        outs.append(path.read_text())
    assert field.format(10**12) in outs[0]
    assert outs[0].replace(field.format(10**12), field.format(16)) == outs[1]


@pytest.mark.parametrize("law, short", [
    # the word (1,) is the only good word
    (["geom:0.3", "--max-letter", "1"], "2"),
    # every branch ends by length 22, and the lazy factors of the tail
    # 1e-12 stay below the float ceiling far past 100,000
    (["geom:0.9"], "1000"),
], ids=["one-letter", "small-tail"])
def test_long_length_bound_costs_only_the_words_it_has(tmp_path, law, short):
    # The bracket at length bound 100,000 is the one at the short bound,
    # and costs seconds.  A child process, so that the timeout stops a
    # run that does not.
    def ends(length):
        path = tmp_path / f"{length}.json"
        subprocess.run(
            [sys.executable, "-m", "infinitebin.cli", "speed", *law,
             "--len", length, "--out", str(path)],
            capture_output=True, timeout=60, check=True)
        params = json.loads(path.read_text())["params"]
        return params["lower"], params["upper"]
    assert ends("100000") == ends(short)


def test_speed_dirac_two_exits_1(capsys):
    code, out, err = run_cli(capsys, "speed", "dirac:2")
    assert code == 1 and out == ""
    assert err.startswith("error: dirac:2 is a point mass")
    assert err.count("\n") == 1 and "forward simulation" in err


def test_speed_usage_error(capsys):
    assert run_cli(capsys, "speed", "zipf:2")[0] == 1


def test_speed_overflowing_finite_law_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "speed", "finite:1e308,1e308")
    assert code == 1 and out == ""
    assert err.startswith("error: bad distribution spec 'finite:1e308,1e308'")
    assert err.count("\n") == 1


def test_curve_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--grid", "0.5:1.0:0.25", "--len", "4",
        "--max-letter", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,lower,upper,L,A,rounding_bound"
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert last[:5] == ["1", "1", "1", "4", "4"]


def test_curve_deterministic_bytes(tmp_path, capsys):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a_path, b_path):
        code, _, _ = run_cli(
            capsys, "curve", "--grid", "0.2,0.8", "--len", "5",
            "--max-letter", "5", "--out", str(path),
        )
        assert code == 0
    assert a_path.read_bytes() == b_path.read_bytes()


def test_curve_rejects_zero_density(capsys):
    assert run_cli(capsys, "curve", "--grid", "0.0:1.0:0.5")[0] == 1
    assert run_cli(capsys, "curve", "--grid", "0.5:0.2:0.1")[0] == 1


def test_grid_range_stops_at_stop():
    ninths = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    assert cli._parse_grid("0.1:0.9:0.1") == ninths
    assert cli._parse_grid("0.1:0.96:0.1") == ninths  # no p = 1 past the stop
    assert cli._parse_grid("0.5:1.0:0.25") == [0.5, 0.75, 1.0]
    assert cli._parse_grid("0.5:0.5:0.1") == [0.5]
    # 12 significant digits, not 12 decimal places
    assert cli._parse_grid("1e-13:5e-13:1e-13") == [1e-13, 2e-13, 3e-13,
                                                     4e-13, 5e-13]
    assert cli._parse_grid("1.4e-12:1.4e-12:1") == [1.4e-12]


@pytest.mark.parametrize("grid", [
    "0.1:inf:0.1", "0.1:1e300:1e-300", "0.5:0.5:inf", "nan:0.5:0.1",
    "-inf:0.5:0.1", "0.1:0.5:nan", "0.1:0.9:1e-9", "0.1:0.9", "a:b:c",
    "0.1,x",
])
def test_grid_non_finite_or_oversized_is_usage_error(capsys, grid):
    code, _, err = run_cli(capsys, "curve", "--grid", grid)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_unwritable_out_path_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "no" / "such" / "dir" / "x.json")
    for argv in (
        ["speed", "geom:0.5", "--len", "3", "--max-letter", "3"],
        ["curve", "--grid", "0.5", "--len", "3", "--max-letter", "3"],
    ):
        code, _, err = run_cli(capsys, *argv, "--out", missing)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1


def test_unwritable_out_path_fails_before_any_work(tmp_path, capsys,
                                                   monkeypatch):
    def no_work(*_args, **_kwargs):
        raise AssertionError("enumerated before checking --out")

    monkeypatch.setattr(series, "enumerate_minimal", no_work)
    missing = str(tmp_path / "no" / "such" / "dir" / "x.json")
    code, out, err = run_cli(
        capsys, "speed", "geom:0.5", "--len", "3", "--max-letter", "3",
        "--out", missing,
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert run_cli(capsys, "classify", "1,2", "--out", str(tmp_path))[0] == 1


def test_failed_run_leaves_existing_out_file_untouched(tmp_path, capsys):
    out_path = tmp_path / "perfect.json"
    out_path.write_text("previous result\n")
    code, _, _ = run_cli(
        capsys, "perfect", "geom:0.5", "-K", "4", "--replicas", "10",
        "--max-horizon", "1", "--out", str(out_path),
    )
    assert code == 3
    assert out_path.read_text() == "previous result\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["perfect.json"]


def test_out_through_symlink_writes_its_target(tmp_path, capsys):
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    code, out, _ = run_cli(capsys, "classify", "1,2", "--out", str(link))
    assert code == 0
    assert link.is_symlink() and target.read_text() == out


# ---------------------------------------------------------------------------
# simulate / perfect / begraph
# ---------------------------------------------------------------------------


def test_simulate_record_and_determinism(tmp_path, capsys):
    args = ("simulate", "geom:0.6", "--steps", "20000", "--seed", "5")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run_cli(capsys, *args, "--out", str(out_a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    record = json.loads(out_a.read_text())
    assert record["op"] == "simulate"
    assert record["seed"] == 5
    assert 0.0 <= record["estimate"] <= 1.0
    assert record["params"]["steps"] == 20000


def test_simulate_custom_start(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "geom:0.9", "--steps", "1000",
        "--start", '{"front": 2, "window": [3, 1]}',
    )
    assert code == 0
    assert "speed_estimate=" in out


def test_simulate_malformed_start_is_usage_error(capsys):
    for start in (
        '{"front": 0}',
        '{"window": [1]}',
        '{"front": "0", "window": [1]}',
        '{"front": 0, "window": 3}',
        '{"front": 0, "window": [1, "x"]}',
        '[0, [1]]',
    ):
        code, _, err = run_cli(
            capsys, "simulate", "geom:0.5", "--steps", "10", "--start", start,
        )
        assert code == 1
        assert err.startswith("error: ")


def test_simulate_out_of_memory_is_a_limit():
    # letters saturate near 2^62: placing one is refused before any
    # allocation, so this costs nothing
    proc = subprocess.run(
        [sys.executable, "-m", "infinitebin.cli", "simulate", "geom:1e-320",
         "--steps", "10"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == cli.EXIT_LIMIT
    assert proc.stderr == ("limit exceeded: out of memory under the letter "
                           "law geom:1e-320\n")


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("argv, patched, message", [
    (["curve", "--grid", "0.5"], "curve", "limit exceeded: out of memory\n"),
    (["speed", "geom:0.5"], "enumerate_minimal",
     "limit exceeded: out of memory under the letter law geom:0.5\n"),
], ids=["curve", "speed"])
def test_out_of_memory_is_a_limit(capsys, monkeypatch, argv, patched,
                                  message):
    # in process: a command with no letter law names none
    monkeypatch.setattr(series, patched, _out_of_memory)
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_LIMIT and out == ""
    assert err == message


def test_perfect_record_includes_histogram(tmp_path, capsys):
    out_path = tmp_path / "perfect.json"
    code, out, _ = run_cli(
        capsys, "perfect", "geom:0.6", "-K", "2", "--replicas", "50",
        "--estimate", "--seed", "3", "--out", str(out_path),
    )
    assert code == 0
    assert "scenery[replica 0]=" in out
    record = json.loads(out_path.read_text())
    assert record["op"] == "perfect"
    assert record["params"]["K"] == 2
    assert sum(c for _, c in record["tau_histogram"]) == 50
    assert record["estimate"] is not None and 0 <= record["estimate"] <= 1


def test_perfect_draws_each_replica_once(tmp_path, capsys, monkeypatch):
    calls = []
    draw = simulate.perfect_sample

    def counting(*args, **kwargs):
        calls.append(kwargs.get("replica"))
        return draw(*args, **kwargs)

    monkeypatch.setattr(simulate, "perfect_sample", counting)
    code, _, _ = run_cli(
        capsys, "perfect", "geom:0.5", "-K", "2", "--replicas", "50",
        "--estimate", "--seed", "3", "--out", str(tmp_path / "p.json"),
    )
    assert code == 0
    assert sorted(calls) == list(range(50))


def test_perfect_record_matches_library_estimators(tmp_path, capsys):
    out_path = tmp_path / "perfect.json"
    code, _, _ = run_cli(
        capsys, "perfect", "geom:0.5", "-K", "2", "--replicas", "200",
        "--estimate", "--seed", "4", "--out", str(out_path),
    )
    assert code == 0
    record = json.loads(out_path.read_text())
    mu = parse_mu("geom:0.5")
    estimate, stderr = simulate.stationary_speed(mu, 200, 2, 4)
    tail = simulate.tau_tail(mu, 2, 200, 4)
    assert (record["estimate"], record["stderr"]) == (estimate, stderr)
    assert record["tau_histogram"] == [[t, c] for t, c in tail.histogram()]


def test_perfect_horizon_limit_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "perfect", "geom:0.5", "--replicas", "30",
        "--max-horizon", "1", "--seed", "1",
    )
    assert code == 3
    assert "limit" in err.lower()


def test_perfect_depth_past_horizon_exits_3_before_any_draw(capsys,
                                                           monkeypatch):
    # the tracker certifies at most one bin per letter, so depth K needs
    # at least K past letters
    def no_draw(*args, **kwargs):
        raise AssertionError("perfect drew for a depth past its horizon")

    monkeypatch.setattr(rng, "first_uniforms", no_draw)
    code, out, err = run_cli(capsys, "perfect", "geom:0.5", "-K", "3000000",
                             "--max-horizon", "2097152")
    assert code == 3 and out == ""
    assert "no depth-3000000 coupling certified within 2097152" in err
    assert "needs at least 3000000 past letters" in err
    assert "degenerate" not in err


def test_perfect_without_letter_one_exits_3_before_any_draw(capsys,
                                                           monkeypatch):
    # the tracker certifies nothing before a letter 1, so a law with no
    # mass there is refused at once; it once folded 2^24 letters (3.7 CPU
    # s, 612 MB) and then asked for a longer horizon
    def no_draw(*args, **kwargs):
        raise AssertionError("perfect drew for a law with no letter 1")

    monkeypatch.setattr(rng, "first_uniforms", no_draw)
    t0 = time.process_time()
    code, out, err = run_cli(capsys, "perfect", "finite:0,0.5,0.5",
                             "--replicas", "1")
    assert time.process_time() - t0 < 0.1
    assert code == 3 and out == ""
    assert "certifies nothing until a letter 1 arrives" in err
    assert "finite:0,0.5,0.5 gives letter 1 no mass" in err
    assert "max_horizon" not in err


def test_perfect_rejects_blocked_point_mass(capsys):
    assert run_cli(capsys, "perfect", "dirac:2")[0] == 1


@pytest.mark.parametrize("K", ["0", "-1000000000"])
def test_perfect_rejects_bad_depth_before_any_draw(capsys, monkeypatch, K):
    def no_draw(*args, **kwargs):
        raise AssertionError("perfect drew before checking K")

    monkeypatch.setattr(rng, "first_uniforms", no_draw)
    code, out, err = run_cli(capsys, "perfect", "geom:0.5", "-K", K)
    assert code == 1 and out == ""
    assert err.startswith("error: scenery depth K must be >= 1")


@pytest.mark.parametrize("argv, module, drawer", [
    (["perfect", "geom:0.5"], simulate, "perfect_sample"),
    (["begraph", "--p", "0.5", "--n", "10"], begraph, "longest_path"),
])
def test_replica_count_past_stream_limit_fails_before_any_draw(
        capsys, monkeypatch, argv, module, drawer):
    def no_draw(*args, **kwargs):
        raise AssertionError(f"{drawer} ran before the replica check")

    monkeypatch.setattr(module, drawer, no_draw)
    monkeypatch.setattr(rng, "stream", no_draw)  # every sampler opens one
    code, out, err = run_cli(capsys, *argv, "--replicas", str(2**32 + 1))
    assert code == 1 and out == ""
    assert err.startswith("error: replicas must be") and err.count("\n") == 1
    assert "Traceback" not in err


def test_begraph_estimate_csv(tmp_path, capsys):
    out_path = tmp_path / "be.csv"
    code, out, _ = run_cli(
        capsys, "begraph", "--p", "0.5", "--n", "2000", "--replicas", "4",
        "--out", str(out_path),
    )
    assert code == 0
    assert "C(0.5)" in out
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "p,n,estimate,stderr,replicas,seed"
    fields = lines[1].split(",")
    assert fields[0] == "0.5" and fields[1] == "2000" and fields[4] == "4"


def test_begraph_trajectory_record(tmp_path, capsys):
    out_path = tmp_path / "traj.json"
    code, _, _ = run_cli(
        capsys, "begraph", "--p", "0.4", "--n", "300", "--trajectory",
        "--out", str(out_path),
    )
    assert code == 0
    record = json.loads(out_path.read_text())
    assert record["op"] == "begraph"
    assert len(record["params"]["trajectory"]) == 300
    assert record["estimate"] == record["params"]["trajectory"][-1] / 300


# ---------------------------------------------------------------------------
# global behavior
# ---------------------------------------------------------------------------


def test_verify_report_is_pinned(tmp_path, capsys, monkeypatch):
    # SHA-256 of the whole --out report: any change in the forward or
    # stationary replica statistics, or in the gates, shows here.  The
    # report's brackets are run at the engine's defaults and at the
    # earlier default state cap of 50,000 with no width budget.  Both
    # digests moved when the stationary leg went to depth-4 samples, again
    # when unif:2 and unif:3 took their ends from the closed graph, again
    # when the geom brackets took their upper ends from the truncated law,
    # and again when they took both ends from the closed graphs of their
    # lazy and truncated laws; since then no end of the report's brackets
    # comes from the level loop, so the state cap leaves it unchanged.
    path = tmp_path / "verify.json"
    for cap, digest in [
        (None, "1ac9cd1b17bf1fac1224208df10759dd864b73bba92982920c59f30a816e7bff"),
        (50_000, "1ac9cd1b17bf1fac1224208df10759dd864b73bba92982920c59f30a816e7bff"),
    ]:
        if cap is not None:
            monkeypatch.setattr(enumeration, "_MAX_STATES", cap)
            monkeypatch.setattr(enumeration, "_PRUNE_SHARE", 0.0)
        code = cli.main(["verify", "--budget", "1s", "--seed", "0",
                         "--out", str(path)])
        capsys.readouterr()
        assert code == cli.EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, cap


def test_verify_stationary_leg_is_the_library_estimator(tmp_path, capsys):
    # verify adds nothing to the stationary estimator: each law's record is
    # stationary_speed at depth 4 over the budget's samples (the floor of
    # 500 at 1s), bit for bit
    path = tmp_path / "verify.json"
    code, _, _ = run_cli(capsys, "verify", "--budget", "1s", "--seed", "0",
                         "--out", str(path))
    assert code == cli.EXIT_OK
    results = json.loads(path.read_text())["results"]
    assert [r["mu"] for r in results] == list(cli.VERIFY_PANEL)
    for r in results:
        estimate, stderr = simulate.stationary_speed(
            parse_mu(r["mu"]), 500, 4, 0)
        assert r["stationary"] == {"estimate": estimate, "stderr": stderr,
                                   "samples": 500, "K": 4}, r["mu"]


@pytest.mark.parametrize("budget", ["10m", "0s"])
def test_verify_bad_budget_is_usage_error(capsys, budget):
    code, out, err = run_cli(capsys, "verify", "--budget", budget)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1


def test_bad_thread_count(capsys):
    assert run_cli(capsys, "verify", "--threads", "0")[0] == 1


#: The options each command used to accept without reading them.
_UNREAD_OPTIONS = [
    (["classify", "1"], "--seed", "3"),
    (["classify", "1"], "--threads", "2"),
    (["classify", "1"], "--store", "F"),
    (["speed", "geom:0.5"], "--seed", "3"),
    (["speed", "geom:0.5"], "--threads", "2"),
    (["speed", "geom:0.5"], "--store", "F"),
    (["curve", "--grid", "0.5"], "--seed", "3"),
    (["curve", "--grid", "0.5"], "--threads", "8"),
    (["curve", "--grid", "0.5"], "--store", "F"),
    (["simulate", "geom:0.5", "--steps", "10"], "--threads", "2"),
    (["simulate", "geom:0.5", "--steps", "10"], "--store", "F"),
    (["perfect", "geom:0.5"], "--threads", "2"),
    (["perfect", "geom:0.5"], "--store", "F"),
    (["begraph", "--p", "0.5"], "--threads", "2"),
    (["begraph", "--p", "0.5"], "--store", "F"),
    (["verify"], "--store", "F"),
]


@pytest.mark.parametrize("argv, flag, value", _UNREAD_OPTIONS,
                         ids=[f"{a[0]}{f}" for a, f, _ in _UNREAD_OPTIONS])
def test_unread_option_is_refused_before_any_work(tmp_path, capsys, argv,
                                                  flag, value):
    out_path = tmp_path / "old.txt"
    out_path.write_text("previous result\n")
    code, out, err = run_cli(capsys, *argv, flag, value,
                             "--out", str(out_path))
    assert code == 1 and out == ""
    assert err.startswith("error: unrecognized arguments: " + flag)
    assert "Traceback" not in err
    assert out_path.read_bytes() == b"previous result\n"
    assert [p.name for p in tmp_path.iterdir()] == ["old.txt"]


def test_parser_takes_only_read_options():
    # verify --threads is the one option no command reads: benchmark
    # scripts and acceptance criterion 9 pass it
    subparsers = cli.build_parser()._subparsers._group_actions[0]
    options = {
        name: sorted(action.option_strings[0] for action in sub._actions
                     if action.option_strings and action.dest != "help")
        for name, sub in subparsers.choices.items()
    }
    assert options == {
        "classify": ["--out"],
        "speed": ["--len", "--max-letter", "--out"],
        "curve": ["--grid", "--len", "--max-letter", "--out"],
        "simulate": ["--out", "--seed", "--start", "--steps"],
        "perfect": ["--estimate", "--max-horizon", "--out", "--replicas",
                    "--seed", "-K"],
        "begraph": ["--n", "--out", "--p", "--replicas", "--seed",
                    "--trajectory"],
        "verify": ["--budget", "--out", "--seed", "--threads"],
    }
    assert sum(map(len, options.values())) == 28


@pytest.mark.parametrize("replicas", ["5", "10"])
def test_begraph_trajectory_excludes_replicas(capsys, replicas):
    code, out, err = run_cli(capsys, "begraph", "--p", "0.5", "--n", "10",
                             "--trajectory", "--replicas", replicas)
    assert code == 1 and out == ""
    assert "not allowed with argument" in err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "infinitebin.cli", "classify", "2,2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "neither" in proc.stdout

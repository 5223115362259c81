"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``; the
same information is in the assertion messages) and states its numeric
tolerance inline.  Frozen values marked REGRESSION were measured on the
first verified run of this implementation and guard against drift; the
surrounding inequalities are the substantive checks.
"""

import itertools
import math
import time

import infinitebin as ib
from infinitebin import cli
from infinitebin.core import MINIMAL_CONFIG
from infinitebin.distributions import Dirac, Geometric, Uniform

E = math.e

_bracket_cache: dict = {}


def bracket_12(mu):
    """Shared (L=12, A=12) bracket at default engine options."""
    key = mu.describe()
    if key not in _bracket_cache:
        _bracket_cache[key] = ib.enumerate_minimal(mu, 12, 12)
    return _bracket_cache[key]


def report(criterion: str, passed: bool, detail: str) -> str:
    line = f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}"
    print(line)
    return line


# ---------------------------------------------------------------------------


def test_criterion_1_golden_word_facts():
    t0 = time.monotonic()
    checks = {
        "(1) good": ib.classify((1,)).verdict == "good",
        "(1,) minimal": ib.classify((1,)).minimal is True,
        "(1,1) good": ib.classify((1, 1)).verdict == "good",
        "(1,1) not minimal": ib.classify((1, 1)).minimal is False,
        "(1,2) bad minimal": ib.classify((1, 2)) == ib.Classification("bad", True),
        "(2,1,2) bad not minimal": ib.classify((2, 1, 2))
        == ib.Classification("bad", False),
        "(2,2) neither": ib.classify((2, 2)).verdict == "neither",
        "c(2,3,2,2)=1": ib.coupling_number((2, 3, 2, 2)) == 1,
        "c(2,3,2,2,5)=0": ib.coupling_number((2, 3, 2, 2, 5)) == 0,
    }
    elapsed = time.monotonic() - t0
    failed = [k for k, ok in checks.items() if not ok]
    line = report(
        "criterion 1 (golden word facts, exact, < 1 s)",
        not failed and elapsed < 1.0,
        f"9 exact facts, elapsed {elapsed:.3f}s",
    )
    assert not failed, line + f" failed: {failed}"
    assert elapsed < 1.0, line


def test_criterion_2_exhaustive_suffix_sweep():
    t0 = time.monotonic()
    words = [
        w
        for n in range(1, 8)
        for w in itertools.product((1, 2, 3), repeat=n)
    ]
    assert len(words) == 3279
    verdicts = {w: ib.classify(w).verdict for w in words}

    # (a) suffix law: a good word never has a bad strict suffix and
    #     conversely (exact, no tolerance).
    for w, v in verdicts.items():
        for cut in range(1, len(w)):
            sv = verdicts[w[cut:]]
            assert not (v == "good" and sv == "bad"), (w,)
            assert not (v == "bad" and sv == "good"), (w,)

    # (b) tracker certificate never exceeds the exact coupling number.
    coupling = {w: ib.coupling_number(w) for w in words}
    for w in words:
        assert ib.tracker_run(w).depth <= coupling[w], (w,)

    # (c) append-one-letter inequalities for every (word, letter) pair:
    #     the coupling number drops by at most 1, and never drops when the
    #     appended letter is within the certified count.
    for w in words:
        cw = coupling[w]
        for a in (1, 2, 3):
            extended = w + (a,)
            ce = coupling.get(extended)
            if ce is None:
                ce = ib.coupling_number(extended)
            assert ce >= cw - 1, (w, a)
            if a <= cw:
                assert ce >= cw, (w, a)

    elapsed = time.monotonic() - t0
    line = report(
        "criterion 2 (suffix law + tracker bound + append inequalities, < 30 s)",
        elapsed < 30.0,
        f"3279 words x 3 letters, exact checks, elapsed {elapsed:.1f}s",
    )
    assert elapsed < 30.0, line


def test_criterion_3_mass_identity_and_tightening():
    t0 = time.monotonic()
    mu = Geometric(0.7)
    b12 = bracket_12(mu)
    b14 = ib.enumerate_minimal(mu, 14, 14)
    identity_err_12 = abs(b12.good_mass + b12.bad_mass + b12.frontier_mass - 1.0)
    identity_err_14 = abs(b14.good_mass + b14.bad_mass + b14.frontier_mass - 1.0)
    elapsed = time.monotonic() - t0
    line = report(
        "criterion 3 (mass identity ± 1e-9, frontier strictly shrinks, < 2 min)",
        identity_err_12 <= 1e-9
        and identity_err_14 <= 1e-9
        and b14.frontier_mass < b12.frontier_mass
        and elapsed < 120.0,
        f"identity errors {identity_err_12:.2e}/{identity_err_14:.2e}, "
        f"frontier {b12.frontier_mass:.3e} -> {b14.frontier_mass:.3e}, "
        f"elapsed {elapsed:.1f}s",
    )
    assert identity_err_12 <= 1e-9, line
    assert identity_err_14 <= 1e-9, line
    assert b14.frontier_mass < b12.frontier_mass, line
    # REGRESSION (frozen from first verified run): resolved mass at (12,12)
    assert b12.good_mass + b12.bad_mass >= 0.999992, line
    assert elapsed < 120.0, line


def test_criterion_4_estimator_consistency_triangle():
    t0 = time.monotonic()
    panel = [Geometric(0.5), Geometric(0.8), Uniform(2), Uniform(3)]
    failures = []
    widths = {}
    for mu in panel:
        bracket = bracket_12(mu)
        widths[mu.describe()] = bracket.width

        speeds = [
            ib.run_forward(mu, MINIMAL_CONFIG, 10**6, seed=0, replica=r).speed_estimate
            for r in range(30)
        ]
        fw = sum(speeds) / len(speeds)
        fw_se = math.sqrt(
            sum((x - fw) ** 2 for x in speeds) / (len(speeds) - 1) / len(speeds)
        )
        st, st_se = ib.stationary_speed(mu, 100_000, K=1, seed=0)

        # mutual 3-sigma consistency of all three estimates
        if not (bracket.lower - 3 * fw_se <= fw <= bracket.upper + 3 * fw_se):
            failures.append(f"{mu.describe()} forward {fw:.6f} vs bracket")
        if not (bracket.lower - 3 * st_se <= st <= bracket.upper + 3 * st_se):
            failures.append(f"{mu.describe()} stationary {st:.6f} vs bracket")
        if abs(fw - st) > 3 * math.sqrt(fw_se**2 + st_se**2):
            failures.append(
                f"{mu.describe()} forward {fw:.6f} vs stationary {st:.6f}"
            )

    elapsed = time.monotonic() - t0
    narrow = widths["geom:0.8"] < 0.05 and widths["unif:2"] < 0.05
    line = report(
        "criterion 4 (bracket/forward/stationary mutually 3-sigma consistent; "
        "L=12 widths < 0.05; < 15 min)",
        not failures and narrow and elapsed < 900.0,
        f"widths geom:0.8={widths['geom:0.8']:.2e} unif:2={widths['unif:2']:.2e}, "
        f"elapsed {elapsed:.0f}s",
    )
    assert not failures, line + f" violations: {failures}"
    assert narrow, line
    # REGRESSION (frozen): the same widths stay well under the 0.05 line
    assert widths["geom:0.8"] < 1e-5, line
    assert widths["unif:2"] < 1e-3, line
    assert elapsed < 900.0, line


def test_criterion_5_longest_path_agreement():
    t0 = time.monotonic()
    failures = []
    # (a) growth rate inside the series bracket at 3 sigma
    for p in (0.5, 0.8):
        bracket = bracket_12(Geometric(p))
        est, se = ib.estimate_C(p, n=10**5, replicas=50, seed=0)
        if not (bracket.lower - 3 * se <= est <= bracket.upper + 3 * se):
            failures.append(f"C({p})={est:.6f} outside {bracket}")

    # (b) full graph: exactly 1 - 1/n (no tolerance)
    n = 10**5
    exact, exact_se = ib.estimate_C(1.0, n=n, replicas=2, seed=0)
    if exact != 1.0 - 1.0 / n or exact_se != 0.0:
        failures.append(f"p=1 gave {exact}")

    # (c) graph-front trajectories match the bin process at 3 sigma
    for p in (0.3, 0.7):
        n, reps = 20_000, 12
        graph_rates = [
            ib.longest_path(n, p, seed=0, replica=r).L_n / n for r in range(reps)
        ]
        chain_rates = [
            ib.run_forward(Geometric(p), MINIMAL_CONFIG, n, seed=0, replica=r
                           ).speed_estimate
            for r in range(reps)
        ]
        gm = sum(graph_rates) / reps
        cm = sum(chain_rates) / reps
        gv = sum((x - gm) ** 2 for x in graph_rates) / (reps - 1)
        cv = sum((x - cm) ** 2 for x in chain_rates) / (reps - 1)
        se = math.sqrt((gv + cv) / reps)
        if abs(gm - cm) > 3 * se:
            failures.append(f"fk p={p}: graph {gm:.5f} vs chain {cm:.5f}")

    elapsed = time.monotonic() - t0
    line = report(
        "criterion 5 (longest-path rate in bracket at 3 sigma; p=1 exact; "
        "trajectory vs chain at 3 sigma; < 10 min)",
        not failures and elapsed < 600.0,
        f"elapsed {elapsed:.0f}s",
    )
    assert not failures, line + f" violations: {failures}"
    assert elapsed < 600.0, line


def test_criterion_6_known_exact_speeds():
    stats1 = ib.run_forward(Dirac(1), MINIMAL_CONFIG, 100_000, seed=0)
    stats2 = ib.run_forward(Dirac(2), MINIMAL_CONFIG, 10**6, seed=0)
    bracket = ib.enumerate_minimal(Geometric(1.0), 8, 8)
    ok = (
        stats1.speed_estimate == 1.0
        and abs(stats2.speed_estimate - 0.5) <= 0.01
        and (bracket.lower, bracket.upper) == (1.0, 1.0)
    )
    line = report(
        "criterion 6 (point-mass speeds: 1 exact, 1/2 ± 0.01; "
        "geometric(1) series = 1 exact)",
        ok,
        f"dirac1={stats1.speed_estimate} dirac2={stats2.speed_estimate:.6f} "
        f"geom1=[{bracket.lower},{bracket.upper}]",
    )
    assert stats1.speed_estimate == 1.0, line
    assert abs(stats2.speed_estimate - 0.5) <= 0.01, line
    assert (bracket.lower, bracket.upper) == (1.0, 1.0), line


def test_criterion_7_uniform_law_scaled_bound():
    # The substantive check is the sandwich: the scaled lower bound sits
    # below the limit constant e and the scaled upper bound above it.  A
    # cap-free exact enumeration shows the length-12 partial sum cannot
    # put k*lower above ~1.41 for this law (most good mass resolves at
    # far longer words), so the regression band is frozen from the first
    # verified run at default engine options rather than set near e.
    t0 = time.monotonic()
    bracket = ib.uniform_speed_terms(10, 12)
    scaled_lower = 10 * bracket.lower
    scaled_upper = 10 * bracket.upper
    elapsed = time.monotonic() - t0
    band = (1.15, 1.30)  # REGRESSION: measured 1.2117 at default options
    ok = scaled_lower <= E <= scaled_upper and band[0] < scaled_lower < band[1]
    line = report(
        "criterion 7 (k*lower <= e <= k*upper at k=10, L=12; frozen band "
        f"{band} for k*lower)",
        ok,
        f"k*lower={scaled_lower:.4f} k*upper={scaled_upper:.4f} e={E:.4f}, "
        f"elapsed {elapsed:.0f}s",
    )
    assert scaled_lower <= E <= scaled_upper, line
    assert band[0] < scaled_lower < band[1], line


def test_criterion_8_coupling_time_tail():
    t0 = time.monotonic()
    tail = ib.tau_tail(Geometric(0.5), 1, 10_000, seed=0)
    ns = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    surv = [tail.survival(n) for n in ns]
    monotone = all(a >= b for a, b in zip(surv, surv[1:]))
    s8, s32, s64, s256 = (tail.survival(n) for n in (8, 32, 64, 256))
    # "log-survival decreases by at least a factor 2 from 64 to 256"
    # formalized as S(256) <= S(64)^2 (vacuous-safe when S(64) = 0); the
    # same at (8, 32) keeps the check non-vacuous for this law, whose tail
    # dies out before 64 (REGRESSION: S(64) <= 0.001, median <= 2).
    fast_decay = s256 <= s64**2 + 1e-12 and s32 <= s8**2 + 1e-12
    elapsed = time.monotonic() - t0
    ok = monotone and fast_decay and s64 <= 0.001 and tail.median <= 2.0
    line = report(
        "criterion 8 (tau survival monotone; squared-decay over a 4x horizon "
        "step; < 5 min)",
        ok and elapsed < 300.0,
        f"survival(8/32/64/256)={s8:.4f}/{s32:.4f}/{s64:.4f}/{s256:.4f}, "
        f"median={tail.median:g}, elapsed {elapsed:.0f}s",
    )
    assert monotone, line
    assert fast_decay, line
    assert s64 <= 0.001, line
    assert tail.median <= 2.0, line
    assert elapsed < 300.0, line


def test_criterion_9_verify_is_thread_deterministic(tmp_path, capsys):
    args = ["verify", "--budget", "8s", "--seed", "0"]
    out1 = tmp_path / "verify-t1.json"
    out4 = tmp_path / "verify-t4.json"
    code1 = cli.main(args + ["--threads", "1", "--out", str(out1)])
    code4 = cli.main(args + ["--threads", "4", "--out", str(out4)])
    stdout = capsys.readouterr().out
    identical = out1.read_bytes() == out4.read_bytes()
    line = report(
        "criterion 9 (verify with --threads 1 vs 4: byte-identical output, "
        "all checks pass)",
        identical and code1 == 0 and code4 == 0,
        f"exit codes {code1}/{code4}, {out1.stat().st_size} bytes",
    )
    assert code1 == 0 and code4 == 0, line + "\n" + stdout
    assert identical, line

"""Command-line interface.

Subcommands
-----------
classify   verdict, minimality, and coupling diagnostics for one word
speed      certified two-sided speed bracket for a letter law
curve      bracket the growth-rate curve C(p) over a grid of p values
simulate   forward Monte Carlo speed estimate
perfect    exact stationary samples via coupling from the past
begraph    longest-path growth rate in the random directed graph
verify     cross-check the three estimators against each other

Each command accepts only the options it reads and is deterministic given
them, ``--seed`` included where it draws random numbers.  ``verify
--threads`` is accepted for compatibility and has no effect: every command
runs on one thread.  ``--out`` is checked before the command does any work
and written atomically: a command that fails leaves the file already at
that path as it was.  Exit codes: 0 success, 1 usage error, 2 verification
failure, 3 size, horizon or memory limit exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

from infinitebin import begraph, series, simulate, words
from infinitebin.core import MINIMAL_CONFIG, Configuration
from infinitebin.distributions import parse_mu
from infinitebin.simulate import CouplingHorizonError
from infinitebin.words import SizeLimitError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_LIMIT = 3

#: Largest letter for which the exact coupling number is computed by the
#: classify command (cost grows like 2^letter).
_EXACT_COUPLING_LETTER_CAP = 12

#: Most points a start:stop:step grid may have.
_MAX_GRID_POINTS = 10**6

#: The verification panel: two geometric and two uniform laws.
VERIFY_PANEL = ("geom:0.5", "geom:0.8", "unif:2", "unif:3")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises instead of calling sys.exit(2)."""

    def error(self, message):
        raise _UsageError(message)


@contextlib.contextmanager
def _atomic_out(path):
    """The --out stream, opened before the command runs; None without --out.

    An absent path or a regular file is written through a temp file beside
    it, which replaces it when the command returns and is deleted if the
    command raises, so a failed run leaves the old file as it was.  A
    symlink, pipe or device (``/dev/stdout``) is written in place.  Either
    way an unwritable path fails before any work.
    """
    if path is None:
        yield None
        return
    in_place = os.path.islink(path) or (
        os.path.exists(path) and not os.path.isfile(path)
    )
    tmp = path if in_place else f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write --out {path}: {exc.strerror}") from exc
    try:
        with fh:
            yield fh
        if not in_place:
            os.replace(tmp, path)
    finally:
        if not in_place:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def _write_record(out, op, mu_desc, params, estimate, stderr, seed,
                  tau_histogram):
    """Write one JSON result record with the fixed key set as a line."""
    record = {
        "op": op,
        "mu": mu_desc,
        "params": params,
        "estimate": estimate,
        "stderr": stderr,
        "seed": seed,
        "tau_histogram": tau_histogram,
    }
    out.write(json.dumps(record, sort_keys=False) + "\n")


def _parse_word(text):
    try:
        word = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad word {text!r}: {exc}") from exc
    if any(a < 1 for a in word):
        raise _UsageError(f"letters must be >= 1, got {text!r}")
    return word


def _parse_grid(text):
    """Grid spec: 'start:stop:step' or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise _UsageError(f"bad grid {text!r}: want start:stop:step")
        try:
            start, stop, step = (float(x) for x in parts)
        except ValueError as exc:
            raise _UsageError(f"bad grid {text!r}: {exc}") from exc
        if not all(map(math.isfinite, (start, stop, step))):
            raise _UsageError(f"bad grid {text!r}: need finite values")
        if step <= 0 or stop < start:
            raise _UsageError(f"bad grid {text!r}: need step > 0, stop >= start")
        # the 1e-9 forgives rounding in the division without passing stop
        span = (stop - start) / step + 1e-9
        if not span < _MAX_GRID_POINTS:  # also an overflow to inf
            raise _UsageError(
                f"bad grid {text!r}: more than {_MAX_GRID_POINTS} points")
        count = math.floor(span) + 1
        return [float(f"{start + i * step:.12g}") for i in range(count)]
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"bad grid {text!r}: {exc}") from exc


def _parse_budget(text):
    raw = text[:-1] if text.endswith("s") else text
    try:
        value = int(raw)
    except ValueError as exc:
        raise _UsageError(f"bad budget {text!r}: want seconds like '60s'") from exc
    if value < 1:
        raise _UsageError("budget must be at least 1 second")
    return value


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args, out):
    word = _parse_word(args.word)
    result = words.classify(word)
    verdict = result.verdict
    if result.minimal is True:
        verdict += ", minimal"
    elif result.minimal is False:
        verdict += ", not minimal"
    tracker_depth = words.tracker_run(word).depth
    if max(word) <= _EXACT_COUPLING_LETTER_CAP:
        coupling = f"coupling_number={words.coupling_number(word)}"
    else:
        coupling = f"coupling_number>={tracker_depth} (tracker bound only)"
    lines = [
        f"word {','.join(map(str, word))}: {verdict}",
        f"horizon={words.horizon(word)} tracker_depth={tracker_depth} {coupling}",
    ]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out is not None:
        out.write(text)
    return EXIT_OK


def cmd_speed(args, out):
    mu = parse_mu(args.mu)
    bracket = series.enumerate_minimal(mu, args.len, args.max_letter)
    sys.stdout.write(str(bracket) + "\n")
    if out is not None:
        record = dataclasses.asdict(bracket)
        params = {**record.pop("params"), **record}
        _write_record(
            out, "speed", mu.describe(), params,
            bracket.midpoint, 0.5 * bracket.width, None, None,
        )
    return EXIT_OK


def cmd_curve(args, out):
    grid = _parse_grid(args.grid)
    rows = series.curve(grid, args.len, args.max_letter)
    fh = sys.stdout if out is None else out
    fh.write("p,lower,upper,L,A,rounding_bound\n")
    for row in rows:
        fh.write(
            f"{row.p:.10g},{row.lower:.17g},{row.upper:.17g},"
            f"{args.len},{args.max_letter},{row.rounding_bound:.17g}\n"
        )
    return EXIT_OK


def cmd_simulate(args, out):
    mu = parse_mu(args.mu)
    start = (
        Configuration.from_json(args.start)
        if args.start is not None
        else MINIMAL_CONFIG
    )
    stats = simulate.run_forward(mu, start, args.steps, args.seed)
    sys.stdout.write(
        f"speed_estimate={stats.speed_estimate:.9f} "
        f"stderr={stats.stderr:.3e} front_final={stats.front_final} "
        f"steps={stats.steps} seed={stats.seed}\n"
    )
    if out is not None:
        _write_record(
            out, "simulate", mu.describe(),
            {"steps": args.steps, "start": start.to_json()},
            stats.speed_estimate, stats.stderr, args.seed, None,
        )
    return EXIT_OK


def cmd_perfect(args, out):
    mu = parse_mu(args.mu)
    samples = simulate.perfect_samples(
        mu, args.K, args.replicas, args.seed, max_horizon=args.max_horizon
    )
    tail = simulate.TauTail(taus=tuple(s.tau for s in samples))
    first = samples[0]
    sys.stdout.write(
        f"scenery[replica 0]={list(first.scenery)} tau={first.tau} "
        f"median_tau={tail.median:g} replicas={args.replicas}\n"
    )
    estimate = stderr = None
    if args.estimate:
        estimate, stderr = simulate.front_hit_rate(mu, samples)
        sys.stdout.write(
            f"stationary_speed={estimate:.9f} stderr={stderr:.3e}\n"
        )
    if out is not None:
        hist = [[int(t), int(c)] for t, c in tail.histogram()]
        _write_record(
            out, "perfect", mu.describe(),
            {
                "K": args.K,
                "replicas": args.replicas,
                "max_horizon": args.max_horizon,
                "scenery_first": list(first.scenery),
                "tau_first": first.tau,
            },
            estimate, stderr, args.seed, hist,
        )
    return EXIT_OK


def cmd_begraph(args, out):
    if args.trajectory:
        fronts = begraph.fk_coupling_trajectory(args.n, args.p, args.seed)
        terminal = int(fronts[-1])
        sys.stdout.write(
            f"longest_path={terminal} n={args.n} p={args.p:g} "
            f"rate={terminal / args.n:.9f}\n"
        )
        if out is not None:
            _write_record(
                out, "begraph", None,
                {
                    "n": args.n,
                    "p": args.p,
                    "trajectory": [int(f) for f in fronts],
                },
                terminal / args.n, None, args.seed, None,
            )
        return EXIT_OK
    estimate, stderr = begraph.estimate_C(
        args.p, n=args.n, replicas=args.replicas, seed=args.seed
    )
    sys.stdout.write(
        f"C({args.p:g}) ~ {estimate:.9f} stderr={stderr:.3e} "
        f"(n={args.n}, replicas={args.replicas})\n"
    )
    if out is not None:
        out.write("p,n,estimate,stderr,replicas,seed\n")
        out.write(
            f"{args.p:.10g},{args.n},{estimate:.17g},{stderr:.17g},"
            f"{args.replicas},{args.seed}\n"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


#: Forward replicas per verified law.
_FORWARD_REPLICAS = 5

#: Scenery depth of the stationary leg's perfect samples, each scored over
#: its 4 certified bins.  A depth-4 draw costs at most about two depth-1
#: draws, so the leg draws half the samples per budget: at the 10s budget
#: on a 2-vCPU Xeon, stderr² x CPU s of the four panel laws came out
#: 8-28x smaller than with twice as many depth-1 samples.
_STATIONARY_K = 4

#: Two-sided 99.73% Student-t quantile (the coverage of "3 sigma") at the
#: 4 degrees of freedom of a stderr estimated from the 5 forward replicas.
_T_GATE = 6.62


def _verify_one(spec, args, steps, samples, bracket_len):
    mu = parse_mu(spec)
    bracket = series.enumerate_minimal(mu, bracket_len, bracket_len)

    fw_mean, fw_se = simulate._mean_stderr([
        simulate.run_forward(
            mu, MINIMAL_CONFIG, steps, args.seed, replica=replica
        ).speed_estimate
        for replica in range(_FORWARD_REPLICAS)
    ])

    st_mean, st_se = simulate.stationary_speed(
        mu, samples, _STATIONARY_K, args.seed
    )
    floor = simulate.speed_floor(mu)
    # The forward stderr is estimated from few replicas, so the 99.73%
    # two-sided gate needs the Student-t quantile, not the normal 3; the
    # stationary stderr is estimated from hundreds of samples or more, so
    # the normal 3 serves.
    fw_tol = _T_GATE * fw_se
    st_tol = 3 * st_se
    slack = bracket.rounding_bound

    def in_bracket(estimate, tol):
        return (bracket.lower - tol - slack <= estimate
                <= bracket.upper + tol + slack)

    checks = {
        "bracket_sane": 0.0 <= bracket.lower <= bracket.upper <= 1.0,
        "forward_in_bracket": in_bracket(fw_mean, fw_tol),
        "stationary_in_bracket": in_bracket(st_mean, st_tol),
        "estimators_agree": (
            abs(fw_mean - st_mean) <= math.hypot(fw_tol, st_tol) + 1e-12
        ),
        "above_floor": fw_mean >= floor - fw_tol,
    }
    return {
        "mu": mu.describe(),
        "bracket": {
            "lower": bracket.lower,
            "upper": bracket.upper,
            "width": bracket.width,
            "L": bracket_len,
            "A": bracket_len,
        },
        "forward": {"estimate": fw_mean, "stderr": fw_se, "steps": steps,
                    "seeds": _FORWARD_REPLICAS},
        "stationary": {"estimate": st_mean, "stderr": st_se,
                       "samples": samples, "K": _STATIONARY_K},
        "floor": floor,
        "checks": checks,
        "pass": all(checks.values()),
    }


def cmd_verify(args, out):
    if args.threads < 1:
        raise _UsageError("--threads must be >= 1")
    budget = _parse_budget(args.budget)
    scale = budget / 60.0
    steps = max(2_000, int(100_000 * scale))
    samples = max(500, int(10_000 * scale))
    bracket_len = 10
    results = [
        _verify_one(spec, args, steps, samples, bracket_len)
        for spec in VERIFY_PANEL
    ]
    report = {
        "op": "verify",
        "panel": "default",
        "budget_s": budget,
        "seed": args.seed,
        "results": results,
        "pass": all(r["pass"] for r in results),
    }
    for r in results:
        status = "PASS" if r["pass"] else "FAIL"
        sys.stdout.write(
            f"{status} mu={r['mu']} "
            f"bracket=[{r['bracket']['lower']:.6f},{r['bracket']['upper']:.6f}] "
            f"forward={r['forward']['estimate']:.6f} "
            f"stationary={r['stationary']['estimate']:.6f}\n"
        )
    sys.stdout.write(("VERIFY PASS" if report["pass"] else "VERIFY FAIL") + "\n")
    if out is not None:
        out.write(json.dumps(report, sort_keys=False) + "\n")
    return EXIT_OK if report["pass"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    # each command takes only the options it reads
    out = _Parser(add_help=False)
    out.add_argument("--out", type=str, default=None,
                     help="write the structured result to this path")
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=int, default=0,
                      help="master seed (default 0)")

    parser = _Parser(
        prog="infinitebin",
        description="Infinite-bin model: word calculus, certified speed "
                    "brackets, perfect simulation, and longest-path growth.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("classify", parents=[out],
                       help="classify one word (comma-separated letters)")
    p.add_argument("word", help="e.g. 2,3,2,2")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("speed", parents=[out],
                       help="certified speed bracket for a letter law")
    p.add_argument("mu", help="geom:p | unif:k | dirac:k | finite:p1,p2,...")
    p.add_argument("--len", type=int, default=12,
                   help="maximum word length (default 12)")
    p.add_argument("--max-letter", type=int, default=12,
                   help="maximum letter (default 12); letters past 16, the "
                        "depth cap, are priced as alphabet tail")
    p.set_defaults(func=cmd_speed)

    p = sub.add_parser("curve", parents=[out],
                       help="bracket C(p) on a grid of p values (CSV)")
    p.add_argument("--grid", required=True,
                   help="start:stop:step or comma-separated p values")
    p.add_argument("--len", type=int, default=10,
                   help="maximum word length (default 10)")
    p.add_argument("--max-letter", type=int, default=10,
                   help="maximum letter (default 10); letters past 16, the "
                        "depth cap, are priced as alphabet tail")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("simulate", parents=[out, seed],
                       help="forward Monte Carlo speed estimate")
    p.add_argument("mu", help="letter law spec")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--start", type=str, default=None,
                   help="start configuration as JSON (default: minimal)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("perfect", parents=[out, seed],
                       help="perfect stationary samples via coupling "
                            "from the past")
    p.add_argument("mu", help="letter law spec")
    p.add_argument("-K", type=int, default=1,
                   help="scenery depth (default 1)")
    p.add_argument("--replicas", type=int, default=100)
    p.add_argument("--max-horizon", type=int,
                   default=simulate.DEFAULT_MAX_HORIZON)
    p.add_argument("--estimate", action="store_true",
                   help="also estimate the stationary speed, scoring "
                        "each sample over its first "
                        f"min(K, {simulate._LOOKAHEAD}) bins")
    p.set_defaults(func=cmd_perfect)

    p = sub.add_parser("begraph", parents=[out, seed],
                       help="longest-path growth in the random graph")
    p.add_argument("--p", type=float, required=True,
                   help="edge probability in (0, 1]")
    p.add_argument("--n", type=int, default=100_000)
    one_run = p.add_mutually_exclusive_group()
    # argparse sees a conflict only in a value that is not the default
    # object; a str default, converted by type, keeps --replicas 10 one
    one_run.add_argument("--replicas", type=int, default="10")
    one_run.add_argument("--trajectory", action="store_true",
                         help="emit the front trajectory of one coupled run")
    p.set_defaults(func=cmd_begraph)

    p = sub.add_parser("verify", parents=[out, seed],
                       help="cross-check bracket, forward MC, and perfect "
                            "sampling on four fixed laws")
    p.add_argument("--budget", type=str, default="60s",
                   help="work scale like '60s', not a time limit: sample "
                        "sizes grow with it deterministically")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect "
                        "(verify runs on one thread)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        with _atomic_out(args.out) as out:
            return args.func(args, out)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (SizeLimitError, CouplingHorizonError) as exc:
        sys.stderr.write(f"limit exceeded: {exc}\n")
        return EXIT_LIMIT
    except MemoryError:
        # geom:p at tiny p draws letters near 2^62, each placing that many bins
        law = getattr(args, "mu", None)
        where = f" under the letter law {law}" if law else ""
        sys.stderr.write(f"limit exceeded: out of memory{where}\n")
        return EXIT_LIMIT
    except (ValueError, OSError) as exc:  # OSError: unwritable --out path
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

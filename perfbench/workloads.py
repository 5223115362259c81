"""The benchmark's workloads: fixed lists of CLI invocations and their checks.

Each workload is run as a user runs it, one ``infinitebin`` invocation per
fresh process, and every output is checked.  A check reads the invocation's
``--out`` file (and stdout where the verdict is printed there) and raises
``CheckFailed`` when the output is wrong; otherwise it returns the answer
whose precision the benchmark prices: a bracket ``width`` or an estimator
``stderr``.

Why these four (one line each is also in BENCHMARK.json):

- bracket:  the mass engine with float weights and state-cap pruning does
  nearly all the work; simulate, words and core sit idle.
- curve:    the same level loop with integer-count weights and many small
  (depth, exponent) buckets, so a change that helps masses but slows
  counts shows here.
- sampling: core, distributions, rng, words, simulate and begraph; no
  enumeration at all.  Low p makes the class-max sampler scan more classes.
- verify:   the only workload that drives the cli thread pool and its
  blocked stationary loop; about a quarter brackets, the rest sampling.
"""

from __future__ import annotations

import csv
import io
import json
import math
import pathlib
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent

#: Monte Carlo estimates must fall within this many standard errors of the
#: certified reference interval (false alarm below 1e-6 per estimate).
MC_SIGMAS = 5.0
#: verify's forward stderr comes from 5 replicas (Student t, 4 dof), so its
#: estimates get a wider allowance with the same false-alarm rate.
VERIFY_FORWARD_SIGMAS = 12.0


class CheckFailed(Exception):
    """An invocation's output is wrong."""


@dataclass(frozen=True)
class Invocation:
    """One CLI run: ``key`` names it in reports, ``argv`` follows the program
    name (without ``--out``), ``check(stdout, out_text, refs)`` validates it."""

    key: str
    argv: tuple
    check: object


def load_references() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _overlaps(lower, upper, slack, refs, spec) -> None:
    ref = refs[spec]
    pad = slack + ref["rounding_bound"]
    _require(lower <= ref["upper"] + pad and upper >= ref["lower"] - pad,
             f"{spec} bracket [{lower}, {upper}] misses the reference "
             f"[{ref['lower']}, {ref['upper']}]")


def _near(estimate, stderr, refs, spec, sigmas=MC_SIGMAS) -> None:
    ref = refs[spec]
    _require(math.isfinite(estimate) and stderr > 0.0,
             f"{spec}: estimate {estimate} with stderr {stderr}")
    gap = max(ref["lower"] - estimate, estimate - ref["upper"], 0.0)
    _require(gap <= sigmas * stderr + ref["rounding_bound"],
             f"{spec}: estimate {estimate} is {gap / stderr:.1f} stderr "
             f"outside the reference [{ref['lower']}, {ref['upper']}]")


def check_speed(stdout, text, refs):
    rec = json.loads(text)
    p = rec["params"]
    lower, upper, rb = p["lower"], p["upper"], p["rounding_bound"]
    _require(lower <= upper, f"lower {lower} > upper {upper}")
    total = p["good_mass"] + p["bad_mass"] + p["frontier_mass"]
    _require(abs(total - 1.0) <= rb,
             f"good+bad+frontier = {total!r}, off 1 by more than {rb}")
    _overlaps(lower, upper, rb, refs, rec["mu"])
    return {"width": upper - lower}


def check_curve(stdout, text, refs):
    rows = list(csv.DictReader(io.StringIO(text)))
    _require(len(rows) > 0, "curve printed no rows")
    width = 0.0
    for row in rows:
        lower, upper = float(row["lower"]), float(row["upper"])
        _require(lower <= upper, f"p={row['p']}: lower {lower} > upper {upper}")
        spec = f"geom:{float(row['p']):g}"
        if spec in refs:
            _overlaps(lower, upper, float(row["rounding_bound"]), refs, spec)
        width = max(width, upper - lower)
    _require("geom:0.5" in {f"geom:{float(r['p']):g}" for r in rows},
             "curve grid lacks p=0.5")
    return {"width": width}


def check_simulate(stdout, text, refs):
    rec = json.loads(text)
    _near(rec["estimate"], rec["stderr"], refs, rec["mu"])
    return {"stderr": rec["stderr"]}


def check_perfect(stdout, text, refs):
    rec = json.loads(text)
    hist = rec["tau_histogram"]
    _require(sum(c for _t, c in hist) == rec["params"]["replicas"],
             "tau histogram does not count every replica")
    _near(rec["estimate"], rec["stderr"], refs, rec["mu"])
    return {"stderr": rec["stderr"]}


def check_begraph(stdout, text, refs):
    (row,) = csv.DictReader(io.StringIO(text))
    estimate, stderr = float(row["estimate"]), float(row["stderr"])
    _near(estimate, stderr, refs, f"geom:{float(row['p']):g}")
    return {"stderr": stderr}


def check_verify(stdout, text, refs):
    _require("VERIFY PASS" in stdout.splitlines(), "verify did not pass")
    rec = json.loads(text)
    _require(rec["pass"] is True, "verify --out records a failure")
    answers = {}
    for r in rec["results"]:
        spec, b = r["mu"], r["bracket"]
        _require(b["lower"] <= b["upper"], f"{spec}: lower > upper")
        _overlaps(b["lower"], b["upper"], 0.0, refs, spec)
        fw, st = r["forward"], r["stationary"]
        _near(fw["estimate"], fw["stderr"], refs, spec, VERIFY_FORWARD_SIGMAS)
        _near(st["estimate"], st["stderr"], refs, spec)
        answers[f"{spec}.width"] = b["width"]
        answers[f"{spec}.forward_stderr"] = fw["stderr"]
        answers[f"{spec}.stationary_stderr"] = st["stderr"]
    return answers


#: verify's pass/fail gates are 99.73% per check, a dozen checks per run, so
#: about one seed in a hundred fails by chance (1 of 120 seeds at --budget
#: 10s).  The workload runs verify as a user does, at its default seed 0.
VERIFY_SEED = 0

SIZES = {
    "full": {
        "bound": "10", "steps": "250000", "replicas": "2000",
        "graph_n": "5000", "graph_replicas": "40", "budget": "20s",
    },
    "smoke": {
        "bound": "6", "steps": "20000", "replicas": "200",
        "graph_n": "2000", "graph_replicas": "10", "budget": "1s",
    },
}


def argv_of(key: str, z: dict, seed: int) -> tuple:
    """CLI arguments of invocation ``key`` at sizes ``z`` and seed ``seed``."""
    s = ("--seed", str(seed))
    graph = ("--n", z["graph_n"], "--replicas", z["graph_replicas"])
    return {
        "speed": ("speed", "geom:0.5", "--len", z["bound"],
                  "--max-letter", z["bound"]),
        "curve": ("curve", "--grid", "0.1:0.9:0.1", "--len", z["bound"],
                  "--max-letter", z["bound"]),
        "simulate": ("simulate", "geom:0.5", "--steps", z["steps"]) + s,
        "perfect": ("perfect", "geom:0.5", "-K", "4", "--replicas",
                    z["replicas"], "--estimate") + s,
        "begraph.p0_5": ("begraph", "--p", "0.5") + graph + s,
        "begraph.p0_1": ("begraph", "--p", "0.1") + graph + s,
        "verify": ("verify", "--budget", z["budget"], "--threads", "2",
                   "--seed", str(VERIFY_SEED)),
    }[key]


CHECKS = {
    "speed": check_speed, "curve": check_curve, "simulate": check_simulate,
    "perfect": check_perfect, "begraph.p0_5": check_begraph,
    "begraph.p0_1": check_begraph, "verify": check_verify,
}

#: Invocations of one pass, per workload.
WORKLOADS = {
    "bracket": ("speed",),
    "curve": ("curve",),
    "sampling": ("simulate", "perfect", "begraph.p0_5", "begraph.p0_1"),
    "verify": ("verify",),
}
NAMES = tuple(WORKLOADS)

#: Every workload's letter law; the layer timings of a traced run draw
#: their tapes from it.
LAW = "geom:0.5"


def invocations(workload: str, seed: int, size: str = "full") -> list:
    """The workload's invocations for one pass; ``seed`` is that pass's
    Monte Carlo seed (brackets and curves do not depend on it)."""
    return [Invocation(key, argv_of(key, SIZES[size], seed), CHECKS[key])
            for key in WORKLOADS[workload]]


def pass_seed(seed: int, index: int) -> int:
    """Monte Carlo seed of pass ``index`` of a run with workload seed
    ``seed``: passes differ, and the same run seed repeats them all."""
    return (seed << 16) | index


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def answer_costs(answers: dict, walls: dict) -> dict:
    """Answer-per-second metrics of the invocations run, all lower-is-better.

    ``answers[key]`` lists the answer dicts of invocation ``key`` over the
    passes and ``walls[key]`` its median wall seconds.  A bracket costs
    width x seconds and an estimator stderr^2 x seconds (ROADMAP's measure
    of a better answer per CPU second); squared stderrs are averaged over
    the passes, whose seeds differ, before multiplying.  ``answer_cost_s``
    is the geometric mean of one cost per invocation.
    """

    def mean_sq(key, field="stderr"):
        return sum(a[field] ** 2 for a in answers[key]) / len(answers[key])

    out, per_invocation = {}, []
    if "speed" in answers:
        out["bracket.width"] = answers["speed"][0]["width"]
        out["bracket.width_x_s"] = out["bracket.width"] * walls["speed"]
        per_invocation.append(out["bracket.width_x_s"])
    if "curve" in answers:
        out["curve.width_max"] = answers["curve"][0]["width"]
        out["curve.width_x_s"] = out["curve.width_max"] * walls["curve"]
        per_invocation.append(out["curve.width_x_s"])
    if "simulate" in answers:
        out["forward.stderr2_x_s"] = mean_sq("simulate") * walls["simulate"]
        per_invocation.append(out["forward.stderr2_x_s"])
    if "perfect" in answers:
        out["stationary.stderr2_x_s"] = mean_sq("perfect") * walls["perfect"]
        per_invocation.append(out["stationary.stderr2_x_s"])
    graph = [k for k in ("begraph.p0_5", "begraph.p0_1") if k in answers]
    for key in graph:
        name = f"begraph.stderr2_x_s.{key.split('.')[1]}"
        out[name] = mean_sq(key) * walls[key]
        per_invocation.append(out[name])
    if graph:
        out["begraph.stderr2_x_s"] = geomean(
            out[f"begraph.stderr2_x_s.{k.split('.')[1]}"] for k in graph)
    if "verify" in answers:
        # verify runs at a fixed seed, so every pass prints the same answers
        first, wall = answers["verify"][0], walls["verify"]
        laws = sorted({k.rsplit(".", 1)[0] for k in first})
        for group, field, power in (("bracket", "width", 1),
                                    ("forward", "forward_stderr", 2),
                                    ("stationary", "stationary_stderr", 2)):
            out[f"verify.{group}.x_s"] = geomean(
                first[f"{m}.{field}"] ** power * wall for m in laws)
        out["verify.answer_x_s"] = geomean(
            out[f"verify.{g}.x_s"] for g in ("bracket", "forward",
                                             "stationary"))
        per_invocation.append(out["verify.answer_x_s"])
    out["answer_cost_s"] = geomean(per_invocation)
    return out

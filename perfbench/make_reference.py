"""Compute the certified reference intervals the benchmark checks against.

Run once from the repository root (takes a few minutes):

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes ``perfbench/reference.json``.  Each entry is a certified bracket
at larger truncation bounds than any workload uses; a correct program's
brackets must overlap it and its Monte Carlo estimates must fall within a
few standard errors of it.
"""

import json
import pathlib
import time

from infinitebin import series
from infinitebin.distributions import parse_mu

HERE = pathlib.Path(__file__).resolve().parent

#: (law, L = A) for the speed brackets.
SPEEDS = (("geom:0.5", 14), ("geom:0.8", 14), ("unif:2", 20), ("unif:3", 16))
#: The C(p) curve grid and bound; its rows give references for geom:p.
CURVE_GRID = [round(0.1 * i, 12) for i in range(1, 10)]
CURVE_BOUND = 13


def _entry(lower, upper, rounding_bound, bound, source):
    return {"lower": lower, "upper": upper, "rounding_bound": rounding_bound,
            "L": bound, "A": bound, "source": source}


def main():
    refs = {}
    for spec, bound in SPEEDS:
        t0 = time.perf_counter()
        b = series.enumerate_minimal(parse_mu(spec), bound, bound)
        refs[spec] = _entry(b.lower, b.upper, b.rounding_bound, bound, "speed")
        print(f"{spec} L=A={bound}: [{b.lower!r}, {b.upper!r}] "
              f"{time.perf_counter() - t0:.1f}s", flush=True)
    t0 = time.perf_counter()
    for row in series.curve(CURVE_GRID, CURVE_BOUND, CURVE_BOUND):
        spec = f"geom:{row.p:g}"
        if spec not in refs:
            refs[spec] = _entry(row.lower, row.upper, row.rounding_bound,
                                CURVE_BOUND, "curve")
    print(f"curve L=A={CURVE_BOUND}: {time.perf_counter() - t0:.1f}s")
    (HERE / "reference.json").write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

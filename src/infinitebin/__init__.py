"""Infinite-bin model toolkit.

Balls live in integer-indexed bins; every bin at or below the front (the
rightmost non-empty bin) is non-empty.  One move adds a ball immediately to
the right of the k-th rightmost ball.  This package provides:

- exact configurations and move dynamics (:mod:`infinitebin.core`),
- move-rank distributions and seeded letter streams
  (:mod:`infinitebin.distributions`, :mod:`infinitebin.rng`),
- the word calculus: good/bad/neither classification, coupling numbers, and
  the determined-scenery tracker (:mod:`infinitebin.words`),
- certified two-sided brackets for the front speed and the growth-rate
  curve, via stopping-tree enumeration (:mod:`infinitebin.series`),
- forward Monte Carlo and coupling-from-the-past perfect sampling
  (:mod:`infinitebin.simulate`),
- random-DAG longest-path estimation coupled to the bin process
  (:mod:`infinitebin.begraph`),
- a command-line front end (:mod:`infinitebin.cli`).
"""

from infinitebin.core import Configuration, MINIMAL_CONFIG
from infinitebin.distributions import (
    Dirac,
    FiniteSupport,
    Geometric,
    MoveDistribution,
    Uniform,
    parse_mu,
)
from infinitebin.words import (
    GOOD,
    BAD,
    NEITHER,
    Classification,
    SizeLimitError,
    TrackerState,
    classify,
    coupling_number,
    horizon,
    is_x_good,
    test_set,
    tracker_run,
)
from infinitebin.series import (
    CurveRow,
    SpeedBracket,
    curve,
    enumerate_minimal,
    uniform_speed_terms,
)
from infinitebin.simulate import (
    CouplingHorizonError,
    PerfectSample,
    RunStats,
    TauTail,
    perfect_sample,
    run_forward,
    speed_floor,
    stationary_speed,
    tau_tail,
)
from infinitebin.begraph import (
    LongestPathRun,
    estimate_C,
    fk_coupling_trajectory,
    longest_path,
)

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "MINIMAL_CONFIG",
    "MoveDistribution",
    "Geometric",
    "Uniform",
    "Dirac",
    "FiniteSupport",
    "parse_mu",
    "GOOD",
    "BAD",
    "NEITHER",
    "Classification",
    "SizeLimitError",
    "TrackerState",
    "classify",
    "coupling_number",
    "horizon",
    "is_x_good",
    "test_set",
    "tracker_run",
    "SpeedBracket",
    "CurveRow",
    "enumerate_minimal",
    "curve",
    "uniform_speed_terms",
    "RunStats",
    "PerfectSample",
    "TauTail",
    "CouplingHorizonError",
    "run_forward",
    "perfect_sample",
    "speed_floor",
    "stationary_speed",
    "tau_tail",
    "LongestPathRun",
    "longest_path",
    "estimate_C",
    "fk_coupling_trajectory",
    "__version__",
]

"""Longest paths in random directed graphs, coupled to the bin process."""

from infinitebin import (
    enumerate_minimal,
    estimate_C,
    fk_coupling_trajectory,
    longest_path,
    run_forward,
)
from infinitebin.core import MINIMAL_CONFIG
from infinitebin.distributions import Geometric

# Vertices 1..n, each pair i<j linked with probability p, edges oriented
# upward.  L_n / n converges to the same constant as the geometric(p)
# front speed.

p = 0.5
for n in (100, 1_000, 10_000):
    run = longest_path(n, p, seed=3)
    print(f"n={n:6d}: L_n = {run.L_n}  L_n/n = {run.L_n / n:.4f}")

print()

est, se = estimate_C(p, n=20_000, replicas=10, seed=3)
bracket = enumerate_minimal(Geometric(p), 12, 12)
print(f"estimate_C(0.5)  : {est:.5f} +- {se:.5f}")
print(f"series bracket   : [{bracket.lower:.5f}, {bracket.upper:.5f}]")

print()

# Each vertex is a ball in the bin of its longest-path length, so the
# graph is sampled as a bin process run (letters clamped at the vertex
# count); the trajectory of the running maximum matches a forward
# simulation step for step in law.
n = 20_000
traj = fk_coupling_trajectory(n, p, seed=3)
ibm = run_forward(Geometric(p), MINIMAL_CONFIG, n, seed=3)
print(f"graph front after {n} vertices : {traj[-1]}")
print(f"bin-process front after {n} steps: {ibm.front_final}")
print(f"rates {traj[-1] / n:.4f} vs {ibm.speed_estimate:.4f}")

# Same seed, same graph: the trajectory terminal equals longest_path.
run = longest_path(n, p, seed=3)
print(f"trajectory terminal == L_n: {traj[-1] == run.L_n}")

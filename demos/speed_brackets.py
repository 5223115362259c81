"""Rigorous speed brackets from minimal-word mass, and the C(p) curve."""

import math

from infinitebin import curve, enumerate_minimal, uniform_speed_terms
from infinitebin.distributions import Geometric, Uniform

# Good minimal words push the front; bad minimal words provably do not.
# Their mass splits the unit interval, and whatever is still unresolved
# at the length cutoff becomes a certified two-sided bracket on the speed.

mu = Geometric(0.7)
for L in (4, 8, 12):
    b = enumerate_minimal(mu, L, L)
    print(
        f"geom(0.7) L={L:2d}: speed in [{b.lower:.8f}, {b.upper:.8f}]"
        f"  width {b.width:.2e}"
    )

b = enumerate_minimal(mu, 12, 12)
mass = b.good_mass + b.bad_mass + b.frontier_mass
print(f"mass identity: good + bad + frontier = {mass:.12f}")

print()

# Same engine, several laws.  Letters in {1..5} close the state graph,
# so the uniform laws' brackets hold their exact speeds, 2/3 and 24/47,
# to about 1e-14 at any length cutoff.
for mu in (Geometric(0.5), Uniform(2), Uniform(3)):
    b = enumerate_minimal(mu, 12, 12)
    print(f"{mu.describe():9s}: [{b.lower:.6f}, {b.upper:.6f}]"
          f"  width {b.width:.1e}  ({b.lower_from}/{b.upper_from})")

print()

# For edge density p the growth rate C(p) equals the speed under the
# geometric(p) law; one enumeration prices the whole grid.  At low p the
# lazy-law and first-moment bounds of infinitebin.series set the ends.
grid = [0.1 * j for j in range(1, 10)]
print("p      lower     upper")
for row in curve(grid, max_len=10, max_letter=10):
    print(f"{row.p:.1f}  {row.lower:.6f}  {row.upper:.6f}")

print()

# Uniform letters on {1..k}: k times the speed approaches e as k grows.
for k in (2, 5, 10):
    b = uniform_speed_terms(k, 12)
    print(
        f"k={k:2d}: k*speed in [{k * b.lower:.4f}, {k * b.upper:.4f}]"
        f"   (e = {math.e:.4f})"
    )

"""Perfect simulation of the stationary front neighborhood."""

from infinitebin import (
    enumerate_minimal,
    perfect_sample,
    run_forward,
    stationary_speed,
    tau_tail,
)
from infinitebin.core import MINIMAL_CONFIG
from infinitebin.distributions import Geometric

mu = Geometric(0.7)

# Coupling from the past: replay ever-longer letter histories until the
# tracker pins down the K bins behind the front; the result is an exact
# draw from the stationary law, no burn-in heuristics.
print("five perfect draws of the 4 front bins (front bin first):")
for replica in range(5):
    s = perfect_sample(mu, K=4, seed=7, replica=replica)
    print(f"  replica {replica}: scenery {s.scenery}  (history length {s.tau})")

print()

# The needed history length tau has an exponential-looking tail.
tail = tau_tail(mu, K=1, replicas=4000, seed=7)
print("tau histogram (horizon: count):")
for h, c in tail.histogram():
    print(f"  {h:4d}: {c}")
print(f"median tau = {tail.median:g}")
print("survival at 8/16/32:", tail.survival(8), tail.survival(16),
      tail.survival(32))

print()

# The speed is the chance a stationary front bin absorbs the next move:
# each draw is scored with mu([1, c]) for its front bin count c.
est, se = stationary_speed(mu, samples=20_000, K=1, seed=7)
fw = run_forward(mu, MINIMAL_CONFIG, steps=500_000, seed=7).speed_estimate
bracket = enumerate_minimal(mu, 12, 12)
print(f"stationary estimate : {est:.5f} +- {se:.5f}")
print(f"forward Monte Carlo : {fw:.5f}")
print(f"series bracket      : [{bracket.lower:.5f}, {bracket.upper:.5f}]")

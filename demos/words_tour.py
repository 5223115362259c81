"""Tour of the word calculus: verdicts, minimality, coupling depth."""

from infinitebin import (
    Configuration,
    classify,
    coupling_number,
    is_x_good,
    test_set,
    tracker_run,
)

# A word is a sequence of moves applied left to right.  Move k drops a
# new ball just right of the k-th rightmost ball; the front advances
# exactly when that target bin is empty.

for word in [(1,), (1, 1), (1, 2), (2, 1, 2), (2, 2), (3, 1, 2)]:
    c = classify(word)
    flag = {True: "minimal", False: "not minimal", None: ""}[c.minimal]
    print(f"word {word}: {c.verdict} {flag}".rstrip())

print()

# "neither" means start-dependent.  Watch (2,2) from two starts: a flat
# front bin lets the second move advance, a stacked front bin does not.
flat = Configuration(front=0, window=(1,))
stacked = Configuration(front=0, window=(2,))
print("(2,2) from flat start  :", flat.apply_word((2, 2)))
print("(2,2) from stacked start:", stacked.apply_word((2, 2)))
print("(2,2) advances from flat   :", is_x_good((2, 2), flat))
print("(2,2) advances from stacked:", is_x_good((2, 2), stacked))

print()

# Verdicts are decided on a finite test set: one start per way of
# grouping h = horizon(word) balls into front bins.
patterns = test_set(3)
print(f"test set at horizon 3 ({len(patterns)} starts):")
for x in patterns:
    print("  ", x)

print()

# The coupling number is how deep the final scenery is pinned down no
# matter where you start; the tracker certifies a lower bound online.
for word in [(1,), (1, 1), (2, 3, 2, 2), (2, 3, 2, 2, 5), (1, 1, 1, 1)]:
    exact = coupling_number(word)
    certified = tracker_run(word).depth
    print(f"word {word}: coupling number {exact}, tracker certifies {certified}")

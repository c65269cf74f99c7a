"""Fixed reference work whose duration tracks the host's momentary speed.

It pays what every qmv command pays: interpreter start-up and the numpy
import. Then it runs an interpreter-bound loop resembling exploration,
with tuple keys, dict lookups and exact fractions. It does not use qmv,
so a change to qmv cannot change it.
"""
from fractions import Fraction

import numpy  # noqa: F401  (the import is part of the reference work)

index: dict[tuple, int] = {}
acc = Fraction(0)
for i in range(288_000):
    key = (i & 255, (i >> 8) & 15, i % 7)
    if key not in index:
        index[key] = len(index)
    if i % 64 == 0:
        acc += Fraction(i % 9 + 1, 10)

"""Fixed reference program whose wall time measures the machine's speed.

It starts an interpreter, imports numpy and scipy as `refractor` does, and
runs a fixed numpy loop shaped like the sweep's node-target work.  It does
not import `refractor`, so no change to the program moves its time.  Prints
a checksum of its result.
"""

import numpy as np
import scipy.optimize  # noqa: F401
import scipy.spatial  # noqa: F401

rng = np.random.default_rng(0)
nodes = rng.standard_normal((20_000, 3))
targets = rng.standard_normal((20, 3))
total = 0.0
for _ in range(30):
    h = 1.0 / (1.5 - nodes @ targets.T)
    total += float(h.min(axis=1).sum()) + float(np.argmin(h, axis=1).sum())
print(repr(total))

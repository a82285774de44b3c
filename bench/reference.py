"""A fixed reference job that measures how fast the host runs right now.

    python3 bench/reference.py

It starts an interpreter, imports numpy and does a fixed mix of small-array
and small-object work shaped like the program's per-pair work (path
adjacency matrices, power-iteration steps, JSON rendering), without
importing tripoint.  ``run.py`` interleaves it with the program's
invocations and scales each reported time by how much slower or faster than
``run.REFERENCE_NOMINAL_S`` the reference runs next to it took: a shared
host's speed drifts by 20-40% over minutes, for this job and the program
alike, and the scaling takes most of that drift out of the comparison
between two runs.  Nothing the program does can change this job's time.
"""

import json

import numpy as np

total = 0.0
for k in range(200):
    n = 6 + k % 25
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    x = np.full(n, 1.0)
    for _ in range(20):
        y = a @ x + x
        x = y / np.linalg.norm(y)
    total += float(x @ (a @ x))
    total += len(json.dumps({"k": k, "v": [round(float(v), 6) for v in x]}))
print(total)

"""scipy is loaded only by the code that builds a k-d tree.

Each check runs in a fresh interpreter, since this test process has long
since imported scipy through other tests and the oracles.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hyperapprox

SRC = Path(hyperapprox.__file__).resolve().parents[1]

PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

import hyperapprox
out = {"import": scipy_modules()}

import numpy as np
from hyperapprox import (Multigraph, converse_experiment, fiberwise_hausdorff,
                         hoelder_check, sample_segment, scalar_bws_rate)
from hyperapprox.roots import solve_monic_batch

hoelder_check([0.5 + 0.25j, -1.0], [0.5 + 0.25j, -1.001], 2.0)
K = sample_segment(-1.0, 1.0, 41)
x = K.points[:, 0].real
coeffs = np.column_stack([0 * x, -(1.0 + 0.25 * x)]).astype(complex)
limit = Multigraph(K, solve_monic_batch(coeffs)[0], 2)
w_seq = [Multigraph(K, solve_monic_batch(coeffs + 0.1 * 0.5 ** d)[0], 2) for d in range(1, 11)]
converse_experiment(w_seq, limit)
scalar_bws_rate(np.exp(x), K, range(2, 12))
out["paths"] = scipy_modules()

fiberwise_hausdorff(limit, w_seq[0])
out["hausdorff"] = scipy_modules()
print(json.dumps(out))
"""


def test_scipy_loads_only_at_the_first_kdtree():
    proc = subprocess.run([sys.executable, "-c", PROBE], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["import"] == []
    # hoelder_check, converse on in-memory multigraphs and scalar-bws on a
    # segment build no k-d tree
    assert "scipy.spatial" not in out["paths"]
    # the graph Hausdorff distance of two distinct multigraphs builds one
    assert "scipy.spatial" in out["hausdorff"]

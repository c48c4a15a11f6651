"""The machine's current speed, from a fixed kernel that does not call reegeom.

The kernel mixes what reegeom's hot paths do: small complex eigenproblems,
Kronecker and matrix products of 2x2 and 4x4 arrays, and a Python loop.  Its
inputs are constants, so its time changes only with the machine.  On a
shared 2-core machine whose speed moves between levels up to 1.6x apart,
the time of a solve-families batch over the kernel time of the samples
around it stayed within about 5% while the batch time itself moved 50%.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_rng = np.random.default_rng(0)
_a = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))
_H = _a @ _a.conj().T
_P = [_rng.normal(size=(2, 2)) for _ in range(4)]
_SHIFT = np.eye(4) * 1e-3


def kernel() -> float:
    acc = 0.0
    for i in range(60):
        w, _ = np.linalg.eigh(_H + i * _SHIFT)
        k = np.kron(_P[i % 4], _P[(i + 1) % 4])
        acc += float(np.trace(k @ _H).real) + float(w.sum())
        acc += sum(x * x for x in range(40))
    return acc


def sample_s() -> float:
    """Seconds of the faster of two kernel runs: the first refills the caches
    the previous op used, so the op's footprint does not enter the sample."""
    times = []
    for _ in range(2):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return min(times)

"""Machine-speed reference for timings taken on a shared host.

On a host whose cores are shared with other tenants, the same pass over the
same inputs can take 1.7 times longer in one minute than in the next, and
the speed swings within seconds. Process CPU time moves with wall time, so
neither can be compared across runs as it is.

``SpeedMeter`` runs a small fixed numpy kernel, unrelated to qbeckner, right
after every timed operation, for SHARE of that operation's time. Each
operation's time is reported scaled by REFERENCE_S over the kernel's mean
time just before and just after it: seconds at the reference speed. The
kernel has the make-up of the library's hot paths: a Python loop around 3x3
complex Hermitian eigendecompositions, SVDs and products.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the time of one kernel call on the shared 2-core x86-64 virtual
# machine on which the benchmark was defined, in a quiet minute.
REFERENCE_S = 0.00025

# Share of each operation's time spent sampling the kernel after it.
SHARE = 0.08

# Bound at import, before a traced run wraps numpy's decompositions.
_eigh = np.linalg.eigh
_svd = np.linalg.svd

_rng = np.random.default_rng(20220714)
_MATS = []
for _ in range(8):
    _A = _rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3))
    _MATS.append(_A + _A.conj().T)


def kernel() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    t0 = perf_counter()
    acc = 0.0
    for A in _MATS:
        w, V = _eigh(A)
        B = (V * np.exp(0.1 * w)) @ V.conj().T
        acc += float(np.sum(_svd(B, compute_uv=False) ** 1.5))
        for k in range(8):
            acc += 0.5 * k
    return perf_counter() - t0


def mean_kernel(seconds: float) -> float:
    """Mean kernel time over at least ``seconds`` (at least one call)."""
    spent, calls = 0.0, 0
    while True:
        spent += kernel()
        calls += 1
        if spent >= seconds:
            return spent / calls


class SpeedMeter:
    """Converts measured times to reference seconds."""

    def __init__(self) -> None:
        self.last = mean_kernel(0.05)

    def reference_seconds(self, busy_s: float) -> float:
        """Sample the kernel for SHARE of ``busy_s``, just measured, and
        return ``busy_s`` in reference seconds."""
        before = self.last
        self.last = mean_kernel(SHARE * busy_s)
        return busy_s * REFERENCE_S / (0.5 * (before + self.last))

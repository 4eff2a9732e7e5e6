"""A fixed reference computation that tracks the machine's speed.

On a shared 2-vCPU machine the speed of the same code swings between a
fast and a slow state (up to 1.7x apart) that each last a few seconds.  A
run of half a minute samples only a handful of these states, so raw wall
times of identical work differ by 15-25% from run to run.

The benchmark therefore times this computation right before and right after
every operation, and reports each operation's wall time scaled to the speed
at which the reference takes REFERENCE_MS:

    corrected_ms = wall_ms * REFERENCE_MS / mean(reference before, after)

The computation is shaped like qgraph's inner loops (scalar slogdet of
small complex matrices built in Python, one batched slogdet of 32 x 32
matrices) but uses numpy only, so no change to qgraph can change it.
"""

from __future__ import annotations

import time

import numpy as np

# milliseconds the reference takes in the fast state of a 2-vCPU x86 machine
# (Python 3.11, numpy 2.4.6, OpenBLAS 0.3.31 on one thread)
REFERENCE_MS = 10.0


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.small = self._system(rng, 8)
        self.large = self._system(rng, 32)
        self.ks_small = np.linspace(1.0, 50.0, 400)
        self.ks_large = np.linspace(1.0, 50.0, 120)

    @staticmethod
    def _system(rng: np.random.Generator, n: int):
        return rng.random(n), rng.standard_normal((n, n)), np.eye(n)

    def ms(self) -> float:
        """Wall milliseconds of one pass of the reference computation."""
        t0 = time.perf_counter()
        lengths, scatter, eye = self.small
        for k in self.ks_small:
            np.linalg.slogdet(eye - np.exp(1j * k * lengths)[:, None] * scatter)
        lengths, scatter, eye = self.large
        u = np.exp(1j * self.ks_large[:, None] * lengths[None, :])[:, :, None] * scatter
        np.linalg.slogdet(eye[None] - u)
        return 1e3 * (time.perf_counter() - t0)

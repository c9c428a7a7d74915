"""Speed reference: a fixed block of work timed between ops.

A core of a shared machine does not run at one speed.  Measured on a
2-core x86 VM, the same op took from 0.22 s to 0.45 s within one minute,
in spells of a fraction of a second to half a minute.  No statistic of
raw op times over a 30 s run is steady under that.

So the worker times a block right before and right after every op, on
the same pinned core, and scales the op's wall time by
``reference_s / block time``: the op's time at the speed at which the
block takes ``reference_s``.  A slow spell does not slow every kind of
work alike, so there are two blocks, and each workload is scaled by the
one that does the kind of work its op is made of:

- ``small``: a column-by-column Cholesky and a generalized eigenproblem
  on 40x40 matrices, twelve times: per-call overhead in the interpreter,
  as in the fixed-point route;
- ``dense``: a generalized eigenproblem, an SVD and an extended-precision
  product on 120x120 matrices, twice: LAPACK work, as in the pencil route.

Over five to six 25-30 s runs per workload, the run medians of op time
over its own block's time spread by 0.004-0.03, those over the other
block's time by 0.12-0.13, and the raw medians by 0.14-0.39.

The blocks use numpy and scipy only, never the program, so a change to
the program moves the scaled time exactly as it moves the wall time.
"""

import time

import numpy as np
import scipy.linalg

#: seconds each block takes at the reference speed: about its fastest
#: time on a 2-core x86 VM (Intel Xeon, Python 3.11, numpy 2.4, OpenBLAS
#: 0.3.31 on one thread), so scaled times read as that machine's
REFERENCE_S = {"small": 0.0053, "dense": 0.0115}

SMALL, DENSE = 40, 120


def _pencil(rng, n):
    m = rng.standard_normal((n, n))
    return m + m.T, m @ m.T + n * np.eye(n)


def _cholesky_by_columns(a):
    n = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(n):
        lower[j, j] = np.sqrt(a[j, j] - lower[j, :j] @ lower[j, :j])
        lower[j + 1:, j] = (a[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
    return lower


class Calibration:
    """The reference block of ``kind`` on fixed matrices (independent of the seed)."""

    def __init__(self, kind):
        rng = np.random.default_rng(0)
        self.reference_s = REFERENCE_S[kind]
        if kind == "small":
            self.pencil = _pencil(rng, SMALL)
            self.run = self._small
        else:
            self.pencil = _pencil(rng, DENSE)
            self.ld = self.pencil[0].astype(np.longdouble)
            self.run = self._dense

    def _small(self):
        a, b = self.pencil
        for _ in range(12):
            _cholesky_by_columns(b)
            scipy.linalg.eigh(a, b)

    def _dense(self):
        for _ in range(2):
            scipy.linalg.eigh(*self.pencil)
            np.linalg.svd(self.pencil[0])
            self.ld @ self.ld[:, :20]

    def time(self):
        """Wall time of one block, in seconds."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0

    def scaled(self, seconds, before, after):
        """``seconds`` of work timed between blocks ``before`` and
        ``after``, at the reference speed."""
        return seconds * self.reference_s * 2.0 / (before + after)

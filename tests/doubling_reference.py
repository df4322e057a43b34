"""Reference quadrature for the doubling-map autocovariance.

``weakdep.variance`` reads gamma(0..K) of the three doubling observables
off the table in ``weakdep._doubling_gamma``.  This module keeps the
per-cell Gauss-Legendre quadrature that the table was written from, with
its own float forms of the observables, so the tests can check the table
against it bit for bit.
"""

from __future__ import annotations

import numpy as np

# Gauss-Legendre nodes on [0, 1], used per half-cell so that the
# half-indicator observable is integrated exactly: u-nodes covering [0, 1]
# as two half-cells, with their weights
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS
_DOUBLING_NODES = np.concatenate([0.5 * _GL_NODES, 0.5 + 0.5 * _GL_NODES])
_DOUBLING_WEIGHTS = np.concatenate([0.5 * _GL_WEIGHTS, 0.5 * _GL_WEIGHTS])


def _cos2pi(x):
    x *= 2.0 * np.pi
    return np.cos(x, out=x)


def _centered_x(x):
    x -= 0.5
    return x


def _indicator_half(x):
    return np.subtract(x < 0.5, 0.5, out=x)


# the observables on floats x in [0, 1), each in place on x, returned
OBSERVABLES = {"cos2pi": _cos2pi, "centered-x": _centered_x,
               "indicator-half": _indicator_half}

# float64 values per quadrature block: 64 KiB temporaries stay below
# glibc's default 128 KiB mmap threshold, so the allocator reuses them,
# where larger ones are mapped or trimmed and page-faulted afresh per block
_DOUBLING_BLOCK = 1 << 13


def doubling_gamma(observable: str, K: int) -> np.ndarray:
    """gamma(k) = int_0^1 f(x) f(2^k x mod 1) dx by per-cell quadrature,
    each dyadic cell split at its midpoint (where 2^k x mod 1 crosses 1/2),
    with f the named observable; lag k runs over 2^k cells.

    The cells are summed in chunks of 2^16, each chunk in cache-sized row
    blocks.  A block sits below the chunk's running column sum in one
    C-contiguous buffer, whose axis-0 sum adds row after row, so the bits
    are those of summing the whole chunk at once.  Each lag is computed on
    its own, so the table of lags 0..K is a prefix of any longer one."""
    f, u = OBSERVABLES[observable], _DOUBLING_NODES
    wfu = _DOUBLING_WEIGHTS * f(u.copy())
    chunk, rows = 1 << 16, _DOUBLING_BLOCK // len(u)
    buf = np.empty((rows + 1, len(u)))
    g = np.zeros(K + 1)
    for k in range(K + 1):
        h = 2.0 ** -k
        cells = 2 ** k
        outer = np.zeros(len(u))
        for lo in range(0, cells, chunk):
            hi = min(lo + chunk, cells)
            top = 1  # the chunk's first block has no running sum above it
            for b in range(lo, hi, rows):
                i = np.arange(b, min(b + rows, hi), dtype=np.float64)
                x = buf[1:len(i) + 1]
                np.add(i[:, None], u[None, :], out=x)
                x *= h
                f(x)
                buf[0] = buf[top:len(i) + 1].sum(axis=0)
                top = 0
            outer += buf[0]
        # gamma(k) = h * sum_g wq_g f(u_g) * sum_i f((i + u_g) h)
        g[k] = h * np.dot(wfu, outer)
    return g

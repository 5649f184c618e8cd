"""Reference work that measures the speed of the host, not of the engine.

A shared host runs the same code a third faster or slower from one minute
to the next.  The benchmark runs one chunk of this fixed work before every
job and scales its times by the run's median chunk time, so that runs in a
slow minute and in a fast one report close figures.  The work
is of the engine's kind, rational arithmetic on dicts of exponent tuples and
on matrix rows, but shares no code with it; the collector is paused while a
chunk runs, so the engine's heap does not change the chunk's time.
"""

import gc
from fractions import Fraction
from time import perf_counter

__all__ = ["REFERENCE_S", "chunk"]

# the median chunk time a run is scaled to; a chunk takes about this long on
# an unloaded 2-vCPU x86 host with CPython 3.11
REFERENCE_S = 0.012

_P = {(i, j, (i * j) % 3): Fraction(i - 2 * j + 1, j + 2) for i in range(5) for j in range(4)}
_Q = {(j, i, 1): Fraction(3 * i + 1, i + j + 1) for i in range(4) for j in range(4)}
_M = [[Fraction((3 * i * i + 5 * j + i * j) % 11 - 5, 1 + (i + j) % 4) for j in range(14)] for i in range(14)]


def _poly_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def chunk():
    """Seconds taken by one chunk of the reference work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _poly_mul(_poly_mul(_P, _Q), _Q)
        _rank(_M)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()

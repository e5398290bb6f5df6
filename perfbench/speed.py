"""How fast the machine runs right now, measured on a fixed piece of work.

The benchmark's host is shared: the same code runs 1.3 to 1.6 times slower
in some minutes than in others, and the speed moves within seconds too.
Process CPU time slows down with it, so it does not help.  What does is to
time a fixed calibration chunk often while the program runs and to scale
the program's times by the chunk's: a slow spell lengthens both alike.

The chunk is fraction-free Gaussian elimination over small integer matrices
with gcd-normalised rows: the interpreted integer arithmetic that hyparr's
pure-Python kernel does.  It lives here, not in hyparr, so no change to the
program changes it.

A time ``t`` measured while chunks took ``c`` seconds on average is reported
as ``t * REFERENCE_CHUNK_S / c``: the seconds the same work would take on a
machine that runs one chunk in ``REFERENCE_CHUNK_S``.  A faster program
lowers the figure by the same factor as its wall time; a slow spell of the
host lowers both the program and the chunks and leaves it alone.
"""

from __future__ import annotations

import random
import signal
import statistics
from math import gcd
from time import perf_counter

# Seconds one chunk takes on a shared 2-vCPU Intel Xeon VM with Python 3.11:
# the median of 2000 chunks (``python3 perfbench/speed.py``).  Only a scale:
# every scaled figure is proportional to it.
REFERENCE_CHUNK_S = 0.00159
# While a timed call runs, a timer signal runs one chunk this often.
INTERVAL_S = 0.05


def _matrices() -> list[list[list[int]]]:
    rng = random.Random(20120907)
    return [[[rng.randint(-3, 3) for _ in range(12)] for _ in range(6)] for _ in range(16)]


_MATRICES = _matrices()
_ROWS = [[0] * 12 for _ in range(6)]  # rewritten in place by every chunk


def _eliminate(matrix: list[list[int]], rows: list[list[int]]) -> int:
    """Rank of ``matrix``, worked out in ``rows`` without making a container."""
    for i in range(6):
        source, row = matrix[i], rows[i]
        for j in range(12):
            row[j] = source[j]
    rank = 0
    for col in range(12):
        pivot = -1
        for i in range(rank, 6):
            if rows[i][col]:
                pivot = i
                break
        if pivot < 0:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(6):
            row = rows[i]
            if i != rank and row[col]:
                a, b = top[col], row[col]
                g = 0
                for j in range(12):
                    v = row[j] * a - top[j] * b
                    row[j] = v
                    g = gcd(g, v)
                if g > 1:
                    for j in range(12):
                        row[j] //= g
        rank += 1
    return rank


def chunk() -> int:
    """One unit of calibration work; returns a checksum so nothing is skipped.

    It allocates no object the garbage collector tracks, so it leaves the
    allocation counts that schedule the program's collections as they were:
    a chunk that ran inside a timed call does not move its collections."""
    total = 0
    for matrix in _MATRICES:
        total += _eliminate(matrix, _ROWS)
    return total


def time_chunks(count: int) -> list[float]:
    """Seconds of each of ``count`` chunks run back to back."""
    times = []
    for _ in range(count):
        start = perf_counter()
        chunk()
        times.append(perf_counter() - start)
    return times


class Speedometer:
    """Runs a chunk on a timer signal, every ``INTERVAL_S``, while armed.

    ``seconds`` and ``samples`` add up the chunks run so far.  A caller
    brackets a timed call with two reads of them: the difference is the
    time the chunks took from the call, which it subtracts, and the chunks
    that sampled the machine's speed during the call.
    """

    def __init__(self):
        self.seconds = 0.0
        self.samples = 0

    def _tick(self, *_):
        start = perf_counter()
        chunk()
        self.seconds += perf_counter() - start
        self.samples += 1

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def scale(chunk_seconds: float, chunks: int) -> float:
    """Factor from measured seconds to reference seconds."""
    return REFERENCE_CHUNK_S / (chunk_seconds / chunks)


if __name__ == "__main__":
    times = time_chunks(2000)
    print(f"chunk median {statistics.median(times):.6f} s, "
          f"min {min(times):.6f} s over {len(times)}")

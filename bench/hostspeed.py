"""Host-speed probe: scales measured times to a reference speed.

The benchmark shares a few cores of a host with other tenants, and the
speed of a core drifts by up to half over minutes as their load comes and
goes, in CPU time as much as in wall time.  Medians over a run cannot take
out a drift that lasts longer than the run.  So the host's speed is sampled
around and during every timed operation with :func:`probe_round`, a fixed
piece of the work that dominates equilab (interpreted arithmetic and
``math`` calls), and the operation's time is scaled by ``ROUND_REF_S``
over the mean round time: seconds as they would read on a host where a
round takes ``ROUND_REF_S``.  A change to equilab moves the scaled time
just as it moves the raw time; the probe is the benchmark's code and does
not change with the program.
"""

import math
import signal
import time

# a round's time on the 2-vCPU Xeon VM the benchmark was written on, near
# its fast end; it sets the scale of every reported time
ROUND_REF_S = 0.0004
# rounds taken before and after the operation, and the interval between
# rounds taken during it (about 2 % of the operation's time)
EDGE_ROUNDS = 5
PERIOD_S = 0.02


def probe_round() -> float:
    """Seconds for a fixed round of interpreted arithmetic and ``math`` calls."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1000):
        total += math.lgamma(i % 97 + 1.5) * math.exp(-(i % 13))
    return time.perf_counter() - start


def scaled(seconds: float, round_s: float) -> float:
    """``seconds`` measured while a probe round took ``round_s``, at the
    reference speed."""
    return seconds * ROUND_REF_S / round_s


class Meter:
    """Times one operation and samples the host's speed while it runs.

    Rounds run at the edges and from a ``SIGALRM`` handler every
    ``PERIOD_S`` of wall time; the handler's own time is taken out of the
    operation's.  A handler runs between bytecodes, so a long call into C
    defers it and yields fewer samples, not wrong ones.
    """

    def __init__(self):
        self.rounds = []
        self.in_handler = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.rounds.append(probe_round())
        self.in_handler += time.perf_counter() - start

    def measure(self, operation):
        """(result of ``operation()``, its seconds without the sampling, mean
        round seconds around and during it)."""
        self.rounds, self.in_handler = [probe_round() for _ in range(EDGE_ROUNDS)], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            result = operation()
        finally:
            seconds = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds -= self.in_handler
        self.rounds += [probe_round() for _ in range(EDGE_ROUNDS)]
        return result, seconds, math.fsum(self.rounds) / len(self.rounds)

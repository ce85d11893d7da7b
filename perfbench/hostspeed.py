"""Host-speed probe for the replay benchmark.

On a shared host the same pure-Python work can take 1.3 to 2 times as long
from one minute to the next, because of what other tenants run. The
benchmark therefore times a fixed reference workload between the ticks it
measures, and scales its timings by how fast the reference ran around
them: a time is reported as it would read on a host where the reference
takes REFERENCE_NS. The reference lives in the benchmark, not in the
program, so a change to the program leaves it alone and still moves every
scaled timing by its full amount.

The reference is tuple-keyed dict lookups spread over a table of about
37 MB, far larger than the CPU's caches, because what slows the engine on a
busy host is mostly contention for the shared cache and memory: on
`monologue`, probes with a working set of a few MB or less did not follow
the engine's slowdowns and made scaled times spread more than unscaled
ones. The table is built once, on import, and its resident size is
recorded so that peak_rss_mb can leave it out.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time

# Median probe time on the host the benchmark was built on (2 vCPUs of a
# shared x86-64 host, CPython 3.11). Scaled timings read as on that host.
REFERENCE_NS = 15_000_000
PROBE_EVERY_NS = 250_000_000
_LOOKUPS = 12000


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


_rss_before = _max_rss_kb()
_rng = random.Random(0)
_TABLE = {(_rng.randrange(10 ** 6), _rng.randrange(50)): i for i in range(200_000)}
_KEYS = list(_TABLE)
_rng.shuffle(_KEYS)
TABLE_RSS_KB = _max_rss_kb() - _rss_before


def _reference_work() -> int:
    acc = 0
    get = _TABLE.get
    n = len(_KEYS)
    for j in range(_LOOKUPS):
        key = _KEYS[(j * 7919) % n]
        acc += get(key, 0) + len((key[1], j & 15))
    return acc


class HostSpeed:
    """Probe times in ns, grouped by the stretch of work they bracket."""

    def __init__(self):
        self.samples: list[int] = []
        self.spent_ns = 0  # wall time spent probing, to leave out of timings
        self._last = 0

    def probe(self):
        start = time.perf_counter_ns()
        _reference_work()
        end = time.perf_counter_ns()
        self.samples.append(end - start)
        self.spent_ns += end - start
        self._last = end

    def maybe_probe(self):
        """Probe when PROBE_EVERY_NS have passed since the last probe."""
        if time.perf_counter_ns() - self._last >= PROBE_EVERY_NS:
            self.probe()

    def slowdown(self) -> float:
        """Median probe time over REFERENCE_NS: above 1 on a slower host.
        A timing divided by it, or a rate multiplied by it, reads as on
        the reference host."""
        return statistics.median(self.samples) / REFERENCE_NS

    def local_slowdowns(self) -> list[float]:
        """Slowdown for each gap between two probes, from the two probes
        on either side of it; entry g is the gap that ends at probe g.
        Ticks are scaled by the slowdown of their own gap, so a slower
        stretch within a round scales the ticks that ran in it."""
        out = [math.nan]
        for g in range(1, len(self.samples)):
            near = self.samples[max(0, g - 2):g + 2]
            out.append(statistics.median(near) / REFERENCE_NS)
        return out

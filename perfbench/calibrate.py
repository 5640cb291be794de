"""Host-speed calibration: a fixed pure-Python spin timed beside the work.

The benchmark runs on a few vCPUs of a shared host.  Neighbours on the same
physical cores switch it between a fast and a slow state every few seconds,
and the same work then takes up to twice the CPU time (no steal involved).
A run that happens to fall in a loud stretch would read as a regression.

So every timed unit of work is bracketed by :func:`spin`, a fixed
interpreter-bound job (Dijkstra with ``heapq`` and dicts on a fixed random
graph: the same kind of work as the program's loop kernels) that belongs to
the benchmark and never changes with the program.  A unit's time is
reported in *reference seconds*:

    time * REFERENCE_S / (median of the four spins nearest the unit)

that is, what the unit would have taken on a host where :func:`spin` takes
:data:`REFERENCE_S`.  The two spins on either side follow a change of
state that lasts a few units, and their median ignores a spin that fell
in a blip shorter than the unit.  A change that makes the program do more
work still shows in full; a stretch in which the host runs everything
slower does not.  Figures are medians (or sums) over many such units.

The host can also change state in the middle of a unit that lasts
seconds, which the spins around it do not see.  So long units are sampled
from inside instead (:class:`Ticks`): every :data:`TICK_INTERVAL` of CPU
time a profiling-timer signal runs a small slice of the same job, and the
unit is

    (time - ticks' time) * mean(TICK_REFERENCE_S / each tick's time)

that is, each stretch between ticks scaled by how fast the host ran the
tick job there.  In this process that is ``time(..., sampled=True)``; a
daemon started through ``perfbench/launcher.py --ticks`` runs its own.

The host's vCPUs do not change state together: one can run at half speed
while the other does not.  So spins and ticks must run on the CPU the work
ran on.  :func:`pin` keeps the measuring process (and the daemons it
starts) on one CPU; the load generator runs on the others.
"""

import heapq
import os
import random
import signal
import statistics
import time

#: About the spin's usual CPU time on the host the benchmark was built on
#: (2-vCPU KVM guest, Xeon family 6 model 143, Python 3.11), so reference
#: seconds read about as CPU seconds there.
REFERENCE_S = 0.090

#: CPU seconds between ticks inside a sampled unit, and about the tick's
#: usual CPU time on the same host (its two sources of the spin job cost
#: about 2.5% of the spin, so ticks add about 5% to a sampled unit).
TICK_INTERVAL = 0.05
TICK_REFERENCE_S = 0.0023

_NODES = 300
_EDGES = 1200
_SOURCES = 80
_TICK_SOURCES = 2


def _graph():
    rng = random.Random(20261017)
    adjacency = [[] for _ in range(_NODES)]
    for _ in range(_EDGES):
        u, v, w = rng.randrange(_NODES), rng.randrange(_NODES), rng.random()
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    return adjacency


_ADJACENCY = _graph()


def _work(sources=_SOURCES):
    total = 0.0
    for source in range(sources):
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _ADJACENCY[u]:
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(dist.values())
    return total


def spin():
    """The CPU time one run of the fixed spin job takes."""
    started = time.process_time()
    _work()
    return time.process_time() - started


class Ticks:
    """Runs a tick every :data:`TICK_INTERVAL` of this process's CPU time.

    Between :meth:`start` and :meth:`stop`, a profiling-timer signal runs
    the tick job in the main thread and appends ``(perf_counter stamp, CPU
    seconds)`` to :attr:`ticks`.
    """

    def __init__(self):
        self.ticks = []
        self._previous = None

    def _tick(self, signum, frame):
        stamp = time.perf_counter()
        # While a process timer is armed, the process CPU clock only moves
        # at the kernel's ticks; the thread clock stays exact.
        started = time.thread_time()
        _work(_TICK_SOURCES)
        self.ticks.append((stamp, time.thread_time() - started))

    def start(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_INTERVAL, TICK_INTERVAL)

    def stop(self):
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None


def scale(ticks):
    """The reference scale of work done while ``ticks`` ran."""
    return statistics.fmean(TICK_REFERENCE_S / seconds for _, seconds in ticks)


def pin():
    """Keep this thread, and the processes it starts, on one CPU.

    Returns that CPU and the others this process may use (the CPU itself
    when there is no other).
    """
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu, [other for other in allowed if other != cpu] or [cpu]


def factors(spins):
    """The reference scale of each gap between consecutive ``spins``."""
    return [REFERENCE_S / statistics.median(spins[max(0, gap - 1):gap + 3])
            for gap in range(len(spins) - 1)]


class Calibrated:
    """Times units of work in reference seconds (see the module docstring).

    A spin follows every unit, so a run of ``n`` units costs ``n + 1``
    spins.  Units are CPU time; work done by another process (a daemon's
    CPU time) is entered with :meth:`add` once it is known.
    """

    def __init__(self):
        self.spins = [spin()]
        #: ``(kind, raw seconds, in-unit scale or None)``; unit ``i`` lies
        #: between spins ``i`` and ``i + 1``.
        self.units = []

    def add(self, kind, raw, scale=None):
        """Enter ``raw`` seconds of work just done, and spin after it."""
        self.units.append((kind, raw, scale))
        self.spins.append(spin())

    def time(self, kind, function, *args, sampled=False, **kwargs):
        """Run ``function`` as a unit of ``kind``; return its result.

        ``sampled`` units (long enough for a few ticks) are scaled by their ticks instead of the spins around them.
        """
        ticks = Ticks()
        started = time.process_time()
        if sampled:
            ticks.start()
        try:
            result = function(*args, **kwargs)
        finally:
            ticks.stop()
        raw = time.process_time() - started
        self.add(kind, raw - sum(seconds for _, seconds in ticks.ticks),
                 scale(ticks.ticks) if ticks.ticks else None)
        return result

    def reference(self, kind):
        """The units of ``kind`` in reference seconds, in the order run."""
        return [raw * (factor if scale is None else scale)
                for (name, raw, scale), factor
                in zip(self.units, factors(self.spins)) if name == kind]

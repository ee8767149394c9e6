"""Pass times scaled to a reference host speed.

On a shared host the CPU speed one process gets changes by up to a factor
of two, from one second to the next and over minutes, with CPU time equal
to wall time and no steal time reported (see README.md, "Noise").  A raw
median over a 25 s run then depends on how long the host stayed slow.

A :class:`ReferenceClock` therefore runs a fixed pure-Python probe loop
about every ``LAP_S`` seconds of timed work and scales the work timed in
between by ``REF_PROBE_S`` over the mean of the two probes that bracket
it.  The probe is the benchmark's own code, so a change to the package
moves the scaled times exactly as it moves the raw ones; only the host's
speed is divided out.  Probe time is never counted as work.

Work spread over a pool runs with every CPU busy, and a CPU's speed then
differs from its speed beside idle ones; :class:`ParallelProbe` runs the
probe on as many CPUs as the work uses.
"""

from __future__ import annotations

import multiprocessing
import time

#: probe loop length; about 4 to 8 ms on a 2.0 GHz Xeon vCPU
PROBE_LOOPS = 30_000

#: probe time at the reference speed: its time on that vCPU when unloaded
REF_PROBE_S = 0.004

#: timed work between two probes
LAP_S = 0.1


def probe() -> float:
    """Seconds of a fixed loop of integer, str and dict work.

    It allocates no object the cyclic garbage collector tracks, so its
    time does not depend on the size of the package's heap.
    """
    table = {}
    t0 = time.perf_counter()
    for i in range(PROBE_LOOPS):
        table[i & 1023] = str(i * 7)
    return time.perf_counter() - t0


def _serve(link) -> None:
    """A helper process: run the probe whenever the parent asks."""
    try:
        while link.recv():
            link.send(probe())
    except EOFError:  # the parent has gone
        pass


class ParallelProbe:
    """The probe on ``width`` CPUs at once, in this process and in
    ``width - 1`` helper processes; returns the mean of their times.

    Use as a context manager: the helpers are stopped and waited for on
    exit.  Between probes they wait on a pipe and use no CPU.
    """

    def __init__(self, width: int):
        self.width = width

    def __enter__(self) -> "ParallelProbe":
        ctx = multiprocessing.get_context("fork")
        self.links, self.helpers = [], []
        for _ in range(self.width - 1):
            mine, theirs = ctx.Pipe()
            helper = ctx.Process(target=_serve, args=(theirs,), daemon=True)
            helper.start()
            theirs.close()
            self.links.append(mine)
            self.helpers.append(helper)
        return self

    def __call__(self) -> float:
        for link in self.links:
            link.send(True)
        times = [probe()] + [link.recv() for link in self.links]
        return sum(times) / len(times)

    def __exit__(self, *exc) -> None:
        for link in self.links:
            link.send(False)
            link.close()
        for helper in self.helpers:
            helper.join()


class ReferenceClock:
    """Times the items of one pass (ideals, requests, scans) in reference
    seconds.  Call :meth:`start`, then :meth:`tick` at the end of every
    item, then :meth:`stop`."""

    def __init__(self, probe=probe, lap_s: float = LAP_S):
        self.probe = probe
        self.lap_s = lap_s

    def start(self) -> None:
        self.raw = 0.0
        self.items: list[float] = []
        self._open: list[float] = []
        self._open_s = 0.0
        self._last = self.probe()
        self._t0 = time.perf_counter()

    def tick(self) -> None:
        """End one item at the current time; probe when a lap is over."""
        took = time.perf_counter() - self._t0
        self._open.append(took)
        self._open_s += took
        if self._open_s >= self.lap_s:
            self._close_lap()
        self._t0 = time.perf_counter()

    def stop(self) -> list[float]:
        """Reference seconds of every item; ``raw`` holds their raw sum."""
        if self._open:
            self._close_lap()
        return self.items

    def _close_lap(self) -> None:
        now = self.probe()
        factor = 2 * REF_PROBE_S / (self._last + now)
        self._last = now
        self.items.extend(took * factor for took in self._open)
        self.raw += self._open_s
        self._open = []
        self._open_s = 0.0

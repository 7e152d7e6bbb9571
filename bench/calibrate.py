"""Host-speed probe of the weillab benchmark.

On a shared host the speed of one vCPU swings by up to 1.6x within a
second and drifts over minutes, and each vCPU swings on its own; the CPU
time of the same CLI call ranged 1.7-3.1 s within two minutes.  A raw
time says as much about the neighbours as about weillab.

``HostSpeed`` pins run.py and every child it starts to one CPU, and runs
a fixed piece of pure-Python work there in a background thread: trial
division, square-free parts, integer square roots, small dicts and
formatted rows, as in weillab's hot paths; about 5 ms of CPU time every
``PERIOD_S``.  It imports nothing of weillab and never changes, so its
CPU time tracks only the speed the host gives that CPU.  A measured CPU
time is divided by ``slowdown(start, end)``, the mean probe time in the
interval over ``REFERENCE_S``: the time the work would have taken at the
reference speed.  Over two minutes of consecutive CLI calls this took the
quartile spread of their CPU times from 0.33 to 0.04.

Probe and measured times are CPU times, so the probe's own slices and
any other task on that CPU do not count against the work.
"""

from __future__ import annotations

import os
import statistics
import threading
from math import gcd, isqrt
from time import perf_counter, sleep, thread_time

# about the probe time of that host's faster state (2-vCPU shared VM,
# Python 3.11); it only fixes the scale of the metrics
REFERENCE_S = 0.004
PERIOD_S = 0.05
_START = 300_001
_COUNT = 1_000
_PRIMES = tuple(p for p in range(2, isqrt(_START + _COUNT) + 2) if all(p % d for d in range(2, isqrt(p) + 1)))


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in _PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _work() -> int:
    rows: dict[tuple[int, int], str] = {}
    for n in range(_START, _START + _COUNT):
        factors = _factor(n)
        square = 1
        for p, e in factors.items():
            square *= p ** (e // 2)
        free = n // (square * square)
        rows[(n % 997, gcd(n, 360_360))] = f"{n},{free},{square},{isqrt(4 * n)},{len(factors)}"
    return len(rows)


class HostSpeed:
    """Background sampler of the probe; use as a context manager around the measured calls.

    On entry it pins the calling thread, and so every process that thread
    starts, and the sampler thread to the highest CPU this process may use.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (wall start, thread CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-speed", daemon=True)
        self._affinity = os.sched_getaffinity(0)

    def _sample(self) -> None:
        while not self._stop.is_set():
            start, cpu = perf_counter(), thread_time()
            _work()
            self.samples.append((start, thread_time() - cpu))
            self._stop.wait(max(PERIOD_S - (perf_counter() - start), 0.0))

    def __enter__(self) -> HostSpeed:
        # a thread started after this inherits the pin
        os.sched_setaffinity(0, {max(self._affinity)})
        self._thread.start()
        while not self.samples:
            sleep(PERIOD_S / 10)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time started in [start, end] over REFERENCE_S; the nearest probe's if none did."""
        inside = [cpu for t, cpu in self.samples if start <= t <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return statistics.fmean(inside) / REFERENCE_S

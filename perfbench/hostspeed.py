"""Host-speed probes that make timings comparable on a shared host.

Other tenants of a shared host slow this benchmark's work by up to 60%, in
phases that last from seconds to minutes, so a median over a 30-second run
still depends on the phase the run fell in.  A probe times a fixed piece of
work that does not involve ``targetzone`` before and after each timed
operation, and the operation's wall time is multiplied by
``REFERENCE_S[kind] / mean of the two probe times``: it is reported as the
time the operation takes when the probe takes its reference time, about
what it takes on an idle core of a 2 GHz x86-64 host.

Two probes match the two kinds of operation.  ``compute`` runs numpy and
interpreter work in-process, for operations dominated by computation;
``spawn`` starts an interpreter that imports numpy, for CLI runs dominated
by start-up.  On a 2-vCPU shared host, ``scenario_cli`` pass times spread
by 15% raw, 14% scaled by ``compute`` and 3% scaled by ``spawn``; in-process
density and sweep work over 30-second windows moved by up to 18% raw and
4% scaled by ``compute``.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

REFERENCE_S = {"compute": 0.020, "spawn": 0.110}
_A = np.random.default_rng(0).standard_normal((200, 200))


def _work() -> float:
    t0 = perf_counter()
    for _ in range(10):
        np.sin(_A @ _A)
    x = 0
    for j in range(100_000):
        x += j * j
    return perf_counter() - t0


def probe(kind: str) -> float:
    """Seconds the fixed work of ``kind`` takes now."""
    if kind == "compute":
        return min(_work() for _ in range(3))  # the fastest of three tries
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def scaled(seconds: float, probe_s: float, kind: str) -> float:
    """``seconds`` at the reference host speed, given a ``kind`` probe time."""
    return seconds * REFERENCE_S[kind] / probe_s


def scale_all(walls: list[float], probes: list[float], kind: str) -> list[tuple[float, float]]:
    """(scaled, raw) per operation; ``probes[i]`` ran before and ``probes[i + 1]`` after ``walls[i]``."""
    return [(scaled(w, 0.5 * (probes[i] + probes[i + 1]), kind), w) for i, w in enumerate(walls)]

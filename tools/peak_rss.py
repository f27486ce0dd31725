"""Print the peak RSS of each shipped figure's ``density`` run, one fresh interpreter each.

    python tools/peak_rss.py                   # this checkout
    python tools/peak_rss.py --root ../other   # another checkout

Each run is ``python -m targetzone.cli density --config <figure>`` at the
scenario's own seed, with the package imported from ``<root>/src``, one
BLAS thread and numpy's huge-page advice off (as in ``perfbench/run.py``).
The number printed is the child's own ``ru_maxrss`` from ``os.wait4``,
in MB (2^20 bytes), the median over ``RUNS`` runs.  On Linux a child's
high-water mark starts at its parent's RSS at fork, so this launcher
imports no numpy: its own RSS stays below every child's, which keeps it
out of the numbers.  The first line, ``import``, is a child that only
imports ``targetzone.cli``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

FIGURE_PREFIXES = ("fig6", "fig7", "fig8")
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "NUMPY_MADVISE_HUGEPAGE": "0"}
RUNS = 3


def peak_mb(argv: list[str], root: Path) -> float:
    """Run ``python argv`` to completion and return its own peak RSS in MB."""
    env = dict(os.environ, **ENV, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, env=env, cwd=root)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return usage.ru_maxrss / 1024.0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    args = ap.parse_args()
    root = args.root.resolve()
    figures = sorted(p for p in (root / "src/targetzone/scenarios").glob("*.json")
                     if p.stem.startswith(FIGURE_PREFIXES))
    with tempfile.TemporaryDirectory() as tmp:
        runs = [("import", ["-c", "import targetzone.cli"])] + [
            (p.stem, ["-m", "targetzone.cli", "density", "--config", str(p),
                      "--out", str(Path(tmp) / f"{p.stem}.json")])
            for p in figures
        ]
        for name, argv in runs:
            mb = statistics.median(peak_mb(argv, root) for _ in range(RUNS))
            print(f"{name} {mb:.2f}", flush=True)


if __name__ == "__main__":
    main()
